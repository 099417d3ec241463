#!/usr/bin/env python3
"""A deeper walk through the four phases on a clang-shaped workload.

Shows each phase's artifacts explicitly instead of using the one-call
API: what the build system caches, what the metadata binary carries,
what WPA computes, and what the relink reuses -- then renders the
Figure-7-style instruction heat maps for both binaries.

Run:  python examples/clang_workload.py
"""

from repro.analysis import format_bytes
from repro.core.phases import metadata_build
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.elf import SectionKind
from repro.hwmodel import record_heatmap, render_heatmap
from repro.profiles import generate_trace
from repro.synth import PRESETS, generate_workload


def main() -> None:
    program = generate_workload(PRESETS["clang"], scale=0.008, seed=7)
    config = PipelineConfig(lbr_branches=400_000, pgo_steps=150_000,
                            workers=72, enforce_ram=False)
    pipe = PropellerPipeline(program, config)

    # Phase 1+2: one PGO compile with BB address maps, linked twice --
    # the metadata binary keeps the maps, the baseline strips them.
    profile = pipe.collect_pgo_profile()
    metadata, baseline = metadata_build(pipe, profile)
    map_bytes = metadata.executable.section_sizes()["bb_addr_map"]
    print(f"phase 1+2: {len(metadata.objects)} objects compiled once; "
          f"metadata binary carries {format_bytes(map_bytes)} of BB address maps "
          f"(+{100 * (metadata.executable.total_size / baseline.executable.total_size - 1):.1f}%)")

    # Phase 3: profile the metadata binary, run WPA.
    from repro.core.wpa import analyze
    from repro.profiles import sample_lbr

    trace = generate_trace(metadata.executable, max_branches=config.lbr_branches,
                           seed=config.seed + 1, record_blocks=False)
    perf = sample_lbr(trace, period=config.lbr_period)
    wpa = analyze(metadata.executable, perf)
    print(f"phase 3: {perf.num_samples} LBR samples ({format_bytes(perf.size_bytes)}), "
          f"{len(wpa.hot_functions)} hot functions, "
          f"WPA peak memory {format_bytes(wpa.stats.peak_memory_bytes)}")

    # Phase 4: re-codegen hot modules, replay cold objects, relink.
    optimized = pipe.relink(profile, wpa)
    print(f"phase 4: {optimized.hot_modules} hot modules re-compiled, "
          f"{optimized.cold_cache_hits} cold objects from cache; "
          f"relink {optimized.link_seconds:.2f}s vs baseline link "
          f"{baseline.link_seconds:.2f}s")
    print(f"optimized binary: {format_bytes(optimized.executable.total_size)} "
          f"({100 * (optimized.executable.total_size / baseline.executable.total_size - 1):+.1f}% vs baseline)")

    # Figure 7: instruction-access heat maps.
    for label, exe in (("baseline", baseline.executable),
                       ("propeller", optimized.executable)):
        t = generate_trace(exe, max_blocks=150_000, seed=42)
        heatmap = record_heatmap(exe, t, time_buckets=60, addr_bucket_bytes=4096)
        print(f"\n=== {label}: 90% of fetches within "
              f"{format_bytes(heatmap.band_height(0.9))} ===")
        print(render_heatmap(heatmap, max_rows=18))


if __name__ == "__main__":
    main()
