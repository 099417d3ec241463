#!/usr/bin/env python3
"""Quickstart: optimize one workload with Propeller and measure it.

Generates a small MySQL-shaped program, runs the four-phase Propeller
pipeline (PGO baseline build, metadata build, LBR profiling + WPA,
relink), and compares the baseline and optimized binaries on the
simulated hardware frontend.

Run:  python examples/quickstart.py
"""

from repro import PRESETS, PipelineConfig, generate_workload, optimize
from repro.hwmodel import frontend_scorecard
from repro.hwmodel.frontend import DEFAULT_PARAMS


def main() -> None:
    # 1. A workload: ~600 functions shaped like MySQL (Table 2).
    program = generate_workload(PRESETS["mysql"], scale=0.01, seed=1)
    print(f"workload: {program.num_functions} functions, {program.num_blocks} basic blocks")

    # 2. The whole pipeline in one call.
    result = optimize(
        program,
        PipelineConfig(lbr_branches=300_000, pgo_steps=150_000, enforce_ram=False),
    )
    print()
    print(result.summary())

    # 3. Phase 3's outputs are two small text files (Figure 1).
    print()
    print("cc_prof.txt (first lines):")
    for line in result.wpa_result.cc_prof_text.splitlines()[:6]:
        print("   ", line)
    print("ld_prof.txt (first lines):")
    for line in result.wpa_result.symbol_order[:6]:
        print("   ", line)

    # 4. Measure both binaries on the same fixed amount of work.
    params = DEFAULT_PARAMS.scaled(16)  # structures scaled like the workload
    cards = frontend_scorecard(
        {"baseline": result.baseline.executable,
         "propeller": result.optimized.executable},
        max_blocks=300_000, seed=42, params=params)
    for label, counters in cards.items():
        print(f"\n{label}: {counters.cycles / 1e6:.2f}M cycles, "
              f"{counters.l1i_miss} L1i misses, {counters.itlb_miss} iTLB misses, "
              f"{counters.taken_branches} taken branches")
    base, prop = cards["baseline"], cards["propeller"]
    print(f"\npropeller speedup over PGO baseline: "
          f"{100 * (base.cycles / prop.cycles - 1):+.2f}%")


if __name__ == "__main__":
    main()
