#!/usr/bin/env python3
"""Print what one release built and what it was charged, as JSON.

Run it from two checkouts and compare the outputs byte for byte: a
change that must not move the pipeline's results or its simulated
clock keeps every line.  Per case it records each executable's
``content_digest()``, every object's ``content_digest()`` per codegen
batch (the metadata build's and Phase 4's), ``PipelineResult.digest()``,
``phase_seconds`` (keys, values and order) and the report's ``builds``
and ``phases``.  Per preset, one more case records the BOLT baseline
built from that release (``build_bolt_input`` -> ``run_bolt``): the
rewritten binary's ``content_digest()``, its ``BoltStats``, perf2bolt's
profile (each function's block counts and edges and the call edges,
as items in dict order) and the digest of the AutoFDO profile
converted from the metadata binary.

    PYTHONPATH=src python scripts/release_identity.py > before.json
    (switch checkouts)
    PYTHONPATH=src python scripts/release_identity.py > after.json
    cmp before.json after.json

The cases are the benchmark's programs at its sizes (shape seed 1),
each at profile seeds 1 and 7; ``mysql`` also runs with profile-guided
inlining and loose stale matching.  About two minutes on one core.
"""

import json
import sys

from repro.bolt import run_bolt
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs.report import plain
from repro.profiles.autofdo import convert_to_ir_profile
from repro.synth import PRESETS, generate_workload

#: (preset, scale, lbr_branches, pgo_steps, extra config fields)
CASES = (
    ("mysql", 0.006, 100_000, 60_000, {}),
    ("mysql", 0.006, 100_000, 60_000,
     {"inline_hot": True, "stale_matching": "loose"}),
    ("505.mcf", 1.0, 400_000, 300_000, {}),
    ("clang", 0.002, 100_000, 60_000, {}),
)
SEEDS = (1, 7)


def release(preset, scale, lbr_branches, pgo_steps, extra, seed):
    program = generate_workload(PRESETS[preset], scale=scale, seed=1)
    config = PipelineConfig(seed=seed, lbr_branches=lbr_branches,
                            pgo_steps=pgo_steps, **extra)
    result = PropellerPipeline(program, config).run()
    report = result.report()
    return {
        "case": f"{preset}@{scale} seed={seed} {extra}",
        "executables": {name: getattr(result, name).executable.content_digest()
                        for name in ("baseline", "metadata", "optimized")},
        "objects": {batch: [obj.content_digest() for obj in getattr(result, batch).objects]
                    for batch in ("metadata", "optimized")},
        "digest": result.digest(),
        "phase_seconds": list(result.phase_seconds.items()),
        "builds": plain(report.builds),
        "phases": plain(report.phases),
    }


def bolt(preset, scale, lbr_branches, pgo_steps, seed=1):
    program = generate_workload(PRESETS[preset], scale=scale, seed=1)
    config = PipelineConfig(seed=seed, lbr_branches=lbr_branches, pgo_steps=pgo_steps)
    pipe = PropellerPipeline(program, config)
    result = pipe.run()
    out = run_bolt(pipe.build_bolt_input(result.ir_profile).executable, result.perf)
    profile = out.profile
    return {
        "case": f"bolt {preset}@{scale} seed={seed}",
        "executable": out.executable.content_digest(),
        "stats": plain(out.stats),
        "profile": {
            "functions": {name: [list(fd.block_counts.items()), list(fd.edges.items())]
                          for name, fd in profile.functions.items()},
            "call_edges": list(profile.call_edges.items()),
            "records_dropped": profile.records_dropped,
        },
        "autofdo": convert_to_ir_profile(result.metadata.executable, result.perf).digest(),
    }


def main() -> int:
    for case in CASES:
        for seed in SEEDS:
            print(json.dumps(release(*case, seed), sort_keys=True))
            sys.stdout.flush()
    for *case, extra in CASES:
        if not extra:  # one case per preset
            print(json.dumps(bolt(*case), sort_keys=True))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
