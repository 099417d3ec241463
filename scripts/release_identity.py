#!/usr/bin/env python3
"""Print what one release built and what it was charged, as JSON.

Run it from two checkouts and compare the outputs byte for byte: a
change that must not move the pipeline's results or its simulated
clock keeps every line.  Per case it records each executable's
``content_digest()``, every object's ``content_digest()`` per codegen
batch (the metadata build's and Phase 4's), ``PipelineResult.digest()``,
``phase_seconds`` (keys, values and order) and the report's ``builds``
and ``phases``.

    PYTHONPATH=src python scripts/release_identity.py > before.json
    (switch checkouts)
    PYTHONPATH=src python scripts/release_identity.py > after.json
    cmp before.json after.json

The cases are the benchmark's programs at its sizes (shape seed 1),
each at profile seeds 1 and 7; ``mysql`` also runs with profile-guided
inlining and loose stale matching.  About a minute on one core.
"""

import json
import sys

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs.report import plain
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


def main() -> int:
    for case in CASES:
        for seed in SEEDS:
            print(json.dumps(release(*case, seed), sort_keys=True))
            sys.stdout.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
