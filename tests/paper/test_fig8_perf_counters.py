"""Figure 8: hardware performance counters for Search and Clang.

Normalized counters (lower is better) for Propeller and BOLT against
the baseline, using the events of Table 4: I1/I2/I3 (i-cache), T1/T2
(iTLB), B1 (branch resteers), B2 (taken branches).  Paper shape: both
optimizers cut i-cache misses, iTLB misses (especially stall-causing
ones, up to ~85% on Search with hugepages), branch resteers and taken
branches.
"""

import pytest

from repro.analysis import Table

pytestmark = pytest.mark.slow

LABELS = ["I1", "I2", "I3", "T1", "T2", "B1", "B2"]


def test_fig8_perf_counters(world_factory):
    checks = {}
    table = Table(
        ["Workload", "Variant"] + LABELS,
        title="Fig 8: performance counters, normalized to baseline (%)",
    )
    for name in ("search", "clang"):
        world = world_factory(name)
        base = world.counters("base")
        for variant in ("prop", "bolt"):
            if variant == "bolt" and world.bolt_outcome != "ok":
                continue
            c = world.counters(variant)
            normalized = {
                label: 100.0 * c.counter(label) / max(1e-9, base.counter(label))
                for label in LABELS
            }
            table.add_row(name, variant, *(f"{normalized[l]:.0f}" for l in LABELS))
            checks[(name, variant)] = normalized
    print()
    print(table)

    for (name, variant), normalized in checks.items():
        assert normalized["T1"] < 90, f"{name}/{variant}: iTLB misses must drop"
        assert normalized["T2"] < 90, f"{name}/{variant}: iTLB stalls must drop"
        assert normalized["I1"] < 105, f"{name}/{variant}: icache must not regress"
    # Search runs with 2M hugepages: stall-causing iTLB misses collapse.
    assert checks[("search", "prop")]["T2"] < 70
