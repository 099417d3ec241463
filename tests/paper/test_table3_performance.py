"""Table 3: performance of Propeller and BOLT over the PGO+ThinLTO baseline.

The paper's rows: Propeller improves every workload (1%-8%); BOLT is
comparable where it runs, but its rewritten binaries crash on three of
the four warehouse-scale applications (rseq, FIPS integrity, and an
eh_frame rewrite failure).
"""

import pytest

from repro.analysis import Table
from repro.synth import PRESETS
from tests.paper.world import BIG_NAMES

pytestmark = pytest.mark.slow


def test_table3_performance(world_factory):
    table = Table(
        ["Benchmark", "Metric", "Propeller", "BOLT (lite=0)"],
        title="Table 3: improvement over PGO + ThinLTO baseline",
    )
    results = {}
    for name in BIG_NAMES:
        world = world_factory(name)
        prop = world.improvement("prop")
        outcome = world.bolt_outcome
        if outcome == "ok":
            bolt_cell = f"{100 * world.improvement('bolt'):+.1f}%"
        else:
            bolt_cell = "Crash"
        table.add_row(name, PRESETS[name].metric, f"{100 * prop:+.1f}%", bolt_cell)
        results[name] = (prop, outcome)
    print()
    print(table)

    for name, (prop, outcome) in results.items():
        assert prop > 0, f"{name}: Propeller must improve over baseline"
        assert prop < 0.30, f"{name}: improvement implausibly large"
    # BOLT crashes exactly on the three feature-carrying WSC apps.
    assert results["spanner"][1] == "startup-crash"
    assert results["bigtable"][1] == "startup-crash"
    assert results["superroot"][1] == "rewrite-crash"
    assert results["search"][1] == "ok"
    assert results["clang"][1] == "ok"
    # Where BOLT runs, it is comparable to Propeller (same ballpark).
    search = world_factory("search")
    assert search.improvement("bolt") > 0
