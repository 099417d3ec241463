"""Figure 9: optimization run time (Phase 4 vs baseline build vs BOLT).

Paper shape, warehouse side: Propeller's relink (codegen for hot
modules + final link) is *faster* than the baseline's own
backends+link, because 80-95% of objects replay from the distributed
cache; BOLT's monolithic disassembly-and-rewrite takes longer than the
relink.  Workstation side (SPEC/clang/mysql): BOLT is faster than
Propeller, whose full compiler backends dominate.
"""

import pytest

from repro.analysis import Table
from tests.paper.world import BIG_NAMES, SPEC_NAMES, WSC_NAMES

pytestmark = pytest.mark.slow


def test_fig9_opt_runtime(world_factory):
    table = Table(
        ["Benchmark", "Base backends", "Base link", "Prop backends", "Prop link",
         "BOLT", "cold hit %"],
        title="Fig 9: simulated optimization run time (s)",
    )
    rows = {}
    for name in BIG_NAMES + SPEC_NAMES:
        world = world_factory(name)
        base = world.result.baseline
        prop = world.result.optimized
        bolt_s = world.bolt.stats.runtime_seconds if world.bolt else None
        hit = prop.cold_cache_hits / len(world.result.program.modules)
        table.add_row(
            name, f"{base.backends.wall_seconds:.2f}", f"{base.link_seconds:.2f}",
            f"{prop.backends.wall_seconds:.2f}", f"{prop.link_seconds:.2f}",
            f"{bolt_s:.2f}" if bolt_s is not None else "(failed)",
            f"{100 * hit:.0f}%",
        )
        rows[name] = (base, prop, bolt_s)
    print()
    print(table)

    for name in WSC_NAMES:
        base, prop, bolt_s = rows[name]
        assert prop.wall_seconds < base.wall_seconds, (
            f"{name}: relink must beat the full build (cache reuse)"
        )
        if bolt_s is not None:
            assert prop.wall_seconds < bolt_s, f"{name}: relink must beat BOLT"
    # Workstation side: BOLT is faster than Propeller's backend re-runs.
    faster = sum(
        1 for name in SPEC_NAMES
        if rows[name][2] is not None and rows[name][2] < rows[name][1].wall_seconds
    )
    assert faster >= len(SPEC_NAMES) // 2, "BOLT should win on most small benchmarks"
