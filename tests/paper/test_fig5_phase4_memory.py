"""Figure 5: peak memory of Phase 4 (relink) vs llvm-bolt vs baseline link.

The paper's shape: Propeller's relink stays at baseline-link levels
(code layout adds no peak memory); the monolithic BOLT rewrite can be a
multiple of the baseline link on large binaries.
"""

import pytest

from repro.analysis import Table, format_bytes
from tests.paper.world import BIG_NAMES, SPEC_NAMES

pytestmark = pytest.mark.slow


def test_fig5_phase4_memory(world_factory):
    rows = []
    for name in BIG_NAMES + SPEC_NAMES:
        world = world_factory(name)
        base = world.result.baseline.link_stats.peak_memory_bytes
        prop = world.result.optimized.link_stats.peak_memory_bytes
        bolt = world.bolt.stats.peak_memory_bytes if world.bolt else None
        rows.append((name, base, prop, bolt))

    table = Table(
        ["Benchmark", "Baseline link", "Propeller relink", "llvm-bolt", "BOLT / link"],
        title="Fig 5: peak modelled memory, final link / rewrite action",
    )
    for name, base, prop, bolt in rows:
        table.add_row(
            name, format_bytes(base), format_bytes(prop),
            format_bytes(bolt) if bolt else "(rewrite failed)",
            f"{bolt / base:.1f}x" if bolt else "-",
        )
    print()
    print(table)

    for name, base, prop, bolt in rows:
        assert prop < 1.3 * base, f"{name}: relink must stay near baseline link"
        if bolt is not None and name in BIG_NAMES:
            assert bolt > 1.5 * base, f"{name}: BOLT must exceed the link action"
