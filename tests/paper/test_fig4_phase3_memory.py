"""Figure 4: peak memory of profile conversion + whole program analysis.

Propeller's Phase 3 (BB-address-map based) vs BOLT's perf2bolt
(disassembly based), on the same LBR profiles.  The paper's shape:
Propeller stays within build-system limits and grows gently with
binary size; perf2bolt's memory scales with total text and exceeds
Propeller by a large factor on big binaries, while being comparable on
the smallest SPEC binaries.
"""

import pytest

from repro.analysis import Table, format_bytes
from tests.paper.world import BIG_NAMES, SPEC_NAMES

pytestmark = pytest.mark.slow


def test_fig4_phase3_memory(world_factory):
    rows = []
    for name in BIG_NAMES + SPEC_NAMES:
        world = world_factory(name)
        prop = world.result.wpa_result.stats.peak_memory_bytes
        bolt = world.perf2bolt_result.peak_memory_bytes
        rows.append((name, prop, bolt))

    table = Table(
        ["Benchmark", "Propeller (Phase 3)", "BOLT (perf2bolt)", "BOLT / Propeller"],
        title="Fig 4: peak modelled memory, profile conversion + WPA",
    )
    for name, prop, bolt in rows:
        table.add_row(name, format_bytes(prop), format_bytes(bolt), f"{bolt / prop:.1f}x")
    print()
    print(table)

    big = [r for r in rows if r[0] in BIG_NAMES]
    for name, prop, bolt in big:
        assert bolt > 2.5 * prop, f"{name}: expected BOLT >> Propeller"
    # BOLT's memory grows with text size; Propeller's much less so.
    sizes = {name: world_factory(name).result.baseline.executable.text_size
             for name, _, _ in rows}
    biggest = max(big, key=lambda r: sizes[r[0]])
    smallest = min(rows, key=lambda r: sizes[r[0]])
    bolt_ratio = biggest[2] / max(1, smallest[2])
    prop_ratio = biggest[1] / max(1, smallest[1])
    assert bolt_ratio > prop_ratio, "BOLT conversion memory must scale worse"
