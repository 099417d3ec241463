"""§3.5 extension: profile-guided software prefetch insertion.

The paper sketches post-link prefetch insertion as a second
optimization fitting Propeller's split design (whole-program analysis
emits summary directives; distributed codegen actions insert the
instructions).  The bench measures Propeller code layout with and
without prefetch directives on the clang workload.
"""

import pytest

from repro.analysis import Table
from repro.core.wpa import WPAOptions, analyze
from repro.hwmodel import simulate_frontend
from repro.profiles import generate_trace
from tests.paper.world import HW_PARAMS, PERF_BLOCKS

pytestmark = pytest.mark.slow


def test_ablation_prefetch(world_factory):
    world = world_factory("clang")
    base = world.counters("base")

    wpa_pf = analyze(
        world.result.metadata.executable, world.result.perf,
        WPAOptions(insert_prefetches=True),
    )
    rows = [("layout only", world.counters("prop"), world.result.wpa_result)]
    outcome = world.pipeline.relink(world.result.ir_profile, wpa_pf)
    trace = generate_trace(outcome.executable, max_blocks=PERF_BLOCKS, seed=77)
    rows.append(("layout + prefetch", simulate_frontend(outcome.executable, trace, HW_PARAMS),
                 wpa_pf))

    table = Table(
        ["Configuration", "directives", "perf vs base", "I1 vs base", "I2 vs base"],
        title="§3.5: software prefetch insertion (clang)",
    )
    for label, c, wpa in rows:
        ndir = sum(len(d) for d in wpa.prefetches.values())
        table.add_row(
            label, ndir,
            f"{100 * (base.cycles / c.cycles - 1):+.2f}%",
            f"{100 * (c.l1i_miss / base.l1i_miss - 1):+.1f}%",
            f"{100 * (c.l2_code_miss / base.l2_code_miss - 1):+.1f}%",
        )
    print()
    print(table)

    assert sum(len(d) for d in wpa_pf.prefetches.values()) > 0
    # Prefetching must not regress the layout-only configuration by
    # more than noise, and both must beat the baseline.
    assert rows[1][1].cycles < base.cycles
    assert rows[1][1].cycles < 1.02 * rows[0][1].cycles