"""Table 5: build-phase wall times for warehouse-scale applications.

Simulated minutes per phase for the PGO pipeline (instrumented build,
training run, optimized build) and the Propeller extension (hardware
profiling run, profile conversion, optimized re-build).  Paper shape:
the Propeller-specific work (convert + phase 4) is a small fraction of
the end-to-end release time; profiling runs dominate.
"""

import pytest

from repro.analysis import Table
from tests.paper.world import WSC_NAMES

pytestmark = pytest.mark.slow


def test_table5_build_phases(world_factory):
    table = Table(
        ["Benchmark", "Instr.", "Profile", "Opt.", "Profile", "Convert", "Opt."],
        title="Table 5: simulated phase times (s) - PGO phases 1&2 | Propeller phases 3&4",
    )
    shares = {}
    for name in WSC_NAMES:
        world = world_factory(name)
        t = world.result.phase_seconds
        pgo = [t["pgo_instrumented_build"], t["pgo_profile_run"], t["opt_build"]]
        prop = [
            t["lbr_profile_run"], t["wpa_convert"],
            t["prop_backends"] + t["prop_link"],
        ]
        table.add_row(name, *(f"{x:.2f}" for x in pgo + prop))
        total = sum(pgo) + sum(prop)
        shares[name] = (t["wpa_convert"] + prop[2]) / total
    print()
    print(table)

    # The Propeller optimization work itself is a modest fraction of the
    # whole build-release pipeline (paper: ~18% on average).
    for name, share in shares.items():
        assert share < 0.6, f"{name}: propeller work should not dominate"
