"""Figure 6: binary size breakdown for Base / PM / PO / BM / BO.

Paper bands: Propeller metadata +7-9% over baseline, Propeller
optimized ~+1%; BOLT metadata +20-60% (static relocations), BOLT
optimized +30-150% (keeps the original .text).
"""

import pytest

from repro.analysis import Table, format_bytes
from tests.paper.world import BIG_NAMES, SPEC_NAMES

pytestmark = pytest.mark.slow


def _breakdown(exe):
    return exe.section_sizes()


def test_fig6_binary_size(world_factory):
    table = Table(
        ["Benchmark", "Variant", "text", "eh_frame", "bb_addr_map", "relocs",
         "other", "total", "vs base"],
        title="Fig 6: section size breakdown (normalized to baseline)",
    )
    checks = []
    for name in BIG_NAMES + SPEC_NAMES:
        world = world_factory(name)
        variants = [
            ("Base", world.result.baseline.executable),
            ("PM", world.result.metadata.executable),
            ("PO", world.result.optimized.executable),
            ("BM", world.bolt_metadata.executable),
        ]
        if world.bolt is not None:
            variants.append(("BO", world.bolt.executable))
        base_total = world.result.baseline.executable.total_size
        ratios = {}
        for label, exe in variants:
            sizes = _breakdown(exe)
            total = sum(sizes.values())
            ratios[label] = total / base_total
            table.add_row(
                name, label, format_bytes(sizes["text"]), format_bytes(sizes["eh_frame"]),
                format_bytes(sizes["bb_addr_map"]), format_bytes(sizes["relocs"]),
                format_bytes(sizes["other"]), format_bytes(total),
                f"{100 * total / base_total:.0f}%",
            )
        checks.append((name, ratios))
    print()
    print(table)

    for name, ratios in checks:
        assert 1.03 < ratios["PM"] < 1.16, f"{name}: PM band (paper: +7-9%)"
        assert ratios["PO"] < 1.06, f"{name}: PO band (paper: ~+1%)"
        assert 1.10 < ratios["BM"] < 1.9, f"{name}: BM band (paper: +20-60%)"
        if "BO" in ratios:
            assert ratios["BO"] > 1.25, f"{name}: BO band (paper: +30-150%)"
