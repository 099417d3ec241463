"""Figure 7: whole-binary instruction access heat maps for Clang.

The paper's plots show the baseline's accesses spread over a wide
address band, both optimizers concentrating accesses into a tight low
band, and BOLT's band displaced to a high offset (its new text
segment).  The bench renders the ASCII heat maps and asserts the band
statistics.
"""

import pytest

from repro.analysis import Table, format_bytes
from repro.hwmodel import record_heatmap, render_heatmap

pytestmark = pytest.mark.slow


def test_fig7_heatmaps(world_factory):
    world = world_factory("clang")

    maps = {}
    for variant in ("base", "prop", "bolt"):
        exe = world.executable(variant)
        maps[variant] = record_heatmap(exe, world.trace(variant), time_buckets=48,
                                       addr_bucket_bytes=2048)

    table = Table(
        ["Variant", "90% band", "occupied range", "band start offset"],
        title="Fig 7: instruction-access heat map statistics (clang)",
    )
    starts = {}
    for variant, heatmap in maps.items():
        touched = heatmap.counts.sum(axis=0).nonzero()[0]
        start_offset = int(touched[0]) * heatmap.addr_bucket_bytes
        starts[variant] = start_offset
        table.add_row(
            variant,
            format_bytes(heatmap.band_height(0.90)),
            format_bytes(heatmap.occupied_addr_range()),
            format_bytes(start_offset),
        )
    print()
    print(table)
    for variant in ("base", "prop", "bolt"):
        print(f"\n--- {variant} ---")
        print(render_heatmap(maps[variant], max_rows=24))

    # Optimized binaries concentrate accesses into a tighter band.
    assert maps["prop"].occupied_addr_range() < maps["base"].occupied_addr_range()
    # BOLT's band sits at a high offset: the new 2M-aligned segment.
    assert starts["bolt"] > starts["base"]
    assert starts["bolt"] > maps["base"].occupied_addr_range()
