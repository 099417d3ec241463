"""§4.1 ablation: per-block sections vs basic block clusters.

The clang binary has ~13x more basic blocks than functions; giving
every block its own section would bloat objects and the final link.
Propeller only creates sections where the layout needs them (one
primary cluster per hot function plus a cold section).  The bench
quantifies the object-size and link-memory overhead of the naive
"all blocks" mode against cluster mode and the plain baseline.
"""

import pytest

from repro.analysis import Table, format_bytes
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_program
from repro.linker import LinkOptions, link

pytestmark = pytest.mark.slow


def test_ablation_clustering(world_factory):
    world = world_factory("clang")
    program = world.result.program
    profile = world.result.ir_profile

    def build(mode, clusters=None):
        options = CodeGenOptions(ir_profile=profile, bb_sections=mode, clusters=clusters)
        compiled = compile_program(program, options)
        objects = [c.obj for c in compiled]
        result = link(objects, LinkOptions())
        return (
            sum(o.total_size for o in objects),
            result.stats.peak_memory_bytes,
            result.executable.total_size,
            result.stats.deleted_jumps,
        )

    base = build(BBSectionsMode.NONE)
    clustered = build(BBSectionsMode.LIST, clusters=world.result.wpa_result.clusters)
    per_block = build(BBSectionsMode.ALL)

    table = Table(
        ["Mode", "object bytes", "link peak", "binary size", "deleted jumps"],
        title="§4.1: section-granularity overhead (clang)",
    )
    for label, row in (
        ("function sections", base),
        ("bb clusters (Propeller)", clustered),
        ("one section per block", per_block),
    ):
        table.add_row(label, format_bytes(row[0]), format_bytes(row[1]),
                      format_bytes(row[2]), row[3])
    print()
    print(table)

    # Clusters stay close to the plain build; per-block sections blow up.
    assert clustered[0] < 1.35 * base[0]
    assert per_block[0] > 1.5 * base[0]
    assert per_block[1] > clustered[1]
