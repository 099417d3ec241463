"""Table 2: benchmark characteristics.

Regenerates the paper's workload-characteristics table (text size,
function count, basic block count, fraction of cold objects) for the
scaled synthetic workloads, and checks the derived ratios against the
paper's values.
"""

import pytest

from repro.analysis import Table, format_bytes
from repro.synth import PRESETS
from tests.paper.world import BIG_NAMES, SPEC_NAMES

pytestmark = pytest.mark.slow


def _characteristics(world):
    program = world.result.program
    exe = world.result.baseline.executable
    # "% Cold" in Table 2 classifies object files by whether they
    # contain hot code; the generator plants hot functions (= main's
    # dispatch targets) only in hot modules, so that classification is
    # recoverable from the program itself.
    from repro.ir import Call

    roots = {
        target
        for block in program.function("main").blocks
        for instr in block.instrs
        if isinstance(instr, Call)
        for target, _p in instr.indirect_targets
    }
    hot_modules = {program.module_of(r).name for r in roots} | {
        program.module_of("main").name
    }
    pct_cold = 1.0 - len(hot_modules) / len(program.modules)
    return {
        "text": exe.text_size,
        "funcs": program.num_functions,
        "bbs": program.num_blocks,
        "pct_cold": pct_cold,
        "pct_recompiled": world.result.optimized.hot_modules / len(program.modules),
    }


def test_table2_characteristics(world_factory):
    rows = []
    for name in BIG_NAMES + SPEC_NAMES:
        world = world_factory(name)
        rows.append((name, _characteristics(world)))

    table = Table(
        ["Benchmark", "Text", "#Funcs", "#BBs", "% Cold", "paper % Cold",
         "% objs re-codegen'd"],
        title="Table 2: Benchmark Characteristics (scaled ~1/100)",
    )
    for name, c in rows:
        table.add_row(
            name, format_bytes(c["text"]), c["funcs"], c["bbs"],
            f"{100 * c['pct_cold']:.0f}%",
            f"{100 * PRESETS[name].pct_cold_objects:.0f}%",
            f"{100 * c['pct_recompiled']:.0f}%",
        )
    print()
    print(table)

    for name, c in rows:
        preset = PRESETS[name]
        # Blocks-per-function tracks the paper's ratio within 2x.
        realized = c["bbs"] / c["funcs"]
        assert 0.4 * preset.bbs_per_func < realized < 2.5 * preset.bbs_per_func
        # Cold-module fraction tracks Table 2 within 15 points.
        assert abs(c["pct_cold"] - preset.pct_cold_objects) < 0.15
