"""§4.7 ablation: inter-procedural vs intra-function layout.

The paper: whole-program Ext-TSP (call edges included, functions split
into multiple clusters placed near their callers) improves clang by a
further ~0.8% over intra-function layout, cutting icache/iTLB misses by
~11-13%; but computing it takes 3-10x longer than the intra-function
layout, which is why the paper's evaluation ships intra-function mode.
"""

import time

import pytest

from repro.analysis import Table
from repro.core.wpa import WPAOptions, analyze
from repro.hwmodel import simulate_frontend
from repro.profiles import generate_trace
from tests.paper.world import HW_PARAMS, PERF_BLOCKS

pytestmark = pytest.mark.slow


def test_ablation_interproc_layout(world_factory):
    world = world_factory("clang")
    exe = world.result.metadata.executable
    perf = world.result.perf

    t0 = time.perf_counter()
    intra = analyze(exe, perf, WPAOptions(interproc=False))
    intra_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    inter = analyze(exe, perf, WPAOptions(interproc=True))
    inter_seconds = time.perf_counter() - t0

    rows = []
    base = world.counters("base")
    for label, wpa in (("intra-function", intra), ("inter-procedural", inter)):
        outcome = world.pipeline.relink(world.result.ir_profile, wpa)
        trace = generate_trace(outcome.executable, max_blocks=PERF_BLOCKS, seed=77)
        counters = simulate_frontend(outcome.executable, trace, HW_PARAMS)
        rows.append((label, wpa, counters))

    multi_cluster = sum(1 for c in inter.clusters.values() if len(c) > 1)
    table = Table(
        ["Layout", "perf vs base", "I1 vs base", "T1 vs base", "layout seconds",
         "multi-cluster funcs"],
        title="§4.7: intra-function vs inter-procedural layout (clang)",
    )
    for (label, wpa, c), secs in zip(rows, (intra_seconds, inter_seconds)):
        table.add_row(
            label,
            f"{100 * (base.cycles / c.cycles - 1):+.2f}%",
            f"{100 * (c.l1i_miss / base.l1i_miss - 1):+.1f}%",
            f"{100 * (c.itlb_miss / base.itlb_miss - 1):+.1f}%",
            f"{secs:.2f}",
            multi_cluster if label.startswith("inter") else 0,
        )
    print()
    print(table)

    # Inter-procedural layout splits functions into multiple clusters.
    assert multi_cluster > 0
    # And it costs substantially more to compute (paper: 3-10x).
    assert inter_seconds > 1.5 * intra_seconds
    # Both layouts beat the baseline.
    for _label, _wpa, c in rows:
        assert c.cycles < base.cycles
