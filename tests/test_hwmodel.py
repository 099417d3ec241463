"""Tests for the micro-architectural frontend model."""

import tracemalloc
from bisect import bisect_right
from collections import defaultdict
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.hwmodel import (
    SetAssociativeCache,
    SkylakeParams,
    record_heatmap,
    render_heatmap,
    simulate_frontend,
)
from repro.hwmodel import frontend
from repro.hwmodel.frontend import DEFAULT_PARAMS
from repro.profiles import generate_trace, walk
from repro.profiles.trace import project_arrays


class TestCache:
    def test_first_access_misses(self):
        cache = SetAssociativeCache(4, 2)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access_many([4, 0, 4, 8]) == [0, 3]

    def test_lru_eviction(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(0)
        cache.access(1)
        cache.access(0)      # 0 is now MRU
        cache.access(2)      # evicts 1
        assert cache.access(0)
        assert not cache.access(1)

    def test_sets_isolated(self):
        cache = SetAssociativeCache(2, 1)
        cache.access(0)  # set 0
        cache.access(1)  # set 1
        assert cache.access(0)
        assert cache.access(1)

    def test_probe_does_not_touch(self):
        cache = SetAssociativeCache(1, 2)
        cache.access(0)
        cache.access(1)      # 0 is now LRU
        assert cache.probe(0)
        assert not cache.probe(5)
        assert cache.access_many([2]) == [0]  # ... and left 0 the victim
        assert not cache.probe(0)
        assert cache.probe(1)

    def test_capacity(self):
        assert SetAssociativeCache(8, 4).capacity == 32

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(0, 1)

    def test_next_line_fill_is_not_reported(self):
        cache = SetAssociativeCache(1, 2)
        assert cache.access_many([3, 4, 3], next_line=True) == [0]
        assert cache.access_many([4, 5, 3], next_line=True) == [1, 2]  # 5 evicted 3


class ReferenceLRU:
    """Per-access set-associative LRU, written to be obviously right."""

    def __init__(self, num_sets, ways):
        self.sets = [[] for _ in range(num_sets)]  # each MRU first
        self.ways = ways

    def access(self, key):
        ways = self.sets[key % len(self.sets)]
        hit = key in ways
        if hit:
            ways.remove(key)
        elif len(ways) == self.ways:
            ways.pop()
        ways.insert(0, key)
        return hit


_GEOMETRY = st.tuples(st.sampled_from([1, 2, 3, 8]), st.sampled_from([1, 2, 4]))


class TestBulkAccess:
    @settings(max_examples=200, deadline=None)
    @given(_GEOMETRY, st.lists(st.integers(0, 40), max_size=300), st.booleans())
    def test_access_many_is_the_per_access_model(self, geometry, keys, next_line):
        cache, reference = SetAssociativeCache(*geometry), ReferenceLRU(*geometry)
        expected = []
        for pos, key in enumerate(keys):
            if not reference.access(key):
                expected.append(pos)
                if next_line:
                    reference.access(key + 1)
        assert cache.access_many(keys, next_line) == expected
        for key in range(42):  # same residents, and the same victims next
            assert cache.probe(key) == (key in reference.sets[key % geometry[0]])
        assert [cache.access(k) for k in range(42)] == [reference.access(k) for k in range(42)]


class TestScaledParams:
    def test_scaling_shrinks_sets(self):
        scaled = DEFAULT_PARAMS.scaled(8)
        assert scaled.l1i_sets == DEFAULT_PARAMS.l1i_sets // 8
        assert scaled.l1i_ways == DEFAULT_PARAMS.l1i_ways
        assert scaled.btb_sets == DEFAULT_PARAMS.btb_sets // 8

    def test_scaling_validates(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMS.scaled(0)

    def test_never_below_one_set(self):
        scaled = DEFAULT_PARAMS.scaled(10_000)
        assert scaled.l1i_sets == 1


class TestFrontend:
    def test_counters_populated(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        counters = simulate_frontend(exe, trace)
        assert counters.blocks == 30_000
        assert counters.instructions > counters.blocks
        assert counters.taken_branches == trace.num_branches
        assert counters.cycles > 0
        assert counters.ipc > 0

    def test_counter_labels(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=5_000, seed=1)
        counters = simulate_frontend(exe, trace)
        for label in ("I1", "I2", "I3", "T1", "T2", "B1", "B2", "DSB"):
            assert counters.counter(label) >= 0

    def test_smaller_cache_more_misses(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        big = simulate_frontend(exe, trace, DEFAULT_PARAMS)
        small = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(16))
        assert small.l1i_miss >= big.l1i_miss
        assert small.cycles > big.cycles

    def test_prefetch_reduces_misses(self, pipeline_result):
        from dataclasses import replace

        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        on = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(8))
        off = simulate_frontend(
            exe, trace, replace(DEFAULT_PARAMS.scaled(8), next_line_prefetch=False)
        )
        assert on.l1i_miss < off.l1i_miss

    def test_hugepages_reduce_itlb_misses(self, pipeline_result):
        from dataclasses import replace as dc_replace

        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        normal = simulate_frontend(exe, trace, DEFAULT_PARAMS.scaled(8))
        huge_exe = dc_replace(exe, hugepages=True)
        huge = simulate_frontend(huge_exe, trace, DEFAULT_PARAMS.scaled(8))
        assert huge.itlb_miss < normal.itlb_miss


def reference_replay(exe, trace, params):
    """The per-access replay, one block and one structure touch at a
    time: ``(instructions, {func: {counter: value}})``."""
    line_shift = params.line_bytes.bit_length() - 1
    page_shift = params.page_shift_2m if exe.hugepages else params.page_shift_4k
    l1i = ReferenceLRU(params.l1i_sets, params.l1i_ways)
    l2 = ReferenceLRU(params.l2_sets, params.l2_ways)
    itlb = (ReferenceLRU(params.itlb_2m_sets, params.itlb_2m_ways) if exe.hugepages
            else ReferenceLRU(params.itlb_4k_sets, params.itlb_4k_ways))
    stlb = ReferenceLRU(params.stlb_sets, params.stlb_ways)
    btb = ReferenceLRU(params.btb_sets, params.btb_ways)
    dsb = ReferenceLRU(params.dsb_sets, params.dsb_ways)
    blocks = {b.addr: b for b in exe.exec_blocks}
    per = defaultdict(lambda: defaultdict(float))
    instructions = 0.0
    for addr in trace.block_addrs:
        block, charged = blocks[addr], per[blocks[addr].func]
        last = addr + max(0, block.size - 1)
        instrs = max(1.0, block.size / params.avg_instr_bytes)
        instructions += instrs
        charged["instructions"] += instrs
        charged["blocks"] += 1
        for line in range(addr >> line_shift, (last >> line_shift) + 1):
            if not l1i.access(line):
                charged["l1i_miss"] += 1
                if not l2.access(line):
                    charged["l2_code_miss"] += 1
                if params.next_line_prefetch:
                    l1i.access(line + 1)
                    l2.access(line + 1)
        for page in sorted({addr >> page_shift, (block.end - 1) >> page_shift}):
            if not itlb.access(page):
                charged["itlb_miss"] += 1
                if not stlb.access(page):
                    charged["itlb_walk"] += 1
        for target in block.prefetch_targets:
            for line in (target >> line_shift, (target >> line_shift) + 1):
                l1i.access(line)
                l2.access(line)
                itlb.access((line << line_shift) >> page_shift)
        for window in range(addr >> 5, (last >> 5) + 1):
            if not dsb.access(window):
                charged["dsb_miss"] += 1
    starts = sorted(blocks)
    for src in trace.branch_src:
        charged = per[blocks[starts[bisect_right(starts, src) - 1]].func]
        charged["taken_branches"] += 1
        if not btb.access(src):
            charged["baclears"] += 1
    return instructions, per


_SETS, _WAYS = st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 8])
_PARAMS = st.builds(
    SkylakeParams,
    l1i_sets=_SETS, l1i_ways=_WAYS, l2_sets=_SETS, l2_ways=_WAYS,
    itlb_4k_sets=_SETS, itlb_4k_ways=_WAYS, itlb_2m_sets=_SETS, itlb_2m_ways=_WAYS,
    stlb_sets=_SETS, stlb_ways=_WAYS, btb_sets=_SETS, btb_ways=_WAYS,
    dsb_sets=_SETS, dsb_ways=_WAYS, page_shift_4k=st.sampled_from([6, 8, 12]),
    page_shift_2m=st.sampled_from([10, 13]), next_line_prefetch=st.booleans(),
)
_COUNTERS = ("blocks", "l1i_miss", "l2_code_miss", "itlb_miss", "itlb_walk",
             "dsb_miss", "taken_branches", "baclears")


class TestReplayAgainstReference:
    """The bulk, de-duplicated replay is the per-access one, exactly --
    one-set and one-way structures included, where a repeated line can
    find the next-line fill has pushed it out.  The projected view is
    replayed again in chunks of 7 visits and branches, so L1i state,
    software-prefetch fills, the BTB pass and the per-function tallies
    all cross chunk boundaries."""

    @settings(max_examples=40, deadline=None)
    @given(_PARAMS, st.booleans(), st.booleans(), st.integers(0, 1000))
    def test_counters_match_per_function(self, pipeline_result, params, hugepages,
                                         prefetching, seed):
        exe = pipeline_result.optimized.executable
        entries = [s.addr for s in exe.function_symbols()]
        exe = replace(exe, hugepages=hugepages, exec_blocks=[
            replace(b, prefetch_targets=tuple(entries[(i + k) % len(entries)] for k in (0, 5)))
            if prefetching and i % 7 == 0 else b
            for i, b in enumerate(exe.exec_blocks)])
        trace = generate_trace(exe, max_blocks=1500, seed=seed)
        instructions, per = reference_replay(exe, trace, params)
        counters = simulate_frontend(exe, trace, params)
        view = project_arrays(walk(exe, max_blocks=1500, seed=seed), exe)
        with mock.patch.object(frontend, "REPLAY_CHUNK", 7):
            chunked = simulate_frontend(exe, view, params)
        assert chunked == counters and list(chunked.per_function) == list(counters.per_function)
        assert counters.instructions == instructions
        assert set(counters.per_function) == set(per)
        for func, expected in per.items():
            got = counters.per_function[func]
            assert got.instructions == expected["instructions"]
            assert {c: getattr(got, c) for c in _COUNTERS} == {c: expected[c] for c in _COUNTERS}
        for c in _COUNTERS[1:]:
            assert getattr(counters, c) == sum(f[c] for f in per.values())


class TestPerFunctionAttribution:
    def test_shares_sum_to_totals(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        trace = generate_trace(exe, max_blocks=30_000, seed=1)
        c = simulate_frontend(exe, trace)
        per = c.per_function.values()
        # Instructions are fractional (size/avg-bytes), so summation
        # order costs a few ulps; every integer counter is exact.
        assert sum(f.instructions for f in per) == pytest.approx(
            c.instructions, rel=1e-12)
        assert sum(f.blocks for f in per) == c.blocks
        assert sum(f.l1i_miss for f in per) == c.l1i_miss
        assert sum(f.itlb_miss for f in per) == c.itlb_miss
        assert sum(f.dsb_miss for f in per) == c.dsb_miss
        assert sum(f.taken_branches for f in per) == c.taken_branches
        assert sum(f.baclears for f in per) == c.baclears
        # Cycles are modelled per function with the same linear formula,
        # so the shares sum to the total up to float association.
        assert sum(f.cycles for f in per) == pytest.approx(c.cycles)

    def test_functions_cover_the_trace(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        trace = generate_trace(exe, max_blocks=10_000, seed=1)
        c = simulate_frontend(exe, trace)
        visited = {exe.block_at(addr).func for addr in trace.block_addrs}
        assert set(c.per_function) == visited


class TestBoundedMemory:
    def test_scorecard_memory_grows_with_the_walk_alone(self, pipeline_result):
        """A longer scorecard costs its walk's int32 buffers and one index
        of each binary's taken steps, never a copy of the run: at most
        16 B of ``tracemalloc`` peak per extra block."""
        peaks = []
        for max_blocks in (50_000, 200_000):
            tracemalloc.start()
            try:
                pipeline_result.frontend_counters(max_blocks=max_blocks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 150_000 <= 16


class TestHeatmap:
    def test_shape_and_counts(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=20_000, seed=2)
        heatmap = record_heatmap(exe, trace, time_buckets=32, addr_bucket_bytes=1024)
        assert heatmap.counts.shape[0] == 32
        assert heatmap.counts.sum() == 20_000

    def test_band_height_leq_footprint(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=20_000, seed=2)
        heatmap = record_heatmap(exe, trace, addr_bucket_bytes=1024)
        assert 0 < heatmap.band_height(0.9) <= heatmap.occupied_addr_range()

    def test_optimized_band_tighter(self, pipeline_result):
        res = pipeline_result
        t_base = generate_trace(res.baseline.executable, max_blocks=30_000, seed=2)
        t_opt = generate_trace(res.optimized.executable, max_blocks=30_000, seed=2)
        h_base = record_heatmap(res.baseline.executable, t_base, addr_bucket_bytes=1024)
        h_opt = record_heatmap(res.optimized.executable, t_opt, addr_bucket_bytes=1024)
        assert h_opt.occupied_addr_range() <= h_base.occupied_addr_range()

    def test_render(self, pipeline_result):
        exe = pipeline_result.baseline.executable
        trace = generate_trace(exe, max_blocks=5_000, seed=2)
        art = render_heatmap(record_heatmap(exe, trace))
        assert "addr base" in art
        assert len(art.splitlines()) > 2

    def test_empty_trace_rejected(self, pipeline_result):
        from repro.profiles import Trace

        with pytest.raises(ValueError):
            record_heatmap(pipeline_result.baseline.executable, Trace())
