"""Tests for Phase 3: whole-program analysis."""

import bisect
import gc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import MemoryMeter
from repro.codegen import CodeGenOptions, compile_program
from repro.core import bbsections, wpa
from repro.core.exttsp import ExtTSP
from repro.core.wpa import (
    BlockIndex,
    FunctionDCFG,
    WPAOptions,
    WPAStats,
    _count_events,
    _merge_superblocks,
    analyze,
    build_dcfg,
)
from repro.linker import LinkOptions, link
from repro.obs import Tracer
from repro.profiles import collect_lbr_profile
from repro.synth import PRESETS, generate_workload
from tests.conftest import encode_bb_addr_maps, perf_from_samples, sample_records


@pytest.fixture(scope="module")
def program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.6, seed=9)


@pytest.fixture(scope="module")
def metadata_exe(program):
    objs = compile_program(program, CodeGenOptions(bb_addr_map=True))
    return link([c.obj for c in objs], LinkOptions(keep_bb_addr_map=True)).executable


@pytest.fixture(scope="module")
def perf(metadata_exe):
    return collect_lbr_profile(metadata_exe, max_branches=80_000, period=31, seed=4)


@pytest.fixture(scope="module")
def result(metadata_exe, perf):
    return analyze(metadata_exe, perf)


class TestAnalyze:
    def test_requires_bb_addr_map(self, program, perf):
        objs = compile_program(program, CodeGenOptions())  # no metadata
        exe = link([c.obj for c in objs]).executable
        with pytest.raises(ValueError, match="address map"):
            analyze(exe, perf)

    def test_hot_functions_detected(self, result):
        assert result.hot_functions
        assert "main" in result.hot_functions
        assert set(result.hot_functions) == set(result.clusters)

    def test_primary_cluster_starts_with_entry(self, result, program):
        for fn, clusters in result.clusters.items():
            entry_id = program.function(fn).entry.bb_id
            assert clusters[0][0] == entry_id

    def test_clusters_have_no_duplicates(self, result):
        for fn, clusters in result.clusters.items():
            flat = [bb for c in clusters for bb in c]
            assert len(flat) == len(set(flat))

    def test_clusters_reference_real_blocks(self, result, program):
        for fn, clusters in result.clusters.items():
            function = program.function(fn)
            for cluster in clusters:
                for bb in cluster:
                    assert function.has_block(bb)

    def test_symbol_order_covers_hot_functions(self, result):
        order = set(result.symbol_order)
        for fn in result.hot_functions:
            assert fn in order

    def test_cold_symbols_after_primaries(self, result):
        order = result.symbol_order
        last_primary = max(
            i for i, s in enumerate(order) if not s.endswith(".cold")
        )
        first_cold = min(
            (i for i, s in enumerate(order) if s.endswith(".cold")), default=None
        )
        if first_cold is not None:
            assert first_cold > 0
            assert all(s.endswith(".cold") for s in order[first_cold:])

    def test_directive_texts_parse(self, result):
        parsed = bbsections.parse_cc_prof(result.cc_prof_text)
        assert parsed == {k: [list(c) for c in v] for k, v in result.clusters.items()}
        assert bbsections.parse_ld_prof(result.ld_prof_text) == result.symbol_order

    def test_dcfg_counts_positive(self, result):
        for fd in result.dcfg.values():
            assert all(c > 0 for c in fd.block_counts.values())
            assert all(w > 0 for w in fd.edges.values())

    def test_call_edges_between_known_functions(self, result, program):
        for (caller, callee), weight in result.call_edges.items():
            assert program.has_function(caller)
            assert program.has_function(callee)
            assert weight > 0

    def test_stats_accounting(self, result, perf):
        stats = result.stats
        assert stats.num_samples == perf.num_samples
        assert stats.num_records > 0
        assert stats.profile_bytes == perf.size_bytes
        assert stats.dcfg_nodes > 0
        assert stats.peak_memory_bytes > perf.size_bytes
        assert stats.cost_units > 0

    def test_meter_balances(self, metadata_exe, perf, monkeypatch):
        meters = []

        class Recorded(MemoryMeter):
            def __init__(self):
                super().__init__()
                meters.append(self)

        monkeypatch.setattr(wpa, "MemoryMeter", Recorded)
        result = analyze(metadata_exe, perf)
        (meter,) = meters
        assert meter.live_bytes == 0
        assert result.stats.peak_memory_bytes == meter.peak_bytes > 0

    def test_split_cold_off_keeps_all_blocks(self, metadata_exe, perf, program):
        result = analyze(metadata_exe, perf, WPAOptions(split_cold=False))
        for fn, clusters in result.clusters.items():
            assert len(clusters[0]) == program.function(fn).num_blocks

    @pytest.mark.slow
    def test_deterministic(self, metadata_exe, perf):
        a = analyze(metadata_exe, perf)
        b = analyze(metadata_exe, perf)
        assert a.clusters == b.clusters
        assert a.symbol_order == b.symbol_order


class TestInterproc:
    @pytest.mark.slow
    def test_interproc_clusters_valid(self, metadata_exe, perf, program):
        result = analyze(metadata_exe, perf, WPAOptions(interproc=True))
        assert result.clusters
        for fn, clusters in result.clusters.items():
            entry_id = program.function(fn).entry.bb_id
            assert clusters[0][0] == entry_id or entry_id in clusters[0]
            flat = [bb for c in clusters for bb in c]
            assert len(flat) == len(set(flat))

    @pytest.mark.slow
    def test_interproc_symbols_match_cluster_naming(self, metadata_exe, perf):
        result = analyze(metadata_exe, perf, WPAOptions(interproc=True))
        for symbol in result.symbol_order:
            base = symbol.split(".")[0] if "." in symbol else symbol
            assert base in result.clusters or symbol in result.clusters

    def test_interproc_node_cap(self, metadata_exe, perf):
        with pytest.raises(ValueError, match="too large"):
            analyze(metadata_exe, perf, WPAOptions(interproc=True, max_interproc_nodes=1))


class TestSuperblocks:
    def test_full_flow_merges(self):
        counts = {0: 100.0, 1: 100.0, 2: 100.0}
        edges = {(0, 1): 100.0, (1, 2): 100.0}
        assert _merge_superblocks([0, 1, 2], counts, edges) == [[0, 1, 2]]

    def test_partial_flow_splits(self):
        counts = {0: 100.0, 1: 50.0, 2: 50.0}
        edges = {(0, 1): 50.0, (1, 2): 50.0}
        assert _merge_superblocks([0, 1, 2], counts, edges) == [[0], [1, 2]]

    def test_no_edge_no_merge(self):
        counts = {0: 10.0, 1: 10.0}
        assert _merge_superblocks([0, 1], counts, {}) == [[0], [1]]

    def test_empty(self):
        assert _merge_superblocks([], {}, {}) == []


# -- LBR inference -----------------------------------------------------


class _MapOnlyExe:
    """Just what ``BlockIndex.from_bb_addr_map`` reads: the symbol
    table's ``name`` and ``addr`` columns and the map section.
    ``functions`` are ``(name, addr, first offset, [(bb_id, size),
    ...])``; an ``addr`` of ``None`` is a map entry with no symbol."""

    name = "hand-built"

    def __init__(self, functions):
        maps = []
        columns = {"name": [], "addr": []}
        for func, addr, offset, block_sizes in functions:
            entries = []
            for bb_id, size in block_sizes:
                entries.append((bb_id, offset, size, 0))
                offset += size
            maps.append((func, entries))
            if addr is not None:
                columns["name"].append(func)
                columns["addr"].append(addr)
        self.symbols = SimpleNamespace(values=columns.__getitem__)
        self._raw = encode_bb_addr_maps(maps)

    def section_bytes(self, kind):
        return self._raw


#: ``f``: blocks 10, 11, 12, 13 at 0x1000, 0x1010, 0x1020, 0x1030;
#: ``g``: blocks 0, 1 at 0x2000, 0x2008; ``h``: block 5 at 0x3000;
#: ``lp``: blocks 0, 1 at 0x4001, 0x4005 (a landing-pad nop at 0x4000).
#: ``ghost`` (no symbol) and ``empty`` (no blocks) are not indexed.
#: Everything else (0x1040-0x1fff, 0x2010-0x2fff, 0x3004-0x4000, below
#: 0x1000, from 0x4009 up) is unmapped.
_F, _G, _H, _LP = 0x1000, 0x2000, 0x3000, 0x4000
_UNMAPPED = 0x1800


@pytest.fixture(scope="module")
def index():
    return BlockIndex.from_bb_addr_map(_MapOnlyExe([
        ("lp", _LP, 1, [(0, 4), (1, 4)]),
        ("f", _F, 0, [(10, 16), (11, 16), (12, 16), (13, 16)]),
        ("ghost", None, 0, [(0, 8)]),
        ("g", _G, 0, [(0, 8), (1, 8)]),
        ("empty", 0x5000, 0, []),
        ("h", _H, 0, [(5, 4)]),
    ]))


def _lookup(index, addr):
    """The scalar lookup ``BlockIndex.resolve`` replaced, over the
    index's columns: ``addr``'s block (``func``, row ``pos``, ``bb_id``,
    ``is_entry``), or ``None``."""
    starts = index.starts.tolist()
    i = bisect.bisect_right(starts, addr) - 1
    if i < 0 or addr >= int(index.ends[i]):
        return None
    lo, hi = int(index.bounds[i]), int(index.bounds[i + 1])
    j = bisect.bisect_right(index.block_starts[lo:hi].tolist(), addr) - 1
    if j < 0:
        return None
    return SimpleNamespace(func=index.names[i], pos=lo + j, bb_id=int(index.keys[lo + j]),
                           is_entry=j == 0 and addr == starts[i])


def _perf(*samples):
    return perf_from_samples(samples)


def _build(index, perf):
    stats = WPAStats()
    dcfg, call_edges, block_call_edges, distinct = build_dcfg(index, perf, stats)
    return dcfg, call_edges, block_call_edges, stats, distinct


def _reference_build_dcfg(index, perf, stats):
    """The record-by-record builder ``build_dcfg`` replaced, kept as
    the reference: every record resolved and expanded on its own."""
    dcfg, call_edges, block_call_edges = {}, {}, {}

    def fd(name):
        if name not in dcfg:
            dcfg[name] = FunctionDCFG(name=name)
        return dcfg[name]

    for records in sample_records(perf):
        prev = None
        for src, dst in records:
            stats.num_records += 1
            sref, dref = _lookup(index, src), _lookup(index, dst)
            if sref is None or dref is None:
                stats.records_dropped += 1
                prev = None
                continue
            if prev is not None and prev.func == sref.func and prev.pos <= sref.pos:
                func_d = fd(sref.func)
                ids = index.keys[prev.pos : sref.pos + 1].tolist()
                for bb_id in ids:
                    func_d.block_counts[bb_id] = func_d.block_counts.get(bb_id, 0.0) + 1.0
                for a, b in zip(ids, ids[1:]):
                    func_d.edges[(a, b)] = func_d.edges.get((a, b), 0.0) + 1.0
            if sref.func == dref.func:
                key = (sref.bb_id, dref.bb_id)
                fd(sref.func).edges[key] = fd(sref.func).edges.get(key, 0.0) + 1.0
            elif dref.is_entry:
                call_key = (sref.func, dref.func)
                call_edges[call_key] = call_edges.get(call_key, 0.0) + 1.0
                bkey = (sref.func, sref.bb_id, dref.func, dref.bb_id)
                block_call_edges[bkey] = block_call_edges.get(bkey, 0.0) + 1.0
            prev = dref
    return dcfg, call_edges, block_call_edges


def _reference_count_events(index, perf, stats):
    """The record-at-a-time pass 1 :func:`_count_events` replaced, kept as
    the reference for its dict order and accounting."""
    refs, events = {}, {}
    for records in sample_records(perf):
        stats.num_records += len(records)
        prev_dst = None
        for src, dst in records:
            for addr in (src, dst):
                if addr not in refs:
                    refs[addr] = _lookup(index, addr)
            if refs[src] is None or refs[dst] is None:
                stats.records_dropped += 1
                prev_dst = None
                continue
            if prev_dst is not None:
                events[prev_dst, src, True] = events.get((prev_dst, src, True), 0) + 1
            events[src, dst, False] = events.get((src, dst, False), 0) + 1
            prev_dst = dst
    return refs, events


def _as_items(dcfg, call_edges, block_call_edges):
    """Everything as item lists, so dict insertion order is compared too."""
    return (
        [(name, list(fd.block_counts.items()), list(fd.edges.items()))
         for name, fd in dcfg.items()],
        list(call_edges.items()),
        list(block_call_edges.items()),
    )


@st.composite
def _hand_built_index(draw):
    """A ``BlockIndex`` over functions at any start, overlapping or not,
    some with no blocks, each block at any offset inside its range."""
    names, starts, ends, rows, block_starts = [], [], [], [], []
    for i in range(draw(st.integers(0, 6))):
        start = draw(st.integers(0, 0x400))
        extent = draw(st.integers(1, 0x100))
        offsets = sorted(draw(st.lists(st.integers(0, extent - 1), max_size=4)))
        names.append(f"f{i}")
        starts.append(start)
        ends.append(start + extent)
        rows.append(range(len(block_starts), len(block_starts) + len(offsets)))
        block_starts += [start + offset for offset in offsets]
    return BlockIndex(names, starts, ends, rows, block_starts,
                      range(100, 100 + len(block_starts)))


class TestBlockIndex:
    def test_columns(self, index):
        assert index.names == ["f", "g", "h", "lp"]
        assert index.starts.tolist() == [_F, _G, _H, _LP]
        assert index.ends.tolist() == [_F + 0x40, _G + 0x10, _H + 0x04, _LP + 0x09]
        assert index.bounds.tolist() == [0, 4, 6, 7, 9]
        assert index.keys.tolist() == [10, 11, 12, 13, 0, 1, 5, 0, 1]
        assert index.block_starts.tolist() == [
            _F, _F + 0x10, _F + 0x20, _F + 0x30, _G, _G + 0x08, _H, _LP + 0x01, _LP + 0x05]
        assert index.owner.tolist() == [0, 0, 0, 0, 1, 1, 2, 3, 3]
        assert index.blocks("g") == ([0, 1], [8, 8])
        assert index.blocks("lp") == ([0, 1], [4, 4])
        assert index.blocks("f") == ([10, 11, 12, 13], [16, 16, 16, 16])

    @settings(max_examples=300, deadline=None)
    @given(_hand_built_index(), st.lists(st.integers(0, 0x520), max_size=40))
    def test_resolve_equals_the_scalar_lookup(self, index, addrs):
        expected = [-1 if ref is None else ref.pos
                    for ref in (_lookup(index, addr) for addr in addrs)]
        assert index.resolve(np.array(addrs, dtype=np.uint64)).tolist() == expected

    def test_the_map_index_holds_a_few_objects(self, metadata_exe):
        """Columns, not a record per block: what the index keeps alive is
        a handful of tracked objects, whatever the binary's size."""
        counts = []
        for _ in range(3):
            before = _tracked_objects()
            index = BlockIndex.from_bb_addr_map(metadata_exe)
            counts.append(_tracked_objects() - before)
            del index
        assert counts[0] == counts[1] == counts[2] < 10


def _tracked_objects():
    """The collector's tracked objects once it has settled: it untracks a
    tuple of untracked items only after those, one nesting level per
    collection."""
    last, count = None, -1
    while count != last:
        gc.collect()
        last, count = count, len(gc.get_objects())
    return count


class TestBuildDCFG:
    def test_fallthrough_across_three_blocks(self, index):
        # Land in block 10, run through 11, branch out of 12 (to 13).
        dcfg, calls, block_calls, stats, _ = _build(index, _perf(
            [(_F + 0x38, _F + 0x04), (_F + 0x2c, _F + 0x30)]))
        f = dcfg["f"]
        assert f.block_counts == {10: 1.0, 11: 1.0, 12: 1.0}
        assert f.edges == {(13, 10): 1.0, (10, 11): 1.0, (11, 12): 1.0, (12, 13): 1.0}
        assert not calls and not block_calls
        assert (stats.num_records, stats.records_dropped) == (2, 0)

    def test_unmapped_record_is_dropped_and_breaks_the_chain(self, index):
        dcfg, _, _, stats, _ = _build(index, _perf(
            [(_F + 0x38, _F), (_UNMAPPED, _F + 0x10), (_F + 0x2c, _F + 0x30)]))
        # Without the dropped record the last one would infer 10..12.
        assert dcfg["f"].block_counts == {}
        assert dcfg["f"].edges == {(13, 10): 1.0, (12, 13): 1.0}
        assert (stats.num_records, stats.records_dropped) == (3, 1)
        dropped_dst, _, _, stats, _ = _build(index, _perf([(_F, _UNMAPPED)]))
        assert not dropped_dst and stats.records_dropped == 1

    def test_sample_boundary_breaks_the_chain(self, index):
        dcfg, _, _, stats, _ = _build(index, _perf(
            [(_F + 0x38, _F)], [], [(_F + 0x2c, _F + 0x30)]))
        assert dcfg["f"].block_counts == {}
        assert stats.num_records == 2

    def test_call_edge_only_on_function_entry(self, index):
        dcfg, calls, block_calls, _, _ = _build(index, _perf([
            (_F + 0x14, _G),       # call f -> g from block 11
            (_G + 0x0c, _F + 0x18),  # return into the middle of block 11
            (_F + 0x1c, _G + 0x08),  # cross-function, not an entry: nothing
        ]))
        assert calls == {("f", "g"): 1.0}
        assert block_calls == {("f", 11, "g", 0): 1.0}
        # Fall-throughs g:0..1 and f:11 still counted; no edge f->g in a DCFG.
        assert dcfg["g"].block_counts == {0: 1.0, 1: 1.0}
        assert dcfg["g"].edges == {(0, 1): 1.0}
        assert dcfg["f"].block_counts == {11: 1.0}
        assert dcfg["f"].edges == {}

    def test_backwards_range_infers_nothing(self, index):
        # Lands in block 12, next branch leaves from block 10.
        dcfg, _, _, _, _ = _build(index, _perf(
            [(_F + 0x38, _F + 0x20), (_F + 0x04, _F + 0x30)]))
        assert dcfg["f"].block_counts == {}
        assert dcfg["f"].edges == {(13, 12): 1.0, (10, 13): 1.0}

    def test_repeats_are_counted_not_replayed(self, index):
        records = [(_F + 0x38, _F + 0x04), (_F + 0x2c, _F + 0x30)] * 50
        dcfg, _, _, stats, distinct = _build(index, _perf(records, records))
        assert dcfg["f"].block_counts[11] == 100.0
        assert dcfg["f"].edges[(13, 10)] == 100.0
        assert stats.num_records == 200
        assert distinct == {"distinct_addresses": 4, "distinct_branches": 2,
                            "distinct_fallthroughs": 2}

    # Block starts, block interiors, one-past-the-end and unmapped holes,
    # up to the top of the u64 range.
    _ADDRESSES = st.sampled_from(
        [_F, _F + 0x04, _F + 0x10, _F + 0x1c, _F + 0x20, _F + 0x30, _F + 0x3f,
         _F + 0x40, _G, _G + 0x07, _G + 0x08, _G + 0x10, _H, _H + 0x03, _H + 0x04,
         _LP, _LP + 0x01, _LP + 0x05, _LP + 0x08, _LP + 0x09, 0x5000,
         _F - 1, _UNMAPPED, 2**63, 2**64 - 1])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(_ADDRESSES, _ADDRESSES), max_size=12), max_size=6),
           st.integers(min_value=1, max_value=3))
    def test_equals_record_by_record_reference(self, index, samples, repeat):
        perf = _perf(*(samples * repeat))
        ref_stats = WPAStats()
        reference = _reference_build_dcfg(index, perf, ref_stats)
        dcfg, calls, block_calls, stats, _ = _build(index, perf)
        assert _as_items(dcfg, calls, block_calls) == _as_items(*reference)
        assert (stats.num_records, stats.records_dropped) == (
            ref_stats.num_records, ref_stats.records_dropped)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(_ADDRESSES, _ADDRESSES), max_size=12), max_size=6),
           st.integers(min_value=1, max_value=5))
    def test_chunked_pass_1_equals_record_at_a_time(self, index, samples, chunk):
        """At any chunk size -- samples, fall-throughs and dropped records
        straddling chunk edges -- pass 1 counts what one record at a time
        does, in the same first-appearance order."""
        perf = _perf(*samples)
        ref_stats, stats = WPAStats(), WPAStats()
        ref_refs, ref_events = _reference_count_events(index, perf, ref_stats)
        with mock.patch.object(wpa, "CHUNK", chunk):
            refs, events = _count_events(index, perf, stats)
            distinct = _build(index, perf)[-1]
        assert list(events.items()) == list(ref_events.items())

        assert refs == {a: -1 if r is None else r.pos for a, r in ref_refs.items()}
        assert (stats.num_records, stats.records_dropped) == (
            ref_stats.num_records, ref_stats.records_dropped)
        falls = sum(fall for _, _, fall in ref_events)
        assert distinct == {"distinct_addresses": len(ref_refs),
                            "distinct_branches": len(ref_events) - falls,
                            "distinct_fallthroughs": falls}


class TestDistinctWork:
    """WPA's work follows the profile's distinct content, exactly."""

    def test_one_resolve_per_distinct_address(self, metadata_exe, perf, monkeypatch):
        resolved = []
        resolve = BlockIndex.resolve
        monkeypatch.setattr(
            BlockIndex, "resolve",
            lambda self, addrs: resolved.extend(addrs) or resolve(self, addrs))
        analyze(metadata_exe, perf)
        distinct = {addr for s in sample_records(perf) for record in s for addr in record}
        assert len(resolved) == len(distinct) < perf.num_records
        assert set(resolved) == distinct

    def test_dcfg_span_notes_the_distinct_work(self, metadata_exe, perf):
        tracer = Tracer()
        analyze(metadata_exe, perf, tracer=tracer)
        (span,) = [s for s in tracer.spans if s.name == "wpa:dcfg"]
        records = [record for s in sample_records(perf) for record in s]
        assert span.args["records"] == len(records)
        assert span.args["distinct_addresses"] == len({a for r in records for a in r})
        # No record of this profile is dropped, so every distinct
        # (src, dst) pair is a branch event.
        assert span.args["dropped"] == 0
        assert span.args["distinct_branches"] == len(set(records))
        assert 0 < span.args["distinct_fallthroughs"] <= len(records) - perf.num_samples

    def test_each_candidate_pair_scored_once(self, metadata_exe, perf, monkeypatch):
        scored = []
        placements = []
        best_merge = ExtTSP._best_merge
        totals = ExtTSP._totals

        def counting(self, x, y):
            scored.append((id(self), x.cid, x.version, y.cid, y.version))
            return best_merge(self, x, y)

        monkeypatch.setattr(ExtTSP, "_best_merge", counting)
        monkeypatch.setattr(ExtTSP, "_totals", lambda self, x, y, cuts, split_x: (
            placements.append(len(cuts)) or totals(self, x, y, cuts, split_x)))
        solvers = []
        init = ExtTSP.__init__
        # Keep every solver alive so ids stay distinct.
        monkeypatch.setattr(
            ExtTSP, "__init__",
            lambda self, *a, **kw: solvers.append(self) or init(self, *a, **kw))
        tracer = Tracer()
        analyze(metadata_exe, perf, tracer=tracer)
        assert scored and len(scored) == len(set(scored))
        # The layout span counts the solver's work exactly; a candidate
        # is scored only once its bound tops the heap, so some never are.
        (span,) = [s for s in tracer.spans if s.name == "wpa:layout"]
        assert span.args["candidates_scored"] == len(scored)
        assert span.args["placements_scored"] == sum(placements)
        assert len(scored) < span.args["candidates_pushed"]
