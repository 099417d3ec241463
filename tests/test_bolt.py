"""Tests for the BOLT-style baseline optimizer."""

import bisect
import importlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import MemoryMeter
from repro.bolt import (
    BoltBlock,
    BoltError,
    BoltFunction,
    BoltProfile,
    BoltStartupCrash,
    DisassemblyResult,
    check_startup,
    disassemble,
    perf2bolt,
    run_bolt,
)
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.core.wpa import analyze
from repro.profiles import generate_trace
from repro.synth import PRESETS, generate_workload
from tests.conftest import perf_from_samples

perf2bolt_module = importlib.import_module("repro.bolt.perf2bolt")


@pytest.fixture(scope="module")
def setup(small_program, pipeline_config):
    pipe = PropellerPipeline(small_program, pipeline_config)
    res = pipe.run()
    bm = pipe.build_bolt_input(res.ir_profile)
    return pipe, res, bm


class TestDisassembly:
    def test_requires_relocations(self, setup):
        _pipe, res, _bm = setup
        with pytest.raises(ValueError, match="emit-relocs"):
            disassemble(res.baseline.executable)

    def test_discovers_all_functions(self, setup, small_program):
        _pipe, _res, bm = setup
        result = disassemble(bm.executable)
        assert len(result.functions) == small_program.num_functions

    def test_blocks_within_function_ranges(self, setup):
        _pipe, _res, bm = setup
        result = disassemble(bm.executable)
        for func in result.functions:
            for block in func.blocks:
                assert func.addr <= block.addr < func.end
                assert block.size > 0

    def test_memory_scales_with_instructions(self, setup):
        _pipe, _res, bm = setup
        meter = MemoryMeter()
        result = disassemble(bm.executable, meter=meter)
        assert result.total_instrs > 0
        assert meter.peak_bytes >= result.total_instrs * 100

    @pytest.mark.slow
    def test_embedded_jump_tables_marked_non_simple(self, pipeline_config):
        program = generate_workload(PRESETS["spanner"], scale=0.0008, seed=2)
        pipe = PropellerPipeline(program, pipeline_config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        result = disassemble(bm.executable)
        non_simple = [f for f in result.functions if not f.simple]
        assert non_simple
        assert any("jump table" in f.reason or "decode" in f.reason for f in non_simple)


class _ReferenceBlockIndex:
    """Address -> (function, block) over disassembled functions: the
    index perf2bolt kept before it shared WPA's ``BlockIndex``."""

    def __init__(self, disassembly):
        self.func_starts = []
        self.funcs = []
        for func in sorted(disassembly.functions, key=lambda f: f.addr):
            if not func.blocks:
                continue
            self.func_starts.append(func.addr)
            self.funcs.append((func, [b.addr for b in func.blocks]))

    def lookup(self, addr):
        i = bisect.bisect_right(self.func_starts, addr) - 1
        if i < 0:
            return None
        func, starts = self.funcs[i]
        if addr >= func.end:
            return None
        j = bisect.bisect_right(starts, addr) - 1
        if j < 0:
            return None
        return func, j


def _reference_perf2bolt(disassembly, perf):
    """perf2bolt's record-at-a-time aggregation, kept as the reference
    for the shared ``build_dcfg`` path: block counts, same-function
    edges (both keyed by block address, over the whole binary), call
    edges, and the records dropped."""
    index = _ReferenceBlockIndex(disassembly)
    counts, edges, call_edges, dropped = {}, {}, {}, 0
    for srcs, dsts in perf.windows():
        prev_dst = None
        for src, dst in zip(srcs.tolist(), dsts.tolist()):
            s = index.lookup(src)
            d = index.lookup(dst)
            if s is None or d is None:
                dropped += 1
                prev_dst = None
                continue
            s_func, s_idx = s
            d_func, d_idx = d
            if prev_dst is not None:
                p = index.lookup(prev_dst)
                if p is not None and p[0] is s_func and p[1] <= s_idx:
                    for block in s_func.blocks[p[1] : s_idx + 1]:
                        counts[block.addr] = counts.get(block.addr, 0.0) + 1.0
                    run = s_func.blocks[p[1] : s_idx + 1]
                    for a, b in zip(run, run[1:]):
                        key = (a.addr, b.addr)
                        edges[key] = edges.get(key, 0.0) + 1.0
            if s_func is d_func:
                key = (s_func.blocks[s_idx].addr, d_func.blocks[d_idx].addr)
                edges[key] = edges.get(key, 0.0) + 1.0
            elif d_idx == 0 and dst == d_func.addr:
                ckey = (s_func.name, d_func.name)
                call_edges[ckey] = call_edges.get(ckey, 0.0) + 1.0
            prev_dst = dst
    return counts, edges, call_edges, dropped


def _items(profile):
    """A ``BoltProfile`` as comparable items: per function name, its block
    counts and its edges as item lists (dict order compared too), then
    the call edges as items, the records dropped and the modelled bytes."""
    functions = {name: (list(fd.block_counts.items()), list(fd.edges.items()))
                 for name, fd in profile.functions.items()}
    return functions, list(profile.call_edges.items()), profile.records_dropped, \
        profile.modelled_bytes


def _reference_items(reference, disassembly):
    """:func:`_reference_perf2bolt`'s whole-binary dicts in :func:`_items`'s
    shape: each item goes to the function owning its (first) block."""
    counts, edges, call_edges, dropped = reference
    owner = {block.addr: func.name for func in disassembly.functions for block in func.blocks}
    functions = {}
    for addr, count in counts.items():
        functions.setdefault(owner[addr], ([], []))[0].append((addr, count))
    for (a, b), weight in edges.items():
        functions.setdefault(owner[a], ([], []))[1].append(((a, b), weight))
    modelled = len(counts) * 24 + len(edges) * 40 + len(call_edges) * 48
    return functions, list(call_edges.items()), dropped, modelled


def _function(name, addr, size, starts):
    """A disassembled function whose blocks start at ``starts``, each
    running to the next (the last to the function's end)."""
    ends = [*starts[1:], addr + size]
    return BoltFunction(name=name, addr=addr, size=size, blocks=[
        BoltBlock(addr=start, size=end - start, num_instrs=1, is_entry=i == 0)
        for i, (start, end) in enumerate(zip(starts, ends))])


#: Disassembly-shaped: ``f`` at 0x1000 with a padding byte before its
#: first block (0x1001, 0x1010, 0x1018); ``g`` at 0x1040 (0x1040,
#: 0x1048); ``cold`` at 0x1050, non-simple (no blocks); ``h`` at 0x1060,
#: listed first (the index sorts by address).  0x1030-0x103f is a gap.
_HAND_DISASSEMBLY = DisassemblyResult(functions=[
    _function("h", 0x1060, 0x10, [0x1060]),
    _function("f", 0x1000, 0x30, [0x1001, 0x1010, 0x1018]),
    _function("g", 0x1040, 0x10, [0x1040, 0x1048]),
    BoltFunction(name="cold", addr=0x1050, size=0x10, simple=False),
], total_instrs=6, modelled_bytes=0, num_simple=3)

_HAND_ADDRESSES = st.sampled_from([
    0x0fff, 0x1000, 0x1001, 0x1005, 0x1010, 0x1017, 0x1018, 0x1020, 0x102f, 0x1030,
    0x1040, 0x1044, 0x1048, 0x104f, 0x1050, 0x1055, 0x1060, 0x106f, 0x1070, 2**64 - 1])


class TestPerf2Bolt:
    def test_profile_aggregation(self, setup):
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        assert any(fd.block_counts for fd in out.profile.functions.values())
        assert any(fd.edges for fd in out.profile.functions.values())
        assert out.cost_units > 0

    def test_equals_the_record_at_a_time_reference(self, setup):
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        reference = _reference_perf2bolt(out.disassembly, res.perf)
        assert _items(out.profile) == _reference_items(reference, out.disassembly)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(_HAND_ADDRESSES, _HAND_ADDRESSES), max_size=10),
                    max_size=5),
           st.integers(min_value=1, max_value=3))
    def test_hand_built_disassembly_equals_the_reference(self, samples, repeat):
        perf = perf_from_samples(samples * repeat)
        with mock.patch.object(perf2bolt_module, "disassemble",
                               lambda exe, meter: _HAND_DISASSEMBLY):
            out = perf2bolt(None, perf)
        reference = _reference_perf2bolt(_HAND_DISASSEMBLY, perf)
        assert _items(out.profile) == _reference_items(reference, _HAND_DISASSEMBLY)

    def test_memory_exceeds_wpa(self, setup):
        """Figure 4's claim: disassembly-driven conversion uses far more
        memory than the BB-address-map path on the same profile."""
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        wpa_stats = analyze(res.metadata.executable, res.perf).stats
        assert out.peak_memory_bytes > 2 * wpa_stats.peak_memory_bytes

    def test_call_edges_found(self, setup):
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        assert out.profile.call_edges


class TestOptimizer:
    def test_rewrite_produces_runnable_binary(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        check_startup(result.executable)
        trace = generate_trace(result.executable, max_blocks=20_000, seed=5)
        assert trace.num_blocks_executed == 20_000

    def test_layout_invariant_execution(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        t_base = generate_trace(res.baseline.executable, max_blocks=10_000, seed=6)
        t_bolt = generate_trace(result.executable, max_blocks=10_000, seed=6)
        m1 = {b.addr: (b.func, b.bb_id) for b in res.baseline.executable.exec_blocks}
        m2 = {b.addr: (b.func, b.bb_id) for b in result.executable.exec_blocks}
        assert [m1[a] for a in t_base.block_addrs] == [m2[a] for a in t_bolt.block_addrs]

    def test_original_text_retained(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        names = {s.name for s in result.executable.sections}
        assert ".text.bolt" in names
        original = {s.name for s in bm.executable.sections}
        assert original <= names

    def test_output_larger_than_input(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        assert result.stats.output_size > res.baseline.executable.total_size * 1.2

    def test_moved_symbols_updated(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        before = {sym.name: sym.addr for sym in bm.executable.symbols}
        moved = [
            sym.name for sym in result.executable.symbols
            if sym.addr != before[sym.name] and not sym.name.startswith(".")
        ]
        assert moved

    def test_no_overlapping_blocks(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        blocks = sorted(result.executable.exec_blocks, key=lambda b: b.addr)
        for a, b in zip(blocks, blocks[1:]):
            assert a.addr + a.size <= b.addr

    def test_runtime_and_memory_accounted(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        assert result.stats.runtime_seconds > 0
        assert result.stats.peak_memory_bytes > bm.executable.total_size


class TestFailureModes:
    def _bolt_for(self, preset_name, scale=0.002):
        program = generate_workload(PRESETS[preset_name], scale=scale, seed=1)
        config = PipelineConfig(lbr_branches=40_000, pgo_steps=20_000, enforce_ram=False)
        pipe = PropellerPipeline(program, config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        return bm, res

    @pytest.mark.slow
    def test_huge_binary_fails_during_rewrite(self):
        bm, res = self._bolt_for("superroot", scale=0.0004)
        with pytest.raises(BoltError, match="eh_frame"):
            run_bolt(bm.executable, res.perf)

    @pytest.mark.slow
    def test_rseq_binary_crashes_at_startup(self):
        bm, res = self._bolt_for("spanner", scale=0.0008)
        result = run_bolt(bm.executable, res.perf)
        with pytest.raises(BoltStartupCrash, match="rseq"):
            check_startup(result.executable)

    @pytest.mark.slow
    def test_fips_binary_crashes_at_startup(self):
        bm, res = self._bolt_for("bigtable", scale=0.0008)
        result = run_bolt(bm.executable, res.perf)
        with pytest.raises(BoltStartupCrash, match="FIPS"):
            check_startup(result.executable)

    def test_plain_binary_starts_fine(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        check_startup(result.executable)  # must not raise

    @pytest.mark.slow
    def test_propeller_binary_unaffected_by_features(self):
        # Propeller relinks rather than rewrites: rseq/FIPS still work.
        program = generate_workload(PRESETS["spanner"], scale=0.0008, seed=1)
        config = PipelineConfig(lbr_branches=40_000, pgo_steps=20_000, enforce_ram=False)
        res = PropellerPipeline(program, config).run()
        check_startup(res.optimized.executable)
