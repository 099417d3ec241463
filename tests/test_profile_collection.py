"""Tests for trace generation, LBR sampling and PGO profiles."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import BBSectionsMode, CodeGenOptions, compile_program
from repro.elf import SectionKind
from repro.linker import LinkOptions, link
from repro.profiles import (
    IRProfile,
    PerfData,
    Trace,
    collect_ir_profile,
    generate_trace,
    sample_lbr,
)
from repro.profiles.lbr import LBR_DEPTH
from repro.synth import PRESETS, generate_workload
from tests.conftest import perf_from_samples, sample_records


@pytest.fixture(scope="module")
def program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.5, seed=5)


@pytest.fixture(scope="module")
def exe(program):
    objs = compile_program(program, CodeGenOptions(bb_addr_map=True))
    return link([c.obj for c in objs]).executable


@pytest.fixture(scope="module")
def exe_allsections(program):
    objs = compile_program(program, CodeGenOptions(bb_sections=BBSectionsMode.ALL))
    return link([c.obj for c in objs]).executable


class TestTraceGeneration:
    def test_branch_budget(self, exe):
        trace = generate_trace(exe, max_branches=5000, seed=1)
        assert trace.num_branches == 5000

    def test_block_budget(self, exe):
        trace = generate_trace(exe, max_blocks=5000, seed=1)
        assert trace.num_blocks_executed == 5000
        assert len(trace.block_addrs) == 5000

    def test_deterministic(self, exe):
        a = generate_trace(exe, max_branches=2000, seed=3)
        b = generate_trace(exe, max_branches=2000, seed=3)
        assert a.block_addrs == b.block_addrs
        assert a.branch_src == b.branch_src

    def test_seed_matters(self, exe):
        a = generate_trace(exe, max_branches=2000, seed=3)
        b = generate_trace(exe, max_branches=2000, seed=4)
        assert a.block_addrs != b.block_addrs

    def test_record_blocks_off(self, exe):
        trace = generate_trace(exe, max_blocks=3000, seed=1, record_blocks=False)
        assert trace.block_addrs == []
        assert trace.num_blocks_executed == 3000

    def test_all_addresses_are_blocks(self, exe):
        trace = generate_trace(exe, max_branches=3000, seed=2)
        for addr in trace.block_addrs:
            exe.block_at(addr)  # a KeyError unless a block starts there
        for dst in trace.branch_dst:
            # Branch destinations are block starts or mid-block return points.
            pass  # structural check: sources must be within text
        texts = exe.sections_of_kind(SectionKind.TEXT)
        lo = min(texts.ints("vaddr").tolist())
        hi = max((texts.ints("vaddr") + texts.ints("size")).tolist())
        assert all(lo <= s < hi for s in trace.branch_src)

    def test_layout_invariance(self, program, exe, exe_allsections):
        """The same (function, block) sequence executes regardless of layout."""
        t1 = generate_trace(exe, max_blocks=4000, seed=9)
        t2 = generate_trace(exe_allsections, max_blocks=4000, seed=9)
        m1 = {b.addr: (b.func, b.bb_id) for b in exe.exec_blocks}
        m2 = {b.addr: (b.func, b.bb_id) for b in exe_allsections.exec_blocks}
        assert [m1[a] for a in t1.block_addrs] == [m2[a] for a in t2.block_addrs]

    def test_addresses_vary_with_layout(self, exe, exe_allsections):
        t1 = generate_trace(exe, max_blocks=4000, seed=9)
        t2 = generate_trace(exe_allsections, max_blocks=4000, seed=9)
        # Same work at different addresses; branch counts are free to differ.
        assert t1.block_addrs != t2.block_addrs


class TestLBR:
    def test_sample_count(self, exe):
        trace = generate_trace(exe, max_branches=10_000, seed=1, record_blocks=False)
        perf = sample_lbr(trace, period=100)
        assert perf.num_samples == 100

    def test_records_capped_at_depth(self, exe):
        trace = generate_trace(exe, max_branches=5000, seed=1, record_blocks=False)
        perf = sample_lbr(trace, period=97)
        assert all(len(s) <= LBR_DEPTH for s in sample_records(perf))
        assert sample_records(perf)[-1]  # non-empty

    def test_records_match_trace(self, exe):
        trace = generate_trace(exe, max_branches=500, seed=1, record_blocks=False)
        perf = sample_lbr(trace, period=100)
        sample = sample_records(perf)[0]
        lo = 100 - len(sample)
        assert list(sample) == list(zip(trace.branch_src[lo:100],
                                                trace.branch_dst[lo:100]))

    def test_size_accounting(self, exe):
        trace = generate_trace(exe, max_branches=5000, seed=1, record_blocks=False)
        perf = sample_lbr(trace, period=50)
        assert perf.size_bytes > perf.num_records * 16

    def test_invalid_period(self, exe):
        trace = generate_trace(exe, max_branches=100, seed=1, record_blocks=False)
        with pytest.raises(ValueError):
            sample_lbr(trace, period=0)


def _reference_windows(src, dst, period):
    """The tuple-per-record sampler ``sample_lbr`` replaced."""
    out = []
    for at in range(period, len(src) + 1, period):
        lo = max(0, at - LBR_DEPTH)
        out.append(tuple(zip(src[lo:at], dst[lo:at])))
    return out


def _reference_digest(period, samples):
    """The tuple-by-tuple hash ``PerfData.digest`` replaced."""
    h = hashlib.sha256()
    h.update(str(period).encode())
    for records in samples:
        h.update(b"\x00S")
        for src, dst in records:
            h.update(src.to_bytes(16, "little", signed=True))
            h.update(dst.to_bytes(16, "little", signed=True))
    return h.hexdigest()


def _window_digest(perf):
    """The one-update-per-sample hash ``PerfData.digest`` replaced."""
    h = hashlib.sha256()
    h.update(str(perf.period).encode())
    for src, dst in perf.windows():
        h.update(b"\x00S")
        zero = np.zeros_like(src)
        h.update(np.stack((src, zero, dst, zero), axis=1).astype("<u8").tobytes())
    return h.hexdigest()


_ADDR = st.integers(min_value=0, max_value=2**63 - 1)


class TestLBRColumns:
    """The columnar profile equals the tuple-per-record one it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(_ADDR, _ADDR), max_size=200),
           st.sampled_from([1, 2, 7, 31, 32, 33, 64, 101, 250]))
    def test_sample_lbr_equals_reference_windows(self, branches, period):
        """Periods below, at and above LBR_DEPTH; traces shorter than one period."""
        src = [s for s, _ in branches]
        dst = [d for _, d in branches]
        expected = _reference_windows(src, dst, period)
        for stream in (list, lambda xs: np.array(xs, dtype=np.int64)):
            perf = sample_lbr(Trace(branch_src=stream(src), branch_dst=stream(dst)), period)
            assert sample_records(perf) == expected
            assert perf.num_records == sum(map(len, expected))
            assert perf.size_bytes == sum(48 + 16 * len(s) for s in expected)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.tuples(st.integers(0, 2**64 - 1), _ADDR), max_size=40),
                    max_size=12),
           st.integers(min_value=0, max_value=1000))
    def test_digest_equals_the_tuple_by_tuple_hash(self, samples, period):
        """Addresses past 2**63 and empty samples included."""
        perf = perf_from_samples(samples, period=period)
        assert perf.digest() == _reference_digest(period, samples)
        assert [list(s) for s in sample_records(perf)] == samples

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.sampled_from([0, 0, 1, 2, 31, 32]), max_size=300),
           st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=10**6))
    def test_one_buffer_digest_equals_the_per_window_loop(self, sizes, seed, period):
        """Random CSR profiles, runs of empty samples and the full uint64
        range included."""
        rng = np.random.default_rng(seed)
        offsets = np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))
        src, dst = rng.integers(0, 2**64, size=(2, offsets[-1]), dtype=np.uint64)
        perf = PerfData(src, dst, offsets, period)
        assert perf.digest() == _window_digest(perf)


class TestIRProfile:
    def test_counts_collected(self, program):
        profile = collect_ir_profile(program, max_steps=30_000, seed=2)
        assert profile.function_count("main") > 0
        counts = profile.call_counts
        hot = sorted((f for f, c in counts.items() if c > 0), key=lambda f: -counts[f])
        assert hot[0] == "main" or profile.call_counts[hot[0]] > 0
        assert any(profile.edge_counts(f) for f in hot)

    def test_deterministic(self, program):
        a = collect_ir_profile(program, max_steps=10_000, seed=2)
        b = collect_ir_profile(program, max_steps=10_000, seed=2)
        assert a.call_counts == b.call_counts

    def test_edges_reference_real_blocks(self, program):
        profile = collect_ir_profile(program, max_steps=20_000, seed=2)
        for fname, edges in profile.edges.items():
            fn = program.function(fname)
            for (src, dst) in edges:
                assert fn.has_block(src)
                assert fn.has_block(dst)

    def test_drift_zero_is_equal_copy(self, program):
        profile = collect_ir_profile(program, max_steps=5_000, seed=2)
        out = profile.apply_drift(0.0)
        assert out is not profile
        assert out.edges == profile.edges
        assert out.blocks == profile.blocks
        assert out.call_counts == profile.call_counts

    def test_drift_perturbs_and_drops(self, program):
        profile = collect_ir_profile(program, max_steps=20_000, seed=2)
        drifted = collect_ir_profile(program, max_steps=20_000, seed=2).apply_drift(
            0.5, seed=1
        )
        zeroed = sum(
            1
            for fname, edges in drifted.edges.items()
            for count in edges.values()
            if count == 0.0
        )
        total = sum(len(e) for e in drifted.edges.values())
        assert 0.2 < zeroed / total < 0.8  # dropout ~ drift probability
        assert profile.edges != drifted.edges

    def test_drift_deterministic(self, program):
        profile = collect_ir_profile(program, max_steps=5_000, seed=2)
        assert profile.apply_drift(0.3, seed=7).edges == profile.apply_drift(0.3, seed=7).edges
