"""Tests for the layout-free walk and its projection onto binaries.

One walk, many binaries: :func:`repro.profiles.walk` decides what a
program executes, :func:`repro.profiles.project` says what one image
does when it executes that -- and refuses, with a structured
:class:`ProjectionError`, an image that cannot.
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import BBSectionsMode, CodeGenOptions, compile_program
from repro.linker import LinkOptions, link
from repro.profiles import ProjectionError, generate_trace, project, walk
from repro.profiles import trace as trace_module
from repro.synth import PRESETS, generate_workload
from tests.test_relaxation_oracle import _random_clusters, section_leaders

_LAYOUTS = []


def layouts():
    """One program, four layouts: plain, all-sections, split, shuffled."""
    if not _LAYOUTS:
        program = generate_workload(PRESETS["531.deepsjeng"], scale=0.3, seed=7)
        rng = random.Random(3)
        clusters = {}
        for module in program.modules:
            clusters.update(_random_clusters(module, rng))
        for options in (CodeGenOptions(),
                        CodeGenOptions(bb_sections=BBSectionsMode.ALL),
                        CodeGenOptions(bb_sections=BBSectionsMode.LIST, clusters=clusters)):
            objects = [c.obj for c in compile_program(program, options)]
            _LAYOUTS.append(link(objects).executable)
        order = section_leaders(objects)
        rng.shuffle(order)
        _LAYOUTS.append(link(objects, LinkOptions(symbol_order=order)).executable)
    return _LAYOUTS


_LAYOUT = st.integers(0, 3)


class TestProjection:
    @settings(max_examples=40, deadline=None)
    @given(_LAYOUT, _LAYOUT, st.integers(0, 10**6), st.integers(0, 4000), st.booleans())
    def test_any_layouts_walk_projects_to_this_layouts_trace(
            self, walked, projected, seed, blocks, record_blocks):
        a, b = layouts()[walked], layouts()[projected]
        budget = dict(seed=seed, max_blocks=blocks, record_blocks=record_blocks)
        assert project(walk(a, **budget), b) == generate_trace(b, **budget)

    @settings(max_examples=40, deadline=None)
    @given(_LAYOUT, _LAYOUT, st.integers(0, 10**6), st.integers(1, 3000))
    def test_branch_budget_stops_on_the_walked_binarys_branch(
            self, walked, projected, seed, branches):
        a, b = layouts()[walked], layouts()[projected]
        shared = walk(a, max_branches=branches, seed=seed)
        assert project(shared, a).num_branches == branches
        # Elsewhere the same walk takes more or fewer branches; it is
        # the start of that binary's own run over as many blocks.
        ours = project(shared, b)
        full = generate_trace(b, seed=seed, max_blocks=shared.executed_count)
        taken = ours.num_branches
        assert ours.block_addrs == full.block_addrs
        assert (ours.branch_src, ours.branch_dst, ours.branch_kind) == (
            full.branch_src[:taken], full.branch_dst[:taken], full.branch_kind[:taken])

    def test_streams_are_plain_ints(self):
        trace = generate_trace(layouts()[0], max_branches=50, seed=1)
        for stream in (trace.block_addrs, trace.branch_src, trace.branch_dst,
                       trace.branch_kind):
            assert stream and {type(x) for x in stream} == {int}


def used_transitions(shared, exe):
    """``(kind, leaving block, slot, entered block)`` of each distinct
    transition of ``shared``, in order of first use, as ``exe``'s blocks."""
    by_key = {(b.func, b.bb_id): b for b in exe.exec_blocks}
    for tid in dict.fromkeys(shared.steps.tolist()):
        kind, src, slot, other = shared.transitions[tid]
        yield kind, by_key[shared.blocks[src]], slot, by_key[shared.blocks[other]]


def with_blocks(exe, edit):
    """``exe`` with ``edit(block)`` (a block, or None to drop it) applied.
    The block table builds a fresh record per read, so edits pick their
    block by value, not by identity."""
    edited = [edit(b) for b in exe.exec_blocks]
    return replace(exe, exec_blocks=[b for b in edited if b is not None])


def failure_site(error):
    return error.value.func, error.value.bb_id, error.value.addr


class TestDifferentialExecutor:
    """A projection checks that the image executes the walked program."""

    @pytest.fixture(scope="class")
    def exe(self):
        return layouts()[0]

    @pytest.fixture(scope="class")
    def shared(self, exe):
        return walk(exe, max_blocks=3000, seed=5)

    def test_moved_fallthrough_successor(self, exe, shared):
        # A block the walk first enters by falling into it.
        first_entry = {}
        for kind, src, _, dst in used_transitions(shared, exe):
            first_entry.setdefault(dst.addr, (kind, src, dst))
        source, successor = next(
            (src, dst) for kind, src, dst in first_entry.values()
            if kind == trace_module._TERM and src.term.kind == "fallthrough")
        assert source.end == successor.addr
        moved = with_blocks(
            exe, lambda b: replace(b, addr=b.addr + (1 << 20)) if b == successor else b)
        with pytest.raises(ProjectionError, match="no branch or fall-through here reaches") as err:
            project(shared, moved)
        assert failure_site(err) == (source.func, source.bb_id, source.addr)

    def test_retargeted_conditional_branch(self, exe, shared):
        # The first conditional branch whose taken arm the walk follows.
        source = next(
            src for kind, src, _, dst in used_transitions(shared, exe)
            if kind == trace_module._TERM and src.term.kind == "condbr"
            and src.term.cond_target == dst.addr)
        retargeted = with_blocks(
            exe, lambda b: replace(b, term=replace(b.term, cond_target=b.addr))
            if b == source else b)
        with pytest.raises(ProjectionError, match="no branch or fall-through here reaches") as err:
            project(shared, retargeted)
        assert failure_site(err) == (source.func, source.bb_id, source.addr)

    def test_dropped_block(self, exe, shared):
        *_, victim = (dst for _, _, _, dst in used_transitions(shared, exe)
                      if dst.addr != exe.entry)
        first_in = next(src for _, src, _, dst in used_transitions(shared, exe)
                        if dst == victim)
        with pytest.raises(ProjectionError, match="lacks") as err:
            project(shared, with_blocks(exe, lambda b: None if b == victim else b))
        assert failure_site(err) == (victim.func, victim.bb_id, first_in.addr)

    def test_misdirected_direct_call(self, exe, shared):
        source, slot = next(
            (src, slot) for kind, src, slot, _ in used_transitions(shared, exe)
            if kind == trace_module._CALL and src.calls[slot].target is not None)
        misdirected = with_blocks(
            exe, lambda b: replace(b, calls=tuple(
                replace(c, target=c.target + 1) if i == slot else c
                for i, c in enumerate(b.calls))) if b == source else b)
        with pytest.raises(ProjectionError, match="no call here reaches") as err:
            project(shared, misdirected)
        assert failure_site(err) == (source.func, source.bb_id, source.addr)

    def test_wrong_entry_point(self, exe, shared):
        other = next(b for b in exe.exec_blocks if b.addr != exe.entry)
        with pytest.raises(ProjectionError, match="entry") as err:
            project(shared, replace(exe, entry=other.addr))
        assert err.value.addr == other.addr


class TestExactWork:
    """The scorecard's work follows its distinct content, exactly."""

    def test_scorecard_walks_once(self, pipeline_result, monkeypatch):
        walks = []
        monkeypatch.setattr(
            "repro.hwmodel.frontend.walk",
            lambda *a, **kw: walks.append(walk(*a, **kw)) or walks[-1])
        scorecard = pipeline_result.frontend_counters(max_blocks=5000)
        assert len(walks) == 1 and set(scorecard) == {"baseline", "optimized"}
        assert walks[0].executed_count == 5000

    def test_each_distinct_transition_resolved_once(self, monkeypatch):
        exe = layouts()[1]
        shared = walk(layouts()[0], max_blocks=3000, seed=2)
        resolved = []
        resolve = trace_module._resolve
        monkeypatch.setattr(
            trace_module, "_resolve",
            lambda walk, image, t: resolved.append(t) or resolve(walk, image, t))
        project(shared, exe)
        distinct = {shared.transitions[t] for t in shared.steps.tolist()}
        assert len(resolved) == len(distinct) < len(shared.steps)
        assert set(resolved) == distinct


_MASK64 = (1 << 64) - 1
_TWO_64 = 18446744073709551616.0


def _mix_to_unit(x: int) -> float:
    """The scalar finalizer the walker called once per multi-way decision,
    kept as the oracle of its precomputed draws."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x / _TWO_64


class TestDraws:
    """The walker's NumPy draws are the scalar ones, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(min_value=0, max_value=_MASK64),
                     st.integers(min_value=2**64 - 64, max_value=2**64 + 64),
                     st.integers(min_value=0, max_value=2**72)),
           st.integers(min_value=0, max_value=80))
    def test_units_equal_the_scalar_mix(self, start, n):
        """Including starts near and past the 2**64 wrap."""
        draws = trace_module._units(start, n)
        expected = [_mix_to_unit(start + i * trace_module._DRAW_STEP) for i in range(n)]
        assert [v.hex() for v in draws.tolist()] == [v.hex() for v in expected]

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(min_value=0, max_value=_MASK64),
                     st.builds(lambda m, low: (m << 11) | low,
                               st.integers(min_value=0, max_value=2**53 - 1),
                               st.sampled_from([0x3FF, 0x400, 0x401, 0x7FF]))))
    def test_uint64_to_double_rounds_like_python(self, x):
        """Halfway cases too: the one step where the two could differ."""
        got = (np.array([x], dtype=np.uint64) / _TWO_64).tolist()[0]
        assert got.hex() == (x / _TWO_64).hex()
