"""The two profile interpreters against the scalar loops they replaced.

:func:`repro.profiles.walk` reads a call-free block's next row off a tape
and :func:`repro.profiles.collect_ir_profile` steps over interned ids.
The loops they replaced are kept here, as :func:`walk_reference` and
:func:`collect_ir_profile_reference`, and every output must equal
theirs: every :class:`Walk` field, and every :class:`IRProfile` dict in
insertion order.
"""

import random
from array import array
from typing import Dict, List, Tuple

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_program
from repro.ir import cfg as ir_cfg
from repro.linker import LinkOptions, link
from repro.profiles import IRProfile, collect_ir_profile, walk
from repro.profiles.hashing import function_anchors
from repro.profiles.trace import (
    _DRAW_STEP,
    _DRAWS_MAX,
    _MASK64,
    _RET,
    _TERM_SLOT,
    Walk,
    _compile_block,
    _units,
)
from tests.test_relaxation_oracle import section_leaders


def walk_reference(exe, max_branches=100_000, seed=0, record_blocks=True, max_blocks=None,
                   per_read_draws=False):
    """The walk as one scalar loop: every block reads its draws at its
    count when the slot runs.  ``per_read_draws`` instead reads a
    (block, slot)'s draws in order, one per use -- what a tape for every
    block would give."""
    blocks = exe.exec_blocks
    ids = {addr: i for i, addr in enumerate(blocks.col("addr"))}
    transitions: List[Tuple[int, int, int, int]] = []
    seed_mixed = (seed * 0x9E3779B97F4A7C15) & _MASK64
    calls_of: list = [None] * len(ids)
    choices_of, returns, bases, counts, draws_of = (list(calls_of) for _ in range(5))
    reads: Dict[Tuple[int, int], int] = {}
    entry = ids[exe.entry]
    if max_blocks is None:
        max_blocks = 1 << 62
    else:
        max_branches = 1 << 62
    visits, steps = array("i"), array("i")
    return_ids: Dict[Tuple[int, int], int] = {}
    frames: List[Tuple[int, int, int]] = []
    executed = taken = restarts = 0
    block, call_idx = entry, 0
    while taken < max_branches:
        calls = calls_of[block]
        if calls is None:
            key, calls, choices_of[block], returns[block] = _compile_block(
                blocks, ids, transitions, block)
            calls_of[block] = calls
            bases[block] = (seed_mixed + key * 0xBF58476D1CE4E5B9) & _MASK64
            counts[block] = 0
            draws_of[block] = [[0]] * (len(calls) + 1)
        if call_idx == 0:
            if executed >= max_blocks:
                break
            executed += 1
            counts[block] += 1
            if record_blocks:
                visits.append(block)
        if call_idx < len(calls):
            rows = calls[call_idx]
            call_idx += 1
            slot = call_idx
        else:
            rows = choices_of[block]
            slot = 0
        if rows:
            row = rows[0]
            if len(rows) > 1:
                window, k = draws_of[block][slot], counts[block]
                if per_read_draws:
                    k = reads[block, slot] = reads.get((block, slot), 0) + 1
                i = k - window[0]
                if i >= len(window):
                    window = draws_of[block][slot] = [k - 1, *_units(
                        bases[block] + (slot or _TERM_SLOT) + k * _DRAW_STEP,
                        min(max(16, k), _DRAWS_MAX)).tolist()]
                    i = 1
                v = window[i]
                for row in rows:
                    if v < row[0]:
                        break
            steps.append(row[2])
            taken += row[3]
            if slot:
                frames.append((block, call_idx, row[2]))
            block, call_idx = row[1], 0
        elif returns[block] and frames:
            caller, call_idx, site = frames.pop()
            tid = return_ids.get((block, site))
            if tid is None:
                tid = return_ids[block, site] = len(transitions)
                transitions.append((_RET, block, transitions[site][2], caller))
            steps.append(tid)
            taken += 1
            block = caller
        else:
            restarts += 1
            frames.clear()
            block, call_idx = entry, 0
    return Walk(list(zip(blocks.values("func"), blocks.col("bb_id"))), transitions, entry,
                np.frombuffer(visits, dtype=np.int32), np.frombuffer(steps, dtype=np.int32),
                restarts, executed)


def _cumulative(choices):
    acc = 0.0
    out = []
    for item, prob in choices:
        acc += prob
        out.append((acc, item))
    return tuple(out)


def _compile_ir_block(function, bb_id):
    block = function.block(bb_id)
    calls = []
    for instr in block.instrs:
        if not isinstance(instr, ir.Call):
            continue
        if instr.callee is not None:
            calls.append((instr.callee, None))
        elif instr.indirect_targets:
            calls.append((None, _cumulative(instr.indirect_targets)))
    if isinstance(block.term, (ir.Ret, ir.Unreachable)):
        return tuple(calls), None
    return tuple(calls), _cumulative(ir_cfg.successor_edges(block))


def collect_ir_profile_reference(program, max_steps=200_000, seed=0):
    """The PGO run as one scalar loop over ``(function, bb_id)`` keys,
    counting in floats."""
    profile = IRProfile()
    random_draw = random.Random(seed).random
    edges = profile.edges
    blocks = profile.blocks
    calls = profile.call_counts
    compiled = {}
    entry_name = program.entry_function
    frames = []
    fname, bb_id, call_idx = entry_name, 0, 0
    calls[entry_name] = calls.get(entry_name, 0.0) + 1
    for _step in range(max_steps):
        node = compiled.get((fname, bb_id))
        if node is None:
            node = compiled[(fname, bb_id)] = _compile_ir_block(program.function(fname), bb_id)
        sites, successors = node
        if call_idx == 0:
            fblocks = blocks.setdefault(fname, {})
            fblocks[bb_id] = fblocks.get(bb_id, 0.0) + 1
        if call_idx < len(sites):
            target, indirect_targets = sites[call_idx]
            if target is None:
                r = random_draw()
                target = indirect_targets[-1][1]
                for acc, name in indirect_targets:
                    if r < acc:
                        target = name
                        break
            calls[target] = calls.get(target, 0.0) + 1
            frames.append((fname, bb_id, call_idx + 1))
            fname, bb_id, call_idx = target, program.function(target).entry.bb_id, 0
            continue
        if successors is None:
            if frames:
                fname, bb_id, call_idx = frames.pop()
            else:
                fname, bb_id, call_idx = entry_name, 0, 0
                calls[entry_name] += 1
            continue
        r = random_draw()
        nxt = successors[-1][1]
        for acc, succ in successors:
            if r < acc:
                nxt = succ
                break
        fedges = edges.setdefault(fname, {})
        key = (bb_id, nxt)
        fedges[key] = fedges.get(key, 0.0) + 1
        bb_id, call_idx = nxt, 0
    for fname in profile.blocks:
        profile.anchors[fname] = function_anchors(program.function(fname))
    return profile


# ----------------------------------------------------------------------
# Random programs

_PROB = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def _terminators(draw, n_blocks):
    kinds = ["jump", "switch", "ret", "unreachable"] + (["condbr"] * 2 if n_blocks > 1 else [])
    kind = draw(st.sampled_from(kinds))
    target = st.integers(0, n_blocks - 1)
    if kind == "condbr":
        taken, fallthrough = draw(st.lists(target, min_size=2, max_size=2, unique=True))
        return ir.CondBr(taken=taken, fallthrough=fallthrough, prob=draw(_PROB))
    if kind == "jump":
        return ir.Jump(draw(target))
    if kind == "switch":
        targets = draw(st.lists(target, min_size=2, max_size=5))
        weights = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in targets]
        return ir.Switch(targets=tuple(targets),
                         probs=tuple(w / sum(weights) for w in weights))
    return ir.Ret() if kind == "ret" else ir.Unreachable()


@st.composite
def _calls(draw, names):
    kind = draw(st.sampled_from(["direct", "indirect", "unknown"]))
    if kind == "direct":
        return ir.Call(callee=draw(st.sampled_from(names)))
    if kind == "unknown":
        return ir.Call()
    targets = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3))
    weights = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in targets]
    return ir.Call(indirect_targets=tuple((t, w / sum(weights))
                                          for t, w in zip(targets, weights)))


@st.composite
def programs(draw):
    """2-5 functions over 1-2 modules, recursion and returns from
    ``main`` (restarts) included.  ``main``'s entry block opens with a
    call to ``leaf``, which returns, so every restart takes a branch and
    a branch budget is always reached."""
    names = ["main", "leaf"] + [f"f{i}" for i in range(draw(st.integers(0, 3)))]
    functions = [ir.Function(name="leaf", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)], term=ir.Ret())])]
    for name in names[:1] + names[2:]:
        n_blocks = draw(st.integers(1, 6))
        blocks = []
        for bb_id in range(n_blocks):
            instrs = [ir.Instr(ir.OpKind.ALU8)]
            instrs += draw(st.lists(_calls(names), max_size=2))
            if name == "main" and bb_id == 0:
                instrs.insert(0, ir.Call(callee="leaf"))
            blocks.append(ir.BasicBlock(bb_id=bb_id, instrs=instrs,
                                        term=draw(_terminators(n_blocks))))
        functions.append(ir.Function(name=name, blocks=blocks))
    split = draw(st.integers(1, len(functions)))
    modules = [ir.Module(name=f"m{i}", functions=part)
               for i, part in enumerate((functions[:split], functions[split:])) if part]
    program = ir.Program(name="random", modules=modules)
    ir.verify_program(program)
    return program


def _link(program, mode=BBSectionsMode.NONE, shuffle_seed=None):
    objects = [c.obj for c in compile_program(program, CodeGenOptions(bb_sections=mode))]
    order = None
    if shuffle_seed is not None:
        order = section_leaders(objects)
        random.Random(shuffle_seed).shuffle(order)
    return link(objects, LinkOptions(symbol_order=order)).executable


def _walk_fields(w):
    return (w.blocks, w.transitions, w.entry, w.visits.tolist(), w.steps.tolist(),
            w.restarts, w.executed_count)


def _profile_items(profile):
    """Every dict of ``profile``, insertion order included."""
    return ([(f, list(d.items())) for f, d in profile.edges.items()],
            [(f, list(d.items())) for f, d in profile.blocks.items()],
            list(profile.call_counts.items()), list(profile.anchors))


class TestWalkEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(programs(), st.sampled_from([BBSectionsMode.NONE, BBSectionsMode.ALL]),
           st.one_of(st.none(), st.integers(0, 1000)), st.integers(0, 10**6),
           st.booleans(), st.booleans(), st.integers(0, 3000))
    def test_every_field(self, program, mode, shuffle_seed, seed, by_blocks, record_blocks,
                         budget):
        exe = _link(program, mode, shuffle_seed)
        if by_blocks:
            kwargs = dict(max_blocks=budget)
        else:
            kwargs = dict(max_branches=budget)
        kwargs.update(seed=seed, record_blocks=record_blocks)
        assert _walk_fields(walk(exe, **kwargs)) == _walk_fields(walk_reference(exe, **kwargs))

    def test_restarts_are_covered(self):
        """The random programs restart: ``main`` returns."""
        restarted = []

        @settings(max_examples=30, deadline=None, database=None)
        @given(programs(), st.integers(0, 10**6))
        def run(program, seed):
            exe = _link(program)
            ours = walk(exe, seed=seed, max_blocks=2000)
            assert _walk_fields(ours) == _walk_fields(walk_reference(exe, seed=seed,
                                                                     max_blocks=2000))
            restarted.append(ours.restarts > 0)

        run()
        assert any(restarted)

    def test_synthetic_workload(self, tiny_program):
        exe = _link(tiny_program, BBSectionsMode.ALL)
        for kwargs in (dict(max_branches=20_000, record_blocks=False),
                       dict(max_blocks=20_000)):
            assert (_walk_fields(walk(exe, seed=5, **kwargs))
                    == _walk_fields(walk_reference(exe, seed=5, **kwargs)))


def _recursive_program():
    """``f``'s bb1 calls ``f`` and ends in a condbr: a recursive visit runs
    between its call and its terminator."""
    f = ir.Function(name="f", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)],
                      term=ir.CondBr(taken=1, fallthrough=2, prob=0.6)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Call(callee="f")],
                      term=ir.CondBr(taken=2, fallthrough=3, prob=0.5)),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.LOAD)], term=ir.Ret()),
        ir.BasicBlock(bb_id=3, instrs=[ir.Instr(ir.OpKind.MOV)], term=ir.Ret()),
    ])
    main = ir.Function(name="main", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="f")], term=ir.Jump(0))])
    return ir.Program(name="recursive", modules=[ir.Module(name="m", functions=[main, f])])


class TestRecursion:
    """Blocks with calls keep count-indexed draws: a recursive visit
    between a block's call and its terminator makes the terminator read
    a count the inner visit's terminator read too."""

    def test_calling_blocks_read_counts_not_tapes(self):
        exe = _link(_recursive_program())
        for seed in range(3):
            ours = walk(exe, seed=seed, max_blocks=5000)
            assert _walk_fields(ours) == _walk_fields(
                walk_reference(exe, seed=seed, max_blocks=5000))
            assert _walk_fields(ours) != _walk_fields(
                walk_reference(exe, seed=seed, max_blocks=5000, per_read_draws=True))

    def test_pgo_run_recurses(self):
        program = _recursive_program()
        ours = collect_ir_profile(program, max_steps=5000, seed=4)
        assert _profile_items(ours) == _profile_items(
            collect_ir_profile_reference(program, max_steps=5000, seed=4))
        assert ours.call_counts["f"] > ours.call_counts["main"]


class TestPGOEqualsReference:
    @settings(max_examples=150, deadline=None)
    @given(programs(), st.integers(0, 10**6), st.sampled_from([0, 1, 2, 7, 100, 3000]))
    def test_every_dict_in_insertion_order(self, program, seed, steps):
        ours = collect_ir_profile(program, max_steps=steps, seed=seed)
        reference = collect_ir_profile_reference(program, max_steps=steps, seed=seed)
        assert _profile_items(ours) == _profile_items(reference)
        assert ours.digest() == reference.digest()

    def test_synthetic_workload(self, small_program):
        ours = collect_ir_profile(small_program, max_steps=30_000, seed=3)
        assert _profile_items(ours) == _profile_items(
            collect_ir_profile_reference(small_program, max_steps=30_000, seed=3))
