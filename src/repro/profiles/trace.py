"""Machine-level execution trace generation.

Walks an executable's resolved execution model
(:class:`repro.elf.ExecBlock`) following the workload's ground-truth
probabilities.  Produces the block-visit stream (consumed by the
micro-architecture model) and the taken-branch stream (consumed by the
LBR sampler).  Fall-throughs -- not-taken conditional branches and
deleted jumps -- produce no branch event, which is exactly why layout
optimizers try to create them.

**Layout invariance.**  What a program executes and where a binary put
it are two objects.  :func:`walk` decides the first, once: the decision
for the k-th execution of basic block (f, b) is a hash of ``(seed, f, b,
k)`` resolved against successors in canonical (IR block id) order, over
tables keyed by ``(func, bb_id)`` that hold no address.  Its
:class:`Walk` is the blocks visited plus the *transitions* between them
(a call entering its callee, a terminator continuing at a successor, a
return resuming a call site), each distinct one interned to a small
integer.  :func:`project_arrays` supplies the second: it resolves every
distinct transition against one binary once -- to a taken-branch event
or to "falls through, no event" -- and leaves the address and branch
streams as views (:class:`Projected`) that gather a slice or an index
array of them on demand, so a projection costs an index of the taken
steps, not a copy of the run (:func:`project` materialises the same
view as lists).  Binaries built from one program
replay the *identical* walk, and exactly so: the tables (with the
``1 - p`` of a condition-inverted branch) come from the one binary
:func:`walk` was given, where two separate walks agreed only up to the
rounding of ``1 - (1 - p)``.  Only the projected address and
taken-branch streams differ between layouts, which is precisely what
the experiments measure.  And because a projection has to find every
walked step in the image -- a successor that is the branch target or
address-adjacent, a call that reaches its callee's entry, a block that
exists -- it doubles as a check that the image executes the walked
program; a step it cannot take raises :class:`ProjectionError`.
"""

from __future__ import annotations

import functools
import zlib
from array import array
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.elf import ExecBlock, Executable

BRANCH_KIND_COND = 0
BRANCH_KIND_JMP = 1
BRANCH_KIND_CALL = 2
BRANCH_KIND_RET = 3
BRANCH_KIND_IJMP = 4

_MASK64 = (1 << 64) - 1
_TERM_SLOT = 0xFF
#: Hash-input step between two executions of one block.
_DRAW_STEP = 0x94D049BB133111EB
#: Most draws one (block, slot) holds at a time.
_DRAWS_MAX = 256


def _units(start: int, n: int) -> np.ndarray:
    """SplitMix64-style finalizer of ``start + i * _DRAW_STEP`` mapped to
    [0, 1), for ``i < n``; bit-identical to scalar integer arithmetic, as
    uint64 wraps mod 2**64, converts to float64 correctly rounded and
    dividing by 2**64 is exact."""
    x = np.arange(n, dtype=np.uint64) * np.uint64(_DRAW_STEP) + np.uint64(start & _MASK64)
    for factor in (0xFF51AFD7ED558CCD, 0xC4CEB9FE1A85EC53):
        x ^= x >> np.uint64(33)
        x *= np.uint64(factor)
    x ^= x >> np.uint64(33)
    return x / 18446744073709551616.0


@dataclass
class Trace:
    """One profiled run.

    ``block_addrs`` is every basic block executed, in order (the fetch
    stream).  ``branch_src``/``branch_dst``/``branch_kind`` are the
    taken control transfers, parallel arrays.  Each stream is a list of
    ints (:func:`project`) or a :class:`Projected` view
    (:func:`project_arrays`); read a view a slice at a time.
    """

    block_addrs: List[int] = field(default_factory=list)
    branch_src: List[int] = field(default_factory=list)
    branch_dst: List[int] = field(default_factory=list)
    branch_kind: List[int] = field(default_factory=list)
    restarts: int = 0
    executed_count: int = 0

    @property
    def num_branches(self) -> int:
        return len(self.branch_src)

    @property
    def num_blocks_executed(self) -> int:
        return self.executed_count or len(self.block_addrs)


class ProjectionError(ValueError):
    """An image cannot execute a step of the walk it is projected onto.

    ``func``/``bb_id`` name the block the failing step leaves (or the
    block the image lacks) and ``addr`` is where that step starts in
    the image.
    """

    def __init__(self, problem: str, func: str, bb_id: int, addr: int):
        super().__init__(f"{func} bb{bb_id} @ {addr:#x}: {problem}")
        self.func = func
        self.bb_id = bb_id
        self.addr = addr


# Transition kinds.  A transition is ``(kind, block, slot, other)`` over
# canonical block ids: the slot-th call of ``block`` enters ``other``; the
# terminator of ``block`` continues at ``other``; ``block`` returns to the
# slot-th call of ``other``.
_CALL, _TERM, _RET = 0, 1, 2


@dataclass
class Walk:
    """One execution of a program, free of any layout.

    ``blocks[i]`` is the ``(func, bb_id)`` of canonical block ``i`` and
    ``transitions[t]`` the meaning of transition ``t``; ``visits`` and
    ``steps`` are the run itself, as int32 indices into those two tables
    (``visits`` stays empty when blocks were not recorded), viewing the
    buffers the walker appended to.
    """

    blocks: List[Tuple[str, int]]
    transitions: List[Tuple[int, int, int, int]]
    entry: int
    visits: np.ndarray
    steps: np.ndarray
    restarts: int = 0
    executed_count: int = 0


def _live_calls(block: ExecBlock) -> list:
    """Call sites that transfer control (a call with no known target does not)."""
    return [c for c in block.calls if c.target is not None or c.indirect_targets]


def _compile_block(blocks, ids: Dict[int, int], transitions: list, bid: int):
    """One block's walker tables: ``(hash key, calls, choices, returns)``.

    ``calls`` has an entry per live call site, ``choices`` is the
    terminator's (empty for ret/trap); each is a tuple of ``(cumulative
    prob, block, transition, taken)`` rows over canonical ids, interned
    into ``transitions`` here.  ``taken`` -- does the walked binary branch
    there -- is the one layout fact kept, so a ``max_branches`` budget can
    count.  ``blocks`` is that binary's block table: only the blocks a
    walk visits are ever built as records.
    """
    block = blocks[bid]

    def rows(kind: int, slot: int, arms: list, catch_all: float) -> tuple:
        acc = 0.0
        out = []
        for prob, addr, taken in arms:
            acc += prob
            out.append((acc, ids[addr], len(transitions), taken))
            transitions.append((kind, bid, slot, ids[addr]))
        out[-1] = (catch_all, *out[-1][1:])
        return tuple(out)

    calls = tuple(
        rows(_CALL, slot, [(p, t, 1) for t, p in
                           (call.indirect_targets if call.target is None
                            else ((call.target, 1.0),))], 1.0 + 1e-9)
        for slot, call in enumerate(_live_calls(block)))
    term = block.term
    kind = term.kind
    arms = []
    if kind == "condbr":
        falls = term.uncond_target is None
        # Two-way choices resolve in canonical (IR block id) order.
        arms = sorted(
            [(term.cond_prob, term.cond_target, 1),
             (1.0 - term.cond_prob, block.end if falls else term.uncond_target, int(not falls))],
            key=lambda arm: blocks.col("bb_id")[ids[arm[1]]])
    elif kind == "jump":
        arms = [(1.0, term.uncond_target, 1)]
    elif kind == "fallthrough":
        arms = [(1.0, block.end, 0)]
    elif kind == "ijmp":
        arms = [(p, t, 1) for t, p in term.ijmp_targets]
    elif kind not in ("ret", "trap"):
        raise ValueError(f"unknown terminator kind {kind!r}")
    choices = rows(_TERM, 0, arms, 1.0 + 1e-9 if kind == "condbr" else 2.0) if arms else ()
    key = ((zlib.crc32(block.func.encode()) << 20) ^ block.bb_id) & _MASK64
    return key, calls, choices, kind == "ret"


def walk(
    exe: Executable,
    max_branches: int = 100_000,
    seed: int = 0,
    record_blocks: bool = True,
    max_blocks: Optional[int] = None,
) -> Walk:
    """Execute the program ``exe`` was built from, from its entry point.

    The run stops after ``max_branches`` branches taken *in ``exe``*,
    or -- when ``max_blocks`` is given -- after that many basic blocks
    have executed.  **Performance comparisons must budget by blocks**:
    the block-visit sequence is layout-invariant, so a fixed block
    budget holds work constant while the number of taken branches
    varies with layout quality.  Budgeting by branches would hold the
    B2 counter constant by construction.

    When the program returns from its entry function (or hits a trap)
    the run restarts, modelling a driver invoking the workload in a
    loop; ``Walk.restarts`` counts these.
    """
    blocks = exe.exec_blocks
    ids = {addr: i for i, addr in enumerate(blocks.col("addr"))}
    transitions: List[Tuple[int, int, int, int]] = []
    seed_mixed = (seed * 0x9E3779B97F4A7C15) & _MASK64
    # Per-block tables, compiled on a block's first visit.  A (block,
    # slot) holds a window of its draws, ``[k0 - 1, draw k0, draw k0 + 1,
    # ...]`` (slot: term 0, call i); execution k of the block reads index
    # ``k - (k0 - 1)``, and a window used up is replaced by one from k on.
    calls_of: list = [None] * len(ids)
    choices_of, returns, bases, counts, draws_of = (list(calls_of) for _ in range(5))
    entry = ids[exe.entry]
    if max_blocks is None:
        max_blocks = 1 << 62
    else:
        max_branches = 1 << 62  # blocks are the binding budget
    visits, steps = array("i"), array("i")
    visit, step = visits.append, steps.append  # bound once: the loop's hottest calls
    return_ids: Dict[Tuple[int, int], int] = {}
    # Explicit frame stack of (calling block, resume call idx, call transition).
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
                visit(block)
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
                i = k - window[0]
                if i >= len(window):  # used up: up to twice as many, from k on
                    window = draws_of[block][slot] = [k - 1, *_units(
                        bases[block] + (slot or _TERM_SLOT) + k * _DRAW_STEP,
                        min(max(16, k), _DRAWS_MAX)).tolist()]
                    i = 1
                v = window[i]
                for row in rows:
                    if v < row[0]:
                        break
            step(row[2])
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
            step(tid)
            taken += 1
            block = caller
        else:  # returned from the entry function, or trapped
            restarts += 1
            frames.clear()
            block, call_idx = entry, 0
    return Walk(list(zip(blocks.values("func"), blocks.col("bb_id"))), transitions, entry,
                np.frombuffer(visits, dtype=np.int32), np.frombuffer(steps, dtype=np.int32),
                restarts, executed)


#: Stream elements handled per pass wherever a whole run is traversed:
#: working memory stays a few hundred KB however long the run is.
CHUNK = 1 << 15


def _first_use_order(ids: np.ndarray, size: int) -> np.ndarray:
    """The distinct values of ``ids`` (all below ``size``) by first appearance."""
    first = np.full(size, len(ids), dtype=np.int64)
    for lo in range(0, len(ids), CHUNK):
        chunk = ids[lo:lo + CHUNK]
        np.minimum.at(first, chunk, np.arange(lo, lo + len(chunk)))
    used = np.flatnonzero(first < len(ids))
    return used[np.argsort(first[used])]


def _resolve(walk: Walk, image, transition: Tuple[int, int, int, int]):
    """One transition in one image: ``(branch src or -1, dst, kind)``.

    ``image(b)`` is canonical block ``b`` as the image placed it (a
    record built for this call), ``None`` when the image lacks it.
    """
    kind, bid, slot, other = transition
    block, target = image(bid), image(other)
    if target is None:
        raise ProjectionError("reaches a block the image lacks",
                              *walk.blocks[other], block.addr)
    term, to = block.term, target.addr
    if kind == _RET:
        site = _live_calls(target)[slot:slot + 1]
        if term.kind == "ret" and site:
            return term.end_instr_addr, site[0].return_addr, BRANCH_KIND_RET
    elif kind == _CALL:
        for call in _live_calls(block)[slot:slot + 1]:
            if to == call.target or (
                    call.target is None and any(to == t for t, _ in call.indirect_targets)):
                return call.addr, to, BRANCH_KIND_CALL
    elif term.kind == "ijmp":
        if any(to == t for t, _ in term.ijmp_targets):
            return term.end_instr_addr, to, BRANCH_KIND_IJMP
    elif term.kind == "condbr" and to == term.cond_target:
        return term.cond_br_addr, to, BRANCH_KIND_COND
    elif term.uncond_target is not None:
        if to == term.uncond_target:
            return term.uncond_br_addr, to, BRANCH_KIND_JMP
    elif term.kind in ("condbr", "fallthrough") and to == block.end:
        return -1, to, 0  # falls through: no event
    step = ("call", "branch or fall-through", "return")[kind]
    raise ProjectionError(
        f"no {step} here reaches {target.func} bb{target.bb_id} @ {to:#x}",
        block.func, block.bb_id, block.addr)


class Projected:
    """One stream of a projected run, gathered where it is read: item
    ``s`` (a slice or an index array) is ``table[index[s]]``, an int64
    array."""

    __slots__ = ("table", "index")

    def __init__(self, table: np.ndarray, index: np.ndarray):
        self.table, self.index = table, index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, s) -> np.ndarray:
        return self.table[self.index[s]]


def project_arrays(walk: Walk, exe: Executable) -> Trace:
    """The trace ``exe`` produces when it executes ``walk``, as views.

    Every distinct transition of the walk is resolved against ``exe``
    once, in order of first use, so the first step ``exe`` cannot take
    is the one a :class:`ProjectionError` reports.  The streams are
    :class:`Projected` over ``walk``'s own arrays: the address of every
    canonical block at ``walk.visits``, the per-transition ``(src, dst,
    kind)`` columns at the steps that are taken branches.
    """
    blocks = exe.exec_blocks
    addrs = blocks.col("addr")
    by_key = {key: i for i, key in enumerate(zip(blocks.values("func"), blocks.col("bb_id")))}
    rows = [by_key.get(key) for key in walk.blocks]  # canonical block -> row here
    addr_of = np.array([-1 if i is None else addrs[i] for i in rows], dtype=np.int64)
    if addr_of[walk.entry] != exe.entry:
        raise ProjectionError("entry point is not the walk's entry block",
                              *walk.blocks[walk.entry], exe.entry)

    @functools.lru_cache(maxsize=None)  # a block is an end of several transitions
    def image(bid: int) -> Optional[ExecBlock]:
        return None if rows[bid] is None else blocks[rows[bid]]

    events = np.full((3, len(walk.transitions)), -1, dtype=np.int64)
    for tid in _first_use_order(walk.steps, len(walk.transitions)).tolist():
        events[:, tid] = _resolve(walk, image, walk.transitions[tid])
    taken = walk.steps[(events[0] >= 0)[walk.steps]]  # src -1: falls through
    return Trace(Projected(addr_of, walk.visits), *(Projected(column, taken) for column in events),
                 restarts=walk.restarts, executed_count=walk.executed_count)


def _shared_ints(stream: Projected) -> List[int]:
    """``stream`` as a list whose equal values are one int object.

    Gathered from a list of the table's few values, a chunk at a time:
    that is how a loop appending addresses shared them (a 400 k-branch
    LBR run is 10 MB of lists; ``ndarray.tolist()`` makes it 40).
    """
    values, out = stream.table.tolist(), []
    for lo in range(0, len(stream), CHUNK):
        out += map(values.__getitem__, stream.index[lo:lo + CHUNK].tolist())
    return out


def project(walk: Walk, exe: Executable) -> Trace:
    """:func:`project_arrays`, with the trace's four streams materialised
    as lists of ints."""
    view = project_arrays(walk, exe)
    return replace(view, **{name: _shared_ints(getattr(view, name)) for name in (
        "block_addrs", "branch_src", "branch_dst", "branch_kind")})


def generate_trace(
    exe: Executable,
    max_branches: int = 100_000,
    seed: int = 0,
    record_blocks: bool = True,
    max_blocks: Optional[int] = None,
) -> Trace:
    """Execute ``exe`` from its entry point: :func:`walk` it, then
    :func:`project` the walk back onto it (same budgets as :func:`walk`)."""
    return project(walk(exe, max_branches, seed, record_blocks, max_blocks), exe)
