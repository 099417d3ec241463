"""Frontend pipeline simulation.

The counters follow the paper's Table 4:

====== =================================== =============================
label  Intel event                          model source
====== =================================== =============================
I1     frontend_retired.l1i_miss            L1i misses
I2     l2_rqsts.code_rd_miss                L2 code-read misses
I3     icache_16b.ifdata_stall              cycles stalled on L1i misses
T1     icache_64b.iftag_miss                first-level iTLB misses
T2     frontend_retired.itlb_miss           iTLB misses that walked (STLB miss)
B1     baclears.any                         taken branch absent from BTB
B2     br_inst_retired.near_taken           taken branches
DSB    (§5.4 discussion)                    decoded-stream-buffer misses
====== =================================== =============================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.elf import Executable
from repro.hwmodel.caches import SetAssociativeCache
from repro.profiles import Trace, walk
from repro.profiles.trace import project_arrays

#: Visits (or taken branches) replayed per pass: what a pass expands and
#: hands the caches as Python ints stays ~1 MB however long the run is.
REPLAY_CHUNK = 1 << 13


@dataclass(frozen=True)
class SkylakeParams:
    """Structure sizes and penalties (Skylake server, rounded)."""

    line_bytes: int = 64
    l1i_sets: int = 64          # 32 KB / 64 B / 8 ways
    l1i_ways: int = 8
    l2_sets: int = 1024         # 1 MB / 64 B / 16 ways
    l2_ways: int = 16
    itlb_4k_sets: int = 16      # 128-entry, 8-way
    itlb_4k_ways: int = 8
    itlb_2m_sets: int = 1       # 8-entry fully associative
    itlb_2m_ways: int = 8
    stlb_sets: int = 128        # 1536-entry unified second level
    stlb_ways: int = 12
    btb_sets: int = 1024
    btb_ways: int = 4
    dsb_sets: int = 64          # tracked per 32-byte window
    dsb_ways: int = 8
    #: Page sizes as shifts: 4 KB base pages, 2 MB hugepages.
    page_shift_4k: int = 12
    page_shift_2m: int = 21
    # Penalties (cycles) and issue width.
    issue_width: float = 4.0
    l1i_miss_cycles: float = 9.0
    l2_code_miss_cycles: float = 40.0
    itlb_miss_cycles: float = 9.0
    tlb_walk_cycles: float = 55.0
    baclear_cycles: float = 11.0
    #: A *predicted* taken branch costs almost nothing on modern
    #: frontends; the gains from fall-through-dense layout come from
    #: fetch density and prefetch, not from the branch itself.
    taken_branch_cycles: float = 0.12
    dsb_miss_cycles: float = 1.5
    #: Sequential next-line instruction prefetch (all modern Intel
    #: frontends do this): on an L1i miss the following line is
    #: streamed in as well, so straight-line packed code misses far
    #: less than branchy, scattered code.
    next_line_prefetch: bool = True
    #: Average encoded instruction size, used to estimate instruction
    #: counts from block byte sizes.
    avg_instr_bytes: float = 3.1

    def scaled(self, factor: int) -> "SkylakeParams":
        """Shrink capacity structures by ``factor`` (associativity kept).

        Workloads in this reproduction are generated at ~1/100 of the
        paper's size; measuring them against full-size caches would
        understate capacity pressure by the same factor.  Scaling the
        cache/TLB/BTB capacities with the workload preserves the
        *ratio* of working set to structure size, which is what the
        relative layout effects depend on.  Penalties are unchanged.
        """
        if factor < 1:
            raise ValueError("factor must be >= 1")

        def shrink(sets: int) -> int:
            return max(1, sets // factor)

        from dataclasses import replace

        page_scale = max(0, factor.bit_length() - 1)  # log2(factor)
        return replace(
            self,
            l1i_sets=shrink(self.l1i_sets),
            l2_sets=shrink(self.l2_sets),
            itlb_4k_sets=shrink(self.itlb_4k_sets),
            itlb_2m_sets=1,
            itlb_2m_ways=max(2, self.itlb_2m_ways // 2),
            stlb_sets=shrink(self.stlb_sets),
            btb_sets=shrink(self.btb_sets),
            dsb_sets=shrink(self.dsb_sets),
            # Pages scale with the workload too: a scaled-down binary on
            # full-size 2 MB hugepages would fit in one TLB entry and
            # hide all translation behaviour.  Hugepages shrink twice as
            # fast because the big binaries that use them are generated
            # at even smaller scales.
            page_shift_4k=max(6, self.page_shift_4k - page_scale),
            page_shift_2m=max(10, self.page_shift_2m - 2 * page_scale),
        )


DEFAULT_PARAMS = SkylakeParams()

#: Structures scaled to match the default 1/100-scale workloads.
SCALED_PARAMS = DEFAULT_PARAMS.scaled(16)

#: The paper's Table 4 counter labels, in presentation order (``DSB``
#: is the §5.4 discussion counter, reported alongside them).
TABLE4_LABELS: Tuple[str, ...] = ("I1", "I2", "I3", "T1", "T2", "B1", "B2", "DSB")


@dataclass
class FrontendCounters:
    """Simulation outputs (Table 4 labels)."""

    instructions: float = 0.0
    blocks: int = 0
    l1i_miss: int = 0           # I1
    l2_code_miss: int = 0       # I2
    l1i_stall_cycles: float = 0.0  # I3
    itlb_miss: int = 0          # T1
    itlb_walk: int = 0          # T2
    baclears: int = 0           # B1
    taken_branches: int = 0     # B2
    dsb_miss: int = 0
    cycles: float = 0.0
    #: Per-function attribution of the same run, filled only when
    #: :func:`simulate_frontend` was called with ``by_function=True``
    #: (the hook behind ``repro.obs.explain``'s cycle attribution).
    #: Each value's counters cover the events charged while that
    #: function's blocks were fetching; the totals above are counted
    #: the same way whether attribution runs or not, so they are
    #: bit-identical either way.
    per_function: Dict[str, "FrontendCounters"] = field(default_factory=dict)

    def counter(self, label: str) -> float:
        return {
            "I1": self.l1i_miss,
            "I2": self.l2_code_miss,
            "I3": self.l1i_stall_cycles,
            "T1": self.itlb_miss,
            "T2": self.itlb_walk,
            "B1": self.baclears,
            "B2": self.taken_branches,
            "DSB": self.dsb_miss,
        }[label]

    def table4(self) -> Dict[str, float]:
        """The Table 4 counters alone, keyed by label."""
        return {label: self.counter(label) for label in TABLE4_LABELS}

    def as_dict(self) -> Dict[str, float]:
        """Every simulated quantity as a flat, JSON-able mapping.

        The extraction surface behind scorecards and the metrics
        report's ``frontend`` section: Table 4 labels plus the derived
        totals, all plain numbers (deterministic for a given binary,
        trace and parameters).
        """
        out: Dict[str, float] = self.table4()
        out["instructions"] = self.instructions
        out["blocks"] = self.blocks
        out["cycles"] = self.cycles
        out["ipc"] = self.ipc
        return out

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0


def _counters(params: SkylakeParams, instructions: float, blocks: int, l1i_miss: int,
              l2_miss: int, itlb_miss: int, itlb_walk: int, dsb_miss: int,
              taken_branches: int, baclears: int) -> FrontendCounters:
    """Counters plus the cost model; linear, so per-function shares sum to ~total."""
    return FrontendCounters(
        instructions=instructions,
        blocks=blocks,
        l1i_miss=l1i_miss,
        l2_code_miss=l2_miss,
        l1i_stall_cycles=l1i_miss * params.l1i_miss_cycles,
        itlb_miss=itlb_miss,
        itlb_walk=itlb_walk,
        baclears=baclears,
        taken_branches=taken_branches,
        dsb_miss=dsb_miss,
        cycles=(
            instructions / params.issue_width
            + l1i_miss * params.l1i_miss_cycles
            + l2_miss * params.l2_code_miss_cycles
            + itlb_miss * params.itlb_miss_cycles
            + itlb_walk * params.tlb_walk_cycles
            + baclears * params.baclear_cycles
            + taken_branches * params.taken_branch_cycles
            + dsb_miss * params.dsb_miss_cycles
        ),
    )


def _expand(first: np.ndarray, count: np.ndarray, step: np.ndarray,
            seq: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """One structure's key stream for the block sequence ``seq``.

    Block ``b`` contributes ``first[b] + k * step[b]`` for ``k`` below
    ``count[b]``; the second array is each key's position in ``seq``.
    """
    n = count[seq]
    owner = np.repeat(np.arange(len(seq)), n)
    keys = np.arange(len(owner))  # in place from here: streams are the peak memory
    keys -= np.repeat(np.cumsum(n) - n, n)
    keys *= np.repeat(step[seq], n)
    keys += np.repeat(first[seq], n)
    return keys, owner


def _drop_repeats(keys: np.ndarray, owner: np.ndarray,
                  keep: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """``keys`` and ``owner`` minus the positions repeating the key before.

    A touch of the key a structure touched last finds it most recently
    used in its set: a hit that changes no state, whatever the geometry.
    ``keep`` marks positions that stay regardless.
    """
    distinct = np.ones(len(keys), dtype=bool)
    distinct[1:] = keys[1:] != keys[:-1]
    if keep is not None:
        distinct |= keep
    return keys[distinct], owner[distinct]


def _chunks(stream) -> Iterator[Tuple[int, np.ndarray]]:
    """``(lo, stream[lo:lo + REPLAY_CHUNK])`` over ``stream``, as int64."""
    for lo in range(0, len(stream), REPLAY_CHUNK):
        yield lo, np.asarray(stream[lo:lo + REPLAY_CHUNK], dtype=np.int64)


def simulate_frontend(
    exe: Executable,
    trace: Trace,
    params: SkylakeParams = DEFAULT_PARAMS,
    simulate_dsb: bool = True,
    by_function: bool = False,
) -> FrontendCounters:
    """Replay ``trace`` (generated from ``exe``) through the frontend.

    Per-block footprints are flat arrays indexed by block; a chunk of
    :data:`REPLAY_CHUNK` visits at a time, each structure's key stream
    is flattened from them and replayed in bulk, then the taken branches
    through the BTB the same way.  Every miss is charged to the function
    whose block was fetching (a branch to the function containing its
    source), and every counter is the sum of those charges.  Only
    ``trace[lo:hi]`` slices are read, so a
    :class:`repro.profiles.trace.Projected` stream is never materialised.

    ``by_function=True`` additionally fills
    :attr:`FrontendCounters.per_function` from those same charges, so
    the totals are bit-identical with attribution on or off (asserted in
    tests/test_hwmodel.py).  Float sums (``instructions``) accumulate
    left to right in trace order.
    """
    line_shift = params.line_bytes.bit_length() - 1
    page_shift = params.page_shift_2m if exe.hugepages else params.page_shift_4k
    prefetch = params.next_line_prefetch

    l1i = SetAssociativeCache(params.l1i_sets, params.l1i_ways)
    l2 = SetAssociativeCache(params.l2_sets, params.l2_ways)
    if exe.hugepages:
        itlb = SetAssociativeCache(params.itlb_2m_sets, params.itlb_2m_ways)
    else:
        itlb = SetAssociativeCache(params.itlb_4k_sets, params.itlb_4k_ways)
    stlb = SetAssociativeCache(params.stlb_sets, params.stlb_ways)
    btb = SetAssociativeCache(params.btb_sets, params.btb_ways)
    dsb = SetAssociativeCache(params.dsb_sets, params.dsb_ways)

    # Per-block fetch footprints, straight from the block table's
    # columns (which are in address order), indexed by row.
    table = exe.exec_blocks
    num_blocks = len(table)
    starts, sizes = table.col("addr").tolist(), table.col("size").tolist()
    # Software prefetches (§3.5) stream the target's first two lines and
    # their page translations in ahead of use: free fills, replayed as
    # pseudo-blocks (one per target, ids past the real blocks) that
    # follow each visit of the prefetching block.
    fills = table.col("prefetch_targets.0")
    num_fills = np.diff(np.array(table.col("prefetch_targets"), dtype=np.int64))
    starts += [(t >> line_shift) << line_shift for t in fills]
    sizes += [2 * params.line_bytes] * len(fills)
    start = np.array(starts, dtype=np.int64)
    size = np.array(sizes, dtype=np.int64)
    last = start + np.maximum(0, size - 1)
    one = np.ones(len(start), dtype=np.int64)
    first_line = start >> line_shift
    num_lines = (last >> line_shift) - first_line + 1
    # Real blocks touch their first and last page, a prefetch the page
    # of each of its two lines.
    pages = np.sort([start >> page_shift, (start + size - 1) >> page_shift], axis=0)
    pages[1, num_blocks:] = (start[num_blocks:] + params.line_bytes) >> page_shift
    num_pages = 1 + (pages[1] != pages[0])
    first_window = start >> 5
    num_windows = ((last >> 5) - first_window + 1) * simulate_dsb
    num_windows[num_blocks:] = 0
    instrs = np.maximum(1.0, size[:num_blocks] / params.avg_instr_bytes)

    names = table.values("func")
    funcs = sorted(set(names))
    func_ids = {func: i for i, func in enumerate(funcs)}
    # Fills charge nothing, so a pseudo-block's function is never read.
    func_of = np.array([func_ids[name] for name in names] + [0] * len(fills), dtype=np.int64)

    # Per function, the events charged to it (rows: L1i, L2, iTLB, walk
    # and DSB misses, taken branches, BTB misses).  A chunk of visits or
    # branches at a time: the caches carry their state across chunks,
    # and float sums carry theirs so they still add left to right.
    charged = np.zeros((7, len(funcs)), dtype=np.int64)

    def charge(row: int, ids: np.ndarray) -> None:
        charged[row] += np.bincount(ids, minlength=len(funcs))

    instructions = 0.0
    func_instrs = np.zeros(len(funcs))
    func_blocks = np.zeros(len(funcs), dtype=np.int64)
    first_fetch = np.full(len(funcs), len(trace.block_addrs), dtype=np.int64)
    for lo, block_addrs in _chunks(trace.block_addrs):
        seq = np.searchsorted(start[:num_blocks], block_addrs)
        seq[seq == num_blocks] = 0
        if (start[seq] != block_addrs).any():
            raise KeyError(f"trace visits addresses {exe.name} has no block at")
        weights = instrs[seq]
        instructions = float(np.cumsum(np.append(instructions, weights))[-1])
        if by_function:
            fetching = func_of[seq]
            np.add.at(func_instrs, fetching, weights)
            func_blocks += np.bincount(fetching, minlength=len(funcs))
            np.minimum.at(first_fetch, fetching, np.arange(lo, lo + len(seq)))
        if len(fills):
            at = np.flatnonzero(num_fills[seq])
            ids, owner = _expand(num_blocks + np.cumsum(num_fills) - num_fills,
                                 num_fills, one, seq[at])
            seq = np.insert(seq, at[owner] + 1, ids)
        is_fill = seq >= num_blocks
        seq_funcs = func_of[seq]

        # L1i, where a demand miss streams the next line in as well (free
        # fill, no miss charged).  Only when that fill lands in the missing
        # line's own set (a one-set L1i) can a repeated line find itself no
        # longer MRU.  Software fills touch L1i alone, so they split the bulk.
        lines, owner = _expand(first_line, num_lines, one, seq)
        if not (prefetch and l1i.num_sets == 1):
            lines, owner = _drop_repeats(lines, owner, is_fill[owner])
        fill_at = np.flatnonzero(is_fill[owner])
        missed: List[int] = []
        done = 0
        for at in fill_at.tolist() + [len(lines)]:
            missed += [done + pos for pos in l1i.access_many(lines[done:at].tolist(), prefetch)]
            l1i.access_many(lines[at:at + 1].tolist())
            done = at + 1
        miss_at = np.array(missed, dtype=np.int64)
        charge(0, seq_funcs[owner[miss_at]])
        # L2 sees each L1i demand miss (then its next line) and each fill.
        touch_at = np.concatenate([miss_at, fill_at] + [miss_at] * prefetch)
        touched = np.concatenate(
            [lines[miss_at], lines[fill_at]] + [lines[miss_at] + 1] * prefetch)
        order = np.argsort(touch_at, kind="stable")
        l2_missed = order[l2.access_many(touched[order].tolist())]
        charge(1, seq_funcs[owner[touch_at[l2_missed[l2_missed < len(miss_at)]]]])

        # iTLB, then the STLB over the iTLB's demand misses.
        keys, owner = _drop_repeats(*_expand(pages[0], num_pages, pages[1] - pages[0], seq))
        miss_at = np.array(itlb.access_many(keys.tolist()), dtype=np.int64)
        miss_at = miss_at[~is_fill[owner[miss_at]]]
        charge(2, seq_funcs[owner[miss_at]])
        charge(3, seq_funcs[owner[miss_at[stlb.access_many(keys[miss_at].tolist())]]])

        keys, owner = _drop_repeats(*_expand(first_window, num_windows, one, seq))
        charge(4, seq_funcs[owner[dsb.access_many(keys.tolist())]])

    # Branch sources are instruction addresses inside blocks; map them
    # to the containing function by interval bisection.
    first_branch = np.full(len(funcs), trace.num_branches, dtype=np.int64)
    for lo, branch_src in _chunks(trace.branch_src):
        src_funcs = func_of[np.searchsorted(start[:num_blocks], branch_src, side="right") - 1]
        sources, branches = _drop_repeats(branch_src, np.arange(len(branch_src)))
        charge(5, src_funcs)
        charge(6, src_funcs[branches[btb.access_many(sources.tolist())]])
        if by_function:
            np.minimum.at(first_branch, src_funcs, np.arange(lo, lo + len(src_funcs)))

    counters = _counters(params, instructions, trace.num_blocks_executed,
                         *charged.sum(axis=1).tolist())
    if by_function:
        columns = [func_instrs.tolist(), func_blocks.tolist(), *charged.tolist()]
        # Functions in order of first fetch, then of first branch.
        for fid in np.lexsort((first_branch, first_fetch)).tolist():
            if columns[1][fid] or columns[7][fid]:
                counters.per_function[funcs[fid]] = _counters(
                    params, *[col[fid] for col in columns])
    return counters


def frontend_scorecard(
    binaries: Dict[str, Executable],
    max_blocks: int,
    seed: int = 77,
    params: SkylakeParams = SCALED_PARAMS,
    by_function: bool = False,
) -> Dict[str, FrontendCounters]:
    """Counters of several builds of one program executing the same work.

    The program is walked once -- the walker's tables come from the
    first binary -- and that walk is projected onto and replayed through
    each binary, so a binary that cannot execute it raises
    :class:`repro.profiles.ProjectionError` instead of being scored.
    """
    first = next(iter(binaries.values()))
    shared = walk(first, seed=seed, max_blocks=max_blocks)
    return {
        name: simulate_frontend(exe, project_arrays(shared, exe), params,
                                by_function=by_function)
        for name, exe in binaries.items()
    }
