"""Phase 3: profile conversion and Whole Program Analysis (§3.3).

Consumes the metadata binary (built with BB address maps) and the
sampled LBR profile, and produces the layout directives for Phase 4 --
**without disassembling anything**:

1. The BB address map, decoded into columns and joined with the symbol
   table, becomes a :class:`BlockIndex`: every sampled virtual address
   resolves to a (function, basic block) pair.
2. Branch records become dynamic CFG edges; the address gap between one
   record's destination and the next record's source is walked through
   the index to recover fall-through execution counts (the standard LBR
   inference, as in AutoFDO/BOLT).  :func:`build_dcfg` is the one
   aggregation: AutoFDO's conversion calls it on the same index, and
   perf2bolt on an index built from its disassembly.
3. Each profiled function's hot blocks are reordered with Ext-TSP and
   become the primary cluster; unprofiled blocks are left unlisted so
   the backend splits them into the ``.cold`` section (§4.6).
4. Hot function sections are globally ordered by call-chain clustering,
   and cold parts are pushed behind them (``ld_prof``).

Memory accounting mirrors the paper's Fig. 4 discussion: the peak is
the profile buffer plus the in-memory DCFG, plus a cheap
(16 bytes/block) address-map index.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import MemoryMeter
from repro.core import bbsections
from repro.core.exttsp import ext_tsp_order, ext_tsp_order_many
from repro.core.funcorder import hfsort_order
from repro.elf import Executable, SectionKind, bbaddrmap
from repro.elf.table import rows_of
from repro.obs import NULL_TRACER
from repro.profiles import PerfData
from repro.profiles.trace import CHUNK

#: Modelled bytes per in-memory structure (for peak-memory accounting).
_BBMAP_INDEX_ENTRY_BYTES = 16
_DCFG_NODE_BYTES = 56
_DCFG_EDGE_BYTES = 40
_LAYOUT_NODE_BYTES = 96

#: Functions whose sample mass is below this fraction of the total are
#: left alone: one stray sample is not worth re-compiling an object for.
#: (This is what keeps the paper's "~10% of object files updated"
#: property.)
HOT_FUNCTION_MIN_FRACTION = 5e-5


@dataclass(frozen=True)
class WPAOptions:
    """Whole-program-analysis knobs."""

    #: Inter-procedural whole-program layout (§4.7) instead of
    #: per-function layout plus function ordering.
    interproc: bool = False
    #: Extract unprofiled blocks into a separate .cold section (§4.6).
    split_cold: bool = True
    #: Safety valve for the inter-procedural graph size.
    max_interproc_nodes: int = 200_000
    #: Also plan §3.5 software-prefetch directives for hot call edges.
    insert_prefetches: bool = False


@dataclass
class FunctionDCFG:
    """Dynamic control-flow graph of one profiled function."""

    name: str
    block_counts: Dict[int, float] = field(default_factory=dict)
    edges: Dict[Tuple[int, int], float] = field(default_factory=dict)

    @property
    def total_count(self) -> float:
        return sum(self.block_counts.values())


@dataclass
class WPAStats:
    num_samples: int = 0
    num_records: int = 0
    records_dropped: int = 0
    profile_bytes: int = 0
    bbmap_entries: int = 0
    dcfg_nodes: int = 0
    dcfg_edges: int = 0
    hot_functions: int = 0
    peak_memory_bytes: int = 0
    cost_units: int = 0


@dataclass
class WPAResult:
    """Layout directives plus the DCFG they were derived from."""

    clusters: Dict[str, List[List[int]]]
    symbol_order: List[str]
    hot_functions: List[str]
    dcfg: Dict[str, FunctionDCFG]
    call_edges: Dict[Tuple[str, str], float]
    stats: WPAStats
    #: §3.5 software-prefetch directives: function -> [(bb_id, symbol)].
    prefetches: Dict[str, List[Tuple[int, str]]] = field(default_factory=dict)

    @property
    def cc_prof_text(self) -> str:
        return bbsections.format_cc_prof(self.clusters)

    @property
    def ld_prof_text(self) -> str:
        return bbsections.format_ld_prof(self.symbol_order)


class BlockIndex:
    """Sampled address -> basic block, over columns.

    Function ``i`` is ``names[i]``: it spans ``[starts[i], ends[i])``
    and owns block rows ``bounds[i]:bounds[i + 1]``.  Block ``j`` starts
    at ``block_starts[j]``, belongs to function ``owner[j]`` and is known
    by ``keys[j]``: its ``bb_id`` when WPA builds the index from the BB
    address map (:meth:`from_bb_addr_map`), its address when perf2bolt
    builds it from a disassembly.  Functions are in start order, each
    one's blocks in address order; one with no blocks is not indexed.
    Function ``i`` of the arguments owns rows ``rows[i]`` of the block
    columns given.
    """

    def __init__(self, names: Sequence[str], starts, ends, rows: Sequence[range],
                 block_starts, keys):
        starts = np.asarray(starts, dtype=np.uint64)
        kept = np.flatnonzero([len(r) > 0 for r in rows])
        order = kept[np.argsort(starts[kept], kind="stable")].tolist()
        taken = rows_of([rows[i] for i in order])
        counts = [len(rows[i]) for i in order]
        self.names: List[str] = [names[i] for i in order]
        self.starts = starts[order]
        self.ends = np.asarray(ends, dtype=np.uint64)[order]
        self.bounds = np.cumsum([0, *counts])
        self.block_starts = np.asarray(block_starts, dtype=np.uint64)[taken]
        self.keys = np.asarray(keys, dtype=np.int64)[taken]
        self.owner = np.repeat(np.arange(len(counts)), counts)
        # Blocks are searched by (function row, offset), one sorted int64
        # per block, so functions' ranges may overlap.
        offsets = (self.block_starts - self.starts[self.owner]).astype(np.int64)
        self._span = int(max((self.ends - self.starts).max(initial=0), offsets.max(initial=0))) + 1
        self._at = self.owner * self._span + offsets
        self._rows = {name: i for i, name in enumerate(self.names)}

    @classmethod
    def from_bb_addr_map(cls, exe: Executable) -> "BlockIndex":
        """WPA's index: the BB address map joined with the symbol table --
        the only binary inputs the real tool reads."""
        raw = exe.section_bytes(SectionKind.BB_ADDR_MAP)
        if not raw:
            raise ValueError(
                f"{exe.name}: no BB address map; build the metadata binary first (§3.2)"
            )
        amap = bbaddrmap.decode_section(raw)
        symbols = dict(zip(exe.symbols.values("name"), exe.symbols.values("addr")))  # last wins
        addrs = [symbols.get(name) for name in amap.funcs]
        bounds = amap.bounds.tolist()
        base = np.array([addr or 0 for addr in addrs], dtype=np.uint64)
        block_starts = np.repeat(base, np.diff(amap.bounds)) + amap.offset.astype(np.uint64)
        ends = np.append(block_starts + amap.size.astype(np.uint64), 0)[amap.bounds[1:] - 1]
        rows = [range(0) if addr is None else range(lo, hi)
                for addr, lo, hi in zip(addrs, bounds, bounds[1:])]
        return cls(amap.funcs, base, ends, rows, block_starts, amap.bb_id)

    def blocks(self, name: str) -> Tuple[List[int], List[int]]:
        """The keys and sizes of ``name``'s blocks, in address order: a
        block runs to the next one's start, the last to the function's end."""
        i = self._rows[name]
        lo, hi = self.bounds[i], self.bounds[i + 1]
        sizes = np.diff(self.block_starts[lo:hi], append=self.ends[i])
        return self.keys[lo:hi].tolist(), sizes.tolist()

    def resolve(self, addrs) -> np.ndarray:
        """The block row of each of ``addrs``, or -1: the last block
        starting at or before it in the last function starting at or
        before it, if that function's range holds it."""
        addrs = np.asarray(addrs, dtype=np.uint64)
        out = np.full(len(addrs), -1, dtype=np.int64)
        func = np.searchsorted(self.starts, addrs, "right") - 1
        inside = np.flatnonzero(func >= 0)
        inside = inside[addrs[inside] < self.ends[func[inside]]]
        func = func[inside]
        at = func * self._span + (addrs[inside] - self.starts[func]).astype(np.int64)
        block = np.searchsorted(self._at, at, "right") - 1
        ok = block >= self.bounds[func]
        out[inside[ok]] = block[ok]
        return out


def _count_events(
    index: BlockIndex, perf: PerfData, stats: WPAStats
) -> Tuple[Dict[int, int], Dict[Tuple[int, int, bool], int]]:
    """Pass 1 of :func:`build_dcfg`: each distinct address resolved once
    (to its block row, -1 if unmapped), each distinct event counted in
    order of first appearance.

    Events are keyed (from address, to address, is fall-through).  A
    record whose ends both resolve is a taken branch, preceded by the
    fall-through from the previous record's destination when that record
    is in the same sample and resolved too.  Per ``CHUNK`` of records
    (plus the one before), addresses become small ids, an event one
    int64, and ``np.unique`` counts them and finds each first use."""
    refs: Dict[int, int] = {}
    events: Dict[Tuple[int, int, bool], int] = {}
    offsets = perf.offsets
    for lo in range(0, perf.num_records, CHUNK):
        at, hi = max(lo - 1, 0), min(lo + CHUNK, perf.num_records)
        n = hi - at
        addrs, ids = np.unique(np.concatenate((perf.src[at:hi], perf.dst[at:hi])),
                               return_inverse=True)
        addrs = addrs.tolist()
        new = [addr for addr in addrs if addr not in refs]
        refs.update(zip(new, index.resolve(new).tolist()))
        resolved = np.array([refs[addr] >= 0 for addr in addrs], dtype=bool)[ids]
        src_ids, dst_ids = ids[:n], ids[n:]
        ok = resolved[:n] & resolved[n:]
        follows = ok & np.roll(ok, 1)  # a resolved record, in the same sample:
        follows[offsets[np.searchsorted(offsets, at):np.searchsorted(offsets, hi)] - at] = False
        size = len(addrs)
        keys = np.stack(((np.roll(dst_ids, 1) * size + src_ids) * 2 + 1,
                         (src_ids * size + dst_ids) * 2), axis=1)
        own = slice(lo - at, n)
        keys = keys[own][np.stack((follows, ok), axis=1)[own]]
        stats.num_records += hi - lo
        stats.records_dropped += int(np.count_nonzero(~ok[own]))
        keys, where, counts = np.unique(keys, return_index=True, return_counts=True)
        order = np.argsort(where)
        for key, count in zip(keys[order].tolist(), counts[order].tolist()):
            event = (addrs[key // 2 // size], addrs[key // 2 % size], key % 2 == 1)
            if event in events:
                events[event] += count
            else:
                events[event] = count
    return refs, events


def build_dcfg(
    index: BlockIndex, perf: PerfData, stats: WPAStats
) -> Tuple[
    Dict[str, FunctionDCFG],
    Dict[Tuple[str, str], float],
    Dict[Tuple[str, int, str, int], float],
    Dict[str, int],
]:
    """Turn the LBR records into block counts, CFG edges and call edges,
    every block named by its key in ``index``.

    Aggregate, then resolve: a profile of hundreds of thousands of
    records holds a few thousand distinct addresses and transfers, so
    the records are first only *counted* (:func:`_count_events`) and
    every distinct event is then expanded once, weighted by its count.
    Counts are sums of 1.0, exact in a double, and replaying the events
    in first-appearance order first touches every dict key in the order
    the records did, so the result is what record-by-record processing
    gives, dict order included.  The fourth value says how much distinct
    work there was.
    """
    refs, events = _count_events(index, perf, stats)
    # Pass 2: expand each distinct event once.
    dcfg: Dict[str, FunctionDCFG] = {}
    call_edges: Dict[Tuple[str, str], float] = {}
    block_call_edges: Dict[Tuple[str, int, str, int], float] = {}

    def fd(name: str) -> FunctionDCFG:
        out = dcfg.get(name)
        if out is None:
            out = FunctionDCFG(name=name)
            dcfg[name] = out
        return out

    names, owner, keys = index.names, index.owner, index.keys
    fallthroughs = 0
    for (from_addr, to_addr, is_fallthrough), count in events.items():
        weight = float(count)
        a, b = refs[from_addr], refs[to_addr]
        func_a, func_b = int(owner[a]), int(owner[b])
        if is_fallthrough:
            fallthroughs += 1
            if func_a == func_b and a <= b:
                func_d = fd(names[func_a])
                ids = keys[a : b + 1].tolist()
                counts = func_d.block_counts
                for key in ids:
                    counts[key] = counts.get(key, 0.0) + weight
                edges = func_d.edges
                for edge in zip(ids, ids[1:]):
                    edges[edge] = edges.get(edge, 0.0) + weight
        elif func_a == func_b:
            func_d = fd(names[func_a])
            key = (int(keys[a]), int(keys[b]))
            func_d.edges[key] = func_d.edges.get(key, 0.0) + weight
        elif to_addr == int(index.starts[func_b]):  # a call: it lands on the callee's entry
            call_key = (names[func_a], names[func_b])
            call_edges[call_key] = call_edges.get(call_key, 0.0) + weight
            bkey = (names[func_a], int(keys[a]), names[func_b], int(keys[b]))
            block_call_edges[bkey] = block_call_edges.get(bkey, 0.0) + weight
        # Returns / other cross-function transfers: no layout edge.
    distinct = {
        "distinct_addresses": len(refs),
        "distinct_branches": len(events) - fallthroughs,
        "distinct_fallthroughs": fallthroughs,
    }
    return dcfg, call_edges, block_call_edges, distinct


def _merge_superblocks(
    hot_ids: List[int],
    counts: Dict[int, float],
    edges: Dict[Tuple[int, int], float],
) -> List[List[int]]:
    """Group layout-consecutive blocks whose fall-through edge carries
    essentially all of both blocks' flow.

    Such runs behave as one straight-line unit; reordering inside them
    can only break fall-throughs.  Treating each run as a single
    Ext-TSP node keeps the solver's greedy merging from scattering
    straight-line code (the same stabilization BOLT gets for free from
    reconstructing superblocks out of disassembly).
    """
    groups: List[List[int]] = []
    for bb in hot_ids:
        if groups:
            prev = groups[-1][-1]
            flow = edges.get((prev, bb), 0.0)
            if (
                flow > 0
                and flow >= 0.95 * counts.get(prev, 0.0)
                and flow >= 0.95 * counts.get(bb, 0.0)
            ):
                groups[-1].append(bb)
                continue
        groups.append([bb])
    return groups


def _superblock_problem(
    hot_ids: List[int],
    sizes: Dict[int, int],
    counts: Dict[int, float],
    edges: Dict[Tuple[int, int], float],
    entry_id: int,
) -> Tuple[Dict[int, Tuple[int, float]], List[Tuple[int, int, float]], int, Dict[int, List[int]]]:
    """Project one function's DCFG onto superblock leaders.

    The returned ``(nodes, edges, entry)`` problem is what the Ext-TSP
    solve consumes (see :func:`_intra_layout`).  Also returns
    ``by_leader`` for flattening the solved leader order back to block
    ids.
    """
    groups = _merge_superblocks(hot_ids, counts, edges)
    leader_of: Dict[int, int] = {}
    for group in groups:
        for bb in group:
            leader_of[bb] = group[0]
    nodes = {
        group[0]: (sum(sizes[bb] for bb in group), max(counts.get(bb, 0.0) for bb in group))
        for group in groups
    }
    projected: List[Tuple[int, int, float]] = []
    for (s, d), w in edges.items():
        ls, ld = leader_of.get(s), leader_of.get(d)
        if ls is None or ld is None or ls == ld:
            continue
        projected.append((ls, ld, w))
    total = sum(edges.values()) if edges else 1.0
    eps = max(total, 1.0) * 1e-9
    leaders = [g[0] for g in groups]
    projected.extend((a, b, eps) for a, b in zip(leaders, leaders[1:]))
    by_leader = {g[0]: g for g in groups}
    return nodes, projected, leader_of[entry_id], by_leader


def _layout_prior_edges(hot_ids, sampled_edges):
    """Epsilon-weight edges along the *existing* layout order.

    Sampled edge counts are sparse for lukewarm code; with no signal,
    Ext-TSP would scatter weakly-profiled blocks by chain density and
    destroy fall-throughs the current layout already has.  The original
    order is known from the BB address map, so it enters the graph as a
    negligible-weight prior: it breaks ties toward the status quo and
    is overruled by any real sample.
    """
    total = sum(sampled_edges.values()) if sampled_edges else 1.0
    eps = max(total, 1.0) * 1e-9
    return [(a, b, eps) for a, b in zip(hot_ids, hot_ids[1:])]


def _hot_blocks(
    index: BlockIndex, name: str, counts: Dict[int, float]
) -> Tuple[List[int], Dict[int, int], List[int]]:
    """``name``'s block ids in address order, their sizes, and its hot
    blocks: the sampled ones, the entry block always among them."""
    ids, sizes = index.blocks(name)
    hot_ids = [bb for bb in ids if counts.get(bb, 0.0) > 0]
    if ids[0] not in hot_ids:
        hot_ids.insert(0, ids[0])
    return ids, dict(zip(ids, sizes)), hot_ids


def _intra_layout(
    index: BlockIndex,
    dcfg: Dict[str, FunctionDCFG],
    call_edges: Dict[Tuple[str, str], float],
    options: WPAOptions,
    meter: MemoryMeter,
    min_count: float = 0.0,
    solve_cache: Optional[object] = None,
    work: Optional[Counter] = None,
) -> Tuple[Dict[str, List[List[int]]], List[str], List[str]]:
    clusters: Dict[str, List[List[int]]] = {}
    hot_funcs: List[str] = []
    func_heat: Dict[str, Tuple[int, float]] = {}
    has_cold: Dict[str, bool] = {}

    # Pass 1 (cheap): project every hot function's DCFG onto a
    # superblock layout problem, in deterministic dcfg order.
    pending: List[Tuple[str, List[int], List[int], Dict[int, int], Dict[int, List[int]]]] = []
    problems = []
    for name, fd in dcfg.items():
        if fd.total_count <= min_count:
            continue
        ids, sizes, hot_ids = _hot_blocks(index, name, fd.block_counts)
        entry_id, counts = ids[0], fd.block_counts
        hot_set = set(hot_ids)
        edges = {
            (s, d): w for (s, d), w in fd.edges.items() if s in hot_set and d in hot_set
        }
        nodes, projected, entry_leader, by_leader = _superblock_problem(
            hot_ids, sizes, counts, edges, entry_id
        )
        pending.append((name, ids, hot_ids, sizes, by_leader))
        problems.append((nodes, projected, entry_leader))

    # Pass 2 (the Ext-TSP solves): one problem per hot function,
    # results in submission order.  A solve cache replays functions
    # whose problem content is unchanged since a prior release (see
    # repro.incr); only dirty functions solve.
    orders = ext_tsp_order_many(problems, cache=solve_cache, work=work)

    # Pass 3: flatten and account, in the same order: the modelled
    # memory sequence is allocate/solve/free per function.
    for (name, ids, hot_ids, sizes, by_leader), leader_order in zip(pending, orders):
        fd = dcfg[name]
        meter.allocate(len(hot_ids) * _LAYOUT_NODE_BYTES, "wpa-layout")
        order = [bb for leader in leader_order for bb in by_leader[leader]]
        meter.free_category("wpa-layout")
        if not options.split_cold:
            # Keep the whole function in one section: append cold blocks.
            placed = set(order)
            order = order + [bb for bb in ids if bb not in placed]
        clusters[name] = [order]
        hot_funcs.append(name)
        hot_size = sum(sizes[bb] for bb in order)
        func_heat[name] = (hot_size, fd.total_count)
        has_cold[name] = options.split_cold and len(order) < len(ids)

    flat_calls = [(a, b, w) for (a, b), w in call_edges.items()]
    global_order = hfsort_order(func_heat, flat_calls)
    symbol_order = list(global_order)
    symbol_order.extend(f"{fn}.cold" for fn in global_order if has_cold.get(fn))
    return clusters, symbol_order, hot_funcs


def _interproc_layout(
    index: BlockIndex,
    dcfg: Dict[str, FunctionDCFG],
    block_call_edges: Dict[Tuple[str, int, str, int], float],
    options: WPAOptions,
    meter: MemoryMeter,
    min_count: float = 0.0,
    work: Optional[Counter] = None,
) -> Tuple[Dict[str, List[List[int]]], List[str], List[str]]:
    """Whole-program Ext-TSP over all hot blocks (§4.7)."""
    nodes: Dict[Tuple[str, int], Tuple[int, float]] = {}
    edges: List[Tuple[Tuple[str, int], Tuple[str, int], float]] = []
    hot_funcs: List[str] = []
    entry_ids: Dict[str, int] = {}
    for name, fd in dcfg.items():
        if fd.total_count <= min_count:
            continue
        ids, sizes, hot_ids = _hot_blocks(index, name, fd.block_counts)
        entry_ids[name], counts = ids[0], fd.block_counts
        for bb in hot_ids:
            nodes[(name, bb)] = (sizes[bb], counts.get(bb, 0.0))
        edges.extend(
            ((name, s), (name, d), w)
            for (s, d), w in fd.edges.items()
            if (name, s) in nodes and (name, d) in nodes
        )
        edges.extend(
            ((name, a), (name, b), w)
            for a, b, w in _layout_prior_edges(hot_ids, fd.edges)
        )
        hot_funcs.append(name)
    for (cf, cb, tf, tb), w in block_call_edges.items():
        if (cf, cb) in nodes and (tf, tb) in nodes:
            edges.append(((cf, cb), (tf, tb), w))
    if len(nodes) > options.max_interproc_nodes:
        raise ValueError(
            f"inter-procedural graph too large ({len(nodes)} nodes); "
            f"raise max_interproc_nodes or use intra-function layout"
        )
    meter.allocate(len(nodes) * _LAYOUT_NODE_BYTES, "wpa-layout")
    order = ext_tsp_order(nodes, edges, entry=None, work=work)
    meter.free_category("wpa-layout")

    # Partition the global order into per-function section runs.
    runs: List[Tuple[str, List[int]]] = []
    for func, bb in order:
        if runs and runs[-1][0] == func:
            runs[-1][1].append(bb)
        else:
            runs.append((func, [bb]))
    clusters: Dict[str, List[List[int]]] = {}
    run_symbols: List[str] = []
    for func, ids in runs:
        entry_id = entry_ids[func]
        fclusters = clusters.setdefault(func, [])
        if entry_id in ids:
            # The entry run becomes the primary cluster (symbol = func).
            # The backend requires the entry block first in it; any
            # blocks the global order put before the entry are split
            # into their own trailing cluster.
            at = ids.index(entry_id)
            prefix, primary = ids[:at], ids[at:]
            fclusters.insert(0, primary)
            run_symbols.append(func)
            if prefix:
                fclusters.append(prefix)
                run_symbols.append(f"{func}@pending{len(fclusters)}")
        else:
            fclusters.append(ids)
            run_symbols.append(f"{func}@pending{len(fclusters)}")
    # Assign final numeric suffixes now that primaries are first.
    position: Dict[str, int] = {}
    final_symbols: List[str] = []
    for symbol in run_symbols:
        if "@pending" in symbol:
            func = symbol.split("@pending")[0]
            idx = position.get(func, 0) + 1
            position[func] = idx
            final_symbols.append(f"{func}.{idx}")
        else:
            final_symbols.append(symbol)
    has_cold = {
        func: len([bb for c in fclusters for bb in c]) < len(index.blocks(func)[0])
        for func, fclusters in clusters.items()
    }
    final_symbols.extend(f"{fn}.cold" for fn in clusters if has_cold.get(fn))
    return clusters, final_symbols, hot_funcs


def analyze(
    exe: Executable,
    perf: PerfData,
    options: WPAOptions = WPAOptions(),
    tracer: Optional[object] = None,
    solve_cache: Optional[object] = None,
) -> WPAResult:
    """Run profile conversion and whole-program analysis.

    ``solve_cache`` (the :class:`repro.runtime.FunctionSolveCache`
    contract) memoizes per-function Ext-TSP solves by content
    signature, so an incremental re-optimization replays unchanged
    functions' layouts instead of re-solving them.  It applies only to
    intra-procedural layout: the inter-procedural path is one
    whole-program solve with no per-function unit of reuse, and is
    deliberately uncached.

    ``tracer`` (the :class:`repro.obs.Tracer` contract) records the
    three internal stages -- address-map indexing, DCFG construction,
    layout -- as nested spans; the default records nothing.
    """
    meter = MemoryMeter()
    trace = tracer if tracer is not None else NULL_TRACER
    stats = WPAStats(num_samples=perf.num_samples, profile_bytes=perf.size_bytes)

    with trace.span("wpa:index", category="wpa") as sp:
        index = BlockIndex.from_bb_addr_map(exe)
        stats.bbmap_entries = len(index.keys)
        sp.note(entries=stats.bbmap_entries)
    meter.allocate(stats.bbmap_entries * _BBMAP_INDEX_ENTRY_BYTES, "wpa-bbmap")
    meter.allocate(perf.size_bytes, "wpa-profile")

    with trace.span("wpa:dcfg", category="wpa") as sp:
        dcfg, call_edges, block_call_edges, distinct = build_dcfg(index, perf, stats)
        sp.note(records=stats.num_records, dropped=stats.records_dropped, **distinct)
    stats.dcfg_nodes = sum(len(fd.block_counts) for fd in dcfg.values())
    stats.dcfg_edges = sum(len(fd.edges) for fd in dcfg.values())
    meter.allocate(
        stats.dcfg_nodes * _DCFG_NODE_BYTES + stats.dcfg_edges * _DCFG_EDGE_BYTES, "wpa-dcfg"
    )
    meter.free_category("wpa-profile")

    total_mass = sum(fd.total_count for fd in dcfg.values())
    min_count = HOT_FUNCTION_MIN_FRACTION * total_mass
    with trace.span("wpa:layout", category="wpa",
                    interproc=options.interproc) as sp:
        work: Counter = Counter()
        if options.interproc:
            clusters, symbol_order, hot_funcs = _interproc_layout(
                index, dcfg, block_call_edges, options, meter, min_count=min_count, work=work
            )
        else:
            clusters, symbol_order, hot_funcs = _intra_layout(
                index, dcfg, call_edges, options, meter, min_count=min_count,
                solve_cache=solve_cache, work=work,
            )
        # The solves' exact work (none when every solve was replayed).
        sp.note(hot_functions=len(hot_funcs), **work)
    prefetches: Dict[str, List[Tuple[int, str]]] = {}
    if options.insert_prefetches:
        from repro.core.prefetch import plan_prefetches

        prefetches = {
            fn: d for fn, d in plan_prefetches(dcfg, block_call_edges).items()
            if fn in clusters
        }
    stats.hot_functions = len(hot_funcs)
    stats.peak_memory_bytes = meter.peak_bytes
    stats.cost_units = stats.num_records + stats.dcfg_nodes * 20
    meter.free_category("wpa-dcfg")
    meter.free_category("wpa-bbmap")
    return WPAResult(
        clusters=clusters,
        symbol_order=symbol_order,
        hot_functions=hot_funcs,
        dcfg=dcfg,
        call_edges=call_edges,
        stats=stats,
        prefetches=prefetches,
    )
