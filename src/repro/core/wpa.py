"""Phase 3: profile conversion and Whole Program Analysis (§3.3).

Consumes the metadata binary (built with BB address maps) and the
sampled LBR profile, and produces the layout directives for Phase 4 --
**without disassembling anything**:

1. The BB address map joined with the symbol table maps every sampled
   virtual address to a (function, basic block) pair.
2. Branch records become dynamic CFG edges; the address gap between one
   record's destination and the next record's source is walked through
   the address map to recover fall-through execution counts (the
   standard LBR inference, as in AutoFDO/BOLT).
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

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis import MemoryMeter
from repro.core import bbsections
from repro.core.exttsp import ext_tsp_order, ext_tsp_order_many
from repro.core.funcorder import hfsort_order
from repro.elf import Executable, SectionKind, bbaddrmap
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

    @property
    def num_edges(self) -> int:
        return len(self.edges)


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


class _BlockRef:
    """A resolved (function, block) sample address."""

    __slots__ = ("func", "pos", "bb_id", "is_entry")

    def __init__(self, func: str, pos: int, bb_id: int, is_entry: bool):
        self.func = func
        self.pos = pos  # position within the function's layout
        self.bb_id = bb_id
        self.is_entry = is_entry


class _AddressMapIndex:
    """(virtual address -> basic block) index.

    Built from the executable's BB address map sections and symbol
    table -- the only binary inputs the real tool reads.
    """

    def __init__(self, exe: Executable):
        raw = exe.section_bytes(SectionKind.BB_ADDR_MAP)
        if not raw:
            raise ValueError(
                f"{exe.name}: no BB address map; build the metadata binary first (§3.2)"
            )
        maps = bbaddrmap.decode_section(raw)
        indexed: List[Tuple[int, int, bbaddrmap.FunctionMap]] = []
        self.num_entries = 0
        for fmap in maps:
            sym = exe.symbols.get(fmap.func)
            if sym is None or not fmap.entries:
                continue
            last = fmap.entries[-1]
            indexed.append((sym.addr, sym.addr + last.offset + last.size, fmap))
            self.num_entries += len(fmap.entries)
        indexed.sort(key=lambda item: item[0])
        self.func_starts = [item[0] for item in indexed]
        self.func_ends = [item[1] for item in indexed]
        self.func_maps = [item[2] for item in indexed]
        self.entry_offsets = [[e.offset for e in fmap.entries] for _, _, fmap in indexed]
        self._name_index = {fmap.func: i for i, fmap in enumerate(self.func_maps)}

    def lookup(self, addr: int) -> Optional[_BlockRef]:
        i = bisect.bisect_right(self.func_starts, addr) - 1
        if i < 0 or addr >= self.func_ends[i]:
            return None
        offset = addr - self.func_starts[i]
        j = bisect.bisect_right(self.entry_offsets[i], offset) - 1
        if j < 0:
            return None
        fmap = self.func_maps[i]
        return _BlockRef(fmap.func, j, fmap.entries[j].bb_id, j == 0 and offset == 0)

    def blocks_between(self, func: str, lo_pos: int, hi_pos: int) -> List[int]:
        """bb ids of layout positions [lo_pos, hi_pos] of ``func``."""
        return [e.bb_id for e in self.function_map(func).entries[lo_pos : hi_pos + 1]]

    def function_map(self, func: str) -> bbaddrmap.FunctionMap:
        return self.func_maps[self._name_index[func]]


def _count_events(
    index: _AddressMapIndex, perf: PerfData, stats: WPAStats
) -> Tuple[Dict[int, Optional[_BlockRef]], Dict[Tuple[int, int, bool], int]]:
    """Pass 1 of :func:`_build_dcfg`: each distinct address resolved once,
    each distinct event counted in order of first appearance.

    Events are keyed (from address, to address, is fall-through).  A
    record whose ends both resolve is a taken branch, preceded by the
    fall-through from the previous record's destination when that record
    is in the same sample and resolved too.  Per ``CHUNK`` of records
    (plus the one before), addresses become small ids, an event one
    int64, and ``np.unique`` counts them and finds each first use."""
    refs: Dict[int, Optional[_BlockRef]] = {}
    events: Dict[Tuple[int, int, bool], int] = {}
    offsets = perf.offsets
    for lo in range(0, perf.num_records, CHUNK):
        at, hi = max(lo - 1, 0), min(lo + CHUNK, perf.num_records)
        n = hi - at
        addrs, ids = np.unique(np.concatenate((perf.src[at:hi], perf.dst[at:hi])),
                               return_inverse=True)
        addrs = addrs.tolist()
        for addr in addrs:
            if addr not in refs:
                refs[addr] = index.lookup(addr)
        resolved = np.array([refs[addr] is not None for addr in addrs], dtype=bool)[ids]
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


def _build_dcfg(
    index: _AddressMapIndex, perf: PerfData, stats: WPAStats
) -> Tuple[
    Dict[str, FunctionDCFG],
    Dict[Tuple[str, str], float],
    Dict[Tuple[str, int, str, int], float],
    Dict[str, int],
]:
    """Turn the LBR records into block counts, CFG edges and call edges.

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

    fallthroughs = 0
    for (from_addr, to_addr, is_fallthrough), count in events.items():
        weight = float(count)
        a, b = refs[from_addr], refs[to_addr]
        if is_fallthrough:
            fallthroughs += 1
            if a.func == b.func and a.pos <= b.pos:
                func_d = fd(a.func)
                ids = index.blocks_between(a.func, a.pos, b.pos)
                counts = func_d.block_counts
                for bb_id in ids:
                    counts[bb_id] = counts.get(bb_id, 0.0) + weight
                edges = func_d.edges
                for edge in zip(ids, ids[1:]):
                    edges[edge] = edges.get(edge, 0.0) + weight
        elif a.func == b.func:
            func_d = fd(a.func)
            key = (a.bb_id, b.bb_id)
            func_d.edges[key] = func_d.edges.get(key, 0.0) + weight
        elif b.is_entry:
            call_key = (a.func, b.func)
            call_edges[call_key] = call_edges.get(call_key, 0.0) + weight
            bkey = (a.func, a.bb_id, b.func, b.bb_id)
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


def _intra_layout(
    index: _AddressMapIndex,
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
    pending: List[Tuple[str, List[int], Dict[int, int], Dict[int, List[int]]]] = []
    problems = []
    for name, fd in dcfg.items():
        if fd.total_count <= min_count:
            continue
        fmap = index.function_map(name)
        entry_id = fmap.entries[0].bb_id
        sizes = {e.bb_id: e.size for e in fmap.entries}
        counts = fd.block_counts
        hot_ids = [e.bb_id for e in fmap.entries if counts.get(e.bb_id, 0.0) > 0]
        if entry_id not in hot_ids:
            hot_ids.insert(0, entry_id)
        hot_set = set(hot_ids)
        edges = {
            (s, d): w for (s, d), w in fd.edges.items() if s in hot_set and d in hot_set
        }
        nodes, projected, entry_leader, by_leader = _superblock_problem(
            hot_ids, sizes, counts, edges, entry_id
        )
        pending.append((name, hot_ids, sizes, by_leader))
        problems.append((nodes, projected, entry_leader))

    # Pass 2 (the Ext-TSP solves): one problem per hot function,
    # results in submission order.  A solve cache replays functions
    # whose problem content is unchanged since a prior release (see
    # repro.incr); only dirty functions solve.
    orders = ext_tsp_order_many(problems, cache=solve_cache, work=work)

    # Pass 3: flatten and account, in the same order: the modelled
    # memory sequence is allocate/solve/free per function.
    for (name, hot_ids, sizes, by_leader), leader_order in zip(pending, orders):
        fd = dcfg[name]
        fmap = index.function_map(name)
        meter.allocate(len(hot_ids) * _LAYOUT_NODE_BYTES, "wpa-layout")
        order = [bb for leader in leader_order for bb in by_leader[leader]]
        meter.free_category("wpa-layout")
        if not options.split_cold:
            # Keep the whole function in one section: append cold blocks.
            placed = set(order)
            order = order + [e.bb_id for e in fmap.entries if e.bb_id not in placed]
        clusters[name] = [order]
        hot_funcs.append(name)
        hot_size = sum(sizes[bb] for bb in order)
        func_heat[name] = (hot_size, fd.total_count)
        has_cold[name] = options.split_cold and len(order) < len(fmap.entries)

    flat_calls = [(a, b, w) for (a, b), w in call_edges.items()]
    global_order = hfsort_order(func_heat, flat_calls)
    symbol_order = list(global_order)
    symbol_order.extend(f"{fn}.cold" for fn in global_order if has_cold.get(fn))
    return clusters, symbol_order, hot_funcs


def _interproc_layout(
    index: _AddressMapIndex,
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
        fmap = index.function_map(name)
        entry_id = fmap.entries[0].bb_id
        entry_ids[name] = entry_id
        counts = fd.block_counts
        hot_ids = [e.bb_id for e in fmap.entries if counts.get(e.bb_id, 0.0) > 0]
        if entry_id not in hot_ids:
            hot_ids.insert(0, entry_id)
        sizes = {e.bb_id: e.size for e in fmap.entries}
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
        func: len([bb for c in fclusters for bb in c]) < len(index.function_map(func).entries)
        for func, fclusters in clusters.items()
    }
    final_symbols.extend(f"{fn}.cold" for fn in clusters if has_cold.get(fn))
    return clusters, final_symbols, hot_funcs


def analyze(
    exe: Executable,
    perf: PerfData,
    options: WPAOptions = WPAOptions(),
    meter: Optional[MemoryMeter] = None,
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
    own = meter if meter is not None else MemoryMeter()
    trace = tracer if tracer is not None else NULL_TRACER
    stats = WPAStats(num_samples=perf.num_samples, profile_bytes=perf.size_bytes)

    with trace.span("wpa:index", category="wpa") as sp:
        index = _AddressMapIndex(exe)
        sp.note(entries=index.num_entries)
    stats.bbmap_entries = index.num_entries
    own.allocate(index.num_entries * _BBMAP_INDEX_ENTRY_BYTES, "wpa-bbmap")
    own.allocate(perf.size_bytes, "wpa-profile")

    with trace.span("wpa:dcfg", category="wpa") as sp:
        dcfg, call_edges, block_call_edges, distinct = _build_dcfg(index, perf, stats)
        sp.note(records=stats.num_records, dropped=stats.records_dropped, **distinct)
    stats.dcfg_nodes = sum(len(fd.block_counts) for fd in dcfg.values())
    stats.dcfg_edges = sum(fd.num_edges for fd in dcfg.values())
    own.allocate(
        stats.dcfg_nodes * _DCFG_NODE_BYTES + stats.dcfg_edges * _DCFG_EDGE_BYTES, "wpa-dcfg"
    )
    own.free_category("wpa-profile")

    total_mass = sum(fd.total_count for fd in dcfg.values())
    min_count = HOT_FUNCTION_MIN_FRACTION * total_mass
    with trace.span("wpa:layout", category="wpa",
                    interproc=options.interproc) as sp:
        work: Counter = Counter()
        if options.interproc:
            clusters, symbol_order, hot_funcs = _interproc_layout(
                index, dcfg, block_call_edges, options, own, min_count=min_count, work=work
            )
        else:
            clusters, symbol_order, hot_funcs = _intra_layout(
                index, dcfg, call_edges, options, own, min_count=min_count,
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
    stats.peak_memory_bytes = own.peak_bytes
    stats.cost_units = stats.num_records + stats.dcfg_nodes * 20
    own.free_category("wpa-dcfg")
    own.free_category("wpa-bbmap")
    return WPAResult(
        clusters=clusters,
        symbol_order=symbol_order,
        hot_functions=hot_funcs,
        dcfg=dcfg,
        call_edges=call_edges,
        stats=stats,
        prefetches=prefetches,
    )
