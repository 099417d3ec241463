"""Ext-TSP basic block reordering (Newell & Pupyrev [49], §3.3/§4.7).

Ext-TSP generalizes the layout problem from maximizing fall-throughs
(a travelling-salesman path over the CFG) to also rewarding short
forward and backward jumps that stay within cache-line/page reach:

    score(layout) = sum over edges (u -> v, w) of w * K(d)

        K = 1.0            if v is placed exactly at u's end (fall-through)
        K = 0.1 * (1-d/1024)  for forward jumps with distance d in (0, 1024]
        K = 0.1 * (1-d/640)   for backward jumps with distance d in (0, 640]
        K = 0 otherwise

The optimizer greedily merges node chains by the most profitable merge.
The paper notes the stock algorithm "does not scale with the size of
whole program CFGs" and adds *logarithmic time retrieval of the most
profitable action* (§4.7); this implementation uses the same structure:
a lazy binary heap of merge candidates invalidated by chain versions,
so retrieval is O(log n) instead of a linear scan.

Chains containing the entry node are pinned to keep the entry first.
Leftover chains are concatenated in decreasing execution density, so
hot chains pack together even when no jump rewards connect them.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

NodeId = Hashable


@dataclass(frozen=True)
class LayoutParams:
    """Ext-TSP scoring constants (defaults follow the published algorithm)."""

    fallthrough_weight: float = 1.0
    forward_weight: float = 0.1
    backward_weight: float = 0.1
    forward_window: int = 1024
    backward_window: int = 640
    #: Chains no longer than this are considered for split-merges
    #: (LLVM's ext-tsp uses 128).
    chain_split_threshold: int = 128


DEFAULT_PARAMS = LayoutParams()


def edge_score(weight: float, src_end: int, dst_start: int, params: LayoutParams) -> float:
    """Score contribution of one edge given placed byte offsets."""
    if weight <= 0:
        return 0.0
    if dst_start == src_end:
        return weight * params.fallthrough_weight
    if dst_start > src_end:
        dist = dst_start - src_end
        if dist <= params.forward_window:
            return weight * params.forward_weight * (1.0 - dist / params.forward_window)
        return 0.0
    dist = src_end - dst_start
    if dist <= params.backward_window:
        return weight * params.backward_weight * (1.0 - dist / params.backward_window)
    return 0.0


def ext_tsp_score(
    order: Sequence[NodeId],
    sizes: Dict[NodeId, int],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    params: LayoutParams = DEFAULT_PARAMS,
) -> float:
    """Score a complete layout: the definition of the objective.

    The solver never calls this -- it scores merge candidates without
    laying chains out (:meth:`ExtTSP._placed_score`) -- and the tests
    pin that scorer to this function, bit for bit.
    """
    offsets: Dict[NodeId, int] = {}
    cursor = 0
    for node in order:
        offsets[node] = cursor
        cursor += sizes[node]
    total = 0.0
    for src, dst, weight in edges:
        if src in offsets and dst in offsets:
            total += edge_score(weight, offsets[src] + sizes[src], offsets[dst], params)
    return total


class _Chain:
    __slots__ = ("cid", "nodes", "size", "weight", "version", "has_entry", "intra", "score")

    def __init__(self, cid: int, node: NodeId, size: int, weight: float, has_entry: bool):
        self.cid = cid
        self.nodes: List[NodeId] = [node]
        self.size = size
        self.weight = weight
        self.version = 0
        self.has_entry = has_entry
        self.intra: List[Tuple[NodeId, NodeId, float]] = []
        self.score = 0.0


#: One edge of a candidate pair, resolved against the chain being split:
#: (src in split chain, src end, dst in split chain, dst start,
#:  weight * fallthrough_weight, weight * forward_weight,
#:  weight * backward_weight), offsets relative to the node's own chain.
_ResolvedEdge = Tuple[bool, int, bool, int, float, float, float]


class ExtTSP:
    """Greedy chain-merging Ext-TSP solver.

    ``nodes`` maps node id to (byte size, execution weight); ``edges``
    are directed ``(src, dst, weight)`` jump frequencies.  ``entry``
    (when given) is pinned to the front of the layout.

    A merge candidate is scored without laying the merged chain out:
    every placement of one chain relative to the other is "split chain
    ``outer`` at byte offset ``cut`` and insert ``inner`` there", so a
    node's placed offset is its offset within its own chain plus
    ``cut`` (inner) or plus ``inner.size`` when at or past the cut
    (outer).  :meth:`_placed_score` adds the same ``weight * K(d)``
    terms as :func:`ext_tsp_score`, in the same edge order, from those
    integers -- the same doubles, hence the same merge decisions -- and
    only the winning placement is ever materialised.
    """

    def __init__(
        self,
        nodes: Dict[NodeId, Tuple[int, float]],
        edges: Iterable[Tuple[NodeId, NodeId, float]],
        entry: Optional[NodeId] = None,
        params: LayoutParams = DEFAULT_PARAMS,
    ):
        self._params = params
        self._sizes = {n: max(1, int(size)) for n, (size, _w) in nodes.items()}
        self._entry = entry
        if entry is not None and entry not in nodes:
            raise ValueError("entry node not in node set")
        self._chains: Dict[int, _Chain] = {}
        self._node_chain: Dict[NodeId, int] = {}
        #: Byte offset of each node within its current chain.
        self._start: Dict[NodeId, int] = dict.fromkeys(nodes, 0)
        self._pair_edges: Dict[Tuple[int, int], List[Tuple[NodeId, NodeId, float]]] = {}
        #: (-gain, tiebreak, x cid, x version, y cid, y version,
        #:  x is the split chain, split index, merged score)
        self._heap: List[Tuple[float, int, int, int, int, int, bool, int, float]] = []
        self._tiebreak = 0
        for i, (node, (_size, weight)) in enumerate(nodes.items()):
            chain = _Chain(i, node, self._sizes[node], weight, node == entry)
            self._chains[i] = chain
            self._node_chain[node] = i
        for src, dst, weight in edges:
            if weight <= 0 or src == dst:
                continue
            if src not in self._sizes or dst not in self._sizes:
                continue
            a, b = self._node_chain[src], self._node_chain[dst]
            if a == b:
                self._chains[a].intra.append((src, dst, weight))
                continue
            key = (a, b) if a < b else (b, a)
            self._pair_edges.setdefault(key, []).append((src, dst, weight))

    # -- scoring helpers ------------------------------------------------

    def _placements(self, x: _Chain, y: _Chain) -> List[Tuple[_Chain, _Chain, int, int]]:
        """All legal placements of y relative to x, in evaluation order,
        as ``(outer, inner, split, cut)``: ``inner`` goes before
        ``outer.nodes[split]``, which starts ``cut`` bytes into ``outer``.

        Concatenations both ways, plus splicing one chain into the
        other at every split point (bounded by the split threshold).
        A chain holding the entry node may only gain material *after*
        its first node.
        """
        threshold = self._params.chain_split_threshold
        start = self._start
        placements: List[Tuple[_Chain, _Chain, int, int]] = []
        if not y.has_entry:
            placements.append((x, y, len(x.nodes), x.size))
        if not x.has_entry:
            placements.append((y, x, len(y.nodes), y.size))
        if not y.has_entry and 2 <= len(x.nodes) <= threshold:
            placements.extend(
                (x, y, split, start[x.nodes[split]]) for split in range(1, len(x.nodes)))
        if not x.has_entry and 2 <= len(y.nodes) <= threshold:
            placements.extend(
                (y, x, split, start[y.nodes[split]]) for split in range(1, len(y.nodes)))
        return placements

    def _resolve(self, edge_list, outer: _Chain) -> List[_ResolvedEdge]:
        """Per-edge operands of :meth:`_placed_score` for splitting ``outer``."""
        params = self._params
        start, sizes, chain_of, cid = self._start, self._sizes, self._node_chain, outer.cid
        return [
            (chain_of[src] == cid, start[src] + sizes[src], chain_of[dst] == cid, start[dst],
             weight * params.fallthrough_weight, weight * params.forward_weight,
             weight * params.backward_weight)
            for src, dst, weight in edge_list
        ]

    def _placed_score(self, resolved: List[_ResolvedEdge], cut: int, inserted: int) -> float:
        """Ext-TSP score of the chain made by inserting ``inserted`` bytes
        (the other chain) at offset ``cut`` of the split chain.

        Term for term :func:`ext_tsp_score` of the materialised order
        over the same edge list: same products, same left-to-right sum
        (zero terms are skipped; adding 0.0 changes no partial sum).
        """
        forward_window = self._params.forward_window
        backward_window = self._params.backward_window
        total = 0.0
        for src_outer, src_end, dst_outer, dst_start, fallthrough, forward, backward in resolved:
            if not src_outer:
                src_end += cut
            elif src_end > cut:
                src_end += inserted
            if not dst_outer:
                dst_start += cut
            elif dst_start >= cut:
                dst_start += inserted
            if dst_start == src_end:
                total += fallthrough
            elif dst_start > src_end:
                dist = dst_start - src_end
                if dist <= forward_window:
                    total += forward * (1.0 - dist / forward_window)
            else:
                dist = src_end - dst_start
                if dist <= backward_window:
                    total += backward * (1.0 - dist / backward_window)
        return total

    def _best_merge(self, x: _Chain, y: _Chain) -> Optional[Tuple[float, bool, int, float]]:
        """Most profitable placement of y relative to x as ``(gain, x is
        the split chain, split, merged score)``, or None."""
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.get(key)
        if not cross:
            return None
        edge_list = x.intra + y.intra + cross
        resolved: Dict[int, List[_ResolvedEdge]] = {}  # by split chain
        base = x.score + y.score
        best_gain = 0.0
        best: Optional[Tuple[float, bool, int, float]] = None
        for outer, inner, split, cut in self._placements(x, y):
            if outer.cid not in resolved:
                resolved[outer.cid] = self._resolve(edge_list, outer)
            total = self._placed_score(resolved[outer.cid], cut, inner.size)
            gain = total - base
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = (gain, outer is x, split, total)
        return best

    def _push_candidate(self, x: _Chain, y: _Chain) -> None:
        best = self._best_merge(x, y)
        if best is None:
            return
        gain, split_x, split, total = best
        self._tiebreak += 1
        heapq.heappush(
            self._heap,
            (-gain, self._tiebreak, x.cid, x.version, y.cid, y.version, split_x, split, total),
        )

    # -- main loop -------------------------------------------------------

    def solve(self) -> List[NodeId]:
        """Run merging to exhaustion and return the final node order."""
        neighbours: Dict[int, set] = {cid: set() for cid in self._chains}
        for a, b in self._pair_edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        for a, b in list(self._pair_edges.keys()):
            self._push_candidate(self._chains[a], self._chains[b])

        while self._heap:
            _neg_gain, _tb, a_id, a_ver, b_id, b_ver, split_a, split, total = heapq.heappop(self._heap)
            chain_a = self._chains.get(a_id)
            chain_b = self._chains.get(b_id)
            if chain_a is None or chain_b is None:
                continue
            if chain_a.version != a_ver or chain_b.version != b_ver:
                continue  # stale candidate (lazy invalidation)
            # Both chains are as they were when the candidate was scored,
            # so the placement and its score still hold.
            outer, inner = (chain_a, chain_b) if split_a else (chain_b, chain_a)
            order = outer.nodes[:split] + inner.nodes + outer.nodes[split:]
            self._merge(chain_a, chain_b, order, total, neighbours)
        return self._final_order()

    def _merge(
        self, x: _Chain, y: _Chain, order: List[NodeId], score: float, neighbours: Dict[int, set]
    ) -> None:
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.pop(key, [])
        x.nodes = order
        x.intra = x.intra + y.intra + cross
        x.size += y.size
        x.weight += y.weight
        x.has_entry = x.has_entry or y.has_entry
        x.version += 1
        x.score = score
        cursor = 0
        for node in order:
            self._node_chain[node] = x.cid
            self._start[node] = cursor
            cursor += self._sizes[node]
        del self._chains[y.cid]
        # Re-bucket y's pair edges onto x and refresh candidates.
        y_neigh = neighbours.pop(y.cid, set())
        x_neigh = neighbours[x.cid]
        x_neigh.discard(y.cid)
        for other in y_neigh:
            if other == x.cid or other not in self._chains:
                continue
            old_key = (y.cid, other) if y.cid < other else (other, y.cid)
            moved = self._pair_edges.pop(old_key, [])
            new_key = (x.cid, other) if x.cid < other else (other, x.cid)
            self._pair_edges.setdefault(new_key, []).extend(moved)
            x_neigh.add(other)
            neighbours[other].discard(y.cid)
            neighbours[other].add(x.cid)
        for other in list(x_neigh):
            if other in self._chains:
                self._push_candidate(x, self._chains[other])

    def _final_order(self) -> List[NodeId]:
        chains = list(self._chains.values())
        entry_chains = [c for c in chains if c.has_entry]
        rest = [c for c in chains if not c.has_entry]
        rest.sort(key=lambda c: (-(c.weight / max(1, c.size)), c.cid))
        ordered = entry_chains + rest
        return [node for chain in ordered for node in chain.nodes]


def ext_tsp_order(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId] = None,
    params: LayoutParams = DEFAULT_PARAMS,
) -> List[NodeId]:
    """Convenience wrapper: build a solver and return the layout order."""
    if not nodes:
        return []
    return ExtTSP(nodes, aggregate_edges(edges), entry=entry, params=params).solve()


def solve_signature(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId],
    params: LayoutParams = DEFAULT_PARAMS,
) -> str:
    """Content digest of one layout problem: the solve-memoization key.

    Covers *every* input of the solver, bit-exactly: the scoring
    params, the entry pin, node sizes and weights, and the edge list.
    Nodes are hashed in **iteration order** (not sorted) because chain
    ids -- and with them every heap tiebreak -- are assigned by
    enumeration order in :class:`ExtTSP`; two problems with equal
    content but different insertion order are legitimately different
    solves.  Equal signatures therefore guarantee the memoized order
    equals a fresh solve, which is what lets
    :class:`repro.runtime.FunctionSolveCache` replay solutions across
    releases without risking the bit-identity of the relink.
    """
    h = hashlib.sha256()
    h.update(repr(params).encode("utf-8"))
    h.update(f"|e:{entry!r}".encode("utf-8"))
    for node, (size, weight) in nodes.items():
        h.update(f"|n:{node!r}:{int(size)}:{float(weight).hex()}".encode("utf-8"))
    for src, dst, weight in edges:
        h.update(f"|g:{src!r}:{dst!r}:{float(weight).hex()}".encode("utf-8"))
    return h.hexdigest()


def ext_tsp_order_many(
    problems: Sequence[
        Tuple[Dict[NodeId, Tuple[int, float]], Iterable[Tuple[NodeId, NodeId, float]], Optional[NodeId]]
    ],
    params: LayoutParams = DEFAULT_PARAMS,
    cache: Optional[object] = None,
) -> List[List[NodeId]]:
    """Solve many independent layout problems, orders in input order.

    Each problem is ``(nodes, edges, entry)`` -- WPA's per-function
    layout makes every hot function its own problem.

    ``cache`` (the :class:`repro.runtime.FunctionSolveCache` contract:
    ``get(key) -> order | None`` / ``put(key, order)``) memoizes solves
    by :func:`solve_signature`: problems whose signature is cached are
    replayed without solving, only the misses run, and fresh solutions
    are stored.  Every lookup happens before any solve, in input order,
    so hit/miss accounting is deterministic.
    """
    tasks = [(nodes, list(edges), entry, params) for nodes, edges, entry in problems]
    # One path: without a cache every problem is a miss and nothing is
    # stored.
    keys: List[str] = []
    results: List[Optional[List[NodeId]]] = [None] * len(tasks)
    if cache is not None:
        keys = [solve_signature(*task) for task in tasks]
        results = [cache.get(key) for key in keys]
    misses = [i for i, order in enumerate(results) if order is None]
    for i in misses:
        results[i] = ext_tsp_order(*tasks[i])
        if cache is not None:
            cache.put(keys[i], results[i])
    return results  # type: ignore[return-value]


def aggregate_edges(edges: Iterable[Tuple[NodeId, NodeId, float]]):
    """Aggregate duplicate directed edges by summing weights."""
    agg: Dict[Tuple[NodeId, NodeId], float] = {}
    for src, dst, weight in edges:
        agg[(src, dst)] = agg.get((src, dst), 0.0) + weight
    return [(s, d, w) for (s, d), w in agg.items()]
