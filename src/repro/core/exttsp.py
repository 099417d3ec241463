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
profitable action* (§4.7).  Here a binary heap retrieves it, and a merge
candidate is *scored* only when it can win: pushed with a sound upper
bound on its gain, scored -- all placements at once -- when that bound
tops the heap, and pushed back with its exact gain.

Chains containing the entry node are pinned to keep the entry first.
Leftover chains are concatenated in decreasing execution density, so
hot chains pack together even when no jump rewards connect them.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

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
    laying chains out (:meth:`ExtTSP._totals`) -- and the tests pin
    that scorer to this function, bit for bit.
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
    __slots__ = ("cid", "nodes", "size", "weight", "version", "has_entry", "intra",
                 "edge_weight", "score")

    def __init__(self, cid: int, nodes: np.ndarray, size: int, weight: float, has_entry: bool):
        self.cid = cid
        self.nodes = nodes  # node indices, in layout order
        self.size = size
        self.weight = weight
        self.version = 0
        self.has_entry = has_entry
        self.intra = np.zeros(0, dtype=np.intp)  # its edges' indices, in merge order
        self.edge_weight = 0.0  # their summed weight
        self.score = 0.0


class ExtTSP:
    """Greedy chain-merging Ext-TSP solver.

    ``nodes`` maps node id to (byte size, execution weight); ``edges``
    are directed ``(src, dst, weight)`` jump frequencies.  ``entry``
    (when given) is pinned to the front of the layout.  Node ``i`` (in
    ``nodes`` order) starts as chain ``i``.  :meth:`_totals` scores a
    candidate's placements with the terms of :func:`ext_tsp_score`,
    summed in the same order -- the same doubles, hence the same merge
    decisions -- and only the winning placement is materialised.
    """

    def __init__(
        self,
        nodes: Dict[NodeId, Tuple[int, float]],
        edges: Iterable[Tuple[NodeId, NodeId, float]],
        entry: Optional[NodeId] = None,
        params: LayoutParams = DEFAULT_PARAMS,
    ):
        if entry is not None and entry not in nodes:
            raise ValueError("entry node not in node set")
        self._params = params
        self._ids: List[NodeId] = list(nodes)
        index = {node: i for i, node in enumerate(self._ids)}
        sizes = [max(1, int(size)) for size, _w in nodes.values()]
        n = len(sizes)
        self._size = np.array(sizes, dtype=np.int64)
        #: Node ``i``'s start in its chain at ``i``, last byte at ``n + i``; its chain at both.
        self._at = np.concatenate((np.zeros_like(self._size), self._size - 1))
        self._chain_of = np.concatenate((np.arange(n), np.arange(n)))
        self._chains: Dict[int, _Chain] = {
            i: _Chain(i, self._chain_of[i:i + 1].copy(), sizes[i], weight, node == entry)
            for i, (node, (_size, weight)) in enumerate(nodes.items())
        }
        self._pair_edges: Dict[Tuple[int, int], List[int]] = {}
        # Per edge: its dst and src node, and its weight.
        dst, src, self._weight = [], [], []
        for s, d, weight in edges:
            if weight <= 0 or s == d or s not in index or d not in index:
                continue
            a, b = index[s], index[d]
            self._pair_edges.setdefault((a, b) if a < b else (b, a), []).append(len(self._weight))
            dst.append(b)
            src.append(a)
            self._weight.append(weight)
        #: Per edge, into ``_at``: row 0 its dst's start, row 1 its src's last byte.
        self._endpoints = np.array([dst, src], dtype=np.intp).reshape(2, -1)
        self._endpoints[1] += n
        kernel = (params.fallthrough_weight, params.forward_weight, params.backward_weight)
        #: ``weight * kernel weight`` per edge, rows indexed by the sign
        #: of the jump: 0 fall-through, 1 forward, -1 backward.
        self._kernel = np.array(self._weight, dtype=np.float64) * np.array(kernel)[:, None]
        # Signed so that a backward distance divides as its magnitude;
        # a window that admits no jump divides nothing, 1 keeps it finite.
        fw, bw = params.forward_window, params.backward_window
        self._divisors = np.array([1, fw if fw > 0 else 1, -bw if bw > 0 else -1])
        self._kmax, self._kabs = max(*kernel, 0.0), max(map(abs, kernel))
        #: No merge can raise an intra-chain term (see :meth:`_gain_bound`).
        self._tight = min(kernel[1:]) >= 0 and max(kernel[1:]) <= kernel[0]
        #: (-gain or -bound, tiebreak, x cid, x version, y cid, y version,
        #:  x is the split chain, split index or -1 for a bound, merged score)
        self._heap: List[Tuple[float, int, int, int, int, int, bool, int, float]] = []
        self._tiebreak = 0
        #: Exact counts of this solve's work: candidates pushed (with a
        #: gain bound), candidates scored, placements scored.
        self.work: Counter = Counter()

    def _gain_bound(self, x: _Chain, y: _Chain, key: Tuple[int, int]) -> float:
        """An upper bound on :meth:`_best_merge`'s gain for ``(x, y)``; the
        proof is in DESIGN.md, "Ext-TSP scores a merge only when it can win"."""
        cross = 0.0
        for e in self._pair_edges[key]:
            cross += self._weight[e]
        total = x.edge_weight + y.edge_weight + cross
        slack = 1e-9 * self._kabs * total  # for rounding
        if self._tight:
            return self._kmax * cross + slack
        return self._kmax * total - (x.score + y.score) + slack

    def _push_candidate(self, x: _Chain, y: _Chain) -> None:
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        self.work["candidates_pushed"] += 1
        self._tiebreak += 1
        heapq.heappush(self._heap, (-self._gain_bound(x, y, key), self._tiebreak,
                                    x.cid, x.version, y.cid, y.version, False, -1, 0.0))

    def _placements(self, x: _Chain, y: _Chain) -> Tuple[List[int], List[bool], List[int]]:
        """Every legal placement of y relative to x, in evaluation order,
        as ``(cuts, x is the split chain, splits)``: concatenations both
        ways, then splicing one chain into the other before each node
        but the first (bounded by the split threshold).  A chain holding
        the entry node may only gain material *after* its first node."""
        threshold = self._params.chain_split_threshold
        cuts: List[int] = []
        split_x: List[bool] = []
        splits: List[int] = []
        for outer, inner in ((x, y), (y, x)):
            if not inner.has_entry:
                cuts.append(outer.size)
                split_x.append(outer is x)
                splits.append(len(outer.nodes))
        for outer, inner in ((x, y), (y, x)):
            if not inner.has_entry and 2 <= len(outer.nodes) <= threshold:
                cuts.extend(self._at[outer.nodes[1:]].tolist())
                split_x.extend([outer is x] * (len(outer.nodes) - 1))
                splits.extend(range(1, len(outer.nodes)))
        return cuts, split_x, splits

    def _totals(self, x: _Chain, y: _Chain, cuts: List[int], split_x: List[bool]) -> List[float]:
        """The merged chain's score under each placement: the same
        ``weight * K(d)`` terms as :func:`ext_tsp_score` over ``x.intra +
        y.intra + cross``, summed left to right."""
        self.work["candidates_scored"] += 1
        self.work["placements_scored"] += len(cuts)
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = np.array(self._pair_edges[key], dtype=np.intp)
        edges = np.concatenate((x.intra, y.intra, cross))
        if not len(edges):
            return [0.0] * len(cuts)  # the empty sum, as in ext_tsp_score
        # Column e is edge e; row 0 is its dst's start, row 1 its src's last
        # byte.  A placement moves an outer node's byte iff it is at or past
        # the cut.
        ends = self._endpoints[:, edges]
        at = self._at[ends]
        in_x = self._chain_of[ends] == x.cid
        # Row p of every array below is placement p.
        cut = np.array(cuts)[:, None]
        outer_x = np.array(split_x)[:, None]
        inserted = np.where(outer_x, y.size, x.size)
        shift = np.where(in_x.reshape(-1) == outer_x, (at.reshape(-1) >= cut) * inserted, cut)
        n = len(edges)
        diff = (at[0] - at[1] - 1) + (shift[:, :n] - shift[:, n:])
        kind = np.sign(diff)
        terms = self._kernel[kind, edges] * np.maximum(1.0 - diff / self._divisors[kind], 0.0)
        # accumulate is a left-to-right sum; np.sum would be pairwise.
        return np.add.accumulate(terms, axis=1)[:, -1].tolist()

    def _best_merge(self, x: _Chain, y: _Chain) -> Optional[Tuple[float, bool, int, float]]:
        """Most profitable placement of y relative to x as ``(gain, x is
        the split chain, split, merged score)``, or None: the first
        placement to beat every earlier one by more than 1e-12."""
        cuts, split_x, splits = self._placements(x, y)
        totals = self._totals(x, y, cuts, split_x)
        base = x.score + y.score
        best_gain = 0.0
        best = -1
        for p, total in enumerate(totals):
            gain = total - base
            if gain > best_gain + 1e-12:
                best_gain = gain
                best = p
        if best < 0:
            return None
        return best_gain, split_x[best], splits[best], totals[best]

    # -- main loop -------------------------------------------------------

    def solve(self) -> List[NodeId]:
        """Run merging to exhaustion and return the final node order."""
        neighbours: Dict[int, set] = {cid: set() for cid in self._chains}
        for a, b in self._pair_edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        for a, b in list(self._pair_edges.keys()):
            self._push_candidate(self._chains[a], self._chains[b])

        heap = self._heap
        while heap:
            _neg, tiebreak, a_id, a_ver, b_id, b_ver, split_a, split, total = heapq.heappop(heap)
            chain_a, chain_b = self._chains.get(a_id), self._chains.get(b_id)
            if (chain_a is None or chain_b is None
                    or chain_a.version != a_ver or chain_b.version != b_ver):
                continue  # stale candidate (lazy invalidation)
            if split < 0:
                # A bound reached the top: the exact gain competes with
                # the tiebreak it was pushed with.  Both chains stay as
                # they are until a version changes, and so does the score.
                best = self._best_merge(chain_a, chain_b)
                if best is not None:
                    gain, split_a, split, total = best
                    heapq.heappush(heap, (-gain, tiebreak, a_id, a_ver, b_id, b_ver,
                                          split_a, split, total))
                continue
            self._merge(chain_a, chain_b, split_a, split, total, neighbours)
        return self._final_order()

    def _merge(self, x: _Chain, y: _Chain, split_x: bool, split: int, score: float,
               neighbours: Dict[int, set]) -> None:
        outer, inner = (x, y) if split_x else (y, x)
        order = np.concatenate((outer.nodes[:split], inner.nodes, outer.nodes[split:]))
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.pop(key, [])
        weight = 0.0
        for e in cross:
            weight += self._weight[e]
        x.nodes = order
        x.intra = np.concatenate((x.intra, y.intra, np.array(cross, dtype=np.intp)))
        x.edge_weight = x.edge_weight + y.edge_weight + weight
        x.size += y.size
        x.weight += y.weight
        x.has_entry = x.has_entry or y.has_entry
        x.version += 1
        x.score = score
        sizes = self._size[order]
        ends = np.cumsum(sizes)
        last = order + len(self._size)
        self._at[order] = ends - sizes
        self._at[last] = ends - 1
        self._chain_of[order] = self._chain_of[last] = x.cid
        del self._chains[y.cid]
        # Re-bucket y's pair edges onto x and refresh candidates.
        y_neigh = neighbours.pop(y.cid, set())
        x_neigh = neighbours[x.cid]
        x_neigh.discard(y.cid)
        for other in y_neigh:
            if other == x.cid or other not in self._chains:
                continue
            old_key = (y.cid, other) if y.cid < other else (other, y.cid)
            new_key = (x.cid, other) if x.cid < other else (other, x.cid)
            self._pair_edges.setdefault(new_key, []).extend(self._pair_edges.pop(old_key, []))
            x_neigh.add(other)
            neighbours[other].discard(y.cid)
            neighbours[other].add(x.cid)
        for other in list(x_neigh):
            if other in self._chains:
                self._push_candidate(x, self._chains[other])

    def _final_order(self) -> List[NodeId]:
        # The entry's chain (one at most), then the rest by density.
        ordered = sorted(self._chains.values(), key=lambda c: (
            not c.has_entry, -(c.weight / max(1, c.size)), c.cid))
        return [self._ids[i] for chain in ordered for i in chain.nodes.tolist()]


def ext_tsp_order(
    nodes: Dict[NodeId, Tuple[int, float]],
    edges: Iterable[Tuple[NodeId, NodeId, float]],
    entry: Optional[NodeId] = None,
    params: LayoutParams = DEFAULT_PARAMS,
    work: Optional[Counter] = None,
) -> List[NodeId]:
    """Convenience wrapper: build a solver and return the layout order;
    the solver's :attr:`ExtTSP.work` is added to ``work``."""
    if not nodes:
        return []
    solver = ExtTSP(nodes, aggregate_edges(edges), entry=entry, params=params)
    order = solver.solve()
    if work is not None:
        work.update(solver.work)
    return order


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
    cache: Optional[object] = None,
    work: Optional[Counter] = None,
) -> List[List[NodeId]]:
    """Solve many independent layout problems, orders in input order.

    Each problem is ``(nodes, edges, entry)`` -- WPA's per-function
    layout makes every hot function its own problem -- solved with
    :data:`DEFAULT_PARAMS`.

    ``cache`` (the :class:`repro.runtime.FunctionSolveCache` contract:
    ``get(key) -> order | None`` / ``put(key, order)``) memoizes solves
    by :func:`solve_signature`: problems whose signature is cached are
    replayed without solving, only the misses run, and fresh solutions
    are stored.  Every lookup happens before any solve, in input order,
    so hit/miss accounting is deterministic.  ``work`` counts the solves'
    work (see :func:`ext_tsp_order`).
    """
    tasks = [(nodes, list(edges), entry, DEFAULT_PARAMS) for nodes, edges, entry in problems]
    # One path: without a cache every problem is a miss and nothing is
    # stored.
    keys: List[str] = []
    results: List[Optional[List[NodeId]]] = [None] * len(tasks)
    if cache is not None:
        keys = [solve_signature(*task) for task in tasks]
        results = [cache.get(key) for key in keys]
    misses = [i for i, order in enumerate(results) if order is None]
    for i in misses:
        results[i] = ext_tsp_order(*tasks[i], work=work)
        if cache is not None:
            cache.put(keys[i], results[i])
    return results  # type: ignore[return-value]


def aggregate_edges(edges: Iterable[Tuple[NodeId, NodeId, float]]):
    """Aggregate duplicate directed edges by summing weights."""
    agg: Dict[Tuple[NodeId, NodeId], float] = {}
    for src, dst, weight in edges:
        agg[(src, dst)] = agg.get((src, dst), 0.0) + weight
    return [(s, d, w) for (s, d), w in agg.items()]
