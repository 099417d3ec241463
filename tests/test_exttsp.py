"""Tests for the Ext-TSP layout algorithm."""

import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.exttsp import (
    DEFAULT_PARAMS,
    ExtTSP,
    LayoutParams,
    aggregate_edges,
    edge_score,
    ext_tsp_order,
    ext_tsp_score,
)


class TestEdgeScore:
    def test_fallthrough_full_credit(self):
        assert edge_score(10.0, 100, 100, DEFAULT_PARAMS) == pytest.approx(10.0)

    def test_forward_jump_decays(self):
        near = edge_score(10.0, 100, 164, DEFAULT_PARAMS)
        far = edge_score(10.0, 100, 1000, DEFAULT_PARAMS)
        assert 0 < far < near < 10.0 * DEFAULT_PARAMS.forward_weight

    def test_forward_out_of_window_zero(self):
        assert edge_score(10.0, 0, 2000, DEFAULT_PARAMS) == 0.0

    def test_backward_jump_decays(self):
        near = edge_score(10.0, 200, 150, DEFAULT_PARAMS)
        far = edge_score(10.0, 800, 200, DEFAULT_PARAMS)
        assert 0 < far < near

    def test_backward_out_of_window_zero(self):
        assert edge_score(10.0, 1000, 0, DEFAULT_PARAMS) == 0.0

    def test_zero_weight(self):
        assert edge_score(0.0, 0, 0, DEFAULT_PARAMS) == 0.0


class TestScore:
    def test_chain_score(self):
        sizes = {0: 10, 1: 10}
        assert ext_tsp_score([0, 1], sizes, [(0, 1, 5.0)]) == pytest.approx(5.0)
        # Backward distance: end of node 0 (offset 10 + size 10) to start
        # of node 1 (offset 0) = 20 bytes.
        assert ext_tsp_score([1, 0], sizes, [(0, 1, 5.0)]) == pytest.approx(
            5.0 * DEFAULT_PARAMS.backward_weight * (1 - 20 / DEFAULT_PARAMS.backward_window)
        )

    def test_missing_nodes_ignored(self):
        assert ext_tsp_score([0], {0: 10}, [(0, 9, 5.0)]) == 0.0


class TestSolver:
    def test_linear_chain_recovered(self):
        nodes = {i: (30, 1.0) for i in range(12)}
        edges = [(i, i + 1, 100.0) for i in range(11)]
        assert ext_tsp_order(nodes, edges, entry=0) == list(range(12))

    def test_skewed_diamond(self):
        nodes = {i: (30, 1.0) for i in range(4)}
        edges = [(0, 1, 90.0), (0, 2, 10.0), (1, 3, 90.0), (2, 3, 10.0)]
        order = ext_tsp_order(nodes, edges, entry=0)
        assert order.index(1) == order.index(0) + 1
        assert order.index(3) == order.index(1) + 1

    def test_entry_pinned_first(self):
        nodes = {i: (30, float(i)) for i in range(6)}
        edges = [(i, (i + 1) % 6, 50.0) for i in range(6)]
        order = ext_tsp_order(nodes, edges, entry=3)
        assert order[0] == 3

    def test_entry_must_exist(self):
        with pytest.raises(ValueError):
            ExtTSP({0: (10, 1.0)}, [], entry=99)

    def test_all_nodes_exactly_once(self):
        rng = random.Random(0)
        nodes = {i: (rng.randint(5, 50), rng.random()) for i in range(30)}
        edges = [
            (rng.randrange(30), rng.randrange(30), rng.random() * 100) for _ in range(80)
        ]
        order = ext_tsp_order(nodes, edges, entry=0)
        assert sorted(order) == list(range(30))

    def test_improves_over_source_order(self):
        rng = random.Random(7)
        n = 40
        nodes = {i: (rng.randint(10, 60), 1.0) for i in range(n)}
        edges = [
            (rng.randrange(n), rng.randrange(n), rng.random() * 100) for _ in range(120)
        ]
        edges = [(s, d, w) for s, d, w in edges if s != d]
        sizes = {k: v[0] for k, v in nodes.items()}
        order = ext_tsp_order(nodes, edges, entry=0)
        assert ext_tsp_score(order, sizes, edges) > ext_tsp_score(
            list(range(n)), sizes, edges
        )

    def test_deterministic(self):
        rng = random.Random(3)
        nodes = {i: (rng.randint(5, 50), rng.random()) for i in range(25)}
        edges = [
            (rng.randrange(25), rng.randrange(25), rng.random() * 10) for _ in range(60)
        ]
        assert ext_tsp_order(nodes, edges, entry=0) == ext_tsp_order(nodes, edges, entry=0)

    def test_disconnected_components_ordered_by_density(self):
        # Component A (hot, small) should precede component B (cold, big).
        nodes = {0: (10, 0.0), 1: (10, 500.0), 2: (10, 500.0), 3: (100, 1.0), 4: (100, 1.0)}
        edges = [(1, 2, 500.0), (3, 4, 1.0)]
        order = ext_tsp_order(nodes, edges, entry=0)
        assert order[0] == 0
        assert order.index(1) < order.index(3)

    def test_empty_graph(self):
        assert ext_tsp_order({}, []) == []

    def test_single_node(self):
        assert ext_tsp_order({7: (10, 1.0)}, [], entry=7) == [7]

    def test_self_edges_ignored(self):
        nodes = {0: (10, 1.0), 1: (10, 1.0)}
        order = ext_tsp_order(nodes, [(0, 0, 100.0), (0, 1, 1.0)], entry=0)
        assert order == [0, 1]

    def test_duplicate_edges_aggregated(self):
        nodes = {i: (30, 1.0) for i in range(3)}
        edges = [(0, 2, 30.0), (0, 2, 30.0), (0, 1, 50.0)]
        order = ext_tsp_order(nodes, edges, entry=0)
        # Combined 0->2 weight (60) beats 0->1 (50) for the fallthrough slot.
        assert order[1] == 2

    def test_loop_rotation_profitable(self):
        # 0 -> 1 -> 2 -> 1 (hot loop), 1 -> 3 exit.
        nodes = {i: (20, 1.0) for i in range(4)}
        edges = [(0, 1, 1.0), (1, 2, 99.0), (2, 1, 98.0), (1, 3, 1.0)]
        order = ext_tsp_order(nodes, edges, entry=0)
        # Loop body blocks must be adjacent one way or the other.
        assert abs(order.index(1) - order.index(2)) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_random_graphs_valid_permutation(self, data):
        n = data.draw(st.integers(min_value=1, max_value=20))
        nodes = {
            i: (data.draw(st.integers(min_value=1, max_value=100)), 1.0) for i in range(n)
        }
        num_edges = data.draw(st.integers(min_value=0, max_value=40))
        edges = [
            (
                data.draw(st.integers(min_value=0, max_value=n - 1)),
                data.draw(st.integers(min_value=0, max_value=n - 1)),
                data.draw(st.floats(min_value=0.0, max_value=1000.0)),
            )
            for _ in range(num_edges)
        ]
        order = ext_tsp_order(nodes, edges, entry=0)
        assert sorted(order) == list(range(n))
        assert order[0] == 0

    def test_split_merge_inserts_hot_loop(self):
        """A hot pair far from the entry chain is spliced inside it."""
        # Entry chain 0..9 with moderate weights; hot loop (10, 11)
        # connected to node 4.
        nodes = {i: (20, 1.0) for i in range(12)}
        edges = [(i, i + 1, 10.0) for i in range(9)]
        edges += [(4, 10, 500.0), (10, 11, 500.0), (11, 5, 500.0)]
        order = ext_tsp_order(nodes, edges, entry=0)
        assert order.index(10) == order.index(4) + 1
        assert order.index(11) == order.index(10) + 1


class TestParams:
    def test_custom_windows(self):
        params = LayoutParams(forward_window=64, backward_window=32)
        assert edge_score(10.0, 0, 63, params) > 0
        assert edge_score(10.0, 0, 65, params) == 0


# -- the solver's scorer against the definition ---------------------------


class _ReferenceExtTSP:
    """The greedy merge spelled out, sharing nothing with ``ExtTSP``:
    chains are node lists, every variant of a candidate is laid out and
    scored whole with ``ext_tsp_score``, every candidate is scored when
    it is pushed, and a popped candidate is scored again.
    """

    def __init__(self, nodes, edges, entry=None, params=DEFAULT_PARAMS):
        self.params = params
        self.sizes = {node: max(1, int(size)) for node, (size, _w) in nodes.items()}
        self.nodes = {cid: [node] for cid, node in enumerate(nodes)}
        self.weight = {cid: weight for cid, (_size, weight) in enumerate(nodes.values())}
        self.has_entry = {cid: node == entry for cid, node in enumerate(nodes)}
        self.version = dict.fromkeys(self.nodes, 0)
        self.intra = {cid: [] for cid in self.nodes}
        chain_of = {node: cid for cid, node in enumerate(nodes)}
        self.pair_edges = {}
        for src, dst, weight in edges:
            if weight <= 0 or src == dst or src not in chain_of or dst not in chain_of:
                continue
            a, b = chain_of[src], chain_of[dst]
            self.pair_edges.setdefault((min(a, b), max(a, b)), []).append((src, dst, weight))
        self.heap = []
        self.tiebreak = 0

    def score(self, cid):
        return ext_tsp_score(self.nodes[cid], self.sizes, self.intra[cid], self.params)

    def variants(self, x, y):
        threshold = self.params.chain_split_threshold
        xs, ys = self.nodes[x], self.nodes[y]
        variants = []
        if not self.has_entry[y]:
            variants.append(xs + ys)
        if not self.has_entry[x]:
            variants.append(ys + xs)
        if not self.has_entry[y] and 2 <= len(xs) <= threshold:
            variants.extend(xs[:split] + ys + xs[split:] for split in range(1, len(xs)))
        if not self.has_entry[x] and 2 <= len(ys) <= threshold:
            variants.extend(ys[:split] + xs + ys[split:] for split in range(1, len(ys)))
        return variants

    def edge_list(self, x, y):
        return self.intra[x] + self.intra[y] + self.pair_edges.get((min(x, y), max(x, y)), [])

    def best_merge(self, x, y):
        """``(gain, merged order)`` of the first variant to beat every
        earlier one by more than 1e-12, or None."""
        edge_list = self.edge_list(x, y)
        base = self.score(x) + self.score(y)
        best = None
        best_gain = 0.0
        for order in self.variants(x, y):
            gain = ext_tsp_score(order, self.sizes, edge_list, self.params) - base
            if gain > best_gain + 1e-12:
                best_gain, best = gain, (gain, order)
        return best

    def push(self, x, y):
        best = self.best_merge(x, y) if self.pair_edges.get((min(x, y), max(x, y))) else None
        if best is not None:
            self.tiebreak += 1
            heapq.heappush(self.heap, (-best[0], self.tiebreak,
                                       x, self.version[x], y, self.version[y]))

    def solve(self):
        neighbours = {cid: set() for cid in self.nodes}
        for a, b in self.pair_edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        for a, b in list(self.pair_edges):
            self.push(a, b)
        while self.heap:
            _gain, _tb, x, x_ver, y, y_ver = heapq.heappop(self.heap)
            if x not in self.nodes or y not in self.nodes:
                continue
            if self.version[x] != x_ver or self.version[y] != y_ver:
                continue
            merged = self.best_merge(x, y)
            self.merge(x, y, merged[1], neighbours)

        def density(cid):
            return self.weight[cid] / sum(self.sizes[node] for node in self.nodes[cid])

        chains = sorted(self.nodes, key=lambda c: (not self.has_entry[c], -density(c), c))
        return [node for cid in chains for node in self.nodes[cid]]

    def merge(self, x, y, order, neighbours):
        """Chain ``y`` joins ``x`` as ``order``; candidates of ``x`` are
        pushed again, in the order its neighbour set yields them."""
        self.intra[x] = self.edge_list(x, y)
        self.pair_edges.pop((min(x, y), max(x, y)), None)
        self.nodes[x] = order
        self.weight[x] += self.weight[y]
        self.has_entry[x] = self.has_entry[x] or self.has_entry[y]
        self.version[x] += 1
        del self.nodes[y]
        x_neigh = neighbours[x]
        x_neigh.discard(y)
        for other in neighbours.pop(y):
            if other == x or other not in self.nodes:
                continue
            moved = self.pair_edges.pop((min(y, other), max(y, other)), [])
            self.pair_edges.setdefault((min(x, other), max(x, other)), []).extend(moved)
            x_neigh.add(other)
            neighbours[other].discard(y)
            neighbours[other].add(x)
        for other in list(x_neigh):
            if other in self.nodes:
                self.push(x, other)


def _kept_edges(nodes, edges):
    """The edges the solver keeps, in input order: its edge ``e`` is ``[e]``."""
    return [(s, d, w) for s, d, w in edges if w > 0 and s != d and s in nodes and d in nodes]


def _chain_of(solver, node):
    return solver._chains[int(solver._chain_of[list(solver._ids).index(node)])]


def _chain_edges(solver, kept, indices):
    return [kept[e] for e in np.asarray(indices, dtype=int).tolist()]


def _force_chain(solver, kept, group, neighbours):
    """Concatenate the singleton chains of ``group`` into one chain."""
    head = _chain_of(solver, group[0])
    for node in group[1:]:
        tail = _chain_of(solver, node)
        key = (head.cid, tail.cid) if head.cid < tail.cid else (tail.cid, head.cid)
        order = [solver._ids[i] for i in head.nodes.tolist() + tail.nodes.tolist()]
        edge_list = _chain_edges(solver, kept, list(head.intra) + list(tail.intra)
                                 + solver._pair_edges.get(key, []))
        score = ext_tsp_score(order, _sizes(solver), edge_list, solver._params)
        solver._merge(head, tail, True, len(head.nodes), score, neighbours)
    return head


def _sizes(solver):
    return dict(zip(solver._ids, solver._size.tolist()))


def _neighbours(solver):
    neighbours = {cid: set() for cid in solver._chains}
    for a, b in solver._pair_edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return neighbours


@st.composite
def _layout_params(draw):
    """Default kernel weights and windows, or drawn ones: a fall-through
    weight below a jump weight, where no intra term is safe from
    growing, and windows that admit no jump at all."""
    threshold = draw(st.sampled_from([2, 3, 4, 128]))
    if draw(st.booleans()):
        return LayoutParams(chain_split_threshold=threshold)
    weight = st.one_of(st.sampled_from([0.0, 0.05, 0.1, 1.0]),
                       st.floats(min_value=0.0, max_value=2.0))
    window = st.one_of(st.sampled_from([0, 1, 64, 640, 1024]),
                       st.integers(min_value=-2, max_value=3000))
    return LayoutParams(fallthrough_weight=draw(weight), forward_weight=draw(weight),
                        backward_weight=draw(weight), forward_window=draw(window),
                        backward_window=draw(window), chain_split_threshold=threshold)


@st.composite
def _chain_pairs(draw):
    """Two disjoint chains over nodes 0..n-1 plus edges of every kind."""
    len_x = draw(st.integers(min_value=1, max_value=6))
    len_y = draw(st.integers(min_value=1, max_value=6))
    n = len_x + len_y
    nodes = {i: (draw(st.integers(min_value=0, max_value=400)), 1.0) for i in range(n)}
    permutation = draw(st.permutations(range(n)))
    node = st.integers(min_value=0, max_value=n - 1)
    # Zero and negative weights and self edges are dropped by the
    # solver; duplicates are kept as separate terms.
    weight = st.one_of(st.sampled_from([0.0, -3.0, 1e-9, 0.1, 7.0]),
                       st.floats(min_value=0.0, max_value=1e6))
    edges = draw(st.lists(st.tuples(node, node, weight), max_size=30))
    edges += draw(st.lists(st.sampled_from(edges), max_size=5)) if edges else []
    entry = draw(st.sampled_from([None, permutation[0], permutation[len_x]]))
    # Chain lengths 1..6 fall on both sides of the split thresholds.
    return nodes, edges, entry, draw(_layout_params()), permutation[:len_x], permutation[len_x:]


class TestPlacedScore:
    @settings(max_examples=200, deadline=None)
    @given(_chain_pairs())
    def test_every_placement_scores_as_its_materialised_order(self, case):
        nodes, edges, entry, params, group_x, group_y = case
        solver = ExtTSP(nodes, edges, entry=entry, params=params)
        kept = _kept_edges(nodes, edges)
        neighbours = _neighbours(solver)
        x = _force_chain(solver, kept, list(group_x), neighbours)
        y = _force_chain(solver, kept, list(group_y), neighbours)
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        # The solver never scores a pair without a cross edge; the
        # scorer and the bound must hold for it all the same.
        solver._pair_edges.setdefault(key, [])
        edge_list = _chain_edges(solver, kept, list(x.intra) + list(y.intra)
                                 + solver._pair_edges[key])
        orders = []
        cuts, split_x, splits = solver._placements(x, y)
        for sx, split in zip(split_x, splits):
            outer, inner = (x, y) if sx else (y, x)
            order = np.concatenate((outer.nodes[:split], inner.nodes, outer.nodes[split:]))
            orders.append([solver._ids[i] for i in order.tolist()])
        reference = _ReferenceExtTSP(nodes, edges, entry=entry, params=params)
        reference.nodes = {cid: [solver._ids[i] for i in chain.nodes.tolist()]
                           for cid, chain in solver._chains.items()}
        reference.has_entry = {cid: chain.has_entry for cid, chain in solver._chains.items()}
        assert orders == reference.variants(x.cid, y.cid)
        totals = solver._totals(x, y, cuts, split_x)
        for total, order in zip(totals, orders):
            # Equal, not approximately equal: same terms, same order.
            assert total == ext_tsp_score(order, _sizes(solver), edge_list, params)
        best = solver._best_merge(x, y)
        if best is not None:
            assert best[0] <= solver._gain_bound(x, y, key)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_solver_order_equals_reference_solver(self, data):
        n = data.draw(st.integers(min_value=1, max_value=24))
        nodes = {
            i: (data.draw(st.integers(min_value=0, max_value=300)),
                data.draw(st.floats(min_value=0.0, max_value=100.0)))
            for i in range(n)
        }
        node = st.integers(min_value=0, max_value=n - 1)
        edges = aggregate_edges(data.draw(st.lists(
            st.tuples(node, node, st.floats(min_value=-1.0, max_value=1000.0)), max_size=70)))
        entry = data.draw(st.sampled_from([None, 0, n - 1]))
        params = data.draw(_layout_params())
        order = ExtTSP(nodes, edges, entry=entry, params=params).solve()
        assert order == _ReferenceExtTSP(nodes, edges, entry=entry, params=params).solve()

    def test_merged_chain_score_is_the_whole_chain_score(self):
        rng = random.Random(5)
        nodes = {i: (rng.randint(1, 80), rng.random()) for i in range(40)}
        edges = aggregate_edges(
            (rng.randrange(40), rng.randrange(40), rng.random() * 50) for _ in range(140))
        solver = ExtTSP(nodes, edges, entry=0)
        solver.solve()
        kept = _kept_edges(nodes, edges)
        assert any(len(chain.nodes) > 1 for chain in solver._chains.values())
        for chain in solver._chains.values():
            order = [solver._ids[i] for i in chain.nodes.tolist()]
            assert chain.score == ext_tsp_score(order, _sizes(solver),
                                                _chain_edges(solver, kept, chain.intra))
