"""Tests for the Ext-TSP layout algorithm."""

import heapq
import random

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


class _ReferenceExtTSP(ExtTSP):
    """The solver as it was before placements were scored in place:
    every variant is laid out, scored whole with ``ext_tsp_score``, and
    scored again when its candidate is popped.  Kept as the reference.
    """

    def _merge_variants(self, x, y):
        threshold = self._params.chain_split_threshold
        variants = []
        if not y.has_entry:
            variants.append(x.nodes + y.nodes)
        if not x.has_entry:
            variants.append(y.nodes + x.nodes)
        if not y.has_entry and 2 <= len(x.nodes) <= threshold:
            for split in range(1, len(x.nodes)):
                variants.append(x.nodes[:split] + y.nodes + x.nodes[split:])
        if not x.has_entry and 2 <= len(y.nodes) <= threshold:
            for split in range(1, len(y.nodes)):
                variants.append(y.nodes[:split] + x.nodes + y.nodes[split:])
        return variants

    def _best_merge(self, x, y):
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        cross = self._pair_edges.get(key)
        if not cross:
            return None
        edge_list = x.intra + y.intra + cross
        base = x.score + y.score
        best_gain = 0.0
        best_order = None
        for order in self._merge_variants(x, y):
            gain = ext_tsp_score(order, self._sizes, edge_list, self._params) - base
            if gain > best_gain + 1e-12:
                best_gain = gain
                best_order = order
        if best_order is None:
            return None
        return best_gain, best_order

    def _push_candidate(self, x, y):
        merged = self._best_merge(x, y)
        if merged is None:
            return
        self._tiebreak += 1
        heapq.heappush(
            self._heap, (-merged[0], self._tiebreak, x.cid, x.version, y.cid, y.version))

    def solve(self):
        neighbours = {cid: set() for cid in self._chains}
        for a, b in self._pair_edges:
            neighbours[a].add(b)
            neighbours[b].add(a)
        for a, b in list(self._pair_edges.keys()):
            self._push_candidate(self._chains[a], self._chains[b])
        while self._heap:
            _neg_gain, _tb, a_id, a_ver, b_id, b_ver = heapq.heappop(self._heap)
            chain_a = self._chains.get(a_id)
            chain_b = self._chains.get(b_id)
            if chain_a is None or chain_b is None:
                continue
            if chain_a.version != a_ver or chain_b.version != b_ver:
                continue
            merged = self._best_merge(chain_a, chain_b)
            if merged is None or merged[0] <= 0:
                continue
            order = merged[1]
            key = (a_id, b_id) if a_id < b_id else (b_id, a_id)
            intra = chain_a.intra + chain_b.intra + self._pair_edges.get(key, [])
            self._merge(chain_a, chain_b, order,
                        ext_tsp_score(order, self._sizes, intra, self._params), neighbours)
        return self._final_order()


def _neighbours(solver):
    neighbours = {cid: set() for cid in solver._chains}
    for a, b in solver._pair_edges:
        neighbours[a].add(b)
        neighbours[b].add(a)
    return neighbours


def _force_chain(solver, group, neighbours):
    """Concatenate the singleton chains of ``group`` into one chain."""
    head = solver._chains[solver._node_chain[group[0]]]
    for node in group[1:]:
        tail = solver._chains[solver._node_chain[node]]
        key = (head.cid, tail.cid) if head.cid < tail.cid else (tail.cid, head.cid)
        order = head.nodes + tail.nodes
        edge_list = head.intra + tail.intra + solver._pair_edges.get(key, [])
        score = ext_tsp_score(order, solver._sizes, edge_list, solver._params)
        solver._merge(head, tail, order, score, neighbours)
    return head


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
    # Chain lengths 1..6 fall on both sides of this threshold.
    params = LayoutParams(chain_split_threshold=draw(st.sampled_from([3, 128])))
    return nodes, edges, entry, params, permutation[:len_x], permutation[len_x:]


class TestPlacedScore:
    @settings(max_examples=200, deadline=None)
    @given(_chain_pairs())
    def test_every_placement_scores_as_its_materialised_order(self, case):
        nodes, edges, entry, params, group_x, group_y = case
        solver = ExtTSP(nodes, edges, entry=entry, params=params)
        neighbours = _neighbours(solver)
        x = _force_chain(solver, list(group_x), neighbours)
        y = _force_chain(solver, list(group_y), neighbours)
        key = (x.cid, y.cid) if x.cid < y.cid else (y.cid, x.cid)
        edge_list = x.intra + y.intra + solver._pair_edges.get(key, [])
        orders = []
        for outer, inner, split, cut in solver._placements(x, y):
            order = outer.nodes[:split] + inner.nodes + outer.nodes[split:]
            orders.append(order)
            total = solver._placed_score(solver._resolve(edge_list, outer), cut, inner.size)
            # Equal, not approximately equal: same terms, same order.
            assert total == ext_tsp_score(order, solver._sizes, edge_list, params)
        reference = _ReferenceExtTSP(nodes, edges, entry=entry, params=params)
        assert orders == reference._merge_variants(x, y)

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
        params = LayoutParams(chain_split_threshold=data.draw(st.sampled_from([2, 4, 128])))
        order = ExtTSP(nodes, edges, entry=entry, params=params).solve()
        assert order == _ReferenceExtTSP(nodes, edges, entry=entry, params=params).solve()

    def test_merged_chain_score_is_the_whole_chain_score(self):
        rng = random.Random(5)
        nodes = {i: (rng.randint(1, 80), rng.random()) for i in range(40)}
        edges = aggregate_edges(
            (rng.randrange(40), rng.randrange(40), rng.random() * 50) for _ in range(140))
        solver = ExtTSP(nodes, edges, entry=0)
        solver.solve()
        assert any(len(chain.nodes) > 1 for chain in solver._chains.values())
        for chain in solver._chains.values():
            assert chain.score == ext_tsp_score(chain.nodes, solver._sizes, chain.intra)
