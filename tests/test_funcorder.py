"""Tests for call-chain clustering (hfsort/C3)."""

from repro.core.funcorder import DEFAULT_MAX_CLUSTER_BYTES, hfsort_order


class TestHfsort:
    def test_all_functions_present_once(self):
        funcs = {f"f{i}": (100, float(i)) for i in range(10)}
        order = hfsort_order(funcs, [])
        assert sorted(order) == sorted(funcs)

    def test_callee_follows_hottest_caller(self):
        funcs = {"a": (100, 50.0), "b": (100, 40.0), "c": (100, 30.0)}
        order = hfsort_order(funcs, [("a", "c", 100.0), ("b", "c", 1.0)])
        assert order.index("c") == order.index("a") + 1

    def test_size_cap_prevents_merge(self):
        # A cold caller of a hot callee: merged, the pair outranks "x";
        # one byte over the cap, each is placed by its own density.
        half = DEFAULT_MAX_CLUSTER_BYTES // 2
        edges = [("a", "b", 100.0)]
        fits = {"a": (half, 10.0), "b": (half, 5000.0), "x": (100, 50.0)}
        assert hfsort_order(fits, edges) == ["a", "b", "x"]
        over = {"a": (half + 1, 10.0), "b": (half, 5000.0), "x": (100, 50.0)}
        assert hfsort_order(over, edges) == ["b", "x", "a"]

    def test_chain_of_merges(self):
        funcs = {"a": (10, 100.0), "b": (10, 90.0), "c": (10, 80.0)}
        edges = [("a", "b", 50.0), ("b", "c", 40.0)]
        assert hfsort_order(funcs, edges) == ["a", "b", "c"]

    def test_hot_cluster_before_cold(self):
        funcs = {"hot": (10, 1000.0), "cold": (10, 1.0)}
        assert hfsort_order(funcs, []) == ["hot", "cold"]

    def test_unknown_functions_in_edges_ignored(self):
        funcs = {"a": (10, 1.0)}
        assert hfsort_order(funcs, [("a", "ghost", 5.0), ("ghost", "a", 5.0)]) == ["a"]

    def test_self_edges_ignored(self):
        funcs = {"a": (10, 1.0), "b": (10, 0.5)}
        order = hfsort_order(funcs, [("a", "a", 99.0)])
        assert sorted(order) == ["a", "b"]

    def test_callee_not_heading_cluster_stays(self):
        # b merges into a; then c's hottest caller is b, but b no longer
        # heads its cluster from c's perspective only if c==head: c does
        # head its own cluster, so it may still append to (a, b).
        funcs = {"a": (10, 100.0), "b": (10, 90.0), "c": (10, 80.0)}
        edges = [("a", "b", 50.0), ("a", "c", 10.0), ("b", "c", 60.0)]
        order = hfsort_order(funcs, edges)
        assert order == ["a", "b", "c"]

    def test_deterministic(self):
        funcs = {f"f{i}": (50, float(i % 3)) for i in range(20)}
        edges = [(f"f{i}", f"f{(i * 7) % 20}", float(i)) for i in range(20)]
        assert hfsort_order(funcs, edges) == hfsort_order(funcs, edges)

    def test_empty(self):
        assert hfsort_order({}, []) == []
