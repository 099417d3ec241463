"""Tests for the distributed build system simulator."""

import pytest

from repro.buildsys import BuildSystem, ResourceLimitExceeded
from repro.buildsys.build import CACHE_HIT_SECONDS, action_key
from repro.faults import FaultPlan, RetriesExhausted
from repro.obs import Counters


def _compute(value=1, cost=2.0, peak=100):
    return lambda: (value, cost, peak)


class TestCache:
    def test_miss_then_hit(self):
        bs = BuildSystem()
        first = bs.run_action("codegen", ["d1", "t1"], _compute())
        assert not first.cache_hit
        second = bs.run_action("codegen", ["d1", "t1"], _compute(value=999))
        assert second.cache_hit
        assert second.value == 1  # cached value, not recomputed
        assert second.cost_seconds == CACHE_HIT_SECONDS

    def test_different_keys_miss(self):
        bs = BuildSystem()
        bs.run_action("codegen", ["d1", "t1"], _compute())
        other = bs.run_action("codegen", ["d1", "t2"], _compute())
        assert not other.cache_hit
        assert bs.counters.count("cache.misses") == 2

    def test_kind_part_of_key(self):
        bs = BuildSystem()
        bs.run_action("codegen", ["d1"], _compute())
        assert not bs.run_action("link", ["d1"], _compute()).cache_hit

    def test_hit_rate(self):
        bs = BuildSystem()
        bs.run_action("a", ["x"], _compute())
        bs.run_action("a", ["x"], _compute())
        bs.run_action("a", ["y"], _compute())
        hits, misses = bs.counters.count("cache.hits"), bs.counters.count("cache.misses")
        assert hits / (hits + misses) == pytest.approx(1 / 3)

    def test_action_key_stable(self):
        assert action_key("k", "a", "b") == action_key("k", "a", "b")
        assert action_key("k", "a", "b") != action_key("k", "ab")

    def test_stats_read_the_cache_counters(self, tmp_path):
        """One tally per event, kept once: the cache's statistics are
        the ``cache.*`` counters (and the store's the ``store.*`` ones)."""
        BuildSystem(cache_dir=tmp_path).run_action("a", ["x"], _compute())
        bs = BuildSystem(cache_dir=tmp_path)
        bs.run_action("a", ["x"], _compute())   # disk hit
        bs.run_action("a", ["x"], _compute())   # memory hit
        bs.run_action("a", ["y"], _compute())   # miss
        assert bs.counters.snapshot()["counters"] == {
            "cache.disk_hits": 1, "cache.hits": 2, "cache.misses": 1,
            "store.loads": 1, "store.stores": 1}


def _triple(value, cost, peak):
    return value, cost, peak


def _counters_without_batch_tally(bs):
    """Everything ``bs`` counted except the four ``executor.*`` names
    that say a *batch* was submitted."""
    snap = bs.counters.snapshot()
    return {
        section: {k: v for k, v in values.items() if not k.startswith("executor.")}
        for section, values in snap.items()
    }


class TestOneMissPath:
    """``run_action`` is the one-item ``run_batch``: same results, same
    accounting, same failures -- the miss path exists once.  A batch is
    remote, so a local action equals a batch under no RAM budget."""

    CASES = {
        "plain": dict(),
        "local": dict(remote=False, peak=5000, ram_limit=1000),
        "unenforced": dict(peak=5000, ram_limit=1000, enforce_ram=False),
        "ram-rejected": dict(peak=5000, ram_limit=1000, raises=ResourceLimitExceeded),
        # Seed 3 fails three attempts and succeeds on the fourth.
        "faulted": dict(fault_plan=FaultPlan(seed=3, fail_rate=0.6)),
        # Seed 0 times out twice and succeeds on the third attempt.
        "slowed": dict(fault_plan=FaultPlan(seed=0, timeout_rate=0.5)),
        "exhausted": dict(fault_plan=FaultPlan(fail_rate=1.0), raises=RetriesExhausted),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_action_equals_one_item_batch(self, case):
        spec = dict(self.CASES[case])
        raises = spec.pop("raises", None)
        remote = spec.pop("remote", True)
        peak = spec.pop("peak", 100)

        def drive(submit, **budget):
            bs = BuildSystem(**spec, **budget)
            outcomes = []
            for _ in range(2):  # second round replays (or re-fails)
                try:
                    outcomes.append(submit(bs))
                except (ResourceLimitExceeded, RetriesExhausted) as exc:
                    outcomes.append((type(exc), str(exc)))
            return outcomes, _counters_without_batch_tally(bs), bs

        single, single_counts, _ = drive(lambda bs: bs.run_action(
            "codegen", ["d", "t"], lambda: _triple("obj", 2.0, peak), remote=remote))
        batch, batch_counts, bs = drive(lambda bs: bs.run_batch(
            "codegen", [(["d", "t"], _triple, ("obj", 2.0, peak))])[0],
            **({} if remote else {"enforce_ram": False}))

        assert single == batch
        assert single_counts == batch_counts
        if raises is not None:
            assert [kind for kind, _msg in batch] == [raises, raises]
            assert bs.counters.count("executor.batches") == 2  # counted, then raised
        else:
            assert [r.cache_hit for r in batch] == [False, True]
            plan = spec.get("fault_plan")
            if plan is not None:  # the faulted miss pays exactly its ledger
                ledger = plan.charge("codegen", batch[0].key, 2.0, Counters())
                assert ledger.ok and ledger.events
                assert batch[0].cost_seconds == ledger.seconds


class TestResourceLimits:
    def test_over_limit_rejected(self):
        bs = BuildSystem(ram_limit=1000, enforce_ram=True)
        with pytest.raises(ResourceLimitExceeded):
            bs.run_action("bolt", ["d"], _compute(peak=2000))

    def test_limit_not_enforced_on_workstation(self):
        bs = BuildSystem(ram_limit=1000, enforce_ram=False)
        result = bs.run_action("bolt", ["d"], _compute(peak=2000))
        assert result.peak_memory == 2000

    def test_local_actions_bypass_limit(self):
        bs = BuildSystem(ram_limit=1000, enforce_ram=True)
        result = bs.run_action("link", ["d"], _compute(peak=2000), remote=False)
        assert result.peak_memory == 2000

    def test_error_message_carries_sizes(self):
        bs = BuildSystem(ram_limit=1 << 30, enforce_ram=True)
        with pytest.raises(ResourceLimitExceeded) as exc:
            bs.run_action("bolt", ["d"], _compute(peak=5 << 30))
        assert exc.value.needed == 5 << 30


class TestScheduling:
    def test_makespan_limited_by_longest_action(self):
        bs = BuildSystem(workers=100)
        results = [bs.run_action("a", [str(i)], _compute(cost=1.0)) for i in range(5)]
        results.append(bs.run_action("a", ["big"], _compute(cost=60.0)))
        report = bs.schedule(results)
        assert report.wall_seconds == pytest.approx(60.0)
        assert report.cpu_seconds == pytest.approx(65.0)

    def test_makespan_limited_by_throughput(self):
        bs = BuildSystem(workers=2)
        results = [bs.run_action("a", [str(i)], _compute(cost=1.0)) for i in range(10)]
        report = bs.schedule(results)
        assert report.wall_seconds == pytest.approx(5.0)

    def test_cache_hits_counted(self):
        bs = BuildSystem()
        r1 = bs.run_action("a", ["x"], _compute())
        r2 = bs.run_action("a", ["x"], _compute())
        report = bs.schedule([r1, r2])
        assert report.cache_hits == 1
        assert report.actions == 2

    def test_peak_action_memory(self):
        bs = BuildSystem(enforce_ram=False)
        r1 = bs.run_action("a", ["x"], _compute(peak=10))
        r2 = bs.run_action("a", ["y"], _compute(peak=50))
        assert bs.schedule([r1, r2]).peak_action_memory == 50

    def test_needs_workers(self):
        with pytest.raises(ValueError):
            BuildSystem(workers=0)
