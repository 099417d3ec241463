"""Property-style tests for the distributed build simulator.

The cache key and the makespan model are the two things the paper's
build-time results (Table 5, Fig. 9) lean on, so both are checked over
generated action batches, not just hand-picked examples.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.buildsys import (
    CACHE_HIT_SECONDS,
    BuildSystem,
    PhaseReport,
    action_key,
    schedule_phase,
)

#: One action spec: (kind, key parts, cost seconds, peak bytes).
action_specs = st.lists(
    st.tuples(
        st.sampled_from(["codegen", "link", "wpa"]),
        st.lists(st.text(max_size=8), min_size=1, max_size=3),
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        st.integers(min_value=0, max_value=1 << 32),
    ),
    max_size=30,
)


def _replay(bs: BuildSystem, specs):
    results = []
    for kind, parts, cost, peak in specs:
        results.append(
            bs.run_action(kind, parts, lambda c=cost, p=peak: (None, c, p))
        )
    return bs.schedule(results)


class TestDeterminism:
    @settings(max_examples=60, deadline=None)
    @given(specs=action_specs, workers=st.integers(min_value=1, max_value=2000))
    def test_identical_sequences_identical_reports(self, specs, workers):
        """Two fresh build systems fed the same actions agree bit-for-bit."""
        a = _replay(BuildSystem(workers=workers, enforce_ram=False), specs)
        b = _replay(BuildSystem(workers=workers, enforce_ram=False), specs)
        assert a == b
        assert repr(a).encode() == repr(b).encode()

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["codegen", "link"]),
        parts=st.lists(st.text(max_size=16), max_size=4),
    )
    def test_action_key_stable_and_hex(self, kind, parts):
        key = action_key(kind, *parts)
        assert key == action_key(kind, *parts)
        int(key, 16)  # 256-bit hex digest
        assert len(key) == 64

    @settings(max_examples=60, deadline=None)
    @given(parts=st.lists(st.text(max_size=8), min_size=2, max_size=4))
    def test_action_key_respects_part_boundaries(self, parts):
        """Joining adjacent parts must change the key (no concat collisions)."""
        joined = [parts[0] + parts[1], *parts[2:]]
        assert action_key("k", *parts) != action_key("k", *joined)


class TestMakespanModel:
    @settings(max_examples=60, deadline=None)
    @given(specs=action_specs, workers=st.integers(min_value=1, max_value=2000))
    def test_makespan_formula(self, specs, workers):
        """wall = max(longest effective action, cpu/workers), exactly."""
        report = _replay(BuildSystem(workers=workers, enforce_ram=False), specs)
        # Duplicate keys within a batch replay from the cache.
        seen, effective = set(), []
        for kind, parts, cost, _peak in specs:
            key = action_key(kind, *parts)
            effective.append(CACHE_HIT_SECONDS if key in seen else cost)
            seen.add(key)
        assert report.actions == len(specs)
        assert report.cpu_seconds == pytest.approx(sum(effective))
        assert report.wall_seconds == pytest.approx(
            max(max(effective, default=0.0), sum(effective) / workers)
        )
        assert report.wall_seconds <= report.cpu_seconds + 1e-9

    def test_schedule_empty_phase(self):
        report = BuildSystem().schedule([])
        assert report == PhaseReport(
            wall_seconds=0.0, cpu_seconds=0.0, cache_hits=0, actions=0,
            peak_action_memory=0, workers=72,
        )

    def test_schedule_phase_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            schedule_phase([], workers=0)

    def test_all_cache_hit_phase(self):
        """A fully warm phase costs exactly the replay floor."""
        bs = BuildSystem(workers=4)
        specs = [("codegen", [f"m{i}"], 5.0, 100) for i in range(8)]
        _replay(bs, specs)  # prime
        warm = _replay(bs, specs)
        assert warm.cache_hits == warm.actions == 8
        assert warm.cpu_seconds == pytest.approx(8 * CACHE_HIT_SECONDS)
        assert warm.wall_seconds == pytest.approx(
            max(CACHE_HIT_SECONDS, 8 * CACHE_HIT_SECONDS / 4)
        )
        assert bs.stats.hit_rate == pytest.approx(0.5)
