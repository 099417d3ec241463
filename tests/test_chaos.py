"""Chaos tier (opt-in: ``-m chaos``): fault-plan sweeps over pipelines.

What this tier proves, over a matrix of plan seeds:

* **Determinism** -- a non-exhausting fault plan never changes
  ``PipelineResult.digest()``; replaying a plan reproduces the digest
  *and* every counter (fault draws are digest-keyed, so the schedule
  cannot leak in).
* **Convergence** -- simulated makespan is monotone in the injected
  failure rate (hypothesis-checked at the ledger level, spot-checked at
  the pipeline level), and bounded under the standard 2%/1% plan.
* **Report honesty** -- exhausting any degradable stage yields a
  completed, ``degraded``-flagged run with the right reason, never an
  unhandled exception; the ``faults:*`` bench rows track the same
  facts and their fingerprint is reproducible.

The seed matrix is overridable for CI sharding:
``REPRO_CHAOS_SEEDS=3,7 pytest -m chaos``.

Run time is minutes, not seconds -- which is why the tier is opt-in
(see pyproject ``addopts``).
"""

from __future__ import annotations

import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.faults import FaultClock, FaultPlan
from repro.obs.bench import run_suite

pytestmark = pytest.mark.chaos


def _chaos_seeds():
    raw = os.environ.get("REPRO_CHAOS_SEEDS", "").strip()
    if not raw:
        return (3, 7, 11)
    return tuple(int(s) for s in raw.split(",") if s.strip())


SEEDS = _chaos_seeds()

#: The acceptance plan: 2% failures, 1% timeouts.
STANDARD_PLAN = "fail=0.02,timeout=0.01,seed={seed}"
#: The invariance plan: rates that inject on every seed of the default
#: matrix (the standard plan charges about 36 actions here, so about a
#: third of seeds would draw no fault) yet exhaust no action's retries.
INVARIANCE_PLAN = "fail=0.1,timeout=0.05,seed={seed}"


@pytest.fixture(scope="module")
def chaos_program():
    from repro.synth import PRESETS, generate_workload

    # Scale chosen for a release of a few dozen charged actions: enough
    # for INVARIANCE_PLAN to inject on every seed of the default matrix
    # without exhausting one, and for the makespan tests to see the
    # standard plan's cost.
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.4, seed=7)


def _config(**kw):
    base = dict(seed=7, lbr_branches=30_000, lbr_period=31, pgo_steps=15_000,
                workers=72, enforce_ram=False)
    base.update(kw)
    return PipelineConfig(**base)


def _sim_wall(result) -> float:
    return sum(b.wall_seconds for b in result.report().builds)


# ----------------------------------------------------------------------
# Determinism under injection

class TestDigestInvariance:
    @pytest.mark.parametrize("plan_seed", SEEDS)
    def test_plan_on_off_same_digest(self, chaos_program, plan_seed):
        clean = PropellerPipeline(chaos_program, _config()).run()
        faulty = PropellerPipeline(
            chaos_program,
            _config(fault_plan=INVARIANCE_PLAN.format(seed=plan_seed)),
        ).run()
        assert faulty.digest() == clean.digest()
        assert not faulty.degraded
        # The plan visibly did something -- otherwise this test is vacuous.
        assert faulty.counters.count("faults.injected") > 0
        assert faulty.counters.count("retry.attempts") > 0
        assert faulty.counters.count("retry.exhausted") == 0

    @pytest.mark.parametrize("plan_seed", SEEDS)
    def test_replaying_a_plan_is_bit_identical(self, chaos_program, plan_seed):
        plan = INVARIANCE_PLAN.format(seed=plan_seed)
        first = PropellerPipeline(chaos_program, _config(fault_plan=plan)).run()
        second = PropellerPipeline(chaos_program, _config(fault_plan=plan)).run()
        assert first.digest() == second.digest()
        assert first.counters.snapshot() == second.counters.snapshot()
        assert _sim_wall(first) == pytest.approx(_sim_wall(second))


# ----------------------------------------------------------------------
# Convergence: makespan monotone in the failure rate

class TestMakespanMonotonicity:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        low=st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
        delta=st.floats(min_value=0.0, max_value=0.4, allow_nan=False),
        clean=st.floats(min_value=0.01, max_value=50.0, allow_nan=False),
        n_keys=st.integers(min_value=1, max_value=24),
    )
    def test_ledger_time_monotone_in_fail_rate(self, seed, low, delta,
                                               clean, n_keys):
        """With fixed draws, raising fail_rate only converts clean
        attempts into failures, so per-action time can only grow --
        provided neither plan exhausts (an exhausted walk has no final
        clean run to pay for)."""
        low_plan = FaultPlan(seed=seed, fail_rate=low, max_attempts=10)
        high_plan = FaultPlan(seed=seed, fail_rate=min(low + delta, 0.9),
                              max_attempts=10)
        keys = [f"{seed:04x}{i:04x}" * 8 for i in range(n_keys)]
        for key in keys:
            a = FaultClock(low_plan).charge("t", key, clean)
            b = FaultClock(high_plan).charge("t", key, clean)
            if a.ok and b.ok:
                assert b.seconds >= a.seconds - 1e-9

    @pytest.mark.parametrize("plan_seed", SEEDS[:1])
    def test_pipeline_makespan_monotone_and_bounded(self, chaos_program,
                                                    plan_seed):
        walls = []
        baseline_digest = None
        for rate in (0.0, 0.02, 0.08):
            plan = (f"fail={rate},seed={plan_seed}" if rate else None)
            result = PropellerPipeline(
                chaos_program, _config(fault_plan=plan)).run()
            assert not result.degraded
            if baseline_digest is None:
                baseline_digest = result.digest()
            assert result.digest() == baseline_digest
            walls.append(_sim_wall(result))
        assert walls == sorted(walls), (
            f"simulated makespan not monotone in fail rate: {walls}")
        # Bounded inflation under the acceptance-level rate.
        assert walls[1] <= walls[0] * 3.0


# ----------------------------------------------------------------------
# Report honesty under exhaustion

class TestExhaustionHonesty:
    @pytest.mark.parametrize("target,reason", [
        ("profile-lbr", "lbr-profile"),
        ("profile-pgo", "pgo-profile"),
        ("wpa", "wpa"),
    ])
    def test_exhausted_stage_degrades_with_reason(self, chaos_program,
                                                  target, reason):
        result = PropellerPipeline(
            chaos_program,
            _config(fault_plan=f"fail=1,only={target},seed=7"),
        ).run()
        assert result.degraded
        assert reason in result.degraded_reasons
        report = result.report()
        assert report.degraded and reason in report.degraded_reasons
        assert report.counters.get("faults.degraded", 0) >= 1
        assert result.counters.count("retry.exhausted") >= 1
        # The run still produced all three binaries.
        for outcome in (result.baseline, result.metadata, result.optimized):
            assert outcome.executable.content_digest()

    def test_degraded_lbr_is_deterministic_too(self, chaos_program):
        plan = "fail=1,only=profile-lbr,seed=7"
        first = PropellerPipeline(chaos_program, _config(fault_plan=plan)).run()
        second = PropellerPipeline(chaos_program, _config(fault_plan=plan)).run()
        assert first.digest() == second.digest()
        assert first.degraded_reasons == second.degraded_reasons

    def test_degraded_fallback_matches_baseline_inputs(self, chaos_program):
        """A starved hardware profile must not perturb the builds that
        never depended on it."""
        clean = PropellerPipeline(chaos_program, _config()).run()
        degraded = PropellerPipeline(
            chaos_program,
            _config(fault_plan="fail=1,only=profile-lbr,seed=7"),
        ).run()
        assert (degraded.baseline.executable.content_digest()
                == clean.baseline.executable.content_digest())
        assert (degraded.metadata.executable.content_digest()
                == clean.metadata.executable.content_digest())


# ----------------------------------------------------------------------
# The bench rows track the same story

FAULT_ROWS = ("pipeline:531.deepsjeng", "faults:retry", "faults:lbr-exhausted")


class TestResilienceRows:
    @pytest.fixture(scope="class")
    def rows(self):
        report = run_suite(seed=3, only=FAULT_ROWS)
        return {s.name: {m.name: m.value for m in s.metrics}
                for s in report.scenarios}

    def test_digest_identical_under_standard_plan(self, rows):
        assert rows["faults:retry"]["digest"] == \
            rows["pipeline:531.deepsjeng"]["digest"]

    def test_makespan_bounded(self, rows):
        def wall(row):
            return sum(row[f"builds.{b}.wall_seconds"]
                       for b in ("baseline", "metadata", "optimized"))
        inflation = wall(rows["faults:retry"]) / wall(
            rows["pipeline:531.deepsjeng"])
        assert 1.0 <= inflation <= 3.0

    def test_counters_fired_but_never_exhausted(self, rows):
        retry = rows["faults:retry"]
        assert retry["counters.faults.injected"] > 0
        assert retry["counters.retry.attempts"] > 0
        assert "counters.retry.exhausted" not in retry
        assert retry["degraded"] == 0

    def test_exhaustion_probe_degrades_honestly(self, rows):
        probe = rows["faults:lbr-exhausted"]
        assert probe["degraded"] == 1
        assert probe["degraded_reasons"] == "lbr-profile"

    def test_scenario_fingerprint_reproducible(self):
        first = run_suite(seed=3, only=["faults:retry"])
        second = run_suite(seed=3, only=["faults:retry"])
        assert first.to_json() == second.to_json()
