"""Tier-1 tests for repro.faults: plans, the clock, build-system wiring.

The invariant every test here circles back to is the same one the
package docstring states: a fault plan changes *when* work finishes,
never *what* is built.  The heavier sweeps (digest invariance across
whole pipelines, hypothesis properties, exhaustion matrices) live in
the opt-in chaos tier (tests/test_chaos.py, ``-m chaos``).
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.buildsys import BuildSystem
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.faults import (
    FAULT_KINDS,
    AttemptLedger,
    FaultClock,
    FaultPlan,
    RetriesExhausted,
)
from repro.faults.plan import _SPEC_KEYS
from repro.obs import Counters, PipelineReport
from repro.synth import PRESETS, generate_workload

KEY = "ab" * 32
OTHER = "cd" * 32


# ----------------------------------------------------------------------
# FaultPlan: specs, serialization, validation

class TestPlanSpecs:
    def test_parse_round_trips_through_to_spec(self):
        plan = FaultPlan.parse("fail=0.02,timeout=0.01,seed=7,attempts=6")
        assert plan.fail_rate == 0.02
        assert plan.timeout_rate == 0.01
        assert plan.seed == 7
        assert plan.max_attempts == 6
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_only_kinds_spec(self):
        plan = FaultPlan.parse("fail=1,only=profile-lbr|wpa")
        assert plan.only_kinds == ("profile-lbr", "wpa")
        assert plan.applies_to("profile-lbr")
        assert plan.applies_to("wpa")
        assert not plan.applies_to("codegen")
        assert FaultPlan.parse(plan.to_spec()) == plan

    def test_default_plan_spec_is_empty(self):
        assert FaultPlan().to_spec() == ""
        assert not FaultPlan().active

    def test_json_round_trip(self):
        plan = FaultPlan(seed=3, fail_rate=0.1, slow_rate=0.05,
                         only_kinds=("codegen",))
        assert FaultPlan.from_json(plan.to_json()) == plan
        # And through an actual JSON encoder (tuples become lists).
        assert FaultPlan.from_json(json.loads(json.dumps(plan.to_json()))) == plan

    def test_from_json_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault-plan fields"):
            FaultPlan.from_json({"fail_rate": 0.1, "surprise": 1})

    def test_parse_rejects_unknown_keys_and_bad_items(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.parse("failure=0.1")
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("fail")

    def test_resolve_forms(self, tmp_path):
        assert FaultPlan.resolve(None) is None
        plan = FaultPlan(fail_rate=0.5)
        assert FaultPlan.resolve(plan) is plan
        assert FaultPlan.resolve("fail=0.5") == plan
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(plan.to_json()))
        assert FaultPlan.resolve(str(path)) == plan

    def test_resolve_missing_json_names_the_file(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            FaultPlan.resolve(str(tmp_path / "missing.json"))


_SPEC_VALUE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0.5", "1", "2", "-1", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**30).map(str))
_SPEC_ITEM = st.one_of(
    st.tuples(st.sampled_from(sorted(_SPEC_KEYS)), _SPEC_VALUE).map("=".join),
    st.text(max_size=12))


def _in_range(plan: FaultPlan) -> bool:
    rates = (plan.fail_rate, plan.timeout_rate, plan.corrupt_rate, plan.slow_rate)
    numbers = rates + (plan.slow_factor, plan.backoff_base, plan.backoff_multiplier,
                       plan.backoff_jitter, plan.timeout_seconds)
    return (all(math.isfinite(x) for x in numbers)
            and all(0.0 <= r <= 1.0 for r in rates) and sum(rates) <= 1.0
            and plan.max_attempts >= 1 and plan.slow_factor >= 1.0
            and 0.0 <= plan.backoff_jitter < 1.0
            and min(plan.backoff_base, plan.backoff_multiplier, plan.timeout_seconds) >= 0)


class TestResolveFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_SPEC_ITEM, max_size=5).map(",".join), st.text()))
    def test_any_text_is_a_sane_plan_or_a_value_error(self, text):
        try:
            plan = FaultPlan.resolve(text)
        except ValueError:
            return
        assert _in_range(plan), plan

    @pytest.mark.parametrize("spec", [
        "slow=0.5,slow_factor=nan", "fail=0.5,backoff=nan", "backoff_mult=nan",
        "timeout=0.5,timeout_s=nan", "slow_factor=inf", "backoff=1e400"])
    def test_non_finite_values_are_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.resolve(spec)

    def test_non_finite_json_values_are_rejected(self, tmp_path):
        path = tmp_path / "plan.json"
        for value in ("NaN", "Infinity", "1" + "0" * 400):
            path.write_text(f'{{"backoff_multiplier": {value}}}')
            with pytest.raises(ValueError, match="finite"):
                FaultPlan.resolve(str(path))


class TestPlanValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(fail_rate=-0.1),
        dict(timeout_rate=1.5),
        dict(fail_rate=0.6, corrupt_rate=0.6),  # sum > 1
        dict(max_attempts=0),
        dict(slow_factor=0.5),
        dict(backoff_jitter=1.0),
        dict(backoff_base=-1.0),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)


# ----------------------------------------------------------------------
# Deterministic draws

class TestDraws:
    def test_draw_is_pure_in_seed_key_attempt(self):
        a = FaultPlan(seed=7, fail_rate=0.3, timeout_rate=0.2)
        b = FaultPlan(seed=7, fail_rate=0.3, timeout_rate=0.2)
        for attempt in range(1, 5):
            assert a.draw("codegen", KEY, attempt) == b.draw("codegen", KEY, attempt)

    def test_different_seed_different_schedule(self):
        keys = [f"{i:02x}" * 32 for i in range(64)]
        a = FaultPlan(seed=1, fail_rate=0.5)
        b = FaultPlan(seed=2, fail_rate=0.5)
        assert [a.draw("t", k, 1) for k in keys] != [b.draw("t", k, 1) for k in keys]

    def test_fault_sets_are_nested_in_fail_rate(self):
        """Raising fail_rate only converts clean draws into failures."""
        keys = [f"{i:02x}" * 32 for i in range(256)]
        low = FaultPlan(seed=7, fail_rate=0.1)
        high = FaultPlan(seed=7, fail_rate=0.4)
        low_failed = {k for k in keys if low.draw("t", k, 1) == "fail"}
        high_failed = {k for k in keys if high.draw("t", k, 1) == "fail"}
        assert low_failed < high_failed

    def test_rates_roughly_realized(self):
        keys = [f"{i:03x}" * 24 for i in range(1000)]
        plan = FaultPlan(seed=7, fail_rate=0.25)
        failed = sum(1 for k in keys if plan.draw("t", k, 1) == "fail")
        assert 180 <= failed <= 320  # ~250 expected

    def test_classification_band_order(self):
        # With the whole unit mass on one kind, every draw is that kind.
        for kind in FAULT_KINDS:
            rates = {f"{k}_rate": 0.0 for k in ("fail", "timeout", "corrupt", "slow")}
            rates[f"{kind}_rate"] = 1.0
            plan = FaultPlan(seed=7, **rates)
            assert plan.draw("t", KEY, 1) == kind

    def test_fail_fraction_in_unit_interval(self):
        plan = FaultPlan(seed=7, fail_rate=1.0)
        for attempt in range(1, 8):
            assert 0.0 <= plan.fail_fraction(KEY, attempt) < 1.0

    def test_backoff_exponential_without_jitter(self):
        plan = FaultPlan(backoff_base=0.5, backoff_multiplier=3.0,
                         backoff_jitter=0.0)
        assert plan.backoff_seconds(KEY, 1) == 0.5
        assert plan.backoff_seconds(KEY, 2) == 1.5
        assert plan.backoff_seconds(KEY, 3) == 4.5

    def test_backoff_jitter_bounded_and_deterministic(self):
        plan = FaultPlan(backoff_base=1.0, backoff_multiplier=2.0,
                         backoff_jitter=0.25)
        for attempt in range(1, 6):
            base = 2.0 ** (attempt - 1)
            value = plan.backoff_seconds(KEY, attempt)
            assert base * 0.75 <= value <= base * 1.25
            assert value == plan.backoff_seconds(KEY, attempt)


# ----------------------------------------------------------------------
# FaultClock ledgers

class TestFaultClock:
    def test_no_plan_is_free_passthrough(self):
        ledger = FaultClock(None).charge("codegen", KEY, 2.0)
        assert ledger == AttemptLedger(key=KEY, kind="codegen", ok=True,
                                       attempts=1, seconds=2.0,
                                       clean_seconds=2.0)
        assert not ledger.faulted and ledger.wasted_seconds == 0.0

    def test_excluded_kind_is_free_passthrough(self):
        clock = FaultClock(FaultPlan(fail_rate=1.0, only_kinds=("wpa",)))
        ledger = clock.charge("codegen", KEY, 2.0)
        assert ledger.ok and ledger.seconds == 2.0 and not ledger.faulted

    def test_ledgers_identical_across_clock_instances(self):
        plan = FaultPlan(seed=7, fail_rate=0.3, timeout_rate=0.1,
                         corrupt_rate=0.1, slow_rate=0.1)
        keys = [f"{i:02x}" * 32 for i in range(32)]
        first = [FaultClock(plan).charge("t", k, 1.5) for k in keys]
        second = [FaultClock(plan).charge("t", k, 1.5) for k in keys]
        assert first == second

    def test_slow_event_succeeds_at_inflated_cost(self):
        plan = FaultPlan(seed=7, slow_rate=1.0, slow_factor=4.0)
        ledger = FaultClock(plan).charge("t", KEY, 2.0)
        assert ledger.ok and ledger.attempts == 1
        assert ledger.seconds == pytest.approx(8.0)
        assert ledger.events == ("slow@1",)

    def test_exhaustion_reported_not_raised(self):
        plan = FaultPlan(seed=7, fail_rate=1.0, max_attempts=3)
        clock = FaultClock(plan, counters=(counters := Counters()))
        ledger = clock.charge("t", KEY, 2.0)
        assert not ledger.ok
        assert ledger.attempts == 3
        assert ledger.events == ("fail@1", "fail@2", "fail@3")
        assert counters.count("retry.exhausted") == 1
        assert counters.count("faults.fails") == 3
        # Two backoffs happened (between the three attempts).
        assert counters.count("retry.attempts") == 2

    def test_timeout_burns_the_timeout_budget(self):
        plan = FaultPlan(seed=7, timeout_rate=1.0, timeout_seconds=5.0,
                         max_attempts=2, backoff_jitter=0.0)
        ledger = FaultClock(plan).charge("t", KEY, 1.0)
        assert not ledger.ok
        # Two timed-out attempts plus one backoff between them.
        assert ledger.seconds == pytest.approx(5.0 + 0.25 + 5.0)

    def test_wasted_seconds_accumulate(self):
        plan = FaultPlan(seed=7, corrupt_rate=0.5)
        clock = FaultClock(plan)
        keys = [f"{i:02x}" * 32 for i in range(64)]
        ledgers = [clock.charge("t", k, 1.0) for k in keys]
        faulted = [l for l in ledgers if l.faulted]
        assert faulted  # at 50% some keys must fault
        assert clock.faulted_actions == len(faulted)
        assert clock.wasted_seconds == pytest.approx(
            sum(l.wasted_seconds for l in faulted))


# ----------------------------------------------------------------------
# BuildSystem wiring

def _compute(cost):
    """(value, cost_seconds, peak_memory) in run_action/run_batch form."""
    return "artifact", float(cost), 0


class TestBuildSystemFaults:
    def _bs(self, spec):
        return BuildSystem(workers=4, enforce_ram=False,
                           fault_plan=FaultPlan.resolve(spec))

    def test_no_plan_changes_nothing(self):
        clean = BuildSystem(workers=4, enforce_ram=False)
        result = clean.run_action("t", ["k"], lambda: _compute(2.0))
        assert result.value == "artifact" and result.cost_seconds == 2.0

    def test_faults_inflate_cost_never_value(self):
        clean = self._bs(None)
        faulty = self._bs("slow=1,seed=7")
        a = clean.run_action("t", ["k"], lambda: _compute(2.0))
        b = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert a.value == b.value == "artifact"
        assert b.cost_seconds == pytest.approx(4 * a.cost_seconds)
        assert faulty.counters.count("faults.injected") == 1

    def test_cache_stores_clean_cost(self):
        """A warm replay of a previously faulted action costs a plain hit:
        retries are an execution phenomenon, not a property of the
        artifact."""
        faulty = self._bs("slow=1,seed=7")
        result = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert result.cost_seconds == pytest.approx(8.0)
        entry = faulty.cache.lookup(result.key)
        assert entry is not None and entry.cost_seconds == pytest.approx(2.0)

    def test_cache_hits_skip_injection(self):
        faulty = self._bs("fail=1,seed=7,only=t")
        # Pre-warm the cache through a clean build system sharing it.
        clean = BuildSystem(workers=4, enforce_ram=False)
        warm = clean.run_action("t", ["k"], lambda: _compute(2.0))
        faulty.cache.store(warm.key, clean.cache.lookup(warm.key))
        replay = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert replay.cache_hit
        assert faulty.counters.count("faults.injected") == 0

    def test_exhaustion_raises_retries_exhausted(self):
        faulty = self._bs("fail=1,seed=7,attempts=3")
        with pytest.raises(RetriesExhausted) as excinfo:
            faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert excinfo.value.kind == "t"
        assert excinfo.value.attempts == 3
        assert faulty.counters.count("retry.exhausted") == 1

    def test_run_batch_charges_misses_only(self):
        faulty = self._bs("slow=1,seed=7")
        items = [([f"k{i}"], _compute, (1.0,)) for i in range(4)]
        first = faulty.run_batch("t", items)
        assert all(r.cost_seconds == pytest.approx(4.0) for r in first)
        again = faulty.run_batch("t", items)
        assert all(r.cache_hit for r in again)
        assert faulty.counters.count("faults.injected") == 4  # not 8


# ----------------------------------------------------------------------
# Pipeline degradation (tier-1 smoke; the full matrix is chaos tier)

@pytest.fixture(scope="module")
def nano_program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.15, seed=7)


def _config(**kw):
    return PipelineConfig(seed=7, lbr_branches=24_000, lbr_period=31,
                          pgo_steps=10_000, workers=72, enforce_ram=False,
                          **kw)


@pytest.fixture(scope="module")
def clean_run(nano_program):
    return PropellerPipeline(nano_program, _config()).run()


def _makespan(result) -> float:
    return sum(b.wall_seconds for b in result.report().builds)


class TestPipelineDegradation:
    def test_exhausted_lbr_degrades_not_crashes(self, nano_program, clean_run):
        result = PropellerPipeline(
            nano_program,
            _config(fault_plan="fail=1,only=profile-lbr,seed=7"),
        ).run()
        assert result.degraded
        assert result.degraded_reasons == ("lbr-profile",)
        assert result.counters.count("faults.degraded") == 1
        # The fallback still ships a real optimized binary, and the
        # builds that never read the hardware profile are untouched.
        assert result.optimized.executable.content_digest()
        assert result.wpa_result.symbol_order == []
        assert (result.baseline.executable.content_digest()
                == clean_run.baseline.executable.content_digest())

    def test_standard_plan_changes_when_not_what(self, nano_program,
                                                 clean_run):
        """2 % failures and 1 % timeouts: same bytes, bounded makespan,
        no retry budget exhausted -- and the plan did inject."""
        result = PropellerPipeline(
            nano_program,
            _config(fault_plan="fail=0.02,timeout=0.01,seed=6"),
        ).run()
        assert result.digest() == clean_run.digest()
        assert not result.degraded
        assert result.counters.count("faults.injected") > 0
        assert result.counters.count("retry.exhausted") == 0
        assert 1.0 <= _makespan(result) / _makespan(clean_run) <= 3.0

    def test_degraded_flag_rides_the_report(self, nano_program):
        result = PropellerPipeline(
            nano_program,
            _config(fault_plan="fail=1,only=profile-lbr,seed=7"),
        ).run()
        report = result.report()
        assert report.degraded and report.degraded_reasons == ("lbr-profile",)
        assert "DEGRADED: lbr-profile" in result.summary()
        round_tripped = PipelineReport.from_json(
            json.loads(json.dumps(report.to_json())))
        assert round_tripped == report

    def test_clean_run_is_not_degraded(self, nano_program):
        result = PropellerPipeline(
            nano_program, _config(fault_plan="fail=0.02,seed=7")).run()
        assert not result.degraded and result.degraded_reasons == ()
        assert not result.report().degraded

    def test_pre_fault_reports_lack_the_field_gracefully(self):
        """Reports serialized before fault injection existed still load."""
        report = PipelineReport(program="p", modules=1, hot_functions=0,
                                builds=(), phases=())
        payload = report.to_json()
        del payload["degraded"], payload["degraded_reasons"]
        loaded = PipelineReport.from_json(payload)
        assert loaded.degraded is False and loaded.degraded_reasons == ()


class TestConfigAndCli:
    def test_config_resolves_spec_into_buildsys(self, nano_program):
        pipe = PropellerPipeline(
            nano_program, _config(fault_plan="fail=0.25,seed=3"))
        assert pipe.buildsys.fault_plan == FaultPlan(fail_rate=0.25, seed=3)

    def test_config_default_is_no_plan(self, nano_program):
        pipe = PropellerPipeline(nano_program, _config())
        assert pipe.buildsys.fault_plan is None
        assert pipe.buildsys.faults.plan is None

    def test_facade_exports(self):
        import repro

        assert repro.FaultPlan is FaultPlan
        assert repro.FaultClock is FaultClock
