"""Tier-1 tests for repro.faults: plans, their ledgers, build-system wiring.

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
from repro.faults import FAULT_KINDS, AttemptLedger, FaultPlan, RetriesExhausted
from repro.faults.plan import (BACKOFF_JITTER, MAX_ATTEMPTS, TIMEOUT_SECONDS,
                               _SPEC_KEYS)
from repro.obs import Counters, PipelineReport, Tracer
from repro.synth import PRESETS, generate_workload

KEY = "ab" * 32
OTHER = "cd" * 32
#: The spec keys and plan fields a plan no longer has: the retry policy
#: is constants, and corruption and slowdowns are not injected kinds.
REMOVED_KEYS = ("corrupt", "slow", "slow_factor", "attempts", "backoff",
                "backoff_mult", "jitter", "timeout_s")
REMOVED_FIELDS = ("corrupt_rate", "slow_rate", "slow_factor", "max_attempts",
                  "backoff_base", "backoff_multiplier", "backoff_jitter",
                  "timeout_seconds")


# ----------------------------------------------------------------------
# FaultPlan: specs, validation

class TestPlanSpecs:
    def test_parse_builds_the_plan(self):
        plan = FaultPlan.parse("fail=0.02,timeout=0.01,seed=7")
        assert plan == FaultPlan(fail_rate=0.02, timeout_rate=0.01, seed=7)
        assert FaultPlan.parse("seed=3,fail=0.1,timeout=0.2,only=codegen") == FaultPlan(
            seed=3, fail_rate=0.1, timeout_rate=0.2, only_kinds=("codegen",))
        assert sorted(_SPEC_KEYS) == ["fail", "only", "seed", "timeout"]

    def test_only_kinds_spec(self):
        plan = FaultPlan.parse("fail=1,only=profile-lbr|wpa")
        assert plan.only_kinds == ("profile-lbr", "wpa")
        assert plan.applies_to("profile-lbr")
        assert plan.applies_to("wpa")
        assert not plan.applies_to("codegen")
        assert plan == FaultPlan(fail_rate=1.0, only_kinds=("profile-lbr", "wpa"))

    def test_default_plan_spec_is_empty(self):
        assert FaultPlan.parse("") == FaultPlan()
        assert not FaultPlan().active

    def test_parse_rejects_unknown_keys_and_bad_items(self):
        with pytest.raises(ValueError, match="unknown fault-plan key"):
            FaultPlan.parse("failure=0.1")
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.parse("fail")
        for key in REMOVED_KEYS:
            with pytest.raises(ValueError, match="unknown fault-plan key"):
                FaultPlan.parse(f"fail=0.1,{key}=1")
        for name in REMOVED_FIELDS:
            with pytest.raises(TypeError):
                FaultPlan(**{name: 1})

    def test_resolve_forms(self, tmp_path):
        assert FaultPlan.resolve(None) is None
        plan = FaultPlan(fail_rate=0.5)
        assert FaultPlan.resolve(plan) is plan
        assert FaultPlan.resolve("fail=0.5") == plan
        # A plan file is not a form: its path is a malformed spec.
        path = tmp_path / "plan.json"
        path.write_text('{"fail_rate": 0.5}')
        with pytest.raises(ValueError, match="not key=value"):
            FaultPlan.resolve(str(path))

    def test_resolve_missing_json_names_the_file(self, tmp_path):
        with pytest.raises(ValueError, match="missing.json"):
            FaultPlan.resolve(str(tmp_path / "missing.json"))


_SPEC_VALUE = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0.5", "1", "2", "-1", "x", ""]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**30).map(str))
_SPEC_ITEM = st.one_of(
    st.tuples(st.sampled_from(sorted(_SPEC_KEYS)), _SPEC_VALUE).map("=".join),
    st.text(max_size=12))


def _in_range(plan: FaultPlan) -> bool:
    rates = (plan.fail_rate, plan.timeout_rate)
    return (all(math.isfinite(r) and 0.0 <= r <= 1.0 for r in rates)
            and sum(rates) <= 1.0)


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
        "timeout=nan", "fail=0.5,timeout=nan", "fail=nan",
        "timeout=0.5,fail=-inf", "timeout=inf", "fail=1e400"])
    def test_non_finite_values_are_rejected(self, spec):
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.resolve(spec)

    def test_non_finite_json_values_are_rejected(self):
        """The spellings JSON encoders use for non-finite numbers parse
        as floats, and a spec rejects them like any NaN or inf."""
        for value in ("NaN", "Infinity", "1" + "0" * 400):
            with pytest.raises(ValueError, match="finite"):
                FaultPlan.resolve(f"fail={value}")


class TestPlanValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(fail_rate=-0.1),
        dict(timeout_rate=1.5),
        dict(fail_rate=0.6, timeout_rate=0.6),  # sum > 1
        dict(timeout_rate=-0.1),
        dict(fail_rate=1.5),
        dict(fail_rate=0.5, timeout_rate=0.5000001),  # sum just over 1
        dict(timeout_rate=math.nan),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            FaultPlan(**kwargs)

    def test_non_finite_fields_are_rejected(self):
        # An int too large for a float is not finite either.
        for value in (math.nan, math.inf, 10 ** 400):
            with pytest.raises(ValueError, match="finite"):
                FaultPlan(fail_rate=value)


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
        assert FAULT_KINDS == ("fail", "timeout")
        for kind in FAULT_KINDS:
            plan = FaultPlan(seed=7, **{f"{kind}_rate": 1.0})
            assert plan.draw("t", KEY, 1) == kind

    def test_fail_fraction_in_unit_interval(self):
        plan = FaultPlan(seed=7, fail_rate=1.0)
        for attempt in range(1, 8):
            assert 0.0 <= plan.fail_fraction(KEY, attempt) < 1.0

    def test_backoff_exponential_without_jitter(self):
        """With its jitter factor divided out, retry ``k`` waits
        0.25 s * 2**(k-1)."""
        plan = FaultPlan(seed=7)
        for attempt, base in ((1, 0.25), (2, 0.5), (3, 1.0)):
            u = plan._uniform(KEY, attempt, "backoff")
            jitter = 1.0 + BACKOFF_JITTER * (2.0 * u - 1.0)
            assert plan.backoff_seconds(KEY, attempt) / jitter == pytest.approx(base)

    def test_backoff_jitter_bounded_and_deterministic(self):
        plan = FaultPlan(seed=7)
        assert BACKOFF_JITTER == 0.25
        for attempt in range(1, 6):
            base = 0.25 * 2.0 ** (attempt - 1)
            value = plan.backoff_seconds(KEY, attempt)
            assert base * 0.75 <= value <= base * 1.25
            assert value == plan.backoff_seconds(KEY, attempt)


# ----------------------------------------------------------------------
# FaultPlan.charge ledgers

def _charge(plan, kind, key, clean):
    """``plan.charge`` on a throwaway sink: ``(ledger, counters)``."""
    counters = Counters()
    return plan.charge(kind, key, clean, counters), counters


class TestFaultClock:
    """The simulated-time ledger of one action, :meth:`FaultPlan.charge`."""

    def test_no_plan_is_free_passthrough(self):
        ledger, counters = _charge(FaultPlan(), "codegen", KEY, 2.0)
        assert ledger == AttemptLedger(ok=True, attempts=1, seconds=2.0)
        assert counters.snapshot() == {"counters": {}, "gauges": {}}
        result = BuildSystem().run_action("codegen", ["k"], lambda: ("v", 2.0, 0))
        assert result.cost_seconds == 2.0

    def test_excluded_kind_is_free_passthrough(self):
        plan = FaultPlan(fail_rate=1.0, only_kinds=("wpa",))
        ledger, _ = _charge(plan, "codegen", KEY, 2.0)
        assert ledger.ok and ledger.seconds == 2.0 and not ledger.events

    def test_ledgers_identical_across_clock_instances(self):
        plan = FaultPlan(seed=7, fail_rate=0.3, timeout_rate=0.1)
        keys = [f"{i:02x}" * 32 for i in range(32)]
        first = [_charge(plan, "t", k, 1.5) for k in keys]
        second = [_charge(FaultPlan.parse("seed=7,fail=0.3,timeout=0.1"),
                          "t", k, 1.5) for k in keys]
        assert [(l, c.snapshot()) for l, c in first] == \
            [(l, c.snapshot()) for l, c in second]

    def test_exhaustion_reported_not_raised(self):
        plan = FaultPlan(seed=7, fail_rate=1.0)
        ledger, counters = _charge(plan, "t", KEY, 2.0)
        assert not ledger.ok
        assert ledger.attempts == MAX_ATTEMPTS == 4
        assert ledger.events == ("fail@1", "fail@2", "fail@3", "fail@4")
        assert counters.count("retry.exhausted") == 1
        assert counters.count("faults.fails") == 4
        # Three backoffs happened (between the four attempts).
        assert counters.count("retry.attempts") == 3

    def test_timeout_burns_the_timeout_budget(self):
        plan = FaultPlan(seed=7, timeout_rate=1.0)
        ledger, _ = _charge(plan, "t", KEY, 1.0)
        assert not ledger.ok
        # Four timed-out attempts plus the three backoffs between them.
        assert TIMEOUT_SECONDS == 8.0
        assert ledger.seconds == pytest.approx(
            4 * 8.0 + sum(plan.backoff_seconds(KEY, k) for k in (1, 2, 3)))

    def test_wasted_seconds_accumulate(self):
        plan = FaultPlan(seed=7, fail_rate=0.5)
        counters = Counters()
        keys = [f"{i:02x}" * 32 for i in range(64)]
        ledgers = [plan.charge("t", k, 1.0, counters) for k in keys]
        faulted = [l for l in ledgers if l.events]
        assert faulted  # at 50% some keys must fault
        assert counters.count("faults.injected") == sum(len(l.events) for l in faulted)
        # A faulted ledger wasted all but its final clean run, if any.
        assert counters.count("faults.wasted_seconds") == pytest.approx(
            sum(l.seconds - (1.0 if l.ok else 0.0) for l in faulted))


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
        """At seed 2 the action's first attempt fails partway through
        and its second succeeds."""
        clean = self._bs(None)
        faulty = self._bs("fail=0.5,seed=2")
        a = clean.run_action("t", ["k"], lambda: _compute(2.0))
        b = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert a.value == b.value == "artifact"
        plan = faulty.fault_plan
        assert b.cost_seconds == (2.0 * plan.fail_fraction(b.key, 1)
                                  + plan.backoff_seconds(b.key, 1) + 2.0)
        assert faulty.counters.count("faults.injected") == 1

    def test_cache_stores_clean_cost(self):
        """A warm replay of a previously faulted action costs a plain hit:
        retries are an execution phenomenon, not a property of the
        artifact.  At seed 2 the first attempt times out and the
        second succeeds."""
        faulty = self._bs("timeout=0.5,seed=2")
        result = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert result.cost_seconds == (
            8.0 + faulty.fault_plan.backoff_seconds(result.key, 1) + 2.0)
        entry = faulty._entries[result.key]
        assert entry.cost_seconds == pytest.approx(2.0)

    def test_cache_hits_skip_injection(self, tmp_path):
        faulty = BuildSystem(workers=4, enforce_ram=False, cache_dir=tmp_path,
                             fault_plan=FaultPlan.parse("fail=1,seed=7,only=t"))
        # Pre-warm the cache through a clean build system sharing its store.
        clean = BuildSystem(workers=4, enforce_ram=False, cache_dir=tmp_path)
        clean.run_action("t", ["k"], lambda: _compute(2.0))
        replay = faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert replay.cache_hit
        assert faulty.counters.count("faults.injected") == 0

    def test_exhaustion_raises_retries_exhausted(self):
        faulty = self._bs("fail=1,seed=7")
        with pytest.raises(RetriesExhausted) as excinfo:
            faulty.run_action("t", ["k"], lambda: _compute(2.0))
        assert excinfo.value.kind == "t"
        assert excinfo.value.attempts == 4
        assert faulty.counters.count("retry.exhausted") == 1

    def test_run_batch_charges_misses_only(self):
        """At seed 271 each of the four actions times out once, then
        succeeds."""
        faulty = self._bs("timeout=0.5,seed=271")
        items = [([f"k{i}"], _compute, (1.0,)) for i in range(4)]
        first = faulty.run_batch("t", items)
        assert [r.cost_seconds for r in first] == [
            8.0 + faulty.fault_plan.backoff_seconds(r.key, 1) + 1.0 for r in first]
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


def _parents(tracer):
    """Span name -> names of the spans enclosing each of its instances."""
    by_id = {s.span_id: s for s in tracer.spans}
    parents = {}
    for span in tracer.spans:
        parent = by_id[span.parent_id].name if span.parent_id is not None else None
        parents.setdefault(span.name, []).append(parent)
    return parents


@pytest.fixture(scope="module")
def lbr_exhausted(nano_program):
    """A traced run whose hardware profile exhausts its retry budget."""
    pipe = PropellerPipeline(
        nano_program,
        _config(fault_plan="fail=1,only=profile-lbr,seed=7"), tracer=Tracer())
    return pipe, pipe.run()


class TestPipelineDegradation:
    def test_exhausted_lbr_degrades_not_crashes(self, lbr_exhausted, clean_run):
        _, result = lbr_exhausted
        assert result.degraded
        assert result.degraded_reasons == ("lbr-profile",)
        assert result.counters.count("faults.degraded") == 1
        # The fallback still ships a real optimized binary, and the
        # builds that never read the hardware profile are untouched.
        assert result.optimized.executable.content_digest()
        assert result.wpa_result.symbol_order == []
        assert (result.baseline.executable.content_digest()
                == clean_run.baseline.executable.content_digest())

    def test_fallback_degrades_with_span_and_counter(self, lbr_exhausted):
        pipe, result = lbr_exhausted
        assert result.counters.count("faults.degraded") == 1
        assert _parents(pipe.tracer)["degraded:lbr-profile"] == ["phase:profile"]
        (span,) = [s for s in pipe.tracer.spans if s.name == "degraded:lbr-profile"]
        assert span.category == "fault"
        assert span.args["attempts"] >= 1 and span.args["events"]

    def test_skipped_wpa_is_silent_and_spanless(self, lbr_exhausted):
        """With no hardware profile WPA is skipped: no ``phase:wpa``
        span, no seconds and no second degradation reason."""
        pipe, result = lbr_exhausted
        assert "phase:wpa" not in _parents(pipe.tracer)
        assert result.phase_seconds["wpa_convert"] == 0.0
        assert result.degraded_reasons == ("lbr-profile",)

    def test_no_fallback_propagates(self, nano_program):
        """The product build has no fallback: its exhaustion propagates,
        and the phase span it ran in is still closed and recorded."""
        pipe = PropellerPipeline(
            nano_program, _config(fault_plan="fail=1,only=codegen"), tracer=Tracer())
        with pytest.raises(RetriesExhausted):
            pipe.run()
        parents = _parents(pipe.tracer)
        assert parents["phase:metadata-build"] == [None]
        assert "phase:profile" not in parents

    def test_exhausted_relink_ships_the_baseline(self, nano_program, tmp_path):
        """Over a store :meth:`collect_perf` warmed, the metadata and
        base links replay (faults never apply to cache hits), so only
        the Phase-4 link executes -- and exhausts."""
        PropellerPipeline(nano_program, _config(cache_dir=str(tmp_path))).collect_perf()
        pipe = PropellerPipeline(nano_program, _config(
            cache_dir=str(tmp_path), fault_plan="fail=1,only=link"), tracer=Tracer())
        result = pipe.run()
        assert result.degraded_reasons == ("relink",)
        assert result.counters.count("faults.degraded") == 1
        assert (result.optimized.executable.content_digest()
                == result.baseline.executable.content_digest())
        assert _parents(pipe.tracer)["degraded:relink"] == ["phase:relink"]

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

    def test_degraded_flag_rides_the_report(self, lbr_exhausted):
        _, result = lbr_exhausted
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

    def test_facade_exports(self):
        import repro

        assert repro.FaultPlan is FaultPlan
        assert "FaultClock" not in repro.__all__
