"""Tests for the observability layer (repro.obs) and its pipeline wiring.

Covers the tracer's span nesting and dual clocks, the typed report's
JSON schema, the Chrome-trace exporter, and the
guarantee that enabling tracing never perturbs the run's artifacts
(``PipelineResult.digest()`` is bit-identical tracing on or off).

The span-name golden file pins the instrumentation surface: renaming or
dropping a span is a reviewable diff, not a silent dashboard break.
Regenerate with ``REPRO_REGEN_GOLDEN=1`` as for tests/test_golden.py.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import Table
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs import (
    METRICS_SCHEMA_VERSION,
    BenchReport,
    BuildStat,
    CounterDelta,
    Counters,
    CriticalPath,
    ExplainReport,
    FunctionDelta,
    Metric,
    NullTracer,
    PathStep,
    PhaseDelta,
    PhaseStat,
    PipelineReport,
    ScenarioResult,
    Tracer,
    bench_json,
    chrome_trace,
)
from repro.obs.export import REAL_PID, SIM_PID
from repro.obs.report import plain, record
from repro.obs.tracer import _NULL_SPAN
from repro.tools.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN", "").strip())

PHASE_NAMES = {"phase:baseline", "phase:metadata-build", "phase:profile",
               "phase:wpa", "phase:relink"}


def _config(**overrides) -> PipelineConfig:
    base = dict(lbr_branches=40_000, pgo_steps=20_000, workers=72,
                enforce_ram=False)
    base.update(overrides)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def traced_run(tiny_program):
    """One fully traced run: (pipeline, result)."""
    pipe = PropellerPipeline(tiny_program, _config(), tracer=Tracer())
    return pipe, pipe.run()


class TestTracer:
    def test_span_nesting_and_ids(self):
        tracer = Tracer()
        with tracer.span("outer", category="phase"):
            with tracer.span("inner") as inner:
                inner.advance(5.0)
        inner, outer = tracer.spans
        assert (outer.name, inner.name) == ("outer", "inner")
        assert outer.parent_id is None and outer.depth == 0
        assert inner.parent_id == outer.span_id and inner.depth == 1
        # ids in open order, spans list in close order
        assert inner.span_id > outer.span_id
        assert tracer.spans == [inner, outer]

    def test_sim_clock_accumulates_into_enclosing_spans(self):
        tracer = Tracer()
        with tracer.span("a") as a:
            a.advance(2.0)
            with tracer.span("b") as b:
                b.advance(3.0)
        b, a = tracer.spans
        assert b.sim_seconds == 3.0
        assert (a.sim_start, a.sim_end) == (0.0, 5.0)

    def test_real_clock_is_monotonic_per_span(self):
        ticks = iter(float(i) for i in range(100))
        tracer = Tracer(real_clock=lambda: next(ticks))
        with tracer.span("x"):
            pass
        span, = tracer.spans
        assert span.real_seconds > 0

    def test_note_attaches_args(self):
        tracer = Tracer()
        with tracer.span("x", tag="pgo") as s:
            s.note(actions=4)
        assert tracer.spans[0].args == {"tag": "pgo", "actions": 4}

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            Tracer().advance(-1.0)

    def test_null_tracer_is_allocation_free_noop(self):
        tracer = NullTracer()
        handle = tracer.span("anything", category="phase", k=1)
        assert handle is _NULL_SPAN
        with handle as h:
            h.advance(10.0)
            h.note(k=2)
        assert tracer.spans == ()


class TestCounters:
    def test_incr_and_count(self):
        c = Counters()
        c.incr("cache.hits")
        c.incr("cache.hits", 4)
        assert c.count("cache.hits") == 5
        assert c.count("missing") == 0
        with pytest.raises(ValueError):
            c.incr("cache.hits", -1)

    def test_gauges_last_write_and_watermark(self):
        c = Counters()
        c.gauge("pgo.match_rate", 0.9)
        c.gauge("pgo.match_rate", 0.8)
        assert c.gauge_value("pgo.match_rate") == 0.8
        c.max_gauge("queue.depth", 3)
        c.max_gauge("queue.depth", 7)
        c.max_gauge("queue.depth", 5)
        assert c.gauge_value("queue.depth") == 7

    def test_snapshot_is_sorted_and_detached(self):
        c = Counters()
        c.incr("b")
        c.incr("a")
        c.gauge("z", 1)
        snap = c.snapshot()
        assert list(snap["counters"]) == ["a", "b"]
        snap["counters"]["a"] = 99
        assert c.count("a") == 1


class TestReport:
    def _report(self) -> PipelineReport:
        return PipelineReport(
            program="prog", modules=10, hot_functions=3,
            builds=(BuildStat(name="baseline", wall_seconds=1.0,
                              backend_seconds=0.8, link_seconds=0.2, actions=10,
                              cache_hits=2, cold_cache_hits=0, hot_modules=0,
                              peak_memory_bytes=1 << 20, binary_size=4096),
                    BuildStat(name="optimized", wall_seconds=0.5,
                              backend_seconds=0.3, link_seconds=0.2, actions=10,
                              cache_hits=8, cold_cache_hits=7, hot_modules=3,
                              peak_memory_bytes=1 << 20, binary_size=4096)),
            phases=(PhaseStat(name="wpa_convert", sim_seconds=0.1,
                              peak_memory_bytes=1 << 16),),
            counters={"cache.hits": 10}, gauges={"pgo.match_rate": 0.97},
        )

    def test_json_roundtrip(self):
        report = self._report()
        payload = json.loads(json.dumps(report.to_json()))
        assert PipelineReport.from_json(payload) == report

    def test_wrong_schema_version_rejected(self):
        payload = self._report().to_json()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            PipelineReport.from_json(payload)

    def test_lookup_helpers(self):
        report = self._report()
        assert report.build("optimized").hot_modules == 3
        assert report.phase("wpa_convert").sim_seconds == 0.1
        assert report.pct_hot_modules == 3 / 10
        with pytest.raises(KeyError):
            report.build("nope")
        with pytest.raises(KeyError):
            report.phase("nope")


# One strategy per published record class; values are JSON-native so
# ``==`` after a ``json`` round trip is exact.
_text = st.text(max_size=6)
_int = st.integers(-2**40, 2**40)
_num = st.floats(allow_nan=False, allow_infinity=False)
_json = st.recursive(
    st.none() | st.booleans() | _int | _num | _text,
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(_text, inner, max_size=2), max_leaves=4)


def _tuples(items):
    return st.lists(items, max_size=2).map(tuple)


def _maps(values):
    return st.dictionaries(_text, values, max_size=2)


_metric = st.builds(Metric, name=_text, value=_int | _num | _text)
_scenario = st.builds(ScenarioResult, name=_text, title=_text,
                      paper_ref=_text, metrics=_tuples(_metric))
_function_delta = st.builds(FunctionDelta, rank=_int, function=_text,
                            base_cycles=_num, new_cycles=_num, cause=_text,
                            evidence=_text)
_phase_delta = st.builds(PhaseDelta, phase=_text, base_seconds=_num,
                         new_seconds=_num)
_counter_delta = st.builds(CounterDelta, name=_text, base=_num, new=_num,
                           verdict=_text, reason=_text)
_path_step = st.builds(PathStep, name=_text, category=_text,
                       sim_seconds=_num, depth=_int)
_build_stat = st.builds(
    BuildStat, name=_text, wall_seconds=_num, backend_seconds=_num,
    link_seconds=_num, actions=_int, cache_hits=_int, cold_cache_hits=_int,
    hot_modules=_int, peak_memory_bytes=_int, binary_size=_int)
RECORDS = {
    "Metric": _metric,
    "ScenarioResult": _scenario,
    "BenchReport": st.builds(
        BenchReport, suite=_text, seed=_int, scenarios=_tuples(_scenario)),
    "FunctionDelta": _function_delta,
    "PhaseDelta": _phase_delta,
    "CounterDelta": _counter_delta,
    "ExplainReport": st.builds(
        ExplainReport, base_label=_text, new_label=_text, program=_text,
        attribution=_tuples(_function_delta), phases=_tuples(_phase_delta),
        critical_path=_maps(_maps(_json)), counters=_tuples(_counter_delta)),
    "PathStep": _path_step,
    "CriticalPath": st.builds(
        CriticalPath, total_seconds=_num, steps=_tuples(_path_step),
        phase_seconds=_maps(_num), phase_slack=_maps(_num),
        binding_phase=_text),
    "PipelineReport": st.builds(
        PipelineReport, program=_text, modules=_int, hot_functions=_int,
        builds=_tuples(_build_stat),
        phases=_tuples(st.builds(PhaseStat, name=_text, sim_seconds=_num,
                                 peak_memory_bytes=_int)),
        counters=_maps(_num), gauges=_maps(_num),
        frontend=_maps(_maps(_num)),
        frontend_by_function=_maps(_maps(_maps(_num))),
        profile_recovery=_maps(_json), degraded=st.booleans(),
        degraded_reasons=_tuples(_text), incremental=_maps(_json)),
}


class TestRecordCodec:
    """``plain``/``record`` are the one writer and the one reader: the
    dataclass is the schema, for every record class ``repro.obs``
    publishes."""

    @pytest.mark.parametrize("name", sorted(RECORDS))
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_round_trip_and_schema_rules(self, name, data):
        x = data.draw(RECORDS[name])
        cls = type(x)
        assert cls.__name__ == name
        payload = json.loads(json.dumps(plain(x)))
        assert record(cls, payload) == x
        assert record(cls, {**payload, "not-a-field": [1]}) == x
        for f in dataclasses.fields(cls):
            partial = {k: v for k, v in payload.items() if k != f.name}
            if f.default is not dataclasses.MISSING:
                assert getattr(record(cls, partial), f.name) == f.default
            elif f.default_factory is not dataclasses.MISSING:
                assert getattr(record(cls, partial), f.name) == f.default_factory()
            else:
                with pytest.raises(TypeError):
                    record(cls, partial)


class TestOneRenderer:
    def test_markdown_and_render_carry_the_same_cells(self):
        table = Table(["metric", "value"], title="t")
        table.add_row("a.b", 1.5)
        table.add_row("digest", "abc")

        def cells(text, skip):
            lines = text.splitlines()
            return [[c.strip() for c in line.strip("|").split("|")]
                    for i, line in enumerate(lines) if i not in skip]

        # render(): title, header, rule, rows; markdown(): header, rule, rows.
        assert (cells(table.markdown(), skip={1})
                == cells(table.render(), skip={0, 2})
                == [["metric", "value"], ["a.b", "1.5"], ["digest", "abc"]])


class TestCLIEdges:
    def test_errors_follow_the_current_stderr(self):
        """The log handler is not pinned to the stream of the first CLI
        call in the process."""
        main(["presets", "-q"])
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            assert main(["bench", "--scenario", "bogus"]) == 2
        assert "unknown scenarios" in buf.getvalue()

    def test_explain_refuses_a_bench_scorecard(self, tmp_path, capsys):
        """A scorecard is checked against its golden by one test;
        ``explain`` says so, naming that test, and exits 2."""
        scorecard = tmp_path / "scorecard.json"
        scorecard.write_text(bench_json(BenchReport(suite="smoke", seed=3,
                                                    scenarios=())))
        assert main(["explain", str(scorecard), str(scorecard)]) == 2
        assert ("`python -m pytest -m slow tests/test_golden.py -k bench_smoke`"
                in capsys.readouterr().err)


class TestChromeTrace:
    def test_two_events_per_span_on_two_pids(self):
        tracer = Tracer()
        with tracer.span("phase:x", category="phase") as s:
            s.advance(2.0)
        doc = chrome_trace(tracer)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {e["pid"] for e in meta} == {SIM_PID, REAL_PID}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(xs) == 2
        sim = next(e for e in xs if e["pid"] == SIM_PID)
        assert sim["dur"] == pytest.approx(2.0 * 1e6)
        assert sim["cat"] == "phase"
        json.dumps(doc)  # must be serializable as-is


class TestPipelineObservability:
    def test_one_span_per_phase(self, traced_run):
        pipe, _ = traced_run
        names = [s.name for s in pipe.tracer.spans if s.category == "phase"]
        assert sorted(names) == sorted(PHASE_NAMES)
        for name in PHASE_NAMES:
            span, = [s for s in pipe.tracer.spans if s.name == name]
            assert span.parent_id is None and span.depth == 0

    def test_span_names_golden(self, traced_run):
        """The set of distinct span names is part of the tool's surface."""
        pipe, _ = traced_run
        produced = "\n".join(sorted({s.name for s in pipe.tracer.spans})) + "\n"
        path = GOLDEN_DIR / "trace_span_names.txt"
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(produced)
            pytest.skip(f"regenerated {path}")
        assert path.exists(), (
            f"missing golden file {path}; run with REPRO_REGEN_GOLDEN=1"
        )
        assert produced == path.read_text(), (
            "trace span names drifted; regenerate with REPRO_REGEN_GOLDEN=1 "
            "and review the diff"
        )

    def test_report_matches_result(self, traced_run):
        _, result = traced_run
        report = result.report()
        assert report.schema_version == METRICS_SCHEMA_VERSION
        assert report.program == result.program.name
        assert report.build("optimized").hot_modules == result.optimized.hot_modules
        assert report.build("baseline").binary_size == (
            result.baseline.executable.total_size)
        assert {p.name for p in report.phases} == set(result.phase_seconds)
        assert report.counters["cache.misses"] > 0
        assert 0.0 < report.gauges["pgo.match_rate"] <= 1.0
        assert report.gauges["wpa.hot_functions"] == len(
            result.wpa_result.hot_functions)
        assert PipelineReport.from_json(report.to_json()) == report

    def test_summary_is_rendered_from_report(self, traced_run):
        _, result = traced_run
        text = result.summary()
        assert "propeller phase 4" in text
        assert result.program.name in text

    def test_digest_identical_with_tracing_off(self, tiny_program, traced_run):
        _, traced_result = traced_run
        untraced = PropellerPipeline(tiny_program, _config()).run()
        assert untraced.digest() == traced_result.digest()

    def test_default_tracer_is_shared_null(self, tiny_program):
        from repro.obs import NULL_TRACER

        pipe = PropellerPipeline(tiny_program, _config())
        assert pipe.tracer is NULL_TRACER


class TestPublicAPI:
    def test_deprecated_link_options_alias_removed(self, tiny_program):
        """The one-release deprecation grace for ``_link_options`` is
        over: only the public ``link_options`` remains."""
        pipe = PropellerPipeline(tiny_program, _config())
        assert pipe.link_options("x.out").output_name == "x.out"
        assert not hasattr(pipe, "_link_options")

    def test_facade_exports_obs_types(self):
        import repro

        assert repro.Tracer is Tracer
        assert repro.Counters is Counters
        assert repro.PipelineReport is PipelineReport
