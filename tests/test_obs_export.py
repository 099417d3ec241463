"""Round-trip tests for the repro.obs exporters.

The Chrome trace file must respect the ``trace_event`` schema (Perfetto
and chrome://tracing silently drop malformed events -- a dashboard that
renders nothing is worse than a crash), and the metrics report must
survive ``from_json(to_json(r)) == r`` including the ``frontend``
hardware-counter section that ``--metrics-out`` now carries.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs import PipelineReport, chrome_trace, write_metrics
from repro.obs.export import REAL_PID, SIM_PID


@pytest.fixture(scope="module")
def traced(tiny_program):
    pipe = PropellerPipeline(tiny_program, PipelineConfig(
        lbr_branches=40_000, pgo_steps=20_000, workers=72,
        enforce_ram=False, trace=True))
    return pipe, pipe.run()


@pytest.fixture(scope="module")
def frontend_report(traced):
    _, result = traced
    return result.report(include_frontend=True)


class TestChromeTraceSchema:
    def test_every_event_is_well_formed(self, traced):
        pipe, _ = traced
        payload = json.loads(json.dumps(chrome_trace(pipe.tracer)))
        events = payload["traceEvents"]
        assert events, "trace must not be empty"
        for event in events:
            assert event["ph"] in ("M", "X")
            assert event["pid"] in (SIM_PID, REAL_PID)
            assert isinstance(event["tid"], int)
            assert isinstance(event["name"], str) and event["name"]
            if event["ph"] == "X":
                # Complete events require ts + dur, in microseconds.
                assert isinstance(event["ts"], (int, float))
                assert isinstance(event["dur"], (int, float))
                assert event["dur"] >= 0
                assert isinstance(event["args"], dict)

    def test_both_clock_timelines_are_named(self, traced):
        pipe, _ = traced
        events = chrome_trace(pipe.tracer)["traceEvents"]
        meta = {e["pid"]: e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        assert set(meta) == {SIM_PID, REAL_PID}

    def test_every_span_lands_on_both_timelines(self, traced):
        pipe, _ = traced
        events = [e for e in chrome_trace(pipe.tracer)["traceEvents"]
                  if e["ph"] == "X"]
        sim = [e["name"] for e in events if e["pid"] == SIM_PID]
        real = [e["name"] for e in events if e["pid"] == REAL_PID]
        assert sim == real
        assert len(sim) == len(pipe.tracer.spans)

    def test_empty_tracer_exports_metadata_only(self):
        from repro.obs import Tracer

        payload = chrome_trace(Tracer())
        events = payload["traceEvents"]
        # Still a valid trace file: the two process_name records and
        # nothing else -- Perfetto opens it to an empty timeline
        # rather than erroring out.
        assert [e["ph"] for e in events] == ["M", "M"]
        assert {e["pid"] for e in events} == {SIM_PID, REAL_PID}

    def test_disabled_tracer_exports_cleanly(self, tmp_path):
        from repro.obs import NULL_TRACER
        from repro.obs.export import write_chrome_trace

        path = tmp_path / "null-trace.json"
        write_chrome_trace(NULL_TRACER, path)
        payload = json.loads(path.read_text())
        assert all(e["ph"] == "M" for e in payload["traceEvents"])


class TestReportRoundTrip:
    def test_frontend_section_is_populated(self, frontend_report):
        assert set(frontend_report.frontend) == {"baseline", "optimized"}
        assert frontend_report.frontend_counter("optimized", "I1") >= 0
        assert frontend_report.frontend_improvement > 0

    def test_roundtrip_equality_with_frontend(self, frontend_report):
        payload = json.loads(json.dumps(frontend_report.to_json()))
        assert PipelineReport.from_json(payload) == frontend_report

    def test_roundtrip_without_frontend_defaults_empty(self, traced):
        _, result = traced
        report = result.report()
        assert report.frontend == {}
        payload = report.to_json()
        del payload["frontend"]  # pre-frontend payloads lack the key
        assert PipelineReport.from_json(payload) == report

    def test_frontend_counter_keyerror_is_helpful(self, traced):
        _, result = traced
        with pytest.raises(KeyError, match="include_frontend"):
            result.report().frontend_counter("optimized", "I1")

    def test_write_metrics_carries_frontend(self, frontend_report, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics(frontend_report, path)
        payload = json.loads(path.read_text())
        assert payload["frontend"]["baseline"]["cycles"] > 0

    def test_attribution_section_roundtrips(self, traced):
        _, result = traced
        report = result.report(include_frontend=True,
                               include_attribution=True)
        per = report.frontend_by_function["optimized"]
        assert per, "attribution must name functions"
        assert all("cycles" in c for c in per.values())
        payload = json.loads(json.dumps(report.to_json()))
        assert PipelineReport.from_json(payload) == report
        # Pre-attribution payloads lack the key entirely.
        del payload["frontend_by_function"]
        assert PipelineReport.from_json(payload).frontend_by_function == {}


class TestBenchRendering:
    def _report(self):
        from repro.obs import BenchReport, Metric, ScenarioResult

        return BenchReport(
            suite="smoke", seed=3,
            scenarios=(ScenarioResult(
                name="s", title="t", paper_ref="Table 3",
                metrics=(Metric("improvement", 0.09, "frac",
                                direction="higher"),
                         Metric("sim_wall", 1.25, "s", direction="lower")),
            ),))

    def test_scorecard_and_markdown(self):
        from repro.obs import bench_markdown, bench_scorecard

        report = self._report()
        text = str(bench_scorecard(report))
        assert "improvement" in text and "Table 3" in text
        assert "noise" not in text and "gate" not in text
        md = bench_markdown(report)
        assert md.startswith("## Bench scorecard")
        assert "| scenario | metric | value | paper |" in md
        assert report.deterministic_fingerprint()[:12] in md

    def test_comparison_rendering_surfaces_failures(self):
        from dataclasses import replace

        from repro.obs import compare, comparison_markdown, comparison_table

        baseline = self._report()
        scenario = baseline.scenarios[0]
        worse = tuple(replace(m, value=0.01) if m.name == "improvement" else m
                      for m in scenario.metrics)
        current = replace(baseline,
                          scenarios=(replace(scenario, metrics=worse),))
        comparison = compare(current, baseline)
        assert not comparison.ok
        table = str(comparison_table(comparison))
        assert "REGRESSED" in table and "FAIL" in table
        md = comparison_markdown(comparison)
        assert "### Failures" in md and "s:improvement" in md
