"""Tests for the run-to-run attribution engine (repro.obs.explain).

The acceptance contract, asserted here (the bench suite tracks runs,
not pairs of runs):

* two identical runs explain to an **empty** attribution list with
  every counter delta classified ``expected``;
* two runs differing by one seeded body edit of a hot function rank
  that function **#1** with cause ``code-edit``.

Plus the satellites that ride with the engine: critical-path analysis
(live spans and Chrome-trace reconstruction), the file-shaped loaders
behind ``python -m repro.tools explain``, report round-trip/schema
rejection, and the ``Tracer.find`` index the critical-path pass depends
on.
"""

from __future__ import annotations

import json

import pytest

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs import (
    ExplainReport,
    RunSnapshot,
    Tracer,
    critical_path,
    explain,
    explain_results,
    spans_from_chrome,
)
from repro.obs.export import chrome_trace, write_chrome_trace, write_metrics
from repro.synth import EditScript
from repro.synth.edits import Edit, _body_candidates

#: Trace budget for per-function attribution in these tests: small
#: enough to stay fast, large enough that the hot set is exercised.
BLOCKS = 60_000


@pytest.fixture(scope="module")
def explain_config():
    return PipelineConfig(lbr_branches=40_000, pgo_steps=20_000,
                          workers=72, enforce_ram=False, trace=True)


@pytest.fixture(scope="module")
def base_run(tiny_program, explain_config):
    pipe = PropellerPipeline(tiny_program, explain_config)
    return pipe, pipe.run()


@pytest.fixture(scope="module")
def rerun(tiny_program, explain_config):
    pipe = PropellerPipeline(tiny_program, explain_config)
    return pipe, pipe.run()


@pytest.fixture(scope="module")
def edited_run(tiny_program, explain_config, base_run):
    """One body edit of the hottest body-editable function."""
    _, base = base_run
    per = base.frontend_counters_by_function(max_blocks=BLOCKS)["optimized"]
    target = max(_body_candidates(tiny_program),
                 key=lambda f: (per.get(f, {}).get("cycles", 0.0), f))
    script = EditScript(edits=(
        Edit("body", target, tiny_program.module_of(target).name, 123),))
    pipe = PropellerPipeline(script.apply(tiny_program), explain_config)
    return target, pipe, pipe.run()


@pytest.fixture(scope="module")
def edited_report(base_run, edited_run):
    base_pipe, base = base_run
    target, new_pipe, new = edited_run
    report = explain_results(base, new, base_tracer=base_pipe.tracer,
                             new_tracer=new_pipe.tracer, max_blocks=BLOCKS)
    return target, report


class TestIdenticalRuns:
    def test_fixed_point(self, base_run, rerun):
        base_pipe, base = base_run
        rerun_pipe, again = rerun
        report = explain_results(base, again, base_tracer=base_pipe.tracer,
                                 new_tracer=rerun_pipe.tracer,
                                 max_blocks=BLOCKS)
        assert report.attribution == ()
        assert report.counters, "triage must still cover every counter"
        assert all(c.verdict == "expected" for c in report.counters)
        assert all(c.delta == 0.0 for c in report.counters)
        assert report.binding_phase_base == report.binding_phase_new
        assert all(p.delta == 0.0 for p in report.phases)


class TestEditedRun:
    def test_edited_function_ranks_first_as_code_edit(self, edited_report):
        target, report = edited_report
        assert report.attribution, "an edit must produce movers"
        top = report.attribution[0]
        assert top.rank == 1
        assert top.function == target
        assert top.cause == "code-edit"
        assert "CFG digest" in top.evidence
        assert top.delta != 0.0

    def test_ripples_rank_after_the_cause(self, edited_report):
        _, report = edited_report
        causes = [f.cause for f in report.attribution]
        # Every first-order cause precedes every ripple entry.
        if "address-shift" in causes:
            first_ripple = causes.index("address-shift")
            assert all(c != "code-edit" for c in causes[first_ripple:])

    def test_critical_path_present_for_traced_runs(self, edited_report):
        _, report = edited_report
        assert set(report.critical_path) == {"base", "new"}
        for summary in report.critical_path.values():
            assert summary["total_seconds"] > 0
            assert summary["binding_phase"].startswith("phase:")
            assert summary["steps"][0]["name"] == summary["binding_phase"]

    def test_top_k_limits_the_ranking(self, base_run, edited_run):
        _, base = base_run
        _, _, new = edited_run
        report = explain_results(base, new, top_k=3, max_blocks=BLOCKS)
        assert len(report.attribution) == 3
        assert [f.rank for f in report.attribution] == [1, 2, 3]


class TestReportSerialization:
    def test_roundtrip_equality(self, edited_report):
        _, report = edited_report
        payload = json.loads(json.dumps(report.to_json()))
        assert ExplainReport.from_json(payload) == report

    def test_wrong_schema_version_rejected(self, edited_report):
        _, report = edited_report
        payload = report.to_json()
        payload["schema_version"] = 999
        with pytest.raises(ValueError, match="schema version"):
            ExplainReport.from_json(payload)

    def test_markdown_names_the_culprit(self, edited_report):
        target, report = edited_report
        text = report.markdown()
        assert f"`{target}`" in text
        assert "code-edit" in text
        assert "### Counter triage" in text


class TestFileModes:
    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory, base_run, edited_run):
        """The exact files two CLI runs would leave behind."""
        from repro.incr import IncrState

        root = tmp_path_factory.mktemp("explain-artifacts")
        base_pipe, base = base_run
        _, new_pipe, new = edited_run
        for name, pipe, result in (("base", base_pipe, base),
                                   ("new", new_pipe, new)):
            write_metrics(result.report(include_frontend=True,
                                        include_attribution=True),
                          root / f"{name}-metrics.json")
            write_chrome_trace(pipe.tracer, root / f"{name}-trace.json")
            state_dir = root / f"{name}-state"
            state_dir.mkdir()
            IncrState.capture(result).save(state_dir / "state.json")
        return root

    def test_metrics_mode_matches_result_mode(self, artifacts, edited_run):
        target, _, _ = edited_run
        base = RunSnapshot.load(artifacts / "base-metrics.json",
                                trace=artifacts / "base-trace.json",
                                state=artifacts / "base-state")
        new = RunSnapshot.load(artifacts / "new-metrics.json",
                               trace=artifacts / "new-trace.json",
                               state=artifacts / "new-state",
                               label="new")
        report = explain(base, new)
        assert report.attribution[0].function == target
        assert report.attribution[0].cause == "code-edit"
        assert report.critical_path  # traces were supplied

    def test_state_only_mode_tags_without_cycles(self, artifacts, edited_run):
        target, _, _ = edited_run
        report = explain(RunSnapshot.load(artifacts / "base-state"),
                         RunSnapshot.load(artifacts / "new-state",
                                          label="new"))
        entries = {f.function: f for f in report.attribution}
        assert entries[target].cause == "code-edit"
        assert entries[target].delta == 0.0  # no counters in state mode

    def test_identical_metrics_files_are_a_fixed_point(self, artifacts):
        base = RunSnapshot.load(artifacts / "base-metrics.json")
        again = RunSnapshot.load(artifacts / "base-metrics.json",
                                 label="again")
        report = explain(base, again)
        assert report.attribution == ()
        assert all(c.verdict == "expected" for c in report.counters)

    def test_cli_writes_artifacts(self, artifacts, edited_run, tmp_path):
        from repro.tools.cli import main

        target, _, _ = edited_run
        out_json = tmp_path / "explain.json"
        out_md = tmp_path / "explain.md"
        rc = main(["explain",
                   str(artifacts / "base-metrics.json"),
                   str(artifacts / "new-metrics.json"),
                   "--base-state", str(artifacts / "base-state"),
                   "--new-state", str(artifacts / "new-state"),
                   "--json", str(out_json), "--markdown", str(out_md),
                   "--quiet"])
        assert rc == 0
        report = ExplainReport.from_json(json.loads(out_json.read_text()))
        assert report.attribution[0].function == target
        assert target in out_md.read_text()

    def test_cli_rejects_garbage_input(self, tmp_path):
        from repro.tools.cli import main

        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"nothing": "here"}))
        assert main(["explain", str(bogus), str(bogus), "--quiet"]) == 2


class TestCounterTriage:
    @staticmethod
    def _explain_counters(base_counters, new_counters, content_changed=False):
        base = RunSnapshot(label="a", counters=dict(base_counters))
        new = RunSnapshot(label="b", counters=dict(new_counters))
        if content_changed:
            base.functions = {"f": {"cfg": "x", "profile": "p", "hot": True}}
            new.functions = {"f": {"cfg": "y", "profile": "p", "hot": True}}
        return {c.name: c for c in explain(base, new).counters}

    def test_degradation_markers_are_always_suspicious(self):
        deltas = self._explain_counters({"faults.degraded": 0},
                                        {"faults.degraded": 1})
        assert deltas["faults.degraded"].verdict == "suspicious"

    def test_planned_retries_are_expected(self):
        deltas = self._explain_counters({"faults.injected.fail": 1},
                                        {"faults.injected.fail": 3})
        assert deltas["faults.injected.fail"].verdict == "expected"

    def test_pool_counters_exempt(self):
        """No rule names ``pool.*`` any more (nothing emits it): such a
        delta gets the generic verdict of an unclassified counter."""
        deltas = self._explain_counters({"pool.max_active": 4},
                                        {"pool.max_active": 9})
        assert deltas["pool.max_active"].verdict == "expected"
        assert deltas["pool.max_active"].reason.startswith("moved with the workload")

    def test_reuse_shift_needs_a_content_change(self):
        moved = ({"cache.memory.hits": 10}, {"cache.memory.hits": 4})
        assert self._explain_counters(*moved)[
            "cache.memory.hits"].verdict == "suspicious"
        assert self._explain_counters(*moved, content_changed=True)[
            "cache.memory.hits"].verdict == "expected"


class TestCriticalPath:
    @staticmethod
    def _trace() -> Tracer:
        tracer = Tracer()
        with tracer.span("phase:one", category="phase") as phase:
            with tracer.span("inner:a") as span:
                span.advance(2.0)
            with tracer.span("inner:b") as span:
                span.advance(5.0)
            phase.advance(1.0)  # self time
        with tracer.span("phase:two", category="phase") as span:
            span.advance(4.0)
        return tracer

    def test_path_descends_dominant_children(self):
        cp = critical_path(self._trace().spans)
        assert cp.total_seconds == pytest.approx(12.0)
        assert cp.binding_phase == "phase:one"
        assert [s.name for s in cp.steps] == ["phase:one", "inner:b"]
        assert cp.phase_seconds["phase:two"] == pytest.approx(4.0)
        assert cp.phase_slack["phase:one"] == pytest.approx(1.0)

    def test_chrome_reconstruction_matches_live_spans(self):
        tracer = self._trace()
        live = critical_path(tracer.spans)
        rebuilt = critical_path(spans_from_chrome(
            json.loads(json.dumps(chrome_trace(tracer)))))
        assert rebuilt.binding_phase == live.binding_phase
        assert rebuilt.total_seconds == pytest.approx(live.total_seconds)
        assert [s.name for s in rebuilt.steps] == [s.name for s in live.steps]
        assert rebuilt.phase_slack["phase:one"] == pytest.approx(
            live.phase_slack["phase:one"])

    def test_empty_span_set(self):
        cp = critical_path([])
        assert cp.total_seconds == 0.0
        assert cp.steps == ()
        assert cp.binding_phase == ""

    def test_as_dict_roundtrip(self):
        from repro.obs import CriticalPath

        cp = critical_path(self._trace().spans)
        assert CriticalPath.from_dict(
            json.loads(json.dumps(cp.as_dict()))) == cp


class TestTracerFindIndex:
    def test_find_matches_linear_scan_across_appends(self):
        tracer = Tracer()
        with tracer.span("a") as span:
            span.advance(1.0)
        assert [s.name for s in tracer.find("a")] == ["a"]
        # The index must fold in spans closed *after* the first lookup.
        with tracer.span("b"):
            pass
        with tracer.span("a") as span:
            span.advance(2.0)
        found = tracer.find("a")
        assert found == [s for s in tracer.spans if s.name == "a"]
        assert len(found) == 2
        assert tracer.find("missing") == []

    def test_returned_list_is_a_copy(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        tracer.find("a").clear()
        assert len(tracer.find("a")) == 1

    def test_index_is_incremental(self):
        tracer = Tracer()
        for _ in range(3):
            with tracer.span("x"):
                pass
        tracer.find("x")
        assert tracer._indexed_upto == 3
        with tracer.span("x"):
            pass
        # No re-scan happened yet; the next find folds in exactly one.
        assert tracer._indexed_upto == 3
        assert len(tracer.find("x")) == 4
        assert tracer._indexed_upto == 4
