"""Tests for the benchmark harness (repro.obs.bench / baseline / CLI).

Proves the load-bearing properties:

* a row's metrics are its flattened ``PipelineReport``, named and
  directed by one table;

* the report carries no clock -- two runs of the same suite on the same
  code serialize to the same JSON, not just the same fingerprint;
* the regression gates actually fire -- an injected layout fault
  (``--perturb shuffle-layout``) is flagged and exits nonzero;
* the report format round-trips and rejects foreign schema versions,
  like the metrics report before it.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.obs import (
    BenchReport,
    Metric,
    ScenarioResult,
    compare,
    load_bench_report,
    run_suite,
    write_bench_report,
)
from repro.obs.baseline import REGEN_BASELINE_ENV
from repro.obs.bench import ROWS
from repro.tools.cli import main

#: The one row the tier-1 tests exercise end to end (the rest of the
#: suite runs in CI's bench-smoke job; the invariants its row pairs
#: show are tier-1 tests of their own subsystems).
SCENARIO = "pipeline:531.deepsjeng"
FAST = ["--scenario", SCENARIO]


@pytest.fixture(scope="module")
def smoke_run():
    return run_suite(only=[SCENARIO])


@pytest.fixture(scope="module")
def perturbed_run():
    return run_suite(only=[SCENARIO], perturb="shuffle-layout")


class TestMetric:
    def test_validation(self):
        with pytest.raises(ValueError):
            Metric("m", 1, direction="sideways")
        with pytest.raises(TypeError):
            Metric("m", 1, gate="noise")  # every metric is exact

    def test_roundtrip(self):
        metric = Metric("incremental.solve_reuse", 0.975, direction="higher")
        assert Metric.from_json(metric.to_json()) == metric
        assert sorted(metric.to_json()) == ["direction", "name", "unit", "value"]


def _tiny_report(**overrides) -> BenchReport:
    scenario = ScenarioResult(
        name="s", title="t", paper_ref="Table 0",
        metrics=(Metric("exact.none", 7),
                 Metric("exact.lower", 10.0, direction="lower"),
                 Metric("ratio", 5.0, "x", direction="higher")),
    )
    base = dict(suite="smoke", seed=3, scenarios=(scenario,))
    base.update(overrides)
    return BenchReport(**base)


class TestRows:
    def test_report_is_flattened_by_name(self, smoke_run):
        metrics = {m.name: m for m in smoke_run.scenario(SCENARIO).metrics}
        for name in ("builds.optimized.wall_seconds",
                     "phases.wpa_convert.sim_seconds", "counters.cache.misses",
                     "gauges.pgo.match_rate", "frontend.optimized.I1",
                     "degraded", "digest", "optimized.digest"):
            assert name in metrics, name
        assert "builds.optimized.name" not in metrics
        assert metrics["degraded"].value == 0

    def test_directions_come_from_the_table(self, smoke_run):
        direction = {m.name: m.direction
                     for m in smoke_run.scenario(SCENARIO).metrics}
        assert direction["builds.optimized.wall_seconds"] == "lower"
        assert direction["frontend.optimized.cycles"] == "lower"
        assert direction["frontend.optimized.ipc"] == "higher"
        assert direction["gauges.pgo.match_rate"] == "higher"
        # The input side and the digests are fingerprints.
        assert direction["frontend.baseline.cycles"] == "none"
        assert direction["builds.optimized.cache_hits"] == "none"
        assert direction["optimized.digest"] == "none"

    def test_every_prior_is_an_earlier_row(self):
        seen = set()
        for row in ROWS:
            assert row.prior is None or row.prior in seen, row.name
            seen.add(row.name)
        assert len(seen) == len(ROWS)


class TestBenchReport:
    def test_json_roundtrip(self):
        report = _tiny_report(perturb="shuffle-layout")
        payload = json.loads(json.dumps(report.to_json()))
        assert BenchReport.from_json(payload) == report

    def test_rejects_foreign_schema(self):
        payload = _tiny_report().to_json()
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="schema version"):
            BenchReport.from_json(payload)

    def test_lookup(self):
        report = _tiny_report()
        assert report.metric("s", "exact.none").value == 7
        with pytest.raises(KeyError):
            report.scenario("nope")
        with pytest.raises(KeyError):
            report.metric("s", "nope")

    def test_v1_file_is_a_regenerate_error(self):
        # What PR <= 16 committed: schema 1 with gate/noise/reps keys.
        payload = _tiny_report().to_json()
        payload.update(schema_version=1, repetitions=3)
        with pytest.raises(ValueError, match="regenerate"):
            BenchReport.from_json(payload)

    def test_fingerprint_covers_every_metric(self):
        a = _tiny_report()
        scenario = a.scenarios[0]
        for name in ("exact.none", "exact.lower", "ratio"):
            drifted = tuple(replace(m, value=8) if m.name == name else m
                            for m in scenario.metrics)
            b = replace(a, scenarios=(replace(scenario, metrics=drifted),))
            assert a.deterministic_fingerprint() != b.deterministic_fingerprint()


class TestLoadBenchReport:
    """Every content defect is one ValueError naming the file."""

    @pytest.mark.parametrize("mutate, what", [
        (lambda d: d.pop("suite"), "suite"),
        (lambda d: d.pop("scenarios"), "scenarios"),
        (lambda d: d["scenarios"][0].pop("metrics"), "metrics"),
        (lambda d: d.update(schema_version=1), "regenerate"),
        (lambda d: d.pop("schema_version"), "schema version"),
    ])
    def test_malformed_content(self, tmp_path, mutate, what):
        payload = _tiny_report().to_json()
        mutate(payload)
        path = tmp_path / "report.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=what) as excinfo:
            load_bench_report(path)
        assert str(path) in str(excinfo.value)

    @pytest.mark.parametrize("text", ["not json", "[1, 2]"])
    def test_not_a_report(self, tmp_path, text):
        path = tmp_path / "report.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="report.json"):
            load_bench_report(path)


class TestRunSuiteValidation:
    def test_unknown_inputs(self):
        with pytest.raises(ValueError, match="unknown perturbation"):
            run_suite(perturb="unplug-the-machine")
        with pytest.raises(ValueError, match="unknown scenarios"):
            run_suite(only=["pipeline:nope"])

    def test_cache_env_is_shielded_and_restored(self, tmp_path, monkeypatch,
                                                smoke_run):
        # A developer's exported cache dir must not warm the harness's
        # "cold" runs (it would shift the exact-gated cache counters).
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "warm"))
        report = run_suite(only=[SCENARIO])
        assert report.metric(SCENARIO, "counters.cache.misses").value == \
            smoke_run.metric(SCENARIO, "counters.cache.misses").value
        assert "counters.cache.disk_hits" not in {
            m.name for m in report.scenario(SCENARIO).metrics}
        assert os.environ["REPRO_CACHE_DIR"] == str(tmp_path / "warm")


class TestDeterminism:
    def test_two_runs_bit_identical(self, smoke_run):
        # The whole report, not just the fingerprint: there is no clock
        # left in it to differ.
        rerun = run_suite(only=[SCENARIO])
        assert rerun.to_json() == smoke_run.to_json()
        assert rerun.deterministic_fingerprint() == \
            smoke_run.deterministic_fingerprint()

    def test_harness_reads_no_clock(self):
        from pathlib import Path

        import repro.obs.bench as bench

        assert not hasattr(bench, "time")
        assert "perf_counter" not in Path(bench.__file__).read_text()

    def test_improvement_positive(self, smoke_run):
        cycles = {which: smoke_run.metric(SCENARIO, f"frontend.{which}.cycles")
                  for which in ("baseline", "optimized")}
        assert cycles["optimized"].value < cycles["baseline"].value

    def test_self_compare_passes(self, smoke_run):
        comparison = compare(smoke_run, smoke_run)
        assert comparison.ok
        assert {e.verdict for e in comparison.entries} == {"unchanged"}
        assert comparison.summary().startswith("PASS")


class TestRegressionGate:
    def test_perturbation_is_recorded(self, perturbed_run):
        assert perturbed_run.perturb == "shuffle-layout"

    def test_shuffled_layout_fails_the_gate(self, smoke_run, perturbed_run):
        comparison = compare(perturbed_run, smoke_run)
        assert not comparison.ok
        verdicts = {e.metric: e.verdict for e in comparison.failures}
        assert verdicts["optimized.digest"] == "changed"
        assert verdicts["digest"] == "changed"
        assert verdicts["frontend.optimized.cycles"] == "regressed"
        # The input side is untouched: the baseline binary stays identical.
        assert not any(e.metric.startswith(("frontend.baseline.",
                                            "builds.baseline."))
                       for e in comparison.failures)

    def test_refuses_perturbed_baseline(self, smoke_run, perturbed_run):
        with pytest.raises(ValueError, match="injected fault"):
            compare(smoke_run, perturbed_run)


class TestCompareEdges:
    def test_missing_metric_fails_new_metric_passes(self):
        current = _tiny_report()
        scenario = current.scenarios[0]
        grown = replace(scenario, metrics=scenario.metrics +
                        (Metric("extra", 1),))
        shrunk = replace(scenario, metrics=scenario.metrics[1:])
        assert compare(replace(current, scenarios=(grown,)), current).ok
        comparison = compare(replace(current, scenarios=(shrunk,)), current)
        assert not comparison.ok
        assert comparison.failures[0].verdict == "missing"

    def test_exact_gate_directional_improvement_passes(self):
        baseline = _tiny_report()
        scenario = baseline.scenarios[0]
        metrics = tuple(replace(m, value=9.0) if m.name == "exact.lower" else m
                        for m in scenario.metrics)
        comparison = compare(
            replace(baseline, scenarios=(replace(scenario, metrics=metrics),)),
            baseline)
        assert comparison.ok
        entry = next(e for e in comparison.entries
                     if e.metric == "exact.lower")
        assert entry.verdict == "improved"


class TestBenchCLI:
    def test_smoke_run_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        assert main(["bench", *FAST, "--out", str(out)]) == 0
        report = load_bench_report(out)
        assert report.suite == "smoke"
        assert report.scenario(SCENARIO).metrics
        assert SCENARIO in capsys.readouterr().out

    def test_compare_and_perturb_exit_codes(self, tmp_path, smoke_run,
                                            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        baseline = tmp_path / "baseline.json"
        write_bench_report(smoke_run, baseline)
        assert main(["bench", *FAST, "--compare", str(baseline),
                     "--markdown", str(tmp_path / "score.md")]) == 0
        assert "PASS" in capsys.readouterr().out
        assert "Regression gate" in (tmp_path / "score.md").read_text()
        assert main(["bench", *FAST, "--compare", str(baseline),
                     "--perturb", "shuffle-layout"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_baseline_is_usage_error(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", *FAST,
                     "--compare", str(tmp_path / "absent.json")]) == 2

    def test_regen_baseline_env(self, tmp_path, smoke_run, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(REGEN_BASELINE_ENV, "1")
        baseline = tmp_path / "baseline.json"
        assert main(["bench", *FAST, "--compare", str(baseline), "-q"]) == 0
        regen = load_bench_report(baseline)
        assert regen.deterministic_fingerprint() == \
            smoke_run.deterministic_fingerprint()
        # Refuses to bless a perturbed run as the new truth.
        assert main(["bench", *FAST, "--compare", str(baseline),
                     "--perturb", "shuffle-layout"]) == 2

    def test_list_scenarios(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        assert "pipeline:505.mcf" in out and "incr:body" in out
        assert "runtime:" not in out  # real seconds are bench/'s question

    def test_no_out_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # BENCH_<pr>.json at the repo root is bench/run.py's ledger; a
        # `bench` run beside one must neither number itself after
        # it nor write anything it was not asked to.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "BENCH_16.json").write_text("{}")
        assert main(["bench", *FAST, "-q"]) == 0
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_16.json"]
        assert SCENARIO in capsys.readouterr().out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert main(["bench", "--scenario", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"schema_version": 2, "seed": 3, "scenarios": []},    # no "suite"
        {"schema_version": 2, "suite": "smoke", "seed": 3},   # no "scenarios"
        {"schema_version": 1, "suite": "smoke", "seed": 3,
         "repetitions": 3, "scenarios": []},                  # PR <= 16 file
        {"schema": "bench/run.py", "workloads": {}},          # the ledger
    ])
    def test_unreadable_baseline_is_usage_error(self, tmp_path, payload,
                                                capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(payload))
        assert main(["bench", *FAST, "--compare", str(baseline)]) == 2
        assert str(baseline) in capsys.readouterr().err
