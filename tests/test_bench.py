"""Tests for the benchmark harness (repro.obs.bench and ``bench``).

Proves the load-bearing properties:

* a row's metrics are its flattened ``PipelineReport``, named by its
  keys;
* the report carries no clock -- two runs of the same suite on the same
  code serialize to the same text, the text the golden
  ``tests/golden/bench_smoke.json`` holds (checked with ``==`` by the
  slow ``tests/test_golden.py::TestBenchGolden``);
* ``bench --out`` writes that one text and nothing else.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

import pytest

from repro.obs import BenchReport, Metric, ScenarioResult, bench_json, run_suite
from repro.obs.bench import ROWS
from repro.tools.cli import main

#: The one row the tier-1 tests exercise end to end (the whole suite is
#: the slow golden test; the invariants its row pairs show are tier-1
#: tests of their own subsystems).
SCENARIO = "pipeline:531.deepsjeng"
FAST = ["--scenario", SCENARIO]


@pytest.fixture(scope="module")
def smoke_run():
    return run_suite(only=[SCENARIO])


class TestMetric:
    def test_validation(self):
        # A metric is a name and a value: every metric is exact, and
        # nothing classifies a change as better or worse.
        for field in ("gate", "direction", "unit"):
            with pytest.raises(TypeError):
                Metric("m", 1, **{field: "x"})

    def test_roundtrip(self):
        metric = Metric("incremental.solve_reuse", 0.975)
        report = _tiny_report(scenarios=(ScenarioResult("s", "t", "p", (metric,)),))
        payload = json.loads(bench_json(report))
        assert payload["scenarios"][0]["metrics"] == [
            {"name": "incremental.solve_reuse", "value": 0.975}]


def _tiny_report(**overrides) -> BenchReport:
    scenario = ScenarioResult(
        name="s", title="t", paper_ref="Table 0",
        metrics=(Metric("count", 7), Metric("seconds", 10.0),
                 Metric("ratio", 5.0)),
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

    def test_every_prior_is_an_earlier_row(self):
        seen = set()
        for row in ROWS:
            assert row.prior is None or row.prior in seen, row.name
            seen.add(row.name)
        assert len(seen) == len(ROWS)


class TestBenchReport:
    def test_json_roundtrip(self):
        report = _tiny_report()
        text = bench_json(report)
        assert json.loads(text) == report.to_json()
        assert text.endswith("}\n") and text == bench_json(report)
        assert sorted(json.loads(text)) == [
            "scenarios", "schema_version", "seed", "suite"]
        assert json.loads(text)["schema_version"] == 3

    def test_lookup(self):
        report = _tiny_report()
        assert report.metric("s", "count").value == 7
        with pytest.raises(KeyError):
            report.scenario("nope")
        with pytest.raises(KeyError):
            report.metric("s", "nope")

    def test_fingerprint_covers_every_metric(self):
        """The golden is compared as text: a change to any one metric,
        in either direction, changes the text."""
        a = _tiny_report()
        scenario = a.scenarios[0]
        for name in ("count", "seconds", "ratio"):
            for value in (8, 1):
                drifted = tuple(replace(m, value=value) if m.name == name else m
                                for m in scenario.metrics)
                b = replace(a, scenarios=(replace(scenario, metrics=drifted),))
                assert bench_json(a) != bench_json(b)


class TestRunSuiteValidation:
    def test_unknown_inputs(self):
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
        # The whole report's text: there is no clock left in it to differ.
        rerun = run_suite(only=[SCENARIO])
        assert bench_json(rerun) == bench_json(smoke_run)

    def test_harness_reads_no_clock(self):
        from pathlib import Path

        import repro.obs.bench as bench

        assert not hasattr(bench, "time")
        assert "perf_counter" not in Path(bench.__file__).read_text()

    def test_improvement_positive(self, smoke_run):
        cycles = {which: smoke_run.metric(SCENARIO, f"frontend.{which}.cycles")
                  for which in ("baseline", "optimized")}
        assert cycles["optimized"].value < cycles["baseline"].value


class TestBenchCLI:
    def test_smoke_run_writes_report(self, tmp_path, capsys, smoke_run):
        out = tmp_path / "bench.json"
        assert main(["bench", *FAST, "--out", str(out)]) == 0
        assert out.read_text() == bench_json(smoke_run)
        assert SCENARIO in capsys.readouterr().out

    def test_compare_and_perturb_exit_codes(self, capsys):
        """The bench scorecard is a golden file checked with ``==``; the
        classifier's flags are argparse errors (exit 2)."""
        for flag in ("--compare", "--markdown", "--perturb"):
            with pytest.raises(SystemExit) as exit_:
                main(["bench", *FAST, flag, "x"])
            assert exit_.value.code == 2
            assert flag in capsys.readouterr().err

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
