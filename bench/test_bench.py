"""Smoke test of the release benchmark: ``python -m pytest bench -q``.

Outside tier-1's ``testpaths`` on purpose (two smoke runs, ~2 min).  It
checks the benchmark's own contract -- every declared metric is emitted
on every workload, what must repeat exactly does -- not the program.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *map(str, args)],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two complete smoke runs of the same seed: ``[(out dir, results)]``."""
    runs = []
    for i in range(2):
        out = tmp_path_factory.mktemp(f"smoke{i}")
        proc = run_bench("--smoke", "--seed", 1, "--out", out)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append((out, json.loads((out / "results.json").read_text())))
    return runs


def test_spec_names_the_workloads_and_reasons_of_workloads_py():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert declared == {w.name: w.why for w in WORKLOADS.values()}
    for section in ("workloads", "end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(n) for n in names), section


def test_every_declared_metric_on_every_workload_and_no_failures(smoke):
    _, results = smoke[0]
    assert set(results["workloads"]) == set(WORKLOADS)
    for name, record in results["workloads"].items():
        for section in ("end_to_end", "per_layer"):
            assert set(record[section]) == {m["name"] for m in SPEC[section]}, name
            for entry in record[section].values():
                assert isinstance(entry["value"], (int, float)), name
        assert record["failed"] == 0 and record["failures"] == [], name
        assert record["attempted"] >= 6, name  # 2 + 2 reps, traced, counted
        for metric in SPEC["end_to_end"]:  # the contract: never 0
            assert record["end_to_end"][metric["name"]]["value"] > 0, name


def test_exact_metrics_and_call_counts_repeat_exactly(smoke):
    (_, a), (_, b) = smoke
    for name in WORKLOADS:
        ra, rb = a["workloads"][name], b["workloads"][name]
        assert ra["digests"] == rb["digests"], name
        for metric in compare.EXACT:
            assert ra["end_to_end"][metric] == rb["end_to_end"][metric], (name, metric)
        exact = [m for m in ra["per_layer"]
                 if m.startswith(compare.EXACT_LAYER_PREFIXES)]
        assert len(exact) == 15 + 6  # calls.*, sim.*
        for metric in exact:
            assert ra["per_layer"][metric] == rb["per_layer"][metric], (name, metric)


def test_span_self_times_account_for_the_optimize_span(smoke):
    _, results = smoke[0]
    for name, record in results["workloads"].items():
        layers = {k: v["value"] for k, v in record["per_layer"].items()}
        assert layers["pipeline.span_self_sum_s"] == pytest.approx(
            layers["pipeline.optimize_s"], rel=0.02), name
        assert 0 < layers["pipeline.driver_self_s"] < layers["pipeline.optimize_s"]


def test_workload_mechanisms_are_exercised_or_bypassed(smoke):
    _, results = smoke[0]
    value = lambda w, m: results["workloads"][w]["per_layer"][m]["value"]
    assert value("mysql-cold", "codegen.executed") > 0
    assert value("mysql-cold", "runtime.cache.store_loads") == 0
    assert value("mysql-warm", "codegen.executed") == 0
    assert value("mysql-warm", "buildsys.cache_misses") == 0
    assert value("clang-reopt", "exttsp.solve_reuse") >= 0.9
    assert value("clang-reopt", "incr.dirty_functions") == 1


def test_trace_file_holds_program_and_benchmark_spans(smoke):
    out, _ = smoke[0]
    for name in WORKLOADS:
        events = json.loads((out / f"trace-{name}.json").read_text())["traceEvents"]
        names = {e["name"] for e in events if e["ph"] == "X"}
        assert {"generate_workload", "release", "frontend_counters",
                "probe:simulate_frontend"} <= names, name       # benchmark's
        assert {"phase:relink", "codegen-batch", "link"} <= names, name  # program's


def test_compare_reports_identical_exact_metrics(smoke, capsys):
    (_, a), (_, b) = smoke
    compare.compare(a, b)  # timing verdicts on 2 smoke reps are noise
    assert "all identical" in capsys.readouterr().out


@pytest.mark.parametrize("a, b, bound, expected", [
    ([1.0, 1.01, 0.99], [1.05, 1.04, 1.06], 0.10, "within"),
    ([1.0, 1.01, 0.99], [1.25, 1.24, 1.26], 0.10, "regressed"),
    ([1.0, 1.01, 0.99], [0.80, 0.81, 0.79], 0.10, "improved"),
    ([1.0, 1.3, 0.8, 1.1], [1.2, 0.9, 1.4, 1.0], 0.10, "unresolved"),
    ([1.0, 1.3, 0.8, 1.1], [0.5, 0.6, 0.7, 0.55], 0.10, "improved"),
])
def test_compare_verdicts(a, b, bound, expected):
    assert compare.verdict(a, b, bound, lower_is_better=True)[2] == expected
    # Negated values with the direction flipped keep every ordering.
    assert compare.verdict([-x for x in a], [-x for x in b], bound,
                           lower_is_better=False)[2] == expected


def test_single_run_ends_with_the_contract_line(tmp_path):
    proc = run_bench("--workload", "mcf-profile", "--seed", 2, "--seconds", 0,
                     "--trace", 0, "--smoke", "--out", tmp_path)
    assert proc.returncode == 0, proc.stderr[-2000:]
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(set(v) == {"value", "unit"} for v in line["metrics"].values())
    assert not list(tmp_path.glob("tmp-*")), "working directories left behind"


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "mysql-cold", "--seed", 1, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
