"""Continuous benchmark harness: a table of rows, each a flattened report.

The paper's argument is quantitative -- Table 3 speedups, Table 4 /
Figure 8 frontend counters, Figure 9 optimization time -- and layout
gains are small percentages easily lost to noise (BOLT's CGO'19
evaluation makes the same point), so this module keeps them *tracked*.

A :class:`Row` of :data:`ROWS` is one pipeline run.  :func:`run_row`
flattens its ``plain(PipelineReport.from_result(result,
include_frontend=True))`` into :class:`Metric` s -- builds and phases
keyed by name (``builds.optimized.wall_seconds``), everything else by
its keys (``frontend.optimized.I1``) -- plus ``digest`` and
``optimized.digest`` (the optimized executable's ``content_digest()``).
A comparison is a pair of rows (``drift0.3:off`` / ``drift0.3:loose``,
``incr:body`` / ``full:body``); the invariants of those pairs are
tier-1 tests.  Every metric is an exact function of (code, seed) and
the report carries no clock, so the whole suite's :func:`bench_json` is
a golden file (``tests/golden/bench_smoke.json``, checked with ``==``
like every other golden and regenerated with ``REPRO_REGEN_GOLDEN=1``).
Real seconds are ``bench/run.py``'s question.  Nothing from the rest of
``repro`` is imported at module scope.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import (Any, Callable, Dict, List, Mapping, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.obs.report import PipelineReport, plain

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchReport",
    "Metric",
    "ROWS",
    "Row",
    "ScenarioResult",
    "bench_json",
    "run_row",
    "run_suite",
]

#: Bump on any backwards-incompatible change to the report's JSON layout
#: (2 = exact-only: no ``gate``/``noise``/``reps``/``repetitions`` keys;
#: 3 = no ``perturb``, ``direction`` or ``unit`` keys).
BENCH_SCHEMA_VERSION = 3

MetricValue = Union[int, float, str]


# ----------------------------------------------------------------------
# Result model

@dataclass(frozen=True)
class Metric:
    """One measured quantity of one scenario."""

    name: str
    value: MetricValue


@dataclass(frozen=True)
class ScenarioResult:
    """All metrics one scenario produced."""

    name: str
    title: str
    #: Which paper table/figure the scenario guards (see EXPERIMENTS.md).
    paper_ref: str
    metrics: Tuple[Metric, ...]

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"scenario {self.name!r} has no metric {name!r}")


@dataclass(frozen=True)
class BenchReport:
    """One harness run: every scenario's metrics, schema-versioned."""

    suite: str
    seed: int
    scenarios: Tuple[ScenarioResult, ...]
    schema_version: int = BENCH_SCHEMA_VERSION

    def scenario(self, name: str) -> ScenarioResult:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r}")

    def metric(self, scenario: str, name: str) -> Metric:
        return self.scenario(scenario).metric(name)

    def to_json(self) -> Dict[str, Any]:
        return plain(self)


def bench_json(report: BenchReport) -> str:
    """The one text of a report: what ``bench --out`` writes and what
    ``tests/golden/bench_smoke.json`` holds."""
    return json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


# ----------------------------------------------------------------------
# The suite

class Row(NamedTuple):
    """One pipeline run: ``overrides`` are ``PipelineConfig`` fields,
    ``edit`` is the ``(kind, seed)`` of one ``EditScript.generate`` edit
    and ``prior`` the row whose ``--state-dir`` it re-optimizes against."""

    name: str
    paper_ref: str
    preset: str
    scale: float
    overrides: Mapping[str, Any] = {}
    edit: Optional[Tuple[str, int]] = None
    prior: Optional[str] = None


_DEEPSJENG = ("531.deepsjeng", 0.3)
_QUALITY = "Table 3, Table 4/Fig 8, Fig 9"
_INCR = "§3.6 deployment / iterative daily-release builds"

#: Small enough to run twice in CI (paper scale is ``tests/paper/``).
#: ``search`` has a warm tier below WPA's hot set for stale matching to
#: win back; the small SPEC presets do not.
ROWS: Tuple[Row, ...] = (
    Row("pipeline:531.deepsjeng", _QUALITY, *_DEEPSJENG),
    Row("pipeline:505.mcf", _QUALITY, "505.mcf", 1.0),
    *(Row(f"drift{drift:g}:{mode}",
          "§2.4 staleness; Stale Profile Matching (Ayupov et al.)",
          "search", 0.006, {"pgo_drift": drift, "stale_matching": mode})
      for drift in (0.3, 0.5) for mode in ("off", "loose")),
    *(Row(f"faults:{name}", "§2.1/§5 warehouse build-service resilience",
          *_DEEPSJENG, {"fault_plan": plan})
      for name, plan in (("retry", "fail=0.02,timeout=0.01,seed=3"),
                         ("lbr-exhausted", "fail=1,only=profile-lbr,seed=3"))),
    Row("incr:prior", _INCR, *_DEEPSJENG),
    Row("incr:replay", _INCR, *_DEEPSJENG, prior="incr:prior"),
    *(Row(f"{mode}:{kind}", _INCR, *_DEEPSJENG, edit=(kind, seed), prior=prior)
      for kind, seed in (("body", 3), ("add", 4), ("delete", 5))
      for mode, prior in (("incr", "incr:prior"), ("full", None))),
)
_PRIORS = {row.prior for row in ROWS}

def _flatten(value: Any, name: str, out: Dict[str, MetricValue]) -> None:
    """``plain`` data as dotted names: mappings by key, lists of records
    by their ``name``, lists of scalars joined, booleans as 0/1."""
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{name}.{key}" if name else key, out)
    elif isinstance(value, list) and value and isinstance(value[0], dict):
        for item in value:
            _flatten({k: v for k, v in item.items() if k != "name"},
                     f"{name}.{item['name']}", out)
    elif isinstance(value, list):
        out[name] = ",".join(map(str, value))
    else:
        out[name] = int(value) if isinstance(value, bool) else value


def _title(row: Row) -> str:
    extra = {**row.overrides, "edit": row.edit, "prior": row.prior}
    return ", ".join([f"{row.preset} @ {row.scale:g}",
                      *(f"{key}={value}" for key, value in extra.items() if value)])


def run_row(row: Row, seed: int, workdir: str) -> ScenarioResult:
    """Run ``row`` and flatten its report.  A prior keeps its state in
    ``workdir/<name>``; a row re-optimizes against its own copy of it,
    so no row sees another's store writes."""
    from repro.core.pipeline import PipelineConfig, PropellerPipeline
    from repro.incr import IncrState, state_path
    from repro.synth import PRESETS, EditScript, generate_workload

    program = generate_workload(PRESETS[row.preset], scale=row.scale, seed=seed)
    if row.edit:
        program = EditScript.generate(program, seed=row.edit[1],
                                      kinds=row.edit[:1]).apply(program)
    state_dir = None
    if row.prior or row.name in _PRIORS:
        state_dir = os.path.join(workdir, row.name)
        if row.prior:
            shutil.copytree(os.path.join(workdir, row.prior), state_dir)
    pipe = PropellerPipeline(program, PipelineConfig(**{
        "seed": seed, "lbr_branches": 40_000, "pgo_steps": 20_000, "workers": 72,
        "enforce_ram": False, "state_dir": state_dir, **row.overrides}))
    if row.prior:
        result = pipe.reoptimize(state_path(state_dir))
    else:
        result = pipe.run()
        if state_dir:
            IncrState.capture(result).save(state_dir)

    values: Dict[str, MetricValue] = {}
    _flatten(plain(PipelineReport.from_result(result, include_frontend=True)),
             "", values)
    values["digest"] = result.digest()
    values["optimized.digest"] = result.optimized.executable.content_digest()
    return ScenarioResult(row.name, _title(row), row.paper_ref, tuple(
        Metric(name, value) for name, value in values.items()))


def run_suite(
    seed: int = 3,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """The suite's :class:`BenchReport`: ``only`` names the rows to report
    (their priors still run) and ``progress`` receives one line per row."""
    by_name = {row.name: row for row in ROWS}
    unknown = set(only or ()) - set(by_name)
    if unknown:
        raise ValueError(
            f"unknown scenarios: {sorted(unknown)}; available: {list(by_name)}")
    # An exported REPRO_CACHE_DIR would warm the "cold" rows and shift
    # their exact-gated cache counters: the harness always starts cold.
    saved_cache_env = os.environ.pop("REPRO_CACHE_DIR", None)
    results: List[ScenarioResult] = []
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as workdir:
            for row in ROWS:
                if only and row.name not in only:
                    continue
                if row.prior and not os.path.isdir(os.path.join(workdir, row.prior)):
                    run_row(by_name[row.prior], seed, workdir)
                if progress is not None:
                    progress(f"running {row.name} ({_title(row)})")
                results.append(run_row(row, seed, workdir))
    finally:
        if saved_cache_env is not None:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_env
    return BenchReport(suite="smoke", seed=seed, scenarios=tuple(results))
