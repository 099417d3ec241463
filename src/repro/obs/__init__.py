"""Observability: phase spans, counters, exporters and the bench harness.

Per-phase accounting is the backbone of the paper's evaluation (§5:
per-phase wall-clock, peak RSS, cache behaviour), and profile-quality
metrics -- match rate after staleness, sample coverage, hot-function
counts -- are the first thing PGO practitioners inspect.  This package
makes both visible for any pipeline run:

* :class:`Tracer` -- nested spans (phase -> batch -> action) recorded
  on both the simulated and the real clock; :data:`NULL_TRACER` is the
  free-when-disabled default.
* :class:`Counters` -- cache hit/miss, RAM rejections, queue depth,
  and profile-quality gauges; deterministic, so two runs of one
  configuration count identically.
* Exporters -- Chrome ``trace_event`` JSON (open in ``chrome://tracing``
  or https://ui.perfetto.dev), schema-versioned metrics JSON, and the
  bench scorecard table.
* :class:`PipelineReport` -- the typed result object behind
  ``PipelineResult.report()`` and ``--metrics-out``, including the
  hardware-counter ``frontend`` scorecard.  Its module,
  :mod:`repro.obs.report`, also holds ``plain``/``record``: the one
  writer and the one reader of every record this package publishes
  (the dataclass is the schema).
* :mod:`repro.obs.bench` -- the continuous benchmark harness behind
  ``python -m repro.tools bench``: a table of pipeline runs, each
  flattened to exact metrics (real seconds are ``bench/``'s).  Its JSON
  is one more golden file, ``tests/golden/bench_smoke.json``, gated with
  ``==`` and regenerated with ``REPRO_REGEN_GOLDEN=1``.
* :func:`get_logger` / :func:`configure_logging` -- the ``logging``
  channel CLI progress output goes through (``--quiet``/``--verbose``).

Stdlib-only and imports nothing from the rest of ``repro`` at module
scope, so any layer may depend on it without dragging in the toolchain.
"""

from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    Metric,
    ScenarioResult,
    bench_json,
    run_suite,
)
from repro.obs.counters import Counters
from repro.obs.critical_path import (
    CriticalPath,
    PathStep,
    critical_path,
    spans_from_chrome,
)
from repro.obs.explain import (
    EXPLAIN_SCHEMA_VERSION,
    CounterDelta,
    ExplainReport,
    FunctionDelta,
    PhaseDelta,
    RunSnapshot,
    explain,
    explain_results,
)
from repro.obs.export import (
    bench_scorecard,
    chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from repro.obs.log import configure_logging, get_logger
from repro.obs.report import (
    METRICS_SCHEMA_VERSION,
    BuildStat,
    PhaseStat,
    PipelineReport,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchReport",
    "BuildStat",
    "CounterDelta",
    "Counters",
    "CriticalPath",
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainReport",
    "FunctionDelta",
    "METRICS_SCHEMA_VERSION",
    "Metric",
    "NULL_TRACER",
    "NullTracer",
    "PathStep",
    "PhaseDelta",
    "PhaseStat",
    "PipelineReport",
    "RunSnapshot",
    "ScenarioResult",
    "Span",
    "Tracer",
    "bench_json",
    "bench_scorecard",
    "chrome_trace",
    "configure_logging",
    "critical_path",
    "explain",
    "explain_results",
    "get_logger",
    "run_suite",
    "spans_from_chrome",
    "write_chrome_trace",
    "write_metrics",
]
