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
  or https://ui.perfetto.dev), schema-versioned metrics JSON, and an
  aligned text table.
* :class:`PipelineReport` -- the typed result object behind
  ``PipelineResult.report()`` and ``--metrics-out``, including the
  hardware-counter ``frontend`` scorecard.  Its module,
  :mod:`repro.obs.report`, also holds ``plain``/``record``: the one
  writer and the one reader of every record this package publishes
  (the dataclass is the schema).
* :mod:`repro.obs.bench` / :mod:`repro.obs.baseline` -- the continuous
  benchmark harness behind ``repro-bench``: declarative scenarios of
  exact metrics (simulated clock, counters, digests -- real seconds
  are ``bench/``'s), schema-versioned reports and baseline regression
  gates.
* :func:`get_logger` / :func:`configure_logging` -- the ``logging``
  channel CLI progress output goes through (``--quiet``/``--verbose``).

Stdlib-only and imports nothing from the rest of ``repro`` at module
scope, so any layer may depend on it without dragging in the toolchain.
"""

from repro.obs.baseline import (
    REGEN_BASELINE_ENV,
    Comparison,
    MetricComparison,
    compare,
    load_bench_report,
    write_bench_report,
)
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchReport,
    Metric,
    ScenarioResult,
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
    bench_markdown,
    bench_scorecard,
    chrome_trace,
    comparison_markdown,
    comparison_table,
    counters_table,
    frontend_table,
    metrics_table,
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
    "Comparison",
    "CounterDelta",
    "Counters",
    "CriticalPath",
    "EXPLAIN_SCHEMA_VERSION",
    "ExplainReport",
    "FunctionDelta",
    "METRICS_SCHEMA_VERSION",
    "Metric",
    "MetricComparison",
    "NULL_TRACER",
    "NullTracer",
    "PathStep",
    "PhaseDelta",
    "PhaseStat",
    "PipelineReport",
    "REGEN_BASELINE_ENV",
    "RunSnapshot",
    "ScenarioResult",
    "Span",
    "Tracer",
    "bench_markdown",
    "bench_scorecard",
    "chrome_trace",
    "compare",
    "comparison_markdown",
    "comparison_table",
    "configure_logging",
    "counters_table",
    "critical_path",
    "explain",
    "explain_results",
    "frontend_table",
    "get_logger",
    "load_bench_report",
    "metrics_table",
    "run_suite",
    "spans_from_chrome",
    "write_bench_report",
    "write_chrome_trace",
    "write_metrics",
]
