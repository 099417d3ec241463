"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, human tables.

The Chrome format is the ``chrome://tracing`` / Perfetto "JSON object
format": a top-level object whose ``traceEvents`` array holds complete
(``ph: "X"``) duration events.  Every span is exported twice, onto two
synthetic *processes*:

* pid 1 ("simulated time") -- the span on the cost model's clock;
* pid 2 ("real time") -- the same span on this process's wall clock.

Loading the file in Perfetto therefore shows the two timelines stacked,
with identical nesting, so "the simulated build spent 200 s here" and
"the simulator spent 80 ms computing that" are one click apart.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List

from repro.obs.report import PipelineReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis import Table
    from repro.obs.baseline import Comparison
    from repro.obs.bench import BenchReport
    from repro.obs.tracer import Tracer

__all__ = [
    "SIM_PID",
    "REAL_PID",
    "bench_markdown",
    "bench_scorecard",
    "chrome_trace",
    "comparison_markdown",
    "comparison_table",
    "counters_table",
    "write_chrome_trace",
    "write_metrics",
    "metrics_table",
]

#: Synthetic process ids of the two clock timelines.
SIM_PID = 1
REAL_PID = 2

_US = 1e6  # trace_event timestamps are microseconds


def chrome_trace(tracer: "Tracer") -> Dict[str, Any]:
    """The tracer's spans as a Chrome ``trace_event`` JSON object."""
    events: List[Dict[str, Any]] = [
        {"ph": "M", "pid": SIM_PID, "tid": 0, "name": "process_name",
         "args": {"name": "simulated time (cost model)"}},
        {"ph": "M", "pid": REAL_PID, "tid": 0, "name": "process_name",
         "args": {"name": "real time (this process)"}},
    ]
    # Emit in span-open order so nested events appear inside-out
    # consistently regardless of close order.
    for span in sorted(tracer.spans, key=lambda s: s.span_id):
        common = {"name": span.name, "cat": span.category, "ph": "X", "tid": 1,
                  "args": dict(span.args)}
        events.append({**common, "pid": SIM_PID,
                       "ts": span.sim_start * _US,
                       "dur": span.sim_seconds * _US})
        events.append({**common, "pid": REAL_PID,
                       "ts": span.real_start * _US,
                       "dur": span.real_seconds * _US})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: "Tracer", path) -> None:
    """Serialize :func:`chrome_trace` to ``path``."""
    Path(path).write_text(json.dumps(chrome_trace(tracer), indent=1))


def write_metrics(report: PipelineReport, path) -> None:
    """Serialize a :class:`PipelineReport` to schema-versioned JSON."""
    Path(path).write_text(json.dumps(report.to_json(), indent=2, sort_keys=True))


def metrics_table(report: PipelineReport) -> "Table":
    """The report's phase/build accounting as an aligned text table."""
    from repro.analysis import Table, format_bytes

    table = Table(
        ["stage", "sim seconds", "peak memory", "actions", "cache hits"],
        title=f"{report.program}: pipeline stages",
    )
    for build in report.builds:
        table.add_row(
            f"build:{build.name}", f"{build.wall_seconds:.2f}",
            format_bytes(build.peak_memory_bytes), build.actions, build.cache_hits,
        )
    for phase in report.phases:
        table.add_row(
            phase.name, f"{phase.sim_seconds:.2f}",
            format_bytes(phase.peak_memory_bytes), "-", "-",
        )
    return table


def counters_table(report: PipelineReport) -> "Table":
    """The report's counters and gauges as an aligned text table.

    Every metric the run accumulated -- cache, scheduler, profile
    quality, ``incr.*`` reuse, ``faults.*``/``retry.*`` resilience --
    in one sorted table, so the counter surface the README glossary
    documents is inspectable without poking at JSON.
    """
    from repro.analysis import Table

    table = Table(["metric", "kind", "value"],
                  title=f"{report.program}: counters and gauges")
    for name in sorted(report.counters):
        table.add_row(name, "counter", _fmt_value(report.counters[name]))
    for name in sorted(report.gauges):
        table.add_row(name, "gauge", _fmt_value(report.gauges[name]))
    return table


def frontend_table(report: PipelineReport) -> "Table":
    """The report's hardware-counter scorecard (Table 4 labels) as a table."""
    from repro.analysis import Table

    binaries = list(report.frontend)
    table = Table(["counter"] + binaries,
                  title=f"{report.program}: frontend counters")
    labels: list = []
    for counters in report.frontend.values():
        for label in counters:
            if label not in labels:
                labels.append(label)
    for label in labels:
        table.add_row(label, *(_fmt_value(report.frontend[b].get(label, "-"))
                               for b in binaries))
    return table


# ----------------------------------------------------------------------
# Bench scorecards

def _fmt_value(value, unit: str = "") -> str:
    if isinstance(value, str):
        return value[:16]
    if isinstance(value, float) and not value.is_integer():
        text = f"{value:.4g}"
    else:
        text = f"{int(value)}"
    return f"{text}{unit}" if unit and unit != "frac" else text


def bench_scorecard(report: "BenchReport") -> "Table":
    """A bench report's rows: ``print`` it aligned, or take ``.markdown()``."""
    from repro.analysis import Table

    title = f"bench suite {report.suite!r} (seed {report.seed})"
    if report.perturb:
        title += f" [PERTURBED: {report.perturb}]"
    table = Table(["scenario", "metric", "value", "paper"], title=title)
    for scenario in report.scenarios:
        for metric in scenario.metrics:
            table.add_row(scenario.name, metric.name,
                          _fmt_value(metric.value, metric.unit),
                          scenario.paper_ref)
    return table


def bench_markdown(report: "BenchReport") -> str:
    """A bench report as a GitHub-flavored markdown scorecard."""
    lines = [
        f"## Bench scorecard — suite `{report.suite}`",
        "",
        f"Seed {report.seed}; every metric is exact. "
        f"Deterministic fingerprint `{report.deterministic_fingerprint()[:12]}`."
        + (f" **Injected fault: `{report.perturb}`.**" if report.perturb else ""),
        "",
        bench_scorecard(report).markdown(),
    ]
    return "\n".join(lines) + "\n"


def comparison_table(comparison: "Comparison") -> "Table":
    """A baseline comparison's rows, failures first and upper-cased."""
    from repro.analysis import Table

    table = Table(["scenario", "metric", "verdict", "current", "baseline",
                   "detail"],
                  title=f"vs baseline: {comparison.summary()}")
    entries = sorted(comparison.entries,
                     key=lambda e: (not e.failed, e.scenario, e.metric))
    for entry in entries:
        table.add_row(
            entry.scenario, entry.metric,
            entry.verdict.upper() if entry.failed else entry.verdict,
            _fmt_value(entry.current.value) if entry.current else "-",
            _fmt_value(entry.baseline.value) if entry.baseline else "-",
            entry.detail,
        )
    return table


def comparison_markdown(comparison: "Comparison") -> str:
    """A baseline comparison as markdown (regressions surfaced on top)."""
    lines = [f"## Regression gate — {comparison.summary()}", ""]
    failures = comparison.failures
    if failures:
        lines.append("### Failures")
        lines.append("")
        for entry in failures:
            lines.append(f"- **{entry.label}**: {entry.verdict} — {entry.detail}")
        lines.append("")
    lines.append(comparison_table(comparison).markdown())
    return "\n".join(lines) + "\n"
