"""Exporters: Chrome ``trace_event`` JSON, metrics JSON, the bench scorecard.

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
    from repro.obs.bench import BenchReport
    from repro.obs.tracer import Tracer

__all__ = [
    "SIM_PID",
    "REAL_PID",
    "bench_scorecard",
    "chrome_trace",
    "write_chrome_trace",
    "write_metrics",
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


# ----------------------------------------------------------------------
# Bench scorecard

def _fmt_value(value) -> str:
    if isinstance(value, str):
        return value[:16]
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.4g}"
    return f"{int(value)}"


def bench_scorecard(report: "BenchReport") -> "Table":
    """A bench report's rows: ``print`` it aligned, or take ``.markdown()``."""
    from repro.analysis import Table

    table = Table(["scenario", "metric", "value", "paper"],
                  title=f"bench suite {report.suite!r} (seed {report.seed})")
    for scenario in report.scenarios:
        for metric in scenario.metrics:
            table.add_row(scenario.name, metric.name, _fmt_value(metric.value),
                          scenario.paper_ref)
    return table
