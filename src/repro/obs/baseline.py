"""Baseline comparison and regression gates for bench reports.

Implements the policy half of the harness: given a current
:class:`~repro.obs.bench.BenchReport` and a stored baseline, classify
every metric and decide whether the run passes.

Every metric is exact: values must match bit-for-bit.  Classification
of a mismatch is driven by the metric's own ``direction`` (declared
where the metric is produced, not here): in the *better* direction it
is ``IMPROVED`` (passes, but the printed scorecard tells you to refresh
the baseline); in the worse direction it is ``REGRESSED`` (fails); with
no direction (digests, fingerprint counters) any drift is ``CHANGED``
(fails -- the change must be reviewed and the baseline refreshed).

A metric present in the baseline but missing from the current run is
``MISSING`` (fails): silently dropping a tracked metric is itself a
regression of coverage.  New metrics are ``NEW`` (pass).

``REPRO_REGEN_BASELINE=1`` (mirroring ``REPRO_REGEN_GOLDEN``) makes the
CLI overwrite the baseline file instead of gating -- the intended
workflow after a reviewed, deliberate change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.obs.bench import BenchReport, Metric

__all__ = [
    "REGEN_BASELINE_ENV",
    "Comparison",
    "MetricComparison",
    "compare",
    "load_bench_report",
    "write_bench_report",
]

#: Environment variable that turns ``--compare`` into a baseline refresh.
REGEN_BASELINE_ENV = "REPRO_REGEN_BASELINE"

#: Verdicts a metric comparison can reach.
IMPROVED = "improved"
REGRESSED = "regressed"
UNCHANGED = "unchanged"
CHANGED = "changed"
NEW = "new"
MISSING = "missing"


def load_bench_report(path: Union[str, Path]) -> BenchReport:
    """Read a schema-checked :class:`BenchReport` from JSON.

    Anything wrong with the file's *content* -- not JSON, a foreign or
    older schema, a missing key -- is one ``ValueError`` naming the path.
    """
    text = Path(path).read_text()
    try:
        return BenchReport.from_json(json.loads(text))
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(
            f"{path}: not a bench report (missing or malformed key: {exc})"
        ) from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def write_bench_report(report: BenchReport, path: Union[str, Path]) -> None:
    """Serialize ``report`` to schema-versioned JSON at ``path``."""
    Path(path).write_text(
        json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class MetricComparison:
    """One metric's verdict against the baseline."""

    scenario: str
    metric: str
    verdict: str
    #: True when this verdict fails the gate.
    failed: bool
    current: Optional[Metric] = None
    baseline: Optional[Metric] = None
    #: Human-readable one-liner ("+3.2% (exact gate)", "digest drifted").
    detail: str = ""

    @property
    def label(self) -> str:
        return f"{self.scenario}:{self.metric}"


@dataclass(frozen=True)
class Comparison:
    """Every metric's verdict; the gate result for one bench run."""

    entries: Tuple[MetricComparison, ...]

    @property
    def failures(self) -> List[MetricComparison]:
        return [e for e in self.entries if e.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict:
        out: dict = {}
        for entry in self.entries:
            out[entry.verdict] = out.get(entry.verdict, 0) + 1
        return out

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts[v]} {v}" for v in
                 (REGRESSED, CHANGED, MISSING, IMPROVED, UNCHANGED, NEW)
                 if v in counts]
        status = "PASS" if self.ok else "FAIL"
        return f"{status}: {', '.join(parts) if parts else 'no metrics'}"


def _values_equal(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return float(a) == float(b)


def _relative_delta(current: Metric, baseline: Metric) -> Optional[float]:
    try:
        base = float(baseline.value)
        cur = float(current.value)
    except (TypeError, ValueError):
        return None
    if base == 0:
        return None
    return (cur - base) / base


def _compare_metric(
    scenario: str,
    current: Optional[Metric],
    baseline: Optional[Metric],
) -> MetricComparison:
    if current is None:
        assert baseline is not None
        return MetricComparison(
            scenario=scenario, metric=baseline.name, verdict=MISSING,
            failed=True, baseline=baseline,
            detail="tracked metric no longer produced",
        )
    if baseline is None:
        return MetricComparison(
            scenario=scenario, metric=current.name, verdict=NEW,
            failed=False, current=current,
            detail="not in baseline (refresh to start tracking)",
        )

    common = dict(scenario=scenario, metric=current.name,
                  current=current, baseline=baseline)
    delta = _relative_delta(current, baseline)
    delta_text = f"{100 * delta:+.2f}%" if delta is not None else "n/a"

    if _values_equal(current.value, baseline.value):
        return MetricComparison(verdict=UNCHANGED, failed=False, **common)
    if current.direction == "none" or delta is None:
        return MetricComparison(
            verdict=CHANGED, failed=True,
            detail=f"{baseline.value!r} -> {current.value!r} "
                   "(exact gate; review and refresh the baseline)",
            **common)
    better = (delta < 0) == (current.direction == "lower")
    return MetricComparison(
        verdict=IMPROVED if better else REGRESSED, failed=not better,
        detail=f"{delta_text} (exact gate"
               f"{'; refresh baseline to lock in' if better else ''})",
        **common)


def compare(current: BenchReport, baseline: BenchReport) -> Comparison:
    """Classify every metric of ``current`` against ``baseline``."""
    if baseline.perturb:
        raise ValueError(
            f"baseline was recorded with an injected fault "
            f"({baseline.perturb!r}); refusing to gate against it")
    entries: List[MetricComparison] = []
    current_scenarios = {s.name: s for s in current.scenarios}
    baseline_scenarios = {s.name: s for s in baseline.scenarios}
    for name in sorted(set(current_scenarios) | set(baseline_scenarios)):
        cur_metrics = ({m.name: m for m in current_scenarios[name].metrics}
                       if name in current_scenarios else {})
        base_metrics = ({m.name: m for m in baseline_scenarios[name].metrics}
                        if name in baseline_scenarios else {})
        for metric_name in sorted(set(cur_metrics) | set(base_metrics)):
            entries.append(_compare_metric(
                name,
                cur_metrics.get(metric_name),
                base_metrics.get(metric_name),
            ))
    return Comparison(entries=tuple(entries))
