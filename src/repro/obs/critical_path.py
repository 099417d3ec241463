"""Critical-path analysis over tracer spans (simulated clock).

Answers "what bound this run's makespan?" from the span tree alone:
reconstruct parent/child nesting from :class:`~repro.obs.tracer.Span`
records, charge each span its *self* time (duration not covered by its
children -- the slack a phase spends outside scheduled work), and walk
the dominant-child chain down from the binding root phase.  The result
is deliberately plain data (:meth:`CriticalPath.as_dict`) so the
explain engine can embed and diff it across runs.

Everything here reads the **simulated** clock: the paper's quantity
(Fig. 9, Table 5) and the one that is deterministic across machines.
The real clock tells you about the simulator, not the simulated build,
and run-to-run comparisons on it would be all noise.

Spans come either live from a :class:`~repro.obs.tracer.Tracer` or
from a serialized Chrome trace via :func:`spans_from_chrome`, which
re-derives the nesting from interval containment on the simulated-time
process (pid 1) -- the inverse of :func:`repro.obs.export.chrome_trace`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.report import plain
from repro.obs.tracer import Span

__all__ = ["CriticalPath", "PathStep", "critical_path", "spans_from_chrome"]

#: Containment tolerance (seconds) when re-deriving nesting from a
#: serialized trace: timestamps round-trip through microseconds.
_EPS = 1e-9


@dataclass(frozen=True)
class PathStep:
    """One span on the critical path (root first, leaf last)."""

    name: str
    category: str
    sim_seconds: float
    depth: int


@dataclass(frozen=True)
class CriticalPath:
    """The simulated-clock critical path of one traced run."""

    #: Sum of root-span durations: the run's simulated makespan.
    total_seconds: float
    #: Dominant-child chain from the binding root down to a leaf.
    steps: Tuple[PathStep, ...]
    #: Simulated seconds per root span (phase name -> duration).
    phase_seconds: Mapping[str, float]
    #: Self time per root span: duration not covered by child spans
    #: (clamped at zero -- scheduled children legitimately overlap).
    phase_slack: Mapping[str, float]
    #: Root span with the largest simulated duration.
    binding_phase: str

    def as_dict(self) -> Dict[str, Any]:
        return plain(self)


def critical_path(spans: Sequence[Span]) -> CriticalPath:
    """Compute the simulated-clock critical path of a span set.

    Roots (``parent_id is None``) are sequential on the simulated
    clock, so the makespan is their summed duration and the *binding*
    phase is simply the largest root.  The path then greedily descends
    into each span's longest child -- ties broken by earliest simulated
    start, then span id, so the walk is deterministic -- which names
    the chain of work an optimizer would have to shrink to move the
    makespan at all.
    """
    children: Dict[Optional[int], List[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    roots = children.get(None, [])
    phase_seconds = {s.name: s.sim_seconds for s in roots}
    phase_slack = {
        s.name: max(0.0, s.sim_seconds - sum(
            c.sim_seconds for c in children.get(s.span_id, ())))
        for s in roots
    }
    if not roots:
        return CriticalPath(0.0, (), {}, {}, "")

    def dominant(candidates: List[Span]) -> Span:
        return min(candidates,
                   key=lambda s: (-s.sim_seconds, s.sim_start, s.span_id))

    steps: List[PathStep] = []
    cursor: Optional[Span] = dominant(roots)
    while cursor is not None:
        steps.append(PathStep(name=cursor.name, category=cursor.category,
                              sim_seconds=cursor.sim_seconds,
                              depth=cursor.depth))
        kids = children.get(cursor.span_id)
        cursor = dominant(kids) if kids else None
    return CriticalPath(
        total_seconds=sum(s.sim_seconds for s in roots),
        steps=tuple(steps),
        phase_seconds=phase_seconds,
        phase_slack=phase_slack,
        binding_phase=dominant(roots).name,
    )


def spans_from_chrome(data: Mapping[str, Any]) -> List[Span]:
    """Rebuild simulated-clock spans from a Chrome ``trace_event`` dump.

    The inverse of :func:`repro.obs.export.chrome_trace` for the
    simulated-time process: complete (``ph: "X"``) events on pid 1 are
    converted back to seconds and re-nested by interval containment,
    relying on the exporter's span-*open* emission order (a child is
    always emitted after its parent).  Real-clock intervals are not
    reconstructed (the export splits them onto pid 2 with independent
    nesting); they come back zeroed, which is fine for everything in
    this module -- analysis here is simulated-clock only.
    """
    from repro.obs.export import SIM_PID

    spans: List[Span] = []
    stack: List[Span] = []
    next_id = 0
    for event in data.get("traceEvents", ()):
        if event.get("ph") != "X" or event.get("pid") != SIM_PID:
            continue
        start = event["ts"] / 1e6
        end = start + event["dur"] / 1e6
        while stack and not (start >= stack[-1].sim_start - _EPS
                             and end <= stack[-1].sim_end + _EPS):
            stack.pop()
        span = Span(
            span_id=next_id,
            parent_id=stack[-1].span_id if stack else None,
            depth=len(stack),
            name=event.get("name", ""),
            category=event.get("cat", ""),
            sim_start=start,
            sim_end=end,
            real_start=0.0,
            real_end=0.0,
            args=dict(event.get("args", {})),
        )
        next_id += 1
        spans.append(span)
        stack.append(span)
    return spans
