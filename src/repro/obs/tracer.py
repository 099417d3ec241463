"""Nested phase/batch/action spans on two clocks.

Every span records *both* clocks the reproduction cares about:

* **Simulated time** -- the paper's quantity (Figs. 4, 5, 9, Table 5):
  seconds the modelled distributed build would have spent.  The tracer
  keeps a simulated cursor that spans advance explicitly
  (:meth:`SpanHandle.advance`); nothing here consults the cost model.
* **Real time** -- seconds this Python process actually burned, from
  ``time.perf_counter``.  This is what tells you whether the *simulator*
  (not the simulated system) is slow, and where.

The two are deliberately separate streams; see DESIGN.md ("Simulated
vs. real time in traces").  The default pipeline tracer is
:data:`NULL_TRACER`, whose spans are a single shared no-op object, so
uninstrumented runs pay one attribute load and two no-op calls per
span -- nothing is allocated and no clock is read.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

__all__ = ["Span", "SpanHandle", "Tracer", "NullTracer", "NULL_TRACER"]


@dataclass(frozen=True)
class Span:
    """One completed span: a named interval on both clocks."""

    #: Monotonically increasing id in span-*open* order.
    span_id: int
    #: ``span_id`` of the enclosing span, or None for a root span.
    parent_id: Optional[int]
    #: Nesting depth at open time (0 = root).
    depth: int
    name: str
    category: str
    #: Simulated-clock interval (seconds since the tracer was created).
    sim_start: float
    sim_end: float
    #: Real-clock interval (seconds since the tracer was created).
    real_start: float
    real_end: float
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def sim_seconds(self) -> float:
        return self.sim_end - self.sim_start

    @property
    def real_seconds(self) -> float:
        return self.real_end - self.real_start


class SpanHandle:
    """Context manager for one open span (returned by :meth:`Tracer.span`)."""

    __slots__ = (
        "_tracer", "name", "category", "args",
        "_span_id", "_parent_id", "_depth", "_sim_start", "_real_start",
    )

    def __init__(self, tracer: "Tracer", name: str, category: str, args: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args

    def __enter__(self) -> "SpanHandle":
        t = self._tracer
        self._span_id = t._next_id
        t._next_id += 1
        self._parent_id = t._stack[-1]._span_id if t._stack else None
        self._depth = len(t._stack)
        self._sim_start = t._sim_now
        self._real_start = t._clock() - t._origin
        t._stack.append(self)
        return self

    def advance(self, sim_seconds: float) -> None:
        """Advance the tracer's simulated clock by ``sim_seconds``."""
        self._tracer.advance(sim_seconds)

    def note(self, **args: Any) -> None:
        """Attach key/value arguments (shown in trace viewers)."""
        self.args.update(args)

    def __exit__(self, exc_type, exc, tb) -> bool:
        t = self._tracer
        t._stack.pop()
        t.spans.append(Span(
            span_id=self._span_id,
            parent_id=self._parent_id,
            depth=self._depth,
            name=self.name,
            category=self.category,
            sim_start=self._sim_start,
            sim_end=t._sim_now,
            real_start=self._real_start,
            real_end=t._clock() - t._origin,
            args=dict(self.args),
        ))
        return False


class Tracer:
    """Collects nested spans; see the module docstring for the clocks."""

    def __init__(self, real_clock=None):
        self._clock = real_clock if real_clock is not None else time.perf_counter
        self._origin = self._clock()
        self._sim_now = 0.0
        self._next_id = 0
        self._stack: List[SpanHandle] = []
        #: Completed spans, in *close* order.
        self.spans: List[Span] = []

    def advance(self, sim_seconds: float) -> None:
        """Move the simulated clock forward by ``sim_seconds``."""
        if sim_seconds < 0:
            raise ValueError(f"cannot advance simulated time by {sim_seconds}")
        self._sim_now += sim_seconds

    def span(self, name: str, category: str = "task", **args: Any) -> SpanHandle:
        """Open a span; use as ``with tracer.span("phase:wpa"): ...``."""
        return SpanHandle(self, name, category, args)


class _NullSpan:
    """Shared no-op span handle: enter/exit/advance/note all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def advance(self, sim_seconds: float) -> None:
        pass

    def note(self, **args: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Interface-compatible tracer that records nothing.

    The pipeline's default: instrumented code paths always call
    ``tracer.span(...)``, and this class makes that call allocation-free
    so the disabled hot path pays essentially nothing.
    """

    spans: tuple = ()

    def advance(self, sim_seconds: float) -> None:
        pass

    def span(self, name: str, category: str = "task", **args: Any) -> _NullSpan:
        return _NULL_SPAN


#: Process-wide shared no-op tracer (stateless, safe to share).
NULL_TRACER = NullTracer()
