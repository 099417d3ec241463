"""Simulated-clock accounting of faulted action attempts.

:class:`FaultClock` turns a :class:`~repro.faults.plan.FaultPlan` into
per-action *time ledgers*: given an action's digest key and its clean
compute cost, it walks the plan's attempt schedule and returns how many
attempts were burned, what each one hit, and the total simulated
seconds the action really took (wasted attempts + exponential backoff
+ the final successful run).

The split of responsibilities is deliberate:

* the **value** of an action is computed exactly once, by the build
  system, on the final (successful) attempt -- injected faults can
  never change an artifact, only its cost;
* the **time** of an action is what this ledger says, and it feeds the
  makespan scheduler, so fault plans inflate simulated build times the
  way real worker churn inflates real ones;
* the **cache** stores the clean cost, so a warm replay of a previously
  faulted action costs a plain cache hit -- retries are an execution
  phenomenon, not a property of the artifact.

Every quantity is a pure function of (plan, action key), so ledgers are
deterministic, and so are the counters the clock emits (``faults.*`` /
``retry.*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from repro.faults.plan import FaultPlan

__all__ = ["AttemptLedger", "FaultClock"]


@dataclass(frozen=True)
class AttemptLedger:
    """One action's fault/retry timeline under a plan."""

    key: str
    kind: str
    #: False when every allowed attempt faulted (the caller raises
    #: :class:`~repro.faults.plan.RetriesExhausted`).
    ok: bool
    #: Attempts burned, the successful one included when ``ok``.
    attempts: int
    #: Total simulated seconds: wasted attempts + backoff + final run.
    seconds: float
    #: What the action would have cost with no plan.
    clean_seconds: float
    #: One entry per injected event, e.g. ``("fail@1", "timeout@2")``.
    events: Tuple[str, ...] = ()

    @property
    def wasted_seconds(self) -> float:
        """Simulated seconds attributable to faults and backoff alone."""
        return self.seconds - (self.clean_seconds if self.ok else 0.0)

    @property
    def faulted(self) -> bool:
        return bool(self.events)


class FaultClock:
    """Walks fault schedules and accumulates the run's fault accounting.

    :param plan: the schedule to draw from; a ``None`` plan makes every
        charge a clean pass-through (the clock is then free).
    :param counters: optional metrics sink (the
        :class:`repro.obs.Counters` contract, duck-typed).  All names
        are deterministic -- see the module docstring.
    """

    def __init__(self, plan: Optional[FaultPlan],
                 counters: Optional[Any] = None):
        self.plan = plan
        self.counters = counters
        #: Total simulated seconds lost to faults and backoff so far.
        self.wasted_seconds = 0.0
        #: Ledgers that recorded at least one injected event.
        self.faulted_actions = 0

    def _incr(self, name: str, amount: float = 1) -> None:
        if self.counters is not None:
            self.counters.incr(name, amount)

    def charge(self, kind: str, key: str, clean_seconds: float) -> AttemptLedger:
        """The time ledger for one executed action.

        Walks attempts ``1..plan.max_attempts``: a clean draw (or a
        slowdown) ends the walk as a success; fail/timeout/corrupt
        events waste that attempt's simulated time, add the plan's
        deterministic backoff, and retry.  Never raises -- exhaustion is
        reported through ``ledger.ok`` so the caller decides whether it
        is fatal.
        """
        plan = self.plan
        if plan is None or not plan.applies_to(kind) or not plan.active:
            return AttemptLedger(key=key, kind=kind, ok=True, attempts=1,
                                 seconds=clean_seconds,
                                 clean_seconds=clean_seconds)
        total = 0.0
        events = []
        attempts = 0
        ok = False
        for attempt in range(1, plan.max_attempts + 1):
            attempts = attempt
            event = plan.draw(kind, key, attempt)
            if event is None:
                total += clean_seconds
                ok = True
                break
            self._incr("faults.injected")
            self._incr(f"faults.{event}s" if event != "timeout"
                       else "faults.timeouts")
            events.append(f"{event}@{attempt}")
            if event == "slow":
                # A degraded worker: slower, but it finishes.
                total += clean_seconds * plan.slow_factor
                ok = True
                break
            if event == "fail":
                # Preempted partway through the run.
                total += clean_seconds * plan.fail_fraction(key, attempt)
            elif event == "timeout":
                # Hung until the per-action timeout killed it.
                total += plan.timeout_seconds
            else:  # corrupt
                # Ran fully; the fetched output failed digest
                # verification and must be recomputed.
                total += clean_seconds
            if attempt < plan.max_attempts:
                backoff = plan.backoff_seconds(key, attempt)
                total += backoff
                self._incr("retry.attempts")
                self._incr("retry.backoff_seconds", backoff)
        if not ok:
            self._incr("retry.exhausted")
        ledger = AttemptLedger(
            key=key, kind=kind, ok=ok, attempts=attempts, seconds=total,
            clean_seconds=clean_seconds, events=tuple(events),
        )
        if ledger.faulted:
            self.faulted_actions += 1
            self.wasted_seconds += ledger.wasted_seconds
            self._incr("faults.wasted_seconds", ledger.wasted_seconds)
        return ledger
