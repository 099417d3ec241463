"""Deterministic, digest-keyed fault schedules.

The paper's build environment (§2.1, §5) is a warehouse-scale shared
service: individual compile/link actions routinely fail on preempted
workers, hang until killed, or return corrupted outputs from a flaky
transfer, and the system is engineered so that none of that changes
*what* gets built -- only how long it takes.  A :class:`FaultPlan` is
the simulator's model of that environment's misbehaviour: a seeded
schedule of per-action failures and timeouts.  (A corrupted fetch is
modelled for real, by the action store's envelope check and
quarantine in :mod:`repro.runtime.cache`.)

The property that makes plans usable under the repo's determinism
contract is that every decision is a pure function of
``(plan seed, action digest, attempt number)``:

* **Replayable** -- the same plan applied to the same build injects the
  same faults, every time, on every machine.
* **Schedule-independent** -- the draw never consults execution order,
  wall clock or worker identity, so ``PipelineResult.digest()`` stays
  bit-identical with a plan on or off (only simulated durations and
  the ``faults.*`` / ``retry.*`` counters move).
* **Nested** -- the uniform draw for an attempt is fixed by its key, so
  raising ``fail_rate`` can only convert clean attempts into failures,
  never the reverse.  This is what makes simulated makespan *monotone*
  in the injected failure rate (property-tested in the chaos tier).

:meth:`FaultPlan.charge` turns the schedule into one action's time
ledger: how many attempts were burned, what each one hit, and the
simulated seconds the action really took (wasted attempts + exponential
backoff + the final successful run).  The retry policy is fixed, in
simulated seconds: :data:`MAX_ATTEMPTS` tries per action (the first
included), retry ``k`` waiting ``BACKOFF_BASE * 2**(k-1)`` jittered by
``±BACKOFF_JITTER`` (relative, deterministic per attempt), and a hung
attempt burning :data:`TIMEOUT_SECONDS` before it is killed.  Time and
value are split on purpose:

* the **value** of an action is computed exactly once, by the build
  system, on the final (successful) attempt -- injected faults can
  never change an artifact, only its cost;
* the **time** of an action is what its ledger says, and it feeds the
  makespan scheduler, so fault plans inflate simulated build times the
  way real worker churn inflates real ones;
* the **cache** stores the clean cost, so a warm replay of a previously
  faulted action costs a plain cache hit -- retries are an execution
  phenomenon, not a property of the artifact.

Like :mod:`repro.runtime`, this module is stdlib-only and imports
nothing from the rest of ``repro``; metric sinks are duck-typed against
the :class:`repro.obs.Counters` contract.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "AttemptLedger",
    "FaultPlan",
    "RetriesExhausted",
]

#: Injectable event kinds, in classification-band order: an attempt's
#: uniform draw is compared against the cumulative rates in this order.
FAULT_KINDS = ("fail", "timeout")

#: The retry policy (see the module docstring).
MAX_ATTEMPTS = 4
BACKOFF_BASE = 0.25
BACKOFF_MULTIPLIER = 2.0
BACKOFF_JITTER = 0.25
TIMEOUT_SECONDS = 8.0


class RetriesExhausted(Exception):
    """Every allowed attempt of one action faulted.

    Carries enough to report honestly: the action kind and key, how
    many attempts were burned and what each one hit.  The pipeline
    catches this for profile-collection and relink actions and degrades
    gracefully (``PipelineReport.degraded``); for the product builds it
    propagates -- there is nothing to fall back to.
    """

    def __init__(self, kind: str, key: str, attempts: int,
                 events: Tuple[str, ...] = ()):
        self.kind = kind
        self.key = key
        self.attempts = attempts
        self.events = events
        super().__init__(
            f"action '{kind}' ({key[:12]}...) faulted on all {attempts} "
            f"attempts: {', '.join(events) or 'no events recorded'}"
        )


#: Spec-string key -> FaultPlan field, for :meth:`FaultPlan.parse`.
_SPEC_KEYS: Dict[str, str] = {
    "seed": "seed",
    "fail": "fail_rate",
    "timeout": "timeout_rate",
    "only": "only_kinds",
}


@dataclass(frozen=True)
class AttemptLedger:
    """One action's fault/retry timeline under a plan."""

    #: False when every allowed attempt faulted (the caller raises
    #: :class:`RetriesExhausted`).
    ok: bool
    #: Attempts burned, the successful one included when ``ok``.
    attempts: int
    #: Total simulated seconds: wasted attempts + backoff + final run.
    seconds: float
    #: One entry per injected event, e.g. ``("fail@1", "timeout@2")``.
    events: Tuple[str, ...] = ()


def _finite(value: float) -> bool:
    """Whether ``value`` is a float other than NaN or +-inf (an int too
    large for a float is not one)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of injected action faults.

    Rates are per *attempt*: with independent draws per attempt and
    :data:`MAX_ATTEMPTS` (4) tries, a 2% failure rate exhausts an action
    with probability ``0.02**4`` -- effectively never, which is exactly
    the warehouse experience the retry policy is modelled on.
    """

    seed: int = 0
    #: P(attempt fails partway through) -- worker preemption, OOM kill.
    fail_rate: float = 0.0
    #: P(attempt hangs and is killed at :data:`TIMEOUT_SECONDS`).
    timeout_rate: float = 0.0
    #: When non-empty, faults apply only to these action kinds (e.g.
    #: ``("profile-lbr",)`` to starve profile collection and exercise
    #: the degradation path while builds stay clean).
    only_kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in ("fail_rate", "timeout_rate"):
            rate = getattr(self, name)
            if not _finite(rate):
                raise ValueError(f"{name} must be finite, got {rate!r}")
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0:
            raise ValueError(
                f"fault rates must sum to <= 1, got {self.total_rate}")

    # -- deterministic draws ------------------------------------------

    @property
    def total_rate(self) -> float:
        return self.fail_rate + self.timeout_rate

    @property
    def active(self) -> bool:
        """Whether this plan can inject anything at all."""
        return self.total_rate > 0.0

    def _uniform(self, key: str, attempt: int, salt: str) -> float:
        """Uniform [0, 1) draw fixed by (seed, action key, attempt, salt).

        The action key is a content digest covering every input of the
        action, so the draw is invariant under execution order, worker
        count and process boundaries -- the whole determinism story.
        """
        h = hashlib.sha256(
            f"{self.seed}|{salt}|{attempt}|{key}".encode("utf-8")
        ).digest()
        return int.from_bytes(h[:8], "little") / float(1 << 64)

    def applies_to(self, kind: str) -> bool:
        return not self.only_kinds or kind in self.only_kinds

    def draw(self, kind: str, key: str, attempt: int) -> Optional[str]:
        """The fault injected into this attempt, or None for a clean run.

        Classification is by cumulative rate band in :data:`FAULT_KINDS`
        order, against a single uniform draw -- so for a fixed seed the
        fault sets of two plans that differ only in ``fail_rate`` are
        nested (see module docstring).
        """
        if not self.applies_to(kind) or not self.active:
            return None
        u = self._uniform(key, attempt, "event")
        cumulative = 0.0
        for fault, rate in zip(FAULT_KINDS, (self.fail_rate, self.timeout_rate)):
            cumulative += rate
            if u < cumulative:
                return fault
        return None

    def fail_fraction(self, key: str, attempt: int) -> float:
        """How far through its clean cost a failing attempt got."""
        return self._uniform(key, attempt, "fail-at")

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Simulated delay before retry number ``attempt + 1``."""
        base = BACKOFF_BASE * BACKOFF_MULTIPLIER ** (attempt - 1)
        u = self._uniform(key, attempt, "backoff")
        return base * (1.0 + BACKOFF_JITTER * (2.0 * u - 1.0))

    def charge(self, kind: str, key: str, clean_seconds: float,
               counters: Any) -> AttemptLedger:
        """The time ledger of one executed action, counted on ``counters``.

        Walks attempts ``1..MAX_ATTEMPTS``: a clean draw ends the walk
        as a success; a fail or timeout wastes that attempt's simulated
        time, adds the deterministic backoff, and retries.  Never raises -- exhaustion is reported through
        ``ledger.ok`` so the caller decides whether it is fatal.  The
        ``faults.*`` / ``retry.*`` counters are a pure function of
        (plan, action key), like the ledger.
        """
        if not self.applies_to(kind) or not self.active:
            return AttemptLedger(ok=True, attempts=1, seconds=clean_seconds)
        total = 0.0
        events = []
        attempts = 0
        ok = False
        for attempt in range(1, MAX_ATTEMPTS + 1):
            attempts = attempt
            event = self.draw(kind, key, attempt)
            if event is None:
                total += clean_seconds
                ok = True
                break
            counters.incr("faults.injected")
            counters.incr(f"faults.{event}s")
            events.append(f"{event}@{attempt}")
            if event == "fail":
                # Preempted partway through the run.
                total += clean_seconds * self.fail_fraction(key, attempt)
            else:
                # Hung until the per-action timeout killed it.
                total += TIMEOUT_SECONDS
            if attempt < MAX_ATTEMPTS:
                backoff = self.backoff_seconds(key, attempt)
                total += backoff
                counters.incr("retry.attempts")
                counters.incr("retry.backoff_seconds", backoff)
        if not ok:
            counters.incr("retry.exhausted")
        if events:
            # Seconds lost to faults and backoff alone.
            counters.incr("faults.wasted_seconds",
                          total - (clean_seconds if ok else 0.0))
        return AttemptLedger(ok=ok, attempts=attempts, seconds=total,
                             events=tuple(events))

    # -- specs ---------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """A plan from a compact spec string.

        ``"fail=0.02,timeout=0.01,seed=7"`` -- keys are the short names
        in the table below; unknown keys raise.  ``only`` takes a
        ``|``-separated action-kind list.
        """
        values: Dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise ValueError(f"fault-plan spec item {part!r} is not key=value")
            key, _, raw = part.partition("=")
            key = key.strip()
            field = _SPEC_KEYS.get(key)
            if field is None:
                raise ValueError(
                    f"unknown fault-plan key {key!r}; one of {sorted(_SPEC_KEYS)}")
            raw = raw.strip()
            if field == "only_kinds":
                values[field] = tuple(k for k in raw.split("|") if k)
            else:
                values[field] = (int if field == "seed" else float)(raw)
        return cls(**values)

    @classmethod
    def resolve(cls, source: "Union[FaultPlan, str, None]") -> "Optional[FaultPlan]":
        """A plan from whatever the configuration carried.

        ``None`` passes through (no injection); a :class:`FaultPlan` is
        returned as-is; anything else is parsed as a spec.  This is what
        ``--fault-plan`` feeds; a malformed spec is a ``ValueError``.
        """
        if source is None or isinstance(source, cls):
            return source
        return cls.parse(source)
