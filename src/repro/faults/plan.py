"""Deterministic, digest-keyed fault schedules.

The paper's build environment (§2.1, §5) is a warehouse-scale shared
service: individual compile/link actions routinely fail on preempted
workers, hang until killed, or return corrupted outputs from a flaky
transfer, and the system is engineered so that none of that changes
*what* gets built -- only how long it takes.  A :class:`FaultPlan` is
the simulator's model of that environment's misbehaviour: a seeded
schedule of per-action failure/timeout/corruption/slowdown events.

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

Like :mod:`repro.runtime`, this module is stdlib-only and imports
nothing from the rest of ``repro``; metric sinks are duck-typed against
the :class:`repro.obs.Counters` contract.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "RetriesExhausted",
]

#: Injectable event kinds, in classification-band order: an attempt's
#: uniform draw is compared against the cumulative rates in this order.
FAULT_KINDS = ("fail", "timeout", "corrupt", "slow")


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
    "corrupt": "corrupt_rate",
    "slow": "slow_rate",
    "slow_factor": "slow_factor",
    "attempts": "max_attempts",
    "backoff": "backoff_base",
    "backoff_mult": "backoff_multiplier",
    "jitter": "backoff_jitter",
    "timeout_s": "timeout_seconds",
    "only": "only_kinds",
}
_FIELD_TO_SPEC = {field: key for key, field in _SPEC_KEYS.items()}
_INT_FIELDS = {"seed", "max_attempts"}
_FLOAT_FIELDS = tuple(f for f in _SPEC_KEYS.values() if f not in _INT_FIELDS | {"only_kinds"})


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
    ``max_attempts=4``, a 2% failure rate exhausts an action with
    probability ``0.02**4`` -- effectively never, which is exactly the
    warehouse experience the retry policy is modelled on.
    """

    seed: int = 0
    #: P(attempt fails partway through) -- worker preemption, OOM kill.
    fail_rate: float = 0.0
    #: P(attempt hangs and is killed at :attr:`timeout_seconds`).
    timeout_rate: float = 0.0
    #: P(attempt completes but its output fails digest verification on
    #: fetch and must be recomputed) -- the transfer-corruption model.
    corrupt_rate: float = 0.0
    #: P(attempt lands on a degraded worker and runs
    #: :attr:`slow_factor` times slower, but succeeds).
    slow_rate: float = 0.0
    slow_factor: float = 4.0
    #: Bounded retry budget per action (first try included).
    max_attempts: int = 4
    #: Exponential-backoff schedule, in *simulated* seconds:
    #: ``backoff_base * backoff_multiplier**(attempt-1)``, jittered by
    #: ``±backoff_jitter`` (relative, deterministic per attempt).
    backoff_base: float = 0.25
    backoff_multiplier: float = 2.0
    backoff_jitter: float = 0.25
    #: Per-action timeout: how long a hung attempt burns before the
    #: build system kills it (simulated seconds).
    timeout_seconds: float = 8.0
    #: When non-empty, faults apply only to these action kinds (e.g.
    #: ``("profile-lbr",)`` to starve profile collection and exercise
    #: the degradation path while builds stay clean).
    only_kinds: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for name in _FLOAT_FIELDS:
            if not _finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        for name in ("fail_rate", "timeout_rate", "corrupt_rate", "slow_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.total_rate > 1.0:
            raise ValueError(
                f"fault rates must sum to <= 1, got {self.total_rate}")
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.slow_factor < 1.0:
            raise ValueError(f"slow_factor must be >= 1, got {self.slow_factor}")
        if not 0.0 <= self.backoff_jitter < 1.0:
            raise ValueError(
                f"backoff_jitter must be in [0, 1), got {self.backoff_jitter}")
        if min(self.backoff_base, self.backoff_multiplier,
               self.timeout_seconds) < 0:
            raise ValueError("backoff and timeout parameters must be >= 0")

    # -- deterministic draws ------------------------------------------

    @property
    def total_rate(self) -> float:
        return (self.fail_rate + self.timeout_rate
                + self.corrupt_rate + self.slow_rate)

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
        for fault, rate in zip(FAULT_KINDS, (self.fail_rate, self.timeout_rate,
                                             self.corrupt_rate, self.slow_rate)):
            cumulative += rate
            if u < cumulative:
                return fault
        return None

    def fail_fraction(self, key: str, attempt: int) -> float:
        """How far through its clean cost a failing attempt got."""
        return self._uniform(key, attempt, "fail-at")

    def backoff_seconds(self, key: str, attempt: int) -> float:
        """Simulated delay before retry number ``attempt + 1``."""
        base = self.backoff_base * self.backoff_multiplier ** (attempt - 1)
        if not self.backoff_jitter:
            return base
        u = self._uniform(key, attempt, "backoff")
        return base * (1.0 + self.backoff_jitter * (2.0 * u - 1.0))

    # -- specs and serialization --------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """A plan from a compact spec string.

        ``"fail=0.02,timeout=0.01,seed=7"`` -- keys are the short names
        in the table below; unknown keys raise.  ``only`` takes a
        ``|``-separated action-kind list.  Round-trips via
        :meth:`to_spec`.
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
                values[field] = (int if field in _INT_FIELDS else float)(raw)
        return cls(**values)

    def to_spec(self) -> str:
        """The compact spec string (only non-default entries)."""
        default = FaultPlan()
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value == getattr(default, f.name):
                continue
            key = _FIELD_TO_SPEC[f.name]
            if f.name == "only_kinds":
                parts.append(f"{key}={'|'.join(value)}")
            elif f.name in _INT_FIELDS:
                parts.append(f"{key}={value}")
            else:
                parts.append(f"{key}={value:g}")
        return ",".join(parts)

    def to_json(self) -> Dict[str, object]:
        return {f.name: (list(v) if isinstance(v := getattr(self, f.name), tuple)
                         else v)
                for f in fields(self)}

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FaultPlan":
        """The inverse of :meth:`to_json`; anything else is a ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError(
                f"a fault plan is a JSON object, not {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown fault-plan fields: {sorted(unknown)}")
        for name, value in data.items():
            if name == "only_kinds":
                ok = (isinstance(value, (list, tuple))
                      and all(isinstance(k, str) for k in value))
            else:
                ok = (isinstance(value, int if name in _INT_FIELDS else (int, float))
                      and not isinstance(value, bool))
            if not ok:
                raise ValueError(
                    f"fault-plan field {name!r} has the wrong type: {value!r}")
        payload = dict(data)
        if "only_kinds" in payload:
            payload["only_kinds"] = tuple(payload["only_kinds"])
        return cls(**payload)  # type: ignore[arg-type]

    @classmethod
    def resolve(
        cls, source: "Union[FaultPlan, str, os.PathLike, None]"
    ) -> "Optional[FaultPlan]":
        """A plan from whatever the configuration carried.

        ``None`` passes through (no injection); a :class:`FaultPlan` is
        returned as-is; a string ending in ``.json`` names a file that is
        loaded via :meth:`from_json`; any other string is parsed as a
        spec.  This is what ``--fault-plan`` feeds; a malformed spec or
        file is a ``ValueError``.
        """
        if source is None or isinstance(source, cls):
            return source
        text = os.fspath(source)
        path = Path(text)
        if text.endswith(".json"):
            if not path.is_file():
                raise ValueError(f"fault plan {text}: no such file")
            try:
                return cls.from_json(json.loads(path.read_text()))
            except (OSError, ValueError) as exc:
                raise ValueError(f"fault plan {text}: {exc}") from None
        return cls.parse(text)
