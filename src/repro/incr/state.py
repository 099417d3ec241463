"""Persisted per-release state for incremental re-optimization.

An :class:`IncrState` is the snapshot one release leaves behind for the
next: per-function content digests (CFG and profile slice), WPA hot-set
membership, the configuration signature the artifacts depend on, and
the full-result digest.  It is deliberately tiny -- digests and
booleans, no IR, no profiles -- because the heavy reuse lives in the
content-keyed stores beside it (:class:`~repro.runtime.PersistentActionStore`,
:class:`~repro.runtime.FunctionSolveCache`).  The state answers "*what
changed?*"; the stores answer "*what can be replayed?*" -- and only the
stores are trusted for correctness.  A release's evidence is its
result's ``functions`` (built once, from the digests that keyed its
compiles) and :func:`diff_functions` is the one diff of two releases,
read by ``reoptimize()``'s accounting and by ``explain``.

Digest-keyed, not timestamp-keyed, on purpose: a timestamp says a file
was *touched*, a content digest says a function *changed*, so the dirty
set is exactly the semantic delta (see DESIGN.md).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping, NamedTuple, Tuple

from repro.obs.report import plain, record

#: Schema version of the serialized state.  A loaded snapshot with a
#: different version is incompatible and rejected (the next release
#: then simply runs full).
INCR_STATE_VERSION = 2

#: File name of the snapshot inside a ``--state-dir``.
STATE_FILENAME = "state.json"


class IncrStateError(ValueError):
    """A state snapshot is unusable for the requested re-optimization."""


def state_path(state_dir: "str | os.PathLike") -> Path:
    """Where the snapshot lives inside a state directory."""
    return Path(state_dir) / STATE_FILENAME


#: :class:`~repro.core.pipeline.PipelineConfig` fields that determine
#: artifact *content* (``wpa`` is hashed beside them).  The execution
#: knobs (``workers``, ``enforce_ram``, ``ram_limit``, ``jobs``,
#: ``cache_dir``, ``state_dir``, ``fault_plan``) are deliberately
#: excluded: they change how fast a result is produced, never what is
#: produced (the contract ``PipelineResult.digest()`` documents), so
#: state captured in one execution environment stays valid in any other.
_CONTENT_FIELDS = ("seed", "pgo_steps", "pgo_drift", "inline_hot",
                   "stale_matching", "lbr_branches", "lbr_period", "hugepages")


def config_signature(config) -> str:
    """Digest of the artifact-relevant pipeline configuration."""
    import hashlib

    h = hashlib.sha256()
    for name in _CONTENT_FIELDS:
        h.update(f"{name}={getattr(config, name)!r};".encode("utf-8"))
    h.update(f"wpa={config.wpa!r}".encode("utf-8"))
    return h.hexdigest()


@dataclass(frozen=True)
class FunctionState:
    """One function's fingerprint at snapshot time."""

    #: Content digest of the function's IR (CFG shape, instructions,
    #: terminators) -- from :func:`repro.ir.digest.module_digests`.
    cfg_digest: str
    #: Digest of the function's slice of the instrumented profile --
    #: :meth:`repro.profiles.IRProfile.function_digest`.
    profile_digest: str
    #: Whether WPA's hardware-profile hot set contained the function.
    hot: bool


class FunctionDiff(NamedTuple):
    """What changed between two releases' evidence
    (:attr:`PipelineResult.functions <repro.core.pipeline.PipelineResult.functions>`)."""

    #: Sorted: functions in both releases whose digests changed, and
    #: functions only the current / only the prior release has.
    dirty: Tuple[str, ...]
    added: Tuple[str, ...]
    deleted: Tuple[str, ...]
    #: Why each dirty function is dirty: ``"cfg"`` (IR content changed)
    #: or, with an unchanged CFG, ``"profile"`` (profile slice changed).
    reasons: Dict[str, str]
    #: Functions entering or leaving the hot set, added and deleted
    #: ones included (sorted).
    hot_flips: Tuple[str, ...]


def diff_functions(prior: Mapping[str, FunctionState],
                   current: Mapping[str, FunctionState]) -> FunctionDiff:
    """The one per-function diff of two releases.  Any digest change
    counts: the solve cache replays only bit-identical problems."""
    reasons: Dict[str, str] = {}
    for name, now in current.items():
        before = prior.get(name)
        if before is None:
            continue
        if now.cfg_digest != before.cfg_digest:
            reasons[name] = "cfg"
        elif now.profile_digest != before.profile_digest:
            reasons[name] = "profile"
    flips = ({n for n, fs in prior.items() if fs.hot}
             ^ {n for n, fs in current.items() if fs.hot})
    return FunctionDiff(
        dirty=tuple(sorted(reasons)),
        added=tuple(sorted(current.keys() - prior.keys())),
        deleted=tuple(sorted(prior.keys() - current.keys())),
        reasons=reasons,
        hot_flips=tuple(sorted(flips)),
    )


@dataclass(frozen=True)
class IncrState:
    """Everything the next release needs to diff itself against."""

    program: str
    config_signature: str
    #: ``PipelineResult.digest()`` of the captured run -- what an
    #: incremental result is compared against for bit-identity.
    result_digest: str
    functions: Mapping[str, FunctionState] = field(default_factory=dict)
    schema_version: int = INCR_STATE_VERSION

    @classmethod
    def capture(cls, result) -> "IncrState":
        """Snapshot a completed :class:`~repro.core.pipeline.PipelineResult`."""
        return cls(
            program=result.program.name,
            config_signature=config_signature(result.config),
            result_digest=result.digest(),
            functions=result.functions,
        )

    def check(self, program_name: str, config) -> None:
        """Raise :class:`IncrStateError` unless this state is usable.

        Usable means: same schema, same program, and a configuration
        whose artifact-relevant fields match -- state captured under a
        different seed or profile length describes different artifacts
        and must not be diffed against.
        """
        if self.schema_version != INCR_STATE_VERSION:
            raise IncrStateError(
                f"state schema v{self.schema_version} != v{INCR_STATE_VERSION}"
            )
        if self.program != program_name:
            raise IncrStateError(
                f"state is for program {self.program!r}, not {program_name!r}"
            )
        sig = config_signature(config)
        if self.config_signature != sig:
            raise IncrStateError(
                "state was captured under a different artifact configuration "
                f"({self.config_signature[:12]} != {sig[:12]})"
            )

    # -- persistence --------------------------------------------------

    def to_json(self) -> Dict:
        return plain(self)

    @classmethod
    def from_json(cls, data: Mapping) -> "IncrState":
        # A snapshot without a version reads as v0, which check() rejects.
        return record(cls, {"schema_version": 0, **data})

    def save(self, path: "str | os.PathLike") -> Path:
        """Write the snapshot as JSON; ``path`` may be a state directory."""
        target = Path(path)
        if target.is_dir() or not target.suffix:
            target = state_path(target)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(json.dumps(self.to_json(), indent=2, sort_keys=True))
        os.replace(tmp, target)
        return target

    @classmethod
    def load(cls, path: "str | os.PathLike") -> "IncrState":
        """Read a snapshot; ``path`` may be a state directory.

        A file that is not JSON, or not shaped like a snapshot, is an
        :class:`IncrStateError` naming it.
        """
        target = Path(path)
        if target.is_dir():
            target = state_path(target)
        try:
            return cls.from_json(json.loads(target.read_text()))
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            raise IncrStateError(
                f"{target}: not a state snapshot ({exc})") from exc
