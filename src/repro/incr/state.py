"""Persisted per-release state for incremental re-optimization.

An :class:`IncrState` is the snapshot one release leaves behind for the
next: per-function content digests (CFG and profile slice), the hot-set
membership WPA computed, the configuration signature the artifacts
depend on, and the full-result digest the next release can compare
itself against.  It is deliberately tiny -- digests and booleans, no
IR, no profiles -- because the heavy reuse lives in the content-keyed
stores beside it (:class:`~repro.runtime.PersistentActionStore` for
build actions, :class:`~repro.runtime.FunctionSolveCache` for layout
solves).  The state answers "*what changed?*"; the stores answer
"*what can be replayed?*" -- and only the stores are trusted for
correctness.

Digest-keyed, not timestamp-keyed, on purpose: a timestamp says a file
was *touched*, a content digest says a function *changed*.  Build
systems that invalidate on timestamps rebuild the world after a
``git checkout``; digests make the dirty set exactly the semantic
delta, which is what lets a daily release re-solve only what its CL
actually edited (see DESIGN.md).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Mapping

from repro.ir.digest import function_digest
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
#: artifact *content*.  Execution knobs (``workers``,
#: ``cache_dir``, ``state_dir``, ``trace``, ``fault_plan``, the
#: cost-model rates) are deliberately excluded: they change how fast a
#: result is produced, never what is produced (the contract
#: ``PipelineResult.digest()`` documents), so state captured in one
#: execution environment stays valid in any other.
_CONTENT_FIELDS = (
    "seed",
    "pgo_steps",
    "pgo_drift",
    "inline_hot",
    "stale_matching",
    "lbr_branches",
    "lbr_period",
    "hugepages",
)


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
    #: terminators) -- :func:`repro.ir.digest.function_digest`.
    cfg_digest: str
    #: Digest of the function's slice of the instrumented profile --
    #: :meth:`repro.profiles.IRProfile.function_digest`.
    profile_digest: str
    #: Whether WPA's hardware-profile hot set contained the function.
    hot: bool


@dataclass(frozen=True)
class IncrState:
    """Everything the next release needs to plan its dirty set."""

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
        profile = result.ir_profile
        hot = set(result.wpa_result.hot_functions)
        functions: Dict[str, FunctionState] = {}
        for function in result.program.all_functions():
            name = function.name
            functions[name] = FunctionState(
                cfg_digest=function_digest(function),
                profile_digest=profile.function_digest(name),
                hot=name in hot,
            )
        return cls(
            program=result.program.name,
            config_signature=config_signature(result.config),
            result_digest=result.digest(),
            functions=functions,
        )

    def check(self, program_name: str, config) -> None:
        """Raise :class:`IncrStateError` unless this state is usable.

        Usable means: same schema, same program, and a configuration
        whose artifact-relevant fields match -- state captured under a
        different seed or profile length describes different artifacts
        and must not seed a dirty plan.
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
