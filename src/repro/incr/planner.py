"""Dirty-set planning: which functions changed since the snapshot.

The plan is *advisory*: it names the functions whose CFG digest or
profile slice changed (plus additions and deletions) so operators can
see what a release actually invalidated, and so tests can compare the
predicted dirty set against the solve cache's observed misses.  It is
never a correctness input -- the :class:`~repro.runtime.FunctionSolveCache`
is keyed by exact solver content and replays only bit-identical
problems, whatever the plan says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.ir import Program
from repro.ir.digest import function_digest

from repro.incr.state import IncrState


@dataclass(frozen=True)
class DirtyPlan:
    """The semantic delta between a snapshot and the current release."""

    #: Functions present in both releases whose content changed.
    dirty: Tuple[str, ...] = ()
    #: Functions the current release introduces.
    added: Tuple[str, ...] = ()
    #: Snapshot functions the current release no longer defines.
    deleted: Tuple[str, ...] = ()
    #: Why each dirty function is dirty: ``"cfg"`` (IR content changed)
    #: or ``"profile"`` (profile slice changed).
    reasons: Dict[str, str] = field(default_factory=dict)


def plan_dirty(state: IncrState, program: Program, profile) -> DirtyPlan:
    """Compare ``program``/``profile`` against ``state``.

    A function is dirty when its CFG content digest changed (reason
    ``"cfg"``), or -- with an unchanged CFG -- when its profile-slice
    digest changed at all (reason ``"profile"``): the solve cache
    replays only bit-identical problems, so any profile-content change
    is a fresh solve and the plan says so.
    """
    dirty = []
    added = []
    reasons: Dict[str, str] = {}
    current = set()
    for function in program.all_functions():
        name = function.name
        current.add(name)
        prior = state.functions.get(name)
        if prior is None:
            added.append(name)
            continue
        if function_digest(function) != prior.cfg_digest:
            dirty.append(name)
            reasons[name] = "cfg"
            continue
        if profile.function_digest(name) != prior.profile_digest:
            dirty.append(name)
            reasons[name] = "profile"
    deleted = [name for name in state.functions if name not in current]
    return DirtyPlan(
        dirty=tuple(sorted(dirty)),
        added=tuple(sorted(added)),
        deleted=tuple(sorted(deleted)),
        reasons=reasons,
    )
