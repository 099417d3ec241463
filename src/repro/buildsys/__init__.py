"""Distributed build simulator (§2.1, §3.5).

One :class:`BuildSystem` holds the content-addressed action cache (in
memory, optionally over a persistent store), the per-action resource
limits and the fault plan; a simulated-clock makespan scheduler prices
each phase.  It is the substrate the four-phase pipeline executes on,
and the mechanism behind the paper's cheap Phase-4 relinks (cold
objects replay their cached Phase-2 action).  Every tally lands on the
build system's ``counters``.

Public surface::

    bs = BuildSystem(workers=1000, ram_limit=12 << 30)
    result = bs.run_action("codegen", [digest, tag], compute)   # ActionResult
    report = bs.schedule([result, ...])                         # PhaseReport
"""

from repro.buildsys.build import (
    CACHE_HIT_SECONDS,
    ActionResult,
    BuildSystem,
    ResourceLimitExceeded,
    action_key,
    digest_parts,
)
from repro.buildsys.scheduler import PhaseReport, schedule_phase

__all__ = [
    "CACHE_HIT_SECONDS",
    "ActionResult",
    "BuildSystem",
    "PhaseReport",
    "ResourceLimitExceeded",
    "action_key",
    "digest_parts",
    "schedule_phase",
]
