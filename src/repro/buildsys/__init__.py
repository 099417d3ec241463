"""Distributed build simulator (§2.1, §3.5).

Content-addressed action cache, per-action resource limits and a
simulated-clock makespan scheduler -- the substrate the four-phase
pipeline executes on, and the mechanism behind the paper's cheap
Phase-4 relinks (cold objects replay their cached Phase-2 action).

Public surface::

    bs = BuildSystem(workers=1000, ram_limit=12 << 30)
    result = bs.run_action("codegen", [digest, tag], compute)   # ActionResult
    report = bs.schedule([result, ...])                         # PhaseReport
"""

from repro.buildsys.build import (
    CACHE_HIT_SECONDS,
    ActionCache,
    ActionResult,
    BuildSystem,
    CacheStats,
    ResourceLimitExceeded,
    action_key,
    digest_parts,
)
from repro.buildsys.scheduler import PhaseReport, schedule_phase

__all__ = [
    "CACHE_HIT_SECONDS",
    "ActionCache",
    "ActionResult",
    "BuildSystem",
    "CacheStats",
    "PhaseReport",
    "ResourceLimitExceeded",
    "action_key",
    "digest_parts",
    "schedule_phase",
]
