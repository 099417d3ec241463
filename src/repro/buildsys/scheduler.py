"""Simulated-clock makespan model for one build phase.

A phase is a batch of independent actions (e.g. every backend compile of
a build) thrown at a pool of ``workers`` identical remote machines.  At
warehouse scale the pool is work-conserving -- a worker never idles
while actions are queued -- so the phase's wall-clock time converges on
the fluid makespan bound:

    wall = max(longest single action, total cpu seconds / workers)

The first term is the critical path (one action cannot be split across
workers); the second is the throughput limit.  This is the quantity the
paper's build-time results report (Table 5, Fig. 9): with thousands of
workers the wall time of a full build collapses to its longest compile,
and a warm Phase-4 relink collapses further because almost every action
replays from the cache at :data:`~repro.buildsys.build.CACHE_HIT_SECONDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.buildsys.build import ActionResult
from repro.obs import Counters


@dataclass(frozen=True)
class PhaseReport:
    """Aggregate cost of one scheduled phase."""

    #: Simulated wall-clock seconds (the makespan).
    wall_seconds: float
    #: Total simulated CPU seconds across all actions (cache hits
    #: contribute their replay cost).
    cpu_seconds: float
    #: How many actions replayed from the action cache.
    cache_hits: int
    #: Total actions in the phase.
    actions: int
    #: Largest single-action modelled RAM footprint.
    peak_action_memory: int
    #: Pool size the makespan was computed against.
    workers: int = 1


def schedule_phase(
    actions: Iterable[ActionResult],
    workers: int,
    counters: Optional[Counters] = None,
) -> PhaseReport:
    """Compute the :class:`PhaseReport` for one batch of actions.

    ``counters`` (when given) records scheduling metrics: phases seen,
    the deepest queue any phase presented to the pool, and the pool
    size -- the Table 5 / Fig. 9 quantities behind the makespan.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    batch: List[ActionResult] = list(actions)
    cpu_seconds = sum(a.cost_seconds for a in batch)
    longest = max((a.cost_seconds for a in batch), default=0.0)
    wall_seconds = max(longest, cpu_seconds / workers)
    if counters is not None:
        counters.incr("scheduler.phases")
        counters.max_gauge("scheduler.max_queue_depth", len(batch))
        counters.gauge("scheduler.workers", workers)
    return PhaseReport(
        wall_seconds=wall_seconds,
        cpu_seconds=cpu_seconds,
        cache_hits=sum(1 for a in batch if a.cache_hit),
        actions=len(batch),
        peak_action_memory=max((a.peak_memory for a in batch), default=0),
        workers=workers,
    )
