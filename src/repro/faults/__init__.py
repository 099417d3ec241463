"""Deterministic fault injection for the build/profile pipeline.

Propeller's scalability argument (§3, §5) assumes a warehouse-scale
build service where individual actions fail, hang, or return corrupted
outputs as a matter of course, and where profile collection is lossy by
nature.  This package is the simulator's model of that hostility -- and
the machinery that proves the reproduction's robustness claims:

* :class:`FaultPlan` -- a seeded schedule of per-action
  failure/timeout/corruption/slowdown events, keyed by action digest so
  plans are replayable and deterministic.  Parse compact specs
  (``"fail=0.02,timeout=0.01,seed=7"``), JSON files, or construct
  directly; the CLI's ``--fault-plan`` accepts all three.
* :class:`FaultClock` -- the simulated-time ledger: bounded retries
  with exponential backoff + deterministic jitter, per-action timeouts,
  and the ``faults.*`` / ``retry.*`` counters.
* :class:`RetriesExhausted` -- what the build system raises when an
  action's whole retry budget faults; the pipeline degrades gracefully
  for profile collection and the relink (``PipelineReport.degraded``).

The invariant everything here protects: a fault plan changes *when*
work finishes, never *what* is built.  ``PipelineResult.digest()`` is
bit-identical with any non-exhausting plan on or off -- asserted by
tier-1 (``tests/test_faults.py``) and the ``-m chaos`` test tier, and
tracked by the ``faults:*`` bench rows.

Stdlib-only; imports nothing from the rest of ``repro``.
"""

from repro.faults.clock import AttemptLedger, FaultClock
from repro.faults.plan import FAULT_KINDS, FaultPlan, RetriesExhausted

__all__ = [
    "FAULT_KINDS",
    "AttemptLedger",
    "FaultClock",
    "FaultPlan",
    "RetriesExhausted",
]
