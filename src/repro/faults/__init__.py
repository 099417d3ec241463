"""Deterministic fault injection for the build/profile pipeline.

Propeller's scalability argument (§3, §5) assumes a warehouse-scale
build service where individual actions fail or hang as a matter of
course, and where profile collection is lossy by nature.  This package
is the simulator's model of that hostility -- and the machinery that
proves the reproduction's robustness claims:

* :class:`FaultPlan` -- a seeded schedule of per-action failures and
  timeouts, keyed by action digest so plans are replayable and
  deterministic: a seed, a failure rate, a timeout rate and the action
  kinds it targets.  It has one text form, the compact spec
  (``"fail=0.02,timeout=0.01,seed=7,only=codegen"``) that the CLI's
  ``--fault-plan`` takes.  :meth:`FaultPlan.charge` is the
  simulated-time ledger of one action (an :class:`AttemptLedger`)
  under the one retry policy, stated in :mod:`repro.faults.plan`, and
  counts the ``faults.*`` / ``retry.*`` counters.
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

from repro.faults.plan import FAULT_KINDS, AttemptLedger, FaultPlan, RetriesExhausted

__all__ = [
    "FAULT_KINDS",
    "AttemptLedger",
    "FaultPlan",
    "RetriesExhausted",
]
