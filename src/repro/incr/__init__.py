"""Incremental re-optimization across releases (the daily-build loop).

Propeller (§3.6) is a *relinking* optimizer inside a release pipeline
that ships daily: between two releases most functions are
byte-identical and most profile slices barely move, so a from-scratch
re-run wastes almost all of its compute.  This package closes that loop:

* :class:`IncrState` -- the tiny per-release snapshot (per-function CFG
  and profile digests, hot-set membership, config signature) one run
  leaves for the next, persisted under ``--state-dir``.
* :func:`diff_functions` -- the semantic diff of two releases'
  evidence (``PipelineResult.functions``, one :class:`FunctionState`
  per function, built once per release from the digests that keyed its
  compiles): which functions changed, and why.
* :func:`reoptimize` -- re-run the pipeline for an edited program,
  replaying per-function Ext-TSP solves from the
  :class:`~repro.runtime.FunctionSolveCache` and every unchanged build
  action from the persistent action store, then diff the finished run
  against the snapshot.

The invariant everything here is built around: an incremental result is
**bit-identical** to a full rebuild of the edited program
(``PipelineResult.digest()`` equal), because reuse is keyed by exact
content -- never by the diff, timestamps, or anything advisory.
"""

from repro.core.pipeline import (
    IncrementalSummary, PipelineConfig, PipelineResult, PropellerPipeline)
from repro.incr.state import (
    INCR_STATE_VERSION, FunctionState, IncrState, IncrStateError,
    config_signature, diff_functions, state_path)

__all__ = [
    "FunctionState",
    "INCR_STATE_VERSION",
    "IncrState",
    "IncrStateError",
    "IncrementalSummary",
    "config_signature",
    "diff_functions",
    "reoptimize",
    "state_path",
]


def reoptimize(
    program,
    state,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """One-call incremental Propeller: re-optimize ``program`` against
    a prior release's ``state`` (an :class:`IncrState` or a path to
    one).  Everything follows
    :meth:`repro.core.pipeline.PropellerPipeline.reoptimize`; solves
    replay only when ``config.state_dir`` names the prior release's
    state directory.
    """
    return PropellerPipeline(program, config).reoptimize(state)
