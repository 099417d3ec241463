"""Profile subsystem: collection, conversion, staleness and recovery.

The single public entry point for every profile object in the
toolchain (§2.2, §3.3):

* **Collection** -- :func:`walk` executes a program once, free of any
  layout, and :func:`project` turns that walk into the :class:`Trace`
  of one linked binary (:func:`generate_trace` does both); :func:`sample_lbr` captures Intel-LBR-shaped
  samples from it; :func:`collect_ir_profile` runs the instrumented
  IR walker that feeds the PGO baseline.
* **Conversion** -- :func:`convert_to_ir_profile` lifts LBR samples to
  IR counts through the BB address map (AutoFDO).
* **Staleness & recovery** -- :meth:`IRProfile.apply_drift` models
  release skew (§2.4); :func:`match_profile` recovers stale counts via
  tiered content-hash matching (:mod:`repro.profiles.hashing`) plus
  flow-conservation inference (:mod:`repro.profiles.matching`).
"""

from repro.profiles.trace import (
    BRANCH_KIND_CALL,
    BRANCH_KIND_COND,
    BRANCH_KIND_IJMP,
    BRANCH_KIND_JMP,
    BRANCH_KIND_RET,
    ProjectionError,
    Trace,
    Walk,
    generate_trace,
    project,
    walk,
)
from repro.profiles.lbr import PerfData, collect_lbr_profile, sample_lbr
from repro.profiles.pgo import IRProfile, collect_ir_profile
from repro.profiles.autofdo import convert_to_ir_profile
from repro.profiles.hashing import BlockAnchor, function_anchors
from repro.profiles.matching import MATCH_MODES, MatchStats, match_profile

__all__ = [
    "BRANCH_KIND_CALL",
    "BRANCH_KIND_COND",
    "BRANCH_KIND_IJMP",
    "BRANCH_KIND_JMP",
    "BRANCH_KIND_RET",
    "ProjectionError",
    "Trace",
    "Walk",
    "generate_trace",
    "project",
    "walk",
    "PerfData",
    "collect_lbr_profile",
    "sample_lbr",
    "IRProfile",
    "collect_ir_profile",
    "convert_to_ir_profile",
    "BlockAnchor",
    "function_anchors",
    "MATCH_MODES",
    "MatchStats",
    "match_profile",
]
