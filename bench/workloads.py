"""The release benchmark's four workloads: what each one is and why.

Standard library only: ``run.py`` reads names and reasons from here
without importing the program under test; ``worker.py`` reads the sizes.
``BENCHMARK.json`` repeats ``name``/``why`` (``test_bench.py`` checks
that the two agree).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

# The program's *shape* is pinned and ``--seed`` drives the profiled runs
# (PGO training walk, profile drift, LBR sampling) and the edit script.
# Measured with exact cProfile call counts over seeds 1..10: drawing the
# program from the seed too spreads one release's work by 8-11 %
# (quartile distance / median) on these sizes, pinning it by 1.3-1.9 %.
# The benchmark contract needs every spread below a third of its bound.
SHAPE_SEED = 1
#: Blocks replayed by ``frontend_counters()``: the program's own default,
#: the ROADMAP's definition of the end-to-end second.
FRONTEND_BLOCKS = 200_000


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``cold`` (no store), ``warm`` (replay from a populated action
    #: store) or ``reopt`` (``reoptimize()`` of a one-function edit).
    kind: str
    preset: str
    scale: float
    smoke_scale: float
    #: Profile run lengths (taken branches / IR steps).
    lbr_branches: int
    pgo_steps: int

    def sized(self, smoke: bool):
        """``(scale, lbr_branches, pgo_steps, frontend_blocks)``.

        A smoke run shortens the profiled runs and the frontend replay
        too: their cost does not shrink with the program.
        """
        if smoke:
            return (self.smoke_scale, self.lbr_branches // 4,
                    self.pgo_steps // 4, FRONTEND_BLOCKS // 4)
        return self.scale, self.lbr_branches, self.pgo_steps, FRONTEND_BLOCKS


# Release-shaped workloads run profiles a quarter of the default length:
# at these program sizes the default 400k/300k runs would make every
# workload a profile benchmark (measured: 45 % of mysql @ 0.003) and
# leave link + codegen, the layers ROADMAP items 2 and 3 change, under
# 15 %.  ``mcf-profile`` keeps the defaults for exactly that reason.
_RELEASE_LBR = 100_000
_RELEASE_PGO = 60_000

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="mysql-cold",
        why="mysql @ 0.006, no cache: link + codegen + WPA all execute; "
            "the workload a linker, codegen or Ext-TSP change must move",
        kind="cold", preset="mysql", scale=0.006, smoke_scale=0.003,
        lbr_branches=_RELEASE_LBR, pgo_steps=_RELEASE_PGO,
    ),
    Workload(
        name="mcf-profile",
        why="505.mcf @ 1.0, default-length profile runs dominate, link + "
            "codegen under 10 %: predicts no change for linker/codegen work",
        kind="cold", preset="505.mcf", scale=1.0, smoke_scale=0.2,
        lbr_branches=400_000, pgo_steps=300_000,
    ),
    Workload(
        name="mysql-warm",
        why="same program as mysql-cold replayed from a populated action "
            "store: store reads + frontend only; link, codegen, WPA bypassed",
        kind="warm", preset="mysql", scale=0.006, smoke_scale=0.003,
        lbr_branches=_RELEASE_LBR, pgo_steps=_RELEASE_PGO,
    ),
    Workload(
        name="clang-reopt",
        why="clang @ 0.002, reoptimize() of a one-function edit against the "
            "prior release's state: the daily-release loop; relinks, replays "
            "codegen and Ext-TSP",
        kind="reopt", preset="clang", scale=0.002, smoke_scale=0.002,
        lbr_branches=_RELEASE_LBR, pgo_steps=_RELEASE_PGO,
    ),
)}

#: Reps of the timed release per run; the loop also runs until
#: ``--seconds`` have passed.  Five is the floor below which a median is
#: one noisy rep away from a quartile.
MIN_REPS = 5
SMOKE_REPS = 2
#: Prepare children per run; ``setup_s`` is the median of their times.
SETUPS = 3
