"""The Propeller-vs-BOLT world every paper table and figure draws from.

Every experiment under ``tests/paper/`` (and ``tests/test_integration.py``)
draws from the same per-workload "world": the generated program, the
four pipeline phases, the BOLT metadata binary and the BOLT-optimized
binary (or its failure), plus hardware measurements.  Worlds are built
lazily and cached for the session, so the paper suite builds each
workload exactly once.

Workloads are generated at each preset's ``bench_scale`` (roughly 1/100
of paper size); the hardware model's structures are scaled to match
(see ``SkylakeParams.scaled``).  Absolute numbers therefore differ from
the paper by construction -- the tests reproduce the *shape*: who
wins, by roughly what factor, and where the crossovers fall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.bolt import (
    BoltError,
    BoltResult,
    BoltStartupCrash,
    Perf2BoltResult,
    check_startup,
    perf2bolt,
    run_bolt,
)
from repro.core.pipeline import (
    BuildOutcome,
    PipelineConfig,
    PipelineResult,
    PropellerPipeline,
)
from repro.hwmodel import FrontendCounters, simulate_frontend
from repro.hwmodel.frontend import DEFAULT_PARAMS
from repro.profiles import Trace, generate_trace
from repro.synth import PRESETS, generate_workload

#: Hardware structures scaled to the ~1/100 workload scale.
HW_PARAMS = DEFAULT_PARAMS.scaled(16)

#: Trace budget (in executed blocks) for performance measurement.
PERF_BLOCKS = 400_000

SEED = 3


def _config(preset) -> PipelineConfig:
    # Workstation builds (clang/MySQL/SPEC) use the paper's 72-core box;
    # warehouse builds get a pool scaled like everything else (the real
    # pool serves millions of actions; 128 concurrent slots is the
    # 1/100-scale equivalent of its per-build share).
    #
    # cache_dir=None defers to $REPRO_CACHE_DIR, which the test
    # session shields (tests/conftest.py), so every world builds cold.
    workstation = preset.kind != "wsc"
    return PipelineConfig(
        seed=SEED,
        lbr_branches=600_000,
        lbr_period=31,
        pgo_steps=200_000,
        pgo_drift=0.25,
        workers=72 if workstation else 128,
        enforce_ram=not workstation,
        hugepages=preset.hugepages,
        cache_dir=None,
    )


@dataclass
class World:
    """Everything built for one workload."""

    preset: object
    pipeline: PropellerPipeline
    result: PipelineResult
    bolt_metadata: BuildOutcome
    perf2bolt_result: Perf2BoltResult
    bolt: Optional[BoltResult]
    bolt_error: Optional[Exception]
    #: Trace budget (executed blocks) behind :meth:`trace`/:meth:`counters`.
    perf_blocks: int
    _counters: Dict[str, FrontendCounters] = field(default_factory=dict)
    _traces: Dict[str, Trace] = field(default_factory=dict)

    def trace(self, which: str) -> Trace:
        trace = self._traces.get(which)
        if trace is None:
            exe = self.executable(which)
            trace = generate_trace(exe, max_blocks=self.perf_blocks, seed=77)
            self._traces[which] = trace
        return trace

    def executable(self, which: str):
        if which == "base":
            return self.result.baseline.executable
        if which == "prop":
            return self.result.optimized.executable
        if which == "bolt":
            if self.bolt is None:
                raise RuntimeError(f"BOLT failed on {self.preset.name}: {self.bolt_error}")
            check_startup(self.bolt.executable)
            return self.bolt.executable
        raise KeyError(which)

    def counters(self, which: str) -> FrontendCounters:
        counters = self._counters.get(which)
        if counters is None:
            counters = simulate_frontend(self.executable(which), self.trace(which), HW_PARAMS)
            self._counters[which] = counters
        return counters

    def improvement(self, which: str) -> float:
        """Fractional cycle improvement of `which` over the baseline."""
        return self.counters("base").cycles / self.counters(which).cycles - 1.0

    @property
    def bolt_outcome(self) -> str:
        """'ok', 'rewrite-crash' or 'startup-crash' (Table 3's Crash rows)."""
        if self.bolt is None:
            return "rewrite-crash"
        try:
            check_startup(self.bolt.executable)
        except BoltStartupCrash:
            return "startup-crash"
        return "ok"


def make_world(preset, scale: float, config: PipelineConfig,
               perf_blocks: int = PERF_BLOCKS) -> World:
    """Run the pipeline and BOLT on one generated workload."""
    program = generate_workload(preset, scale=scale, seed=SEED)
    pipeline = PropellerPipeline(program, config)
    result = pipeline.run()
    bolt_metadata = pipeline.build_bolt_input(result.ir_profile)
    p2b = perf2bolt(bolt_metadata.executable, result.perf)
    bolt = None
    bolt_error: Optional[Exception] = None
    try:
        bolt = run_bolt(bolt_metadata.executable, result.perf, precomputed=p2b)
    except BoltError as exc:
        bolt_error = exc
    return World(
        preset=preset,
        pipeline=pipeline,
        result=result,
        bolt_metadata=bolt_metadata,
        perf2bolt_result=p2b,
        bolt=bolt,
        bolt_error=bolt_error,
        perf_blocks=perf_blocks,
    )


_WORLDS: Dict[str, World] = {}


def build_world(name: str) -> World:
    """The session-cached world of preset ``name`` at its bench scale."""
    world = _WORLDS.get(name)
    if world is None:
        preset = PRESETS[name]
        world = _WORLDS[name] = make_world(
            preset, preset.bench_scale, _config(preset))
    return world


#: Workload groups used by the paper tests.
WSC_NAMES = ["spanner", "search", "superroot", "bigtable"]
OPEN_SOURCE_NAMES = ["clang", "mysql"]
SPEC_NAMES = ["505.mcf", "531.deepsjeng", "557.xz", "541.leela"]
BIG_NAMES = OPEN_SOURCE_NAMES + WSC_NAMES
