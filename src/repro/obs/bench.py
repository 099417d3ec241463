"""Continuous benchmark harness: declarative scenarios, typed results.

The paper's whole argument is quantitative -- Table 3 speedups, Figure 8
frontend counters, Figure 9 optimization time -- and layout gains are
small percentages easily lost to noise (BOLT's CGO'19 evaluation makes
the same point).  This module is the machinery that keeps those numbers
*tracked* instead of printed: a suite of scenarios produces a
schema-versioned :class:`BenchReport` that
:mod:`repro.obs.baseline` can diff against a committed baseline and
gate CI on.

Two kinds of metric coexist, with different truth standards:

* **Deterministic** metrics -- simulated wall-clock, build-system
  counters, hardware-model counters, artifact digests -- are exact
  functions of (code, seed).  They carry ``gate="exact"`` and any
  drift is a reviewable event, like a golden-file diff.
* **Timing** metrics -- real seconds this machine burned -- are noisy
  and machine-dependent.  Each is measured as median-of-N with a
  MAD-derived relative noise estimate; absolute timings are
  informational (``gate="info"``), while machine-portable *ratios*
  (warm-cache speedup) carry ``gate="noise"`` and are compared within
  noise bands.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of ``repro`` at module scope; scenario bodies import the pipeline
lazily when they run.
"""

from __future__ import annotations

import hashlib
import os
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_REPETITIONS",
    "BenchContext",
    "BenchReport",
    "Metric",
    "ScenarioResult",
    "Scenario",
    "SuiteSpec",
    "SUITES",
    "PERTURBATIONS",
    "mad",
    "median",
    "summarize",
    "next_bench_path",
    "run_suite",
    "suite_scenarios",
]

#: Bump on any backwards-incompatible change to the BENCH_*.json layout.
BENCH_SCHEMA_VERSION = 1

#: Median-of-N repetition policy shared with ``benchmarks/conftest.py``.
DEFAULT_REPETITIONS = 3

MetricValue = Union[int, float, str]

#: Supported gate policies (see module docstring).
GATES = ("exact", "noise", "info")
#: Which direction is *better*; "none" marks pure fingerprints.
DIRECTIONS = ("lower", "higher", "none")

#: Named fault injections, used to prove the gates actually fire
#: (``repro-bench --perturb shuffle-layout`` and tests/test_bench.py).
PERTURBATIONS = ("shuffle-layout",)


# ----------------------------------------------------------------------
# Noise statistics

def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mad(values: Sequence[float]) -> float:
    """Median absolute deviation -- a robust spread estimate.

    Unlike the standard deviation, one garbage-collection pause or
    scheduler hiccup in N repetitions barely moves it, which is exactly
    the robustness a perf harness needs.
    """
    m = median(values)
    return median([abs(v - m) for v in values])


def summarize(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, relative MAD)`` of repeated measurements."""
    m = median(values)
    return m, (mad(values) / m if m else 0.0)


# ----------------------------------------------------------------------
# Result model

@dataclass(frozen=True)
class Metric:
    """One measured quantity of one scenario."""

    name: str
    value: MetricValue
    unit: str = ""
    #: "exact" (bit-identical or fail), "noise" (compare within a noise
    #: band) or "info" (never gates).
    gate: str = "exact"
    #: Which direction is better: "lower", "higher" or "none".
    direction: str = "none"
    #: Relative noise estimate (MAD / median) for timing metrics.
    noise: float = 0.0
    #: Raw repetition values behind a timing median (empty otherwise).
    reps: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.gate not in GATES:
            raise ValueError(f"metric {self.name!r}: unknown gate {self.gate!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: unknown direction {self.direction!r}"
            )

    @property
    def deterministic(self) -> bool:
        return self.gate == "exact"

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "value": self.value,
            "unit": self.unit,
            "gate": self.gate,
            "direction": self.direction,
            "noise": self.noise,
            "reps": list(self.reps),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Metric":
        return cls(
            name=data["name"],
            value=data["value"],
            unit=data.get("unit", ""),
            gate=data.get("gate", "exact"),
            direction=data.get("direction", "none"),
            noise=data.get("noise", 0.0),
            reps=tuple(data.get("reps", ())),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """All metrics one scenario produced."""

    name: str
    title: str
    #: Which paper table/figure the scenario guards (see EXPERIMENTS.md).
    paper_ref: str
    metrics: Tuple[Metric, ...]

    def metric(self, name: str) -> Metric:
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise KeyError(f"scenario {self.name!r} has no metric {name!r}")

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "title": self.title,
            "paper_ref": self.paper_ref,
            "metrics": [m.to_json() for m in self.metrics],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ScenarioResult":
        return cls(
            name=data["name"],
            title=data["title"],
            paper_ref=data.get("paper_ref", ""),
            metrics=tuple(Metric.from_json(m) for m in data["metrics"]),
        )


@dataclass(frozen=True)
class BenchReport:
    """One harness run: every scenario's metrics, schema-versioned."""

    suite: str
    seed: int
    repetitions: int
    scenarios: Tuple[ScenarioResult, ...]
    #: Name of the injected fault, if any (a perturbed report must never
    #: be mistaken for a clean baseline).
    perturb: Optional[str] = None
    schema_version: int = BENCH_SCHEMA_VERSION

    def scenario(self, name: str) -> ScenarioResult:
        for scenario in self.scenarios:
            if scenario.name == name:
                return scenario
        raise KeyError(f"no scenario named {name!r}")

    def metric(self, scenario: str, name: str) -> Metric:
        return self.scenario(scenario).metric(name)

    def deterministic_fingerprint(self) -> str:
        """SHA-256 over every ``gate="exact"`` metric.

        Two runs of the same suite on the same code must produce equal
        fingerprints (enforced by tests/test_bench.py) -- timing noise
        lives outside it by construction.
        """
        h = hashlib.sha256()
        for scenario in self.scenarios:
            for metric in scenario.metrics:
                if metric.deterministic:
                    h.update(f"{scenario.name}|{metric.name}|{metric.value!r}\n"
                             .encode("utf-8"))
        return h.hexdigest()

    def to_json(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "seed": self.seed,
            "repetitions": self.repetitions,
            "perturb": self.perturb,
            "scenarios": [s.to_json() for s in self.scenarios],
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "BenchReport":
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"bench schema version {version!r} is not the supported "
                f"{BENCH_SCHEMA_VERSION}"
            )
        return cls(
            suite=data["suite"],
            seed=data["seed"],
            repetitions=data["repetitions"],
            perturb=data.get("perturb"),
            scenarios=tuple(ScenarioResult.from_json(s)
                            for s in data["scenarios"]),
        )


_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")


def next_bench_path(root: Union[str, Path] = ".") -> Path:
    """The next free ``BENCH_<n>.json`` under ``root`` (repo-root convention).

    Numbers are allocated monotonically past the highest existing file,
    so a directory of reports reads as a performance trajectory in
    commit order.
    """
    root = Path(root)
    taken = [int(m.group(1)) for p in root.glob("BENCH_*.json")
             if (m := _BENCH_NAME.match(p.name))]
    return root / f"BENCH_{max(taken, default=0) + 1}.json"


# ----------------------------------------------------------------------
# Scenario framework

@dataclass(frozen=True)
class BenchContext:
    """Everything a scenario body may depend on (and nothing else)."""

    suite: "SuiteSpec"
    seed: int
    repetitions: int
    jobs: Optional[int] = None
    perturb: Optional[str] = None

    def time_repeated(self, fn: Callable[[], Any]) -> Tuple[float, float, Tuple[float, ...]]:
        """Run ``fn`` ``repetitions`` times; ``(median_s, rel_noise, reps)``."""
        reps: List[float] = []
        for _ in range(self.repetitions):
            start = time.perf_counter()
            fn()
            reps.append(time.perf_counter() - start)
        med, noise = summarize(reps)
        return med, noise, tuple(reps)


@dataclass(frozen=True)
class Scenario:
    """A named, self-describing measurement procedure."""

    name: str
    title: str
    paper_ref: str
    run: Callable[[BenchContext], List[Metric]]

    def __call__(self, ctx: BenchContext) -> ScenarioResult:
        return ScenarioResult(
            name=self.name, title=self.title, paper_ref=self.paper_ref,
            metrics=tuple(self.run(ctx)),
        )


@dataclass(frozen=True)
class SuiteSpec:
    """The declarative description of one suite tier."""

    name: str
    #: (preset name, generation scale) pairs for quality scenarios.
    presets: Tuple[Tuple[str, float], ...]
    #: (preset name, generation scale) for wall-clock scenarios.
    timing_preset: Tuple[str, float]
    lbr_branches: int
    pgo_steps: int
    #: Trace budget (executed blocks) for frontend measurement.
    trace_blocks: int
    #: (preset name, generation scale) for the stale-profile drift
    #: sweep; needs a warm tier below WPA's hot set (``search`` has
    #: one, the small SPEC presets do not).
    drift_preset: Tuple[str, float] = ("search", 0.006)
    #: Staleness levels swept by the drift scenario.
    drift_levels: Tuple[float, ...] = (0.3, 0.5)


SUITES: Dict[str, SuiteSpec] = {
    # Small enough to run twice in CI; still has hot/cold modules and a
    # non-trivial layout win to protect.
    "smoke": SuiteSpec(
        name="smoke",
        presets=(("531.deepsjeng", 0.3), ("505.mcf", 1.0)),
        timing_preset=("531.deepsjeng", 0.3),
        lbr_branches=40_000,
        pgo_steps=20_000,
        trace_blocks=60_000,
    ),
    # The benchmark-suite scale (minutes, not seconds).
    "full": SuiteSpec(
        name="full",
        presets=(("clang", 0.01), ("mysql", 0.02),
                 ("505.mcf", 1.0), ("531.deepsjeng", 1.0)),
        timing_preset=("531.deepsjeng", 1.0),
        lbr_branches=600_000,
        pgo_steps=200_000,
        trace_blocks=400_000,
    ),
}


def _pipeline_config(ctx: BenchContext, **overrides):
    from repro.core.pipeline import PipelineConfig

    # jobs only changes how fast the simulation itself runs (and the
    # quarantined pool.* counters, which no scenario exports), so the
    # quality scenarios may honor ctx.jobs without losing determinism.
    base = dict(
        seed=ctx.seed,
        lbr_branches=ctx.suite.lbr_branches,
        pgo_steps=ctx.suite.pgo_steps,
        workers=72,
        enforce_ram=False,
        jobs=ctx.jobs or 1,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _generate(ctx: BenchContext, preset_name: str, scale: float):
    from repro.synth import PRESETS, generate_workload

    return generate_workload(PRESETS[preset_name], scale=scale, seed=ctx.seed)


def _shuffled_symbol_order(wpa_result, seed: int):
    """The injected layout fault: a shuffled global symbol order."""
    import random

    order = list(wpa_result.symbol_order)
    random.Random(seed).shuffle(order)
    return replace(wpa_result, symbol_order=order)


def _pipeline_scenario(preset_name: str, scale: float) -> Scenario:
    """Quality scenario: one full pipeline run, everything deterministic.

    Guards simulated build times (Fig 9 / Table 5), build-system
    counters, profile-quality gauges, the Table 4 frontend counters of
    both binaries (Fig 8) and the Propeller-vs-baseline improvement
    (Table 3), plus the optimized binary's content digest.
    """

    def run(ctx: BenchContext) -> List[Metric]:
        from repro.core.pipeline import PropellerPipeline
        from repro.hwmodel import TABLE4_LABELS, frontend_scorecard

        program = _generate(ctx, preset_name, scale)
        pipe = PropellerPipeline(program, _pipeline_config(ctx))
        result = pipe.run()

        optimized = result.optimized
        if ctx.perturb == "shuffle-layout":
            optimized = pipe.relink(
                result.ir_profile,
                _shuffled_symbol_order(result.wpa_result, ctx.seed),
            )

        report = result.report()
        metrics: List[Metric] = []
        for build in report.builds:
            metrics.append(Metric(
                f"sim_wall_seconds.{build.name}", build.wall_seconds, "s",
                gate="exact", direction="lower",
            ))
        for name in ("cache.hits", "cache.misses", "ram.rejections"):
            metrics.append(Metric(
                f"counter.{name}", report.counters.get(name, 0),
                gate="exact", direction="none",
            ))
        for name, direction in (("pgo.match_rate", "higher"),
                                ("lbr.record_coverage", "higher"),
                                ("wpa.hot_functions", "none")):
            metrics.append(Metric(
                f"gauge.{name}", report.gauges.get(name, 0),
                gate="exact", direction=direction,
            ))

        counters = frontend_scorecard(
            {"baseline": result.baseline.executable,
             "optimized": optimized.executable}, ctx.suite.trace_blocks)
        for which in counters:
            # Baseline counters are a fingerprint of the input side;
            # optimized counters are the quality under protection, so
            # they carry a direction (lower is better).
            direction = "lower" if which == "optimized" else "none"
            for label in TABLE4_LABELS + ("cycles",):
                metrics.append(Metric(
                    f"{which}.{label}", counters[which].counter(label)
                    if label != "cycles" else counters[which].cycles,
                    gate="exact", direction=direction,
                ))
        improvement = counters["baseline"].cycles / counters["optimized"].cycles - 1.0
        metrics.append(Metric("improvement", improvement, "frac",
                              gate="exact", direction="higher"))
        metrics.append(Metric("optimized.digest",
                              optimized.executable.content_digest(),
                              gate="exact", direction="none"))
        return metrics

    return Scenario(
        name=f"pipeline:{preset_name}",
        title=f"pipeline quality on {preset_name} (scale {scale})",
        paper_ref="Table 3, Table 4/Fig 8, Fig 9",
        run=run,
    )


def _drift_sweep_scenario(preset_name: str, scale: float,
                          drifts: Tuple[float, ...]) -> Scenario:
    """Quality scenario: stale-profile matching across drift levels.

    For each drift level the pipeline runs twice -- ``--stale-matching
    off`` vs ``loose`` -- on the same program and seed.  What is gated:
    the recovered match-rate and the simulated cycle improvement of
    both modes (exact), their gains (exact, higher-is-better), and the
    headline claim itself: at every swept drift level, ``loose`` must
    report a strictly higher recovered match-rate *and* a strictly
    better improvement (``*.loose_wins`` = 1 in the committed
    baseline).
    """

    def run(ctx: BenchContext) -> List[Metric]:
        from repro.core.pipeline import PropellerPipeline
        from repro.hwmodel import frontend_scorecard

        program = _generate(ctx, preset_name, scale)
        metrics: List[Metric] = []
        for drift in drifts:
            tag = f"drift{drift:g}"
            rates: Dict[str, float] = {}
            improvements: Dict[str, float] = {}
            for mode in ("off", "loose"):
                config = _pipeline_config(
                    ctx, pgo_drift=drift, stale_matching=mode)
                result = PropellerPipeline(program, config).run()
                report = result.report()
                if mode == "off":
                    rates[mode] = report.gauges["pgo.match_rate"]
                else:
                    rates[mode] = report.profile_recovery["recovered_match_rate"]
                cards = frontend_scorecard(
                    {"baseline": result.baseline.executable,
                     "optimized": result.optimized.executable},
                    ctx.suite.trace_blocks)
                improvements[mode] = (
                    cards["baseline"].cycles / cards["optimized"].cycles - 1.0)
                metrics.append(Metric(
                    f"{tag}.{mode}.match_rate", rates[mode], "frac",
                    gate="exact", direction="higher",
                ))
                metrics.append(Metric(
                    f"{tag}.{mode}.improvement", improvements[mode], "frac",
                    gate="exact", direction="higher",
                ))
            metrics.append(Metric(
                f"{tag}.match_rate_gain", rates["loose"] - rates["off"], "frac",
                gate="exact", direction="higher",
            ))
            metrics.append(Metric(
                f"{tag}.improvement_gain",
                improvements["loose"] - improvements["off"], "frac",
                gate="exact", direction="higher",
            ))
            metrics.append(Metric(
                f"{tag}.loose_wins",
                int(rates["loose"] > rates["off"]
                    and improvements["loose"] > improvements["off"]),
                gate="exact", direction="higher",
            ))
        return metrics

    return Scenario(
        name="profiles:drift-sweep",
        title=f"stale-profile matching on {preset_name} "
              f"(scale {scale}, drifts {', '.join(f'{d:g}' for d in drifts)})",
        paper_ref="§2.4 staleness; Stale Profile Matching (Ayupov et al.)",
        run=run,
    )


def _cold_warm_scenario() -> Scenario:
    """Wall-clock scenario: cold run vs persistent-cache warm replay.

    The absolute seconds are machine-specific (informational); the
    *speedup ratio* is what the persistent action cache guarantees
    (PR 2's >=5x claim) and is gated within a generous noise band -- a
    broken cache collapses it to ~1x, far outside any band.
    """

    def run(ctx: BenchContext) -> List[Metric]:
        import tempfile

        from repro.core.pipeline import PropellerPipeline

        preset_name, scale = ctx.suite.timing_preset
        program = _generate(ctx, preset_name, scale)
        metrics: List[Metric] = []

        digests: Dict[str, str] = {}

        def cold_run():
            result = PropellerPipeline(program, _pipeline_config(ctx)).run()
            digests["cold"] = result.digest()

        cold_med, cold_noise, cold_reps = ctx.time_repeated(cold_run)
        metrics.append(Metric("cold.real_seconds", cold_med, "s",
                              gate="info", direction="lower",
                              noise=cold_noise, reps=cold_reps))

        with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
            config = _pipeline_config(ctx, cache_dir=tmp)
            PropellerPipeline(program, config).run()  # prime the store

            disk_hits: Dict[str, float] = {}

            def warm_run():
                pipe = PropellerPipeline(program, config)
                result = pipe.run()
                digests["warm"] = result.digest()
                disk_hits["value"] = result.counters.count("cache.disk_hits")

            warm_med, warm_noise, warm_reps = ctx.time_repeated(warm_run)
        metrics.append(Metric("warm.real_seconds", warm_med, "s",
                              gate="info", direction="lower",
                              noise=warm_noise, reps=warm_reps))
        metrics.append(Metric("warm.speedup", cold_med / warm_med, "x",
                              gate="noise", direction="higher",
                              noise=max(cold_noise, warm_noise)))
        metrics.append(Metric("warm.digest_match",
                              int(digests["warm"] == digests["cold"]),
                              gate="exact", direction="higher"))
        metrics.append(Metric("warm.disk_replays", disk_hits["value"],
                              gate="exact", direction="none"))
        return metrics

    return Scenario(
        name="runtime:cold-warm",
        title="cold pipeline vs persistent-cache warm replay",
        paper_ref="Fig 9 / Table 5 (cache replay)",
        run=run,
    )


def _jobs_scenario() -> Scenario:
    """Wall-clock scenario: jobs=1 vs jobs=2 real parallelism.

    Speedup is informational (CI runners have few, busy cores); what is
    gated is the contract that parallelism never changes artifacts or
    non-``pool.*`` counters.
    """

    def run(ctx: BenchContext) -> List[Metric]:
        from repro.core.pipeline import PropellerPipeline

        preset_name, scale = ctx.suite.timing_preset
        program = _generate(ctx, preset_name, scale)
        metrics: List[Metric] = []

        outputs: Dict[int, Tuple[str, Dict[str, Dict[str, float]]]] = {}

        def run_with(jobs: int):
            result = PropellerPipeline(
                program, _pipeline_config(ctx, jobs=jobs)).run()
            snapshot = result.counters.snapshot()
            non_pool = {kind: {k: v for k, v in values.items()
                               if not k.startswith("pool.")}
                        for kind, values in snapshot.items()}
            outputs[jobs] = (result.digest(), non_pool)

        serial_med, serial_noise, serial_reps = ctx.time_repeated(
            lambda: run_with(1))
        metrics.append(Metric("jobs1.real_seconds", serial_med, "s",
                              gate="info", direction="lower",
                              noise=serial_noise, reps=serial_reps))
        parallel_med, parallel_noise, parallel_reps = ctx.time_repeated(
            lambda: run_with(2))
        metrics.append(Metric("jobs2.real_seconds", parallel_med, "s",
                              gate="info", direction="lower",
                              noise=parallel_noise, reps=parallel_reps))
        metrics.append(Metric("jobs2.speedup", serial_med / parallel_med, "x",
                              gate="info", direction="higher",
                              noise=max(serial_noise, parallel_noise)))
        metrics.append(Metric("jobs2.digest_match",
                              int(outputs[1][0] == outputs[2][0]),
                              gate="exact", direction="higher"))
        metrics.append(Metric("jobs2.counters_match",
                              int(outputs[1][1] == outputs[2][1]),
                              gate="exact", direction="higher"))
        return metrics

    return Scenario(
        name="runtime:jobs",
        title="jobs=1 vs jobs=2 real parallelism",
        paper_ref="PR 2 determinism contract (Fig 9 machinery)",
        run=run,
    )


def _faults_scenario() -> Scenario:
    """Quality scenario: resilience under a deterministic fault plan.

    Runs the same pipeline clean and under a seeded 2%-failure /
    1%-timeout plan (see :mod:`repro.faults`).  Gated: the optimized
    binary is *bit-identical* either way (faults change when, never
    what), the simulated makespan inflation is deterministic and
    bounded, the retry/fault counters actually fired, and no retry
    budget was exhausted.  A final probe exhausts LBR collection
    (``fail=1`` targeted at ``profile-lbr``) and gates that the run
    degrades honestly (``degraded=1``) instead of crashing.
    """

    #: Makespan inflation above this factor means backoff/waste
    #: accounting has run away, not that the machine was slow --
    #: everything here is simulated time, so the bound can be tight.
    MAX_INFLATION = 3.0

    def run(ctx: BenchContext) -> List[Metric]:
        from repro.core.pipeline import PropellerPipeline

        preset_name, scale = ctx.suite.presets[0]
        program = _generate(ctx, preset_name, scale)
        plan = f"fail=0.02,timeout=0.01,seed={ctx.seed}"

        def sim_wall(result) -> float:
            return sum(b.wall_seconds for b in result.report().builds)

        clean = PropellerPipeline(program, _pipeline_config(ctx)).run()
        faulty = PropellerPipeline(
            program, _pipeline_config(ctx, fault_plan=plan)).run()
        counters = faulty.counters.snapshot()["counters"]
        inflation = sim_wall(faulty) / sim_wall(clean)

        metrics = [
            Metric("digest_match",
                   int(faulty.digest() == clean.digest()),
                   gate="exact", direction="higher"),
            Metric("makespan_inflation", inflation, "x",
                   gate="exact", direction="lower"),
            Metric("makespan_bounded", int(inflation <= MAX_INFLATION),
                   gate="exact", direction="higher"),
            Metric("counter.faults.injected",
                   counters.get("faults.injected", 0),
                   gate="exact", direction="none"),
            Metric("counter.retry.attempts",
                   counters.get("retry.attempts", 0),
                   gate="exact", direction="none"),
            Metric("counter.retry.exhausted",
                   counters.get("retry.exhausted", 0),
                   gate="exact", direction="lower"),
            Metric("faulty.degraded", int(faulty.degraded),
                   gate="exact", direction="lower"),
        ]

        # The honesty probe: starve hardware-profile collection outright
        # and require a *successful, flagged* fallback run.
        probe = PropellerPipeline(program, _pipeline_config(
            ctx, fault_plan=f"fail=1,only=profile-lbr,seed={ctx.seed}")).run()
        metrics.append(Metric("exhausted.degraded", int(probe.degraded),
                              gate="exact", direction="higher"))
        metrics.append(Metric(
            "exhausted.baseline_digest_match",
            int(probe.baseline.executable.content_digest()
                == clean.baseline.executable.content_digest()),
            gate="exact", direction="higher"))
        return metrics

    return Scenario(
        name="faults:resilience",
        title="determinism and bounded cost under a seeded fault plan",
        paper_ref="§2.1/§5 warehouse build-service resilience",
        run=run,
    )


def _incr_scenario() -> Scenario:
    """Quality scenario: the incremental re-optimization engine.

    One prior release is built with ``--state-dir`` active, then three
    seeded edit scripts (a one-function body edit, a cold-function
    addition, a dead-function deletion) are each applied and
    re-optimized incrementally against that state, and compared with a
    full cold rebuild of the same edited program.  Gated, all exact:

    * **bit-identity** -- ``PipelineResult.digest()`` of the
      incremental run equals the full rebuild's, for every edit;
    * **solve reuse** -- the one-function body edit replays at least
      90% of the per-function Ext-TSP solves;
    * **compute reduction** -- the incremental relink spends at most a
      third of the full rebuild's total simulated CPU seconds (the
      distributed-pool quantity the daily-release loop pays for);
    * **pure replay** -- the empty edit script performs zero solve
      lookups and reproduces the prior digest exactly.

    Everything is simulated time and content digests, so every metric
    is deterministic and exactly gated.
    """
    MIN_REUSE = 0.90
    MIN_SPEEDUP = 3.0

    def run(ctx: BenchContext) -> List[Metric]:
        import tempfile

        from repro.core.pipeline import PropellerPipeline
        from repro.incr import IncrState
        from repro.synth import EditScript

        preset_name, scale = ctx.suite.presets[0]
        program = _generate(ctx, preset_name, scale)

        def sim_compute(result) -> float:
            """Total simulated CPU seconds of one run: every backend
            action, every link, profiling and analysis.  Makespan is
            the wrong quantity here -- with a wide pool one module's
            recompile dominates it whether 1 or 40 modules rebuild --
            so the gate measures the compute the pool actually burns."""
            builds = (result.baseline, result.metadata, result.optimized)
            total = sum(b.backends.cpu_seconds + b.link_seconds for b in builds)
            return total + sum(
                result.phase_seconds.get(phase, 0.0)
                for phase in ("pgo_profile_run", "lbr_profile_run", "wpa_convert")
            )

        metrics: List[Metric] = []
        with tempfile.TemporaryDirectory(prefix="repro-incr-bench-") as tmp:
            incr_config = _pipeline_config(
                ctx, incremental=True, state_dir=tmp)
            prior = PropellerPipeline(program, incr_config).run()
            state_file = IncrState.capture(prior).save(tmp)

            # Empty edit script, new pipeline: a pure cache replay.
            replay = PropellerPipeline(program, incr_config).reoptimize(
                state_file)
            inc = replay.incremental
            metrics.append(Metric(
                "replay.digest_match",
                int(replay.digest() == prior.digest()),
                gate="exact", direction="higher"))
            metrics.append(Metric(
                "replay.dirty_functions", len(inc.dirty),
                gate="exact", direction="lower"))
            metrics.append(Metric(
                "replay.solve_lookups",
                inc.solve_hits + inc.solve_misses,
                gate="exact", direction="lower"))

            edits = (
                ("body", EditScript.generate(program, seed=ctx.seed,
                                             kinds=("body",))),
                ("add", EditScript.generate(program, seed=ctx.seed + 1,
                                            kinds=("add",))),
                ("delete", EditScript.generate(program, seed=ctx.seed + 2,
                                               kinds=("delete",))),
            )
            for label, script in edits:
                edited = script.apply(program)
                incr = PropellerPipeline(edited, incr_config).reoptimize(
                    state_file)
                full = PropellerPipeline(edited, _pipeline_config(ctx)).run()
                speedup = sim_compute(full) / sim_compute(incr)
                metrics.append(Metric(
                    f"{label}.digest_match",
                    int(incr.digest() == full.digest()),
                    gate="exact", direction="higher"))
                metrics.append(Metric(
                    f"{label}.sim_compute_speedup", speedup, "x",
                    gate="exact", direction="higher"))
                if label == "body":
                    inc = incr.incremental
                    metrics.append(Metric(
                        "body.dirty_functions", len(inc.dirty),
                        gate="exact", direction="lower"))
                    metrics.append(Metric(
                        "body.solve_reuse", inc.solve_reuse,
                        gate="exact", direction="higher"))
                    metrics.append(Metric(
                        "body.solve_reuse_ok",
                        int(inc.solve_reuse >= MIN_REUSE),
                        gate="exact", direction="higher"))
                    metrics.append(Metric(
                        "body.speedup_ok", int(speedup >= MIN_SPEEDUP),
                        gate="exact", direction="higher"))
        return metrics

    return Scenario(
        name="incr:edit-sweep",
        title="incremental re-optimization: bit-identity, solve reuse, "
              "compute reduction",
        paper_ref="§3.6 deployment / iterative daily-release builds",
        run=run,
    )


def _explain_scenario() -> Scenario:
    """Quality scenario: the run-to-run attribution engine.

    Two gates, both exact and both straight from the acceptance
    contract of :mod:`repro.obs.explain`:

    * **fixed point** -- two identical runs explain to an empty
      attribution list with zero suspicious counter deltas;
    * **attribution** -- after a seeded one-function body edit of the
      hottest body-editable function, that function ranks #1 with
      cause ``code-edit``, and its cycle delta is gated bit-exactly.

    Everything is simulated (frontend-model cycles, digest evidence),
    so every metric is deterministic.
    """

    def run(ctx: BenchContext) -> List[Metric]:
        from repro.core.pipeline import PropellerPipeline
        from repro.obs.explain import explain_results
        from repro.synth import EditScript
        from repro.synth.edits import Edit, _body_candidates

        preset_name, scale = ctx.suite.presets[0]
        program = _generate(ctx, preset_name, scale)
        config = _pipeline_config(ctx)
        blocks = ctx.suite.trace_blocks

        base = PropellerPipeline(program, config).run()
        rerun = PropellerPipeline(program, config).run()
        fixed = explain_results(base, rerun, max_blocks=blocks,
                                labels=("base", "rerun"))

        per = base.frontend_counters_by_function(
            max_blocks=blocks)["optimized"]
        target = max(_body_candidates(program),
                     key=lambda f: (per.get(f, {}).get("cycles", 0.0), f))
        script = EditScript(edits=(
            Edit("body", target, program.module_of(target).name, ctx.seed),))
        edited = PropellerPipeline(script.apply(program), config).run()
        rep = explain_results(base, edited, max_blocks=blocks,
                              labels=("base", "edited"))
        top = rep.attribution[0] if rep.attribution else None
        return [
            Metric("identical.attributed_functions", len(fixed.attribution),
                   gate="exact", direction="lower"),
            Metric("identical.suspicious_deltas", len(fixed.suspicious),
                   gate="exact", direction="lower"),
            Metric("edited.rank1_is_target",
                   int(top is not None and top.function == target),
                   gate="exact", direction="higher"),
            Metric("edited.rank1_cause_code_edit",
                   int(top is not None and top.cause == "code-edit"),
                   gate="exact", direction="higher"),
            Metric("edited.target_cycle_delta",
                   top.delta if top is not None else 0.0, "cycles",
                   gate="exact", direction="none"),
            Metric("edited.attributed_functions", len(rep.attribution),
                   gate="exact", direction="none"),
        ]

    return Scenario(
        name="explain:attribution",
        title="run-to-run attribution: identical-run fixed point, "
              "edited-function cause tagging",
        paper_ref="§5 per-phase/per-function accounting",
        run=run,
    )


def suite_scenarios(suite: SuiteSpec) -> List[Scenario]:
    """The declarative scenario list for one suite tier."""
    scenarios = [_pipeline_scenario(name, scale) for name, scale in suite.presets]
    scenarios.append(_drift_sweep_scenario(*suite.drift_preset, suite.drift_levels))
    scenarios.append(_cold_warm_scenario())
    scenarios.append(_jobs_scenario())
    scenarios.append(_faults_scenario())
    scenarios.append(_incr_scenario())
    scenarios.append(_explain_scenario())
    return scenarios


def run_suite(
    suite: str = "smoke",
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int = 3,
    jobs: Optional[int] = None,
    perturb: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run a suite tier and return its :class:`BenchReport`.

    ``only`` filters scenarios by exact name; ``perturb`` injects a
    named fault (see :data:`PERTURBATIONS`) to prove the gates fire;
    ``progress`` receives one line per scenario (the CLI wires it to
    the :mod:`repro.obs.log` logger).
    """
    try:
        spec = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; available: {sorted(SUITES)}") from None
    if perturb is not None and perturb not in PERTURBATIONS:
        raise ValueError(
            f"unknown perturbation {perturb!r}; available: {PERTURBATIONS}")
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    ctx = BenchContext(suite=spec, seed=seed, repetitions=repetitions,
                       jobs=jobs, perturb=perturb)
    scenarios = suite_scenarios(spec)
    if only:
        wanted = set(only)
        unknown = wanted - {s.name for s in scenarios}
        if unknown:
            raise ValueError(f"unknown scenarios: {sorted(unknown)}")
        scenarios = [s for s in scenarios if s.name in wanted]
    # A developer's exported REPRO_CACHE_DIR would warm the "cold"
    # scenarios and shift the exact-gated cache counters, making results
    # incomparable across machines; the harness always starts cold and
    # opts into persistence explicitly (the cold-warm scenario).
    saved_cache_env = os.environ.pop("REPRO_CACHE_DIR", None)
    try:
        results: List[ScenarioResult] = []
        for scenario in scenarios:
            if progress is not None:
                progress(f"running {scenario.name} ({scenario.title})")
            results.append(scenario(ctx))
    finally:
        if saved_cache_env is not None:
            os.environ["REPRO_CACHE_DIR"] = saved_cache_env
    return BenchReport(
        suite=spec.name, seed=seed, repetitions=repetitions,
        scenarios=tuple(results), perturb=perturb,
    )
