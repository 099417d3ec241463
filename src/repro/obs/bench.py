"""Continuous benchmark harness: declarative scenarios, typed results.

The paper's whole argument is quantitative -- Table 3 speedups, Figure 8
frontend counters, Figure 9 optimization time -- and layout gains are
small percentages easily lost to noise (BOLT's CGO'19 evaluation makes
the same point).  This module is the machinery that keeps those numbers
*tracked* instead of printed: the suite's scenarios (there is one
suite; its presets and budgets are the module constants below) produce
a schema-versioned :class:`BenchReport` that :mod:`repro.obs.baseline`
can diff against a committed baseline and gate CI on.

Every metric here is an exact function of (code, seed): simulated
wall-clock, build-system counters, hardware-model counters, artifact
digests.  Any drift is a reviewable event, like a golden-file diff, and
the report carries no clock -- two runs of the same code serialize to
the same JSON.  Real seconds are ``bench/``'s question (``python3
bench/run.py``), not this module's.

Like the rest of :mod:`repro.obs`, this module imports nothing from the
rest of ``repro`` at module scope; scenario bodies import the pipeline
lazily when they run.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.report import plain, record

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BenchContext",
    "BenchReport",
    "Metric",
    "ScenarioResult",
    "Scenario",
    "PERTURBATIONS",
    "run_suite",
    "suite_scenarios",
]

#: Bump on any backwards-incompatible change to the report's JSON layout
#: (2 = exact-only: no ``gate``/``noise``/``reps``/``repetitions`` keys).
BENCH_SCHEMA_VERSION = 2

MetricValue = Union[int, float, str]

#: Which direction is *better*; "none" marks pure fingerprints.
DIRECTIONS = ("lower", "higher", "none")

#: Named fault injections, used to prove the gates actually fire
#: (``repro-bench --perturb shuffle-layout`` and tests/test_bench.py).
PERTURBATIONS = ("shuffle-layout",)


# ----------------------------------------------------------------------
# Result model

@dataclass(frozen=True)
class Metric:
    """One measured quantity of one scenario."""

    name: str
    value: MetricValue
    unit: str = ""
    #: Which direction is better: "lower", "higher" or "none".
    direction: str = "none"

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"metric {self.name!r}: unknown direction {self.direction!r}"
            )

    def to_json(self) -> Dict[str, Any]:
        return plain(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "Metric":
        return record(cls, data)


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


@dataclass(frozen=True)
class BenchReport:
    """One harness run: every scenario's metrics, schema-versioned."""

    suite: str
    seed: int
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
        """SHA-256 over every metric value.

        Two runs of the same suite on the same code must produce equal
        fingerprints (enforced by tests/test_bench.py).
        """
        h = hashlib.sha256()
        for scenario in self.scenarios:
            for metric in scenario.metrics:
                h.update(f"{scenario.name}|{metric.name}|{metric.value!r}\n"
                         .encode("utf-8"))
        return h.hexdigest()

    def to_json(self) -> Dict[str, Any]:
        return plain(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "BenchReport":
        version = data.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"bench schema version {version!r} is not the supported "
                f"{BENCH_SCHEMA_VERSION}; regenerate the file with this "
                "repro-bench"
            )
        return record(cls, data)


# ----------------------------------------------------------------------
# Scenario framework

#: The suite.  Small enough to run twice in CI; still has hot/cold
#: modules and a non-trivial layout win to protect.  (Paper-scale tables
#: and figures are the slow-tier tests under ``tests/paper/``.)
SUITE_NAME = "smoke"
#: (preset name, generation scale) pairs for quality scenarios.
SUITE_PRESETS = (("531.deepsjeng", 0.3), ("505.mcf", 1.0))
LBR_BRANCHES = 40_000
PGO_STEPS = 20_000
#: Trace budget (executed blocks) for frontend measurement.
TRACE_BLOCKS = 60_000
#: (preset name, generation scale) for the stale-profile drift sweep;
#: needs a warm tier below WPA's hot set (``search`` has one, the small
#: SPEC presets do not).
DRIFT_PRESET = ("search", 0.006)
#: Staleness levels swept by the drift scenario.
DRIFT_LEVELS = (0.3, 0.5)


@dataclass(frozen=True)
class BenchContext:
    """Everything a scenario body may depend on (and nothing else)."""

    seed: int
    perturb: Optional[str] = None


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


def _pipeline_config(ctx: BenchContext, **overrides):
    from repro.core.pipeline import PipelineConfig

    base = dict(
        seed=ctx.seed,
        lbr_branches=LBR_BRANCHES,
        pgo_steps=PGO_STEPS,
        workers=72,
        enforce_ram=False,
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
                direction="lower",
            ))
        for name in ("cache.hits", "cache.misses", "ram.rejections"):
            metrics.append(Metric(
                f"counter.{name}", report.counters.get(name, 0),
                direction="none",
            ))
        for name, direction in (("pgo.match_rate", "higher"),
                                ("lbr.record_coverage", "higher"),
                                ("wpa.hot_functions", "none")):
            metrics.append(Metric(
                f"gauge.{name}", report.gauges.get(name, 0),
                direction=direction,
            ))

        counters = frontend_scorecard(
            {"baseline": result.baseline.executable,
             "optimized": optimized.executable}, TRACE_BLOCKS)
        for which in counters:
            # Baseline counters are a fingerprint of the input side;
            # optimized counters are the quality under protection, so
            # they carry a direction (lower is better).
            direction = "lower" if which == "optimized" else "none"
            for label in TABLE4_LABELS + ("cycles",):
                metrics.append(Metric(
                    f"{which}.{label}", counters[which].counter(label)
                    if label != "cycles" else counters[which].cycles,
                    direction=direction,
                ))
        improvement = counters["baseline"].cycles / counters["optimized"].cycles - 1.0
        metrics.append(Metric("improvement", improvement, "frac",
                              direction="higher"))
        metrics.append(Metric("optimized.digest",
                              optimized.executable.content_digest(),
                              direction="none"))
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
                    TRACE_BLOCKS)
                improvements[mode] = (
                    cards["baseline"].cycles / cards["optimized"].cycles - 1.0)
                metrics.append(Metric(
                    f"{tag}.{mode}.match_rate", rates[mode], "frac",
                    direction="higher",
                ))
                metrics.append(Metric(
                    f"{tag}.{mode}.improvement", improvements[mode], "frac",
                    direction="higher",
                ))
            metrics.append(Metric(
                f"{tag}.match_rate_gain", rates["loose"] - rates["off"], "frac",
                direction="higher",
            ))
            metrics.append(Metric(
                f"{tag}.improvement_gain",
                improvements["loose"] - improvements["off"], "frac",
                direction="higher",
            ))
            metrics.append(Metric(
                f"{tag}.loose_wins",
                int(rates["loose"] > rates["off"]
                    and improvements["loose"] > improvements["off"]),
                direction="higher",
            ))
        return metrics

    return Scenario(
        name="profiles:drift-sweep",
        title=f"stale-profile matching on {preset_name} "
              f"(scale {scale}, drifts {', '.join(f'{d:g}' for d in drifts)})",
        paper_ref="§2.4 staleness; Stale Profile Matching (Ayupov et al.)",
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

        preset_name, scale = SUITE_PRESETS[0]
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
                   direction="higher"),
            Metric("makespan_inflation", inflation, "x",
                   direction="lower"),
            Metric("makespan_bounded", int(inflation <= MAX_INFLATION),
                   direction="higher"),
            Metric("counter.faults.injected",
                   counters.get("faults.injected", 0),
                   direction="none"),
            Metric("counter.retry.attempts",
                   counters.get("retry.attempts", 0),
                   direction="none"),
            Metric("counter.retry.exhausted",
                   counters.get("retry.exhausted", 0),
                   direction="lower"),
            Metric("faulty.degraded", int(faulty.degraded),
                   direction="lower"),
        ]

        # The honesty probe: starve hardware-profile collection outright
        # and require a *successful, flagged* fallback run.
        probe = PropellerPipeline(program, _pipeline_config(
            ctx, fault_plan=f"fail=1,only=profile-lbr,seed={ctx.seed}")).run()
        metrics.append(Metric("exhausted.degraded", int(probe.degraded),
                              direction="higher"))
        metrics.append(Metric(
            "exhausted.baseline_digest_match",
            int(probe.baseline.executable.content_digest()
                == clean.baseline.executable.content_digest()),
            direction="higher"))
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

        preset_name, scale = SUITE_PRESETS[0]
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
            incr_config = _pipeline_config(ctx, state_dir=tmp)
            prior = PropellerPipeline(program, incr_config).run()
            state_file = IncrState.capture(prior).save(tmp)

            # Empty edit script, new pipeline: a pure cache replay.
            replay = PropellerPipeline(program, incr_config).reoptimize(
                state_file)
            inc = replay.incremental
            metrics.append(Metric(
                "replay.digest_match",
                int(replay.digest() == prior.digest()),
                direction="higher"))
            metrics.append(Metric(
                "replay.dirty_functions", len(inc.dirty),
                direction="lower"))
            metrics.append(Metric(
                "replay.solve_lookups",
                inc.solve_hits + inc.solve_misses,
                direction="lower"))

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
                    direction="higher"))
                metrics.append(Metric(
                    f"{label}.sim_compute_speedup", speedup, "x",
                    direction="higher"))
                if label == "body":
                    inc = incr.incremental
                    metrics.append(Metric(
                        "body.dirty_functions", len(inc.dirty),
                        direction="lower"))
                    metrics.append(Metric(
                        "body.solve_reuse", inc.solve_reuse,
                        direction="higher"))
                    metrics.append(Metric(
                        "body.solve_reuse_ok",
                        int(inc.solve_reuse >= MIN_REUSE),
                        direction="higher"))
                    metrics.append(Metric(
                        "body.speedup_ok", int(speedup >= MIN_SPEEDUP),
                        direction="higher"))
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

        preset_name, scale = SUITE_PRESETS[0]
        program = _generate(ctx, preset_name, scale)
        config = _pipeline_config(ctx)

        base = PropellerPipeline(program, config).run()
        rerun = PropellerPipeline(program, config).run()
        fixed = explain_results(base, rerun, max_blocks=TRACE_BLOCKS,
                                labels=("base", "rerun"))

        per = base.frontend_counters_by_function(
            max_blocks=TRACE_BLOCKS)["optimized"]
        target = max(_body_candidates(program),
                     key=lambda f: (per.get(f, {}).get("cycles", 0.0), f))
        script = EditScript(edits=(
            Edit("body", target, program.module_of(target).name, ctx.seed),))
        edited = PropellerPipeline(script.apply(program), config).run()
        rep = explain_results(base, edited, max_blocks=TRACE_BLOCKS,
                              labels=("base", "edited"))
        top = rep.attribution[0] if rep.attribution else None
        return [
            Metric("identical.attributed_functions", len(fixed.attribution),
                   direction="lower"),
            Metric("identical.suspicious_deltas", len(fixed.suspicious),
                   direction="lower"),
            Metric("edited.rank1_is_target",
                   int(top is not None and top.function == target),
                   direction="higher"),
            Metric("edited.rank1_cause_code_edit",
                   int(top is not None and top.cause == "code-edit"),
                   direction="higher"),
            Metric("edited.target_cycle_delta",
                   top.delta if top is not None else 0.0, "cycles",
                   direction="none"),
            Metric("edited.attributed_functions", len(rep.attribution),
                   direction="none"),
        ]

    return Scenario(
        name="explain:attribution",
        title="run-to-run attribution: identical-run fixed point, "
              "edited-function cause tagging",
        paper_ref="§5 per-phase/per-function accounting",
        run=run,
    )


def suite_scenarios() -> List[Scenario]:
    """The declarative scenario list of the suite."""
    scenarios = [_pipeline_scenario(name, scale) for name, scale in SUITE_PRESETS]
    scenarios.append(_drift_sweep_scenario(*DRIFT_PRESET, DRIFT_LEVELS))
    scenarios.append(_faults_scenario())
    scenarios.append(_incr_scenario())
    scenarios.append(_explain_scenario())
    return scenarios


def run_suite(
    seed: int = 3,
    perturb: Optional[str] = None,
    only: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the suite and return its :class:`BenchReport`.

    ``only`` filters scenarios by exact name; ``perturb`` injects a
    named fault (see :data:`PERTURBATIONS`) to prove the gates fire;
    ``progress`` receives one line per scenario (the CLI wires it to
    the :mod:`repro.obs.log` logger).
    """
    if perturb is not None and perturb not in PERTURBATIONS:
        raise ValueError(
            f"unknown perturbation {perturb!r}; available: {PERTURBATIONS}")
    ctx = BenchContext(seed=seed, perturb=perturb)
    scenarios = suite_scenarios()
    if only:
        wanted = set(only)
        unknown = wanted - {s.name for s in scenarios}
        if unknown:
            raise ValueError(
                f"unknown scenarios: {sorted(unknown)}; available: "
                f"{[s.name for s in scenarios]}")
        scenarios = [s for s in scenarios if s.name in wanted]
    # A developer's exported REPRO_CACHE_DIR would warm the "cold"
    # scenarios and shift the exact-gated cache counters, making results
    # incomparable across machines; the harness always starts cold.
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
        suite=SUITE_NAME, seed=seed, scenarios=tuple(results), perturb=perturb,
    )
