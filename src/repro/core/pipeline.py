"""Phases 1-4: the Propeller relinking pipeline (§3, Figure 1).

Ties the substrates together on top of the distributed build system:
the configuration, the result types and the driver,
:class:`PropellerPipeline`, which owns one run's state and the build
primitive every phase shares.  The phases themselves are defined once
each in :mod:`repro.core.phases`.

Simulated wall-clock time and modelled peak memory are recorded per
phase, which is what the paper's Figures 4, 5, 9 and Table 5 report.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from repro import ir
from repro.analysis import MemoryMeter
from repro.buildsys import BuildSystem, PhaseReport, digest_parts
from repro.codegen import CodeGenOptions, compile_action
from repro.codegen.lowering import compile_peak_memory
from repro.core.stages import ArtifactSet, StageGraphError
from repro.core.wpa import WPAOptions, WPAResult
from repro.elf import Executable, ObjectFile
from repro.elf.strip import strip_bb_addr_map
from repro.faults import FaultPlan
from repro.ir.digest import module_digest
from repro.linker import LinkOptions, LinkResult, LinkStats, link, without_bb_addr_map
from repro.linker.linker import PAGE_SIZE, TEXT_BASE
from repro.obs import NULL_TRACER, Counters, PipelineReport, Tracer
from repro.profiles import MATCH_MODES, IRProfile, MatchStats, PerfData
from repro.runtime import FunctionSolveCache, resolve_cache_dir


@dataclass(frozen=True)
class PipelineConfig:
    """End-to-end pipeline configuration.  (The cost-model rates are
    constants in :mod:`repro.core.phases`.)"""

    seed: int = 0
    #: Instrumented-PGO training run length (IR steps).
    pgo_steps: int = 300_000
    #: Staleness applied to the instrumented profile (§2.4).
    pgo_drift: float = 0.25
    #: Run profile-guided inlining in Phase 1.  Inlined copies are new
    #: blocks the instrumented profile has never seen -- the organic
    #: form of the §2.4 staleness that post-link profiles repair.
    inline_hot: bool = False
    #: Stale-profile matching mode (``off``/``strict``/``loose``, see
    #: :mod:`repro.profiles.matching`).  When enabled, the drifted
    #: instrumented profile is re-attached to the current CFGs (fuzzy
    #: block matching + flow-conservation count inference) and the
    #: *recovered* profile feeds only the modules Phase 4 re-compiles;
    #: the metadata build (and so the baseline, its objects without the
    #: map) deliberately keeps the stale profile -- it models the
    #: status-quo PGO deployment the paper measures against.
    stale_matching: str = "off"
    #: Hardware-profiling run length (taken branches).
    lbr_branches: int = 400_000
    lbr_period: int = 31
    #: Build pool size.  The default models the effectively unbounded
    #: distributed pool (§2.1); pass 72 to model the paper's workstation
    #: comparison point (Fig. 9, right).
    workers: int = 1000
    enforce_ram: bool = True
    ram_limit: int = 12 << 30
    #: Not an option: the process pool it selected is deleted (DESIGN.md
    #: "One action layer") and every action runs inline.  The field
    #: survives, accepting only 1, because the frozen ``bench/worker.py``
    #: passes ``jobs=1``; the next benchmark PR drops that argument and
    #: then this field.
    jobs: int = 1
    #: Directory for the persistent action cache.  ``None`` falls back
    #: to the ``REPRO_CACHE_DIR`` environment variable; when neither is
    #: set, caching is in-memory only and runs start cold, as before.
    cache_dir: Optional[str] = None
    #: Directory holding incremental state across releases (see
    #: :mod:`repro.incr`) -- the one spelling of "keep state": the
    #: ``IncrState`` snapshot, the per-function Ext-TSP solve cache
    #: (``solves/``, a :class:`~repro.runtime.FunctionSolveCache` that
    #: :meth:`PropellerPipeline.reoptimize` replays clean functions'
    #: solutions from) and -- when ``cache_dir`` is not set otherwise --
    #: the persistent action store (``actions/``).  Never changes any
    #: artifact: ``PipelineResult.digest()`` is bit-identical with or
    #: without it.
    state_dir: Optional[str] = None
    #: Deterministic fault-injection plan (see :mod:`repro.faults`):
    #: a compact spec string (``"fail=0.02,timeout=0.01,seed=7"``), the
    #: path of a plan JSON file, or ``None`` for no injection.  A plan
    #: changes simulated durations and the ``faults.*``/``retry.*``
    #: counters, never any artifact: ``PipelineResult.digest()`` is
    #: bit-identical with any non-exhausting plan on or off.  When a
    #: whole retry budget is exhausted for profile collection, WPA or
    #: the relink, the run degrades instead of failing
    #: (``PipelineResult.degraded``); a product build that exhausts
    #: raises :class:`repro.faults.RetriesExhausted`.
    fault_plan: Optional[str] = None
    #: Record phase/batch/action spans (see :mod:`repro.obs`).  Off by
    #: default: the pipeline then runs against the shared no-op tracer
    #: and the instrumented paths cost nothing.  Tracing never changes
    #: any artifact (``PipelineResult.digest()`` is identical either
    #: way); counters are always collected.
    trace: bool = False
    wpa: WPAOptions = WPAOptions()
    hugepages: bool = False

    def __post_init__(self) -> None:
        """Reject out-of-range values here, at the edge, with a
        ``ValueError`` naming the field -- not as a traceback out of
        whichever cached action first reads them."""
        if self.jobs != 1:
            raise ValueError(
                f"jobs must be 1 (every action runs inline), got {self.jobs!r}")
        for name, minimum in (("lbr_period", 1), ("lbr_branches", 0),
                              ("pgo_steps", 0), ("workers", 1),
                              ("ram_limit", 1)):
            if getattr(self, name) < minimum:
                raise ValueError(
                    f"{name} must be >= {minimum}, got {getattr(self, name)!r}")
        if self.stale_matching not in MATCH_MODES:
            raise ValueError(
                f"stale_matching must be one of {MATCH_MODES}, "
                f"got {self.stale_matching!r}")


def _link_options_signature(options: LinkOptions) -> str:
    """Deterministic digest of every :class:`LinkOptions` field and the
    linker's address constants.  Sequences keep their order
    (``symbol_order`` is meaningful order); sets are sorted; parts are
    length-prefixed, by the hasher :func:`~repro.buildsys.action_key` uses.
    """
    return digest_parts([
        options.output_name,
        options.entry_symbol,
        str(TEXT_BASE),
        str(PAGE_SIZE),
        str(int(options.emit_relocs)),
        str(int(options.keep_bb_addr_map)),
        str(int(options.relax)),
        str(int(options.hugepages)),
        ",".join(sorted(options.features)),
        "|".join(options.symbol_order) if options.symbol_order is not None else "<none>",
    ])


@dataclass
class CodegenBatch:
    """The compile half of a build: one object per module, in order."""

    #: The batch's action keys, which name its objects' content.
    keys: List[str]
    objects: List[ObjectFile]
    backends: PhaseReport
    hot_modules: int
    cold_cache_hits: int


@dataclass
class BuildOutcome:
    """One full (re)build: backend actions plus the final link."""

    executable: Executable
    objects: List[ObjectFile]
    backends: PhaseReport
    link_stats: LinkStats
    link_seconds: float
    hot_modules: int = 0
    cold_cache_hits: int = 0

    @property
    def wall_seconds(self) -> float:
        return self.backends.wall_seconds + self.link_seconds


@dataclass(frozen=True)
class IncrementalSummary:
    """Typed accounting of one :meth:`PropellerPipeline.reoptimize` run.

    The dirty plan (what changed since the prior release's snapshot and
    why), the hot-set churn, and the solve-cache reuse tallies.  Pure
    accounting -- never part of :meth:`PipelineResult.digest` -- and
    serialized onto the report additively by
    :func:`repro.obs.report.plain`.
    """

    #: ``result.digest()`` of the prior release the plan was made against.
    prior_digest: str
    #: Functions whose CFG or profile slice changed (sorted).
    dirty: Tuple[str, ...]
    #: Functions absent from the prior snapshot (sorted).
    added: Tuple[str, ...]
    #: Prior functions no longer present (sorted).
    deleted: Tuple[str, ...]
    #: Function -> why it was planned dirty (``code``/``profile``/...).
    reasons: Dict[str, str]
    #: Functions entering or leaving the WPA hot set (sorted).
    hot_flips: Tuple[str, ...]
    #: Solve-cache replays / fresh solves during the run.
    solve_hits: int
    solve_misses: int
    #: ``hits / lookups`` (1.0 when nothing was looked up).
    solve_reuse: float


@dataclass
class PipelineResult:
    """Everything the four phases produced."""

    program: ir.Program
    config: PipelineConfig
    baseline: BuildOutcome
    metadata: BuildOutcome
    optimized: BuildOutcome
    ir_profile: IRProfile
    perf: PerfData
    wpa_result: WPAResult
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Stale-profile matching accounting (``None`` when
    #: ``config.stale_matching == "off"``).
    match_stats: Optional[MatchStats] = None
    #: The re-attached profile the modules Phase 4 re-compiled consumed
    #: (``None`` when matching was off; ``ir_profile`` always holds the
    #: profile as trained, i.e. the stale one the metadata build, and so
    #: the baseline, used).
    recovered_profile: Optional[IRProfile] = None
    #: Metrics accumulated by the run (cache, scheduler, profile
    #: quality); excluded from :meth:`digest` like all accounting.
    counters: Counters = field(default_factory=Counters)
    #: True when some stage exhausted its fault-retry budget and the
    #: pipeline fell back (empty profile, baseline layout, ...) instead
    #: of failing.  Degradation is honest: the flag and its reasons ride
    #: on the report, and the ``faults.degraded`` counter matches.
    degraded: bool = False
    #: One entry per degraded stage, e.g. ``("lbr-profile",)``.
    degraded_reasons: Tuple[str, ...] = ()
    #: Incremental re-optimization accounting, filled only by
    #: :meth:`PropellerPipeline.reoptimize`: the dirty/added/deleted
    #: function sets, their reasons, hot-set flips and the solve-cache
    #: hit/miss tallies.  Accounting, never content -- excluded from
    #: :meth:`digest` like every other non-artifact field.
    incremental: Optional[IncrementalSummary] = None

    def digest(self) -> str:
        """SHA-256 over every artifact the four phases produced.

        Deliberately covers *content only* -- the three binaries and
        the WPA directives -- and excludes all timing and cache-hit
        accounting: the simulated ``workers`` pool and a warm
        persistent cache are allowed to change how fast a result is
        produced (real and simulated), never what is produced.  Equal
        digests therefore mean a cold or warm run of the same
        configuration built the same binaries.
        """
        h = hashlib.sha256()
        for outcome in (self.baseline, self.metadata, self.optimized):
            h.update(b"\x00X")
            h.update(outcome.executable.content_digest().encode())
        h.update(b"\x00W")
        h.update(self.wpa_result.cc_prof_text.encode())
        h.update(self.wpa_result.ld_prof_text.encode())
        h.update(self.ir_profile.digest().encode())
        return h.hexdigest()

    def frontend_counters(
        self,
        max_blocks: int = 200_000,
        seed: int = 77,
        params=None,
    ) -> Dict[str, Dict[str, float]]:
        """Hardware-counter scorecards for the baseline and optimized binaries.

        Walks the program once and replays that one walk, projected onto
        each binary, through the scaled frontend model; returns
        ``{"baseline": {...}, "optimized": {...}}`` of Table 4 counters
        plus cycles/instructions/ipc (see :meth:`FrontendCounters.as_dict`).  Fully deterministic in
        (binaries, ``max_blocks``, ``seed``, ``params``) -- which is
        what lets regression gates compare the values exactly.
        """
        scorecard, _ = self._simulate_frontend(max_blocks, seed, params,
                                               by_function=False)
        return scorecard

    def frontend_counters_by_function(
        self,
        max_blocks: int = 200_000,
        seed: int = 77,
        params=None,
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-function frontend attribution for both binaries.

        Same simulation as :meth:`frontend_counters`, but with the
        model's per-function accounting enabled: returns ``{"baseline":
        {fn: {...}}, "optimized": {fn: {...}}}`` where each function's
        dict carries the subset of counters the explain engine ranks on
        (``cycles``, ``instructions``, ``l1i_miss``, ``itlb_miss``,
        ``taken_branches``, ``baclears``, ``dsb_miss``).  Totals are
        accumulated globally inside the model, so enabling attribution
        never changes the gated scorecard values.
        """
        _, by_function = self._simulate_frontend(max_blocks, seed, params,
                                                 by_function=True)
        return by_function

    def _simulate_frontend(self, max_blocks, seed, params, by_function):
        """One walk replayed through both binaries; scorecard + optional attribution."""
        from repro.hwmodel import frontend_scorecard
        from repro.hwmodel.frontend import SCALED_PARAMS

        counters = frontend_scorecard(
            {"baseline": self.baseline.executable,
             "optimized": self.optimized.executable},
            max_blocks, seed, SCALED_PARAMS if params is None else params, by_function)
        scorecard = {name: c.as_dict() for name, c in counters.items()}
        attribution = {
            name: {
                func: {key: float(getattr(fc, key)) for key in (
                    "cycles", "instructions", "l1i_miss", "itlb_miss",
                    "taken_branches", "baclears", "dsb_miss")}
                for func, fc in c.per_function.items()
            }
            for name, c in counters.items()
        } if by_function else {}
        return scorecard, attribution

    def report(self, include_frontend: bool = False,
               include_attribution: bool = False) -> PipelineReport:
        """The run as a typed, JSON-able :class:`~repro.obs.PipelineReport`:
        the supported programmatic surface (:meth:`summary` is rendered
        from it, ``--metrics-out`` serializes it).  Built by
        :meth:`repro.obs.PipelineReport.from_result`, which documents
        ``include_frontend`` and ``include_attribution``."""
        return PipelineReport.from_result(self, include_frontend,
                                          include_attribution)

    def summary(self) -> str:
        return self.report().summary()


# Imported here, not at the top: the phase declarations name the
# result types defined above (``Artifact("baseline", BuildOutcome)``).
from repro.core import phases  # noqa: E402


class PropellerPipeline:
    """Drives Phases 1-4 for one program.

    :param tracer: span sink for this run (see :mod:`repro.obs`).
        ``None`` derives it from ``config.trace``: a fresh recording
        :class:`~repro.obs.Tracer` when tracing is on, the shared no-op
        tracer otherwise.  Counters are always collected; they live on
        the build system (``self.counters``) so externally supplied
        build systems keep their own accounting.
    """

    def __init__(
        self,
        program: ir.Program,
        config: PipelineConfig = PipelineConfig(),
        buildsys: Optional[BuildSystem] = None,
        tracer: "Optional[Tracer]" = None,
    ):
        self.program = program
        self.config = config
        if tracer is None:
            tracer = Tracer() if config.trace else NULL_TRACER
        self.tracer = tracer
        cache_dir = resolve_cache_dir(config.cache_dir)
        if cache_dir is None and config.state_dir:
            # A state directory is a promise of cross-release reuse, so
            # the action store lives beside the incremental state unless
            # the user pointed it elsewhere.
            cache_dir = Path(config.state_dir) / "actions"
        self.buildsys = buildsys or BuildSystem(
            workers=config.workers,
            ram_limit=config.ram_limit,
            enforce_ram=config.enforce_ram,
            cache_dir=cache_dir,
            fault_plan=FaultPlan.resolve(config.fault_plan),
        )
        self.counters: Counters = self.buildsys.counters
        #: Per-function Ext-TSP solve memoization (see :mod:`repro.incr`),
        #: persisted under ``state_dir/solves``; ``None`` without a
        #: state directory.
        self.solve_cache: "Optional[FunctionSolveCache]" = None
        if config.state_dir:
            self.solve_cache = FunctionSolveCache(
                Path(config.state_dir) / "solves", counters=self.counters)
        self._digests: Dict[str, Tuple[ir.Module, str]] = {}
        # id -> (options, signature); the options reference keeps the
        # object alive so a recycled id can never alias a stale entry.
        self._option_sigs: Dict[int, Tuple[CodeGenOptions, str]] = {}

    # ------------------------------------------------------------------
    # Build helpers

    def _digest(self, module: ir.Module) -> str:
        # Identity-checked, so replacing ``self.program`` (inlining, a
        # resumed ``prepared_program``) can never serve a stale digest.
        cached = self._digests.get(module.name)
        if cached is None or cached[0] is not module:
            cached = self._digests[module.name] = (module, module_digest(module))
        return cached[1]

    def _program_digest(self) -> str:
        """Digest of the whole program (module digests in order)."""
        h = hashlib.sha256()
        for module in self.program.modules:
            h.update(self._digest(module).encode())
        return h.hexdigest()

    def _options_signature(self, options: CodeGenOptions) -> str:
        # Memoized per options object: one shared options instance
        # covers every cold module of a build.
        cached = self._option_sigs.get(id(options))
        if cached is not None and cached[0] is options:
            return cached[1]
        sig = options.cache_signature()
        self._option_sigs[id(options)] = (options, sig)
        return sig

    def codegen_batch(
        self,
        codegen_options: CodeGenOptions,
        per_module_options: Optional[Dict[str, CodeGenOptions]] = None,
    ) -> CodegenBatch:
        """The first half of a build: compile every module through the
        cache, as one batch in module order, with its
        ``per_module_options`` entry if it has one.  A compile's key is
        the module's digest and its options' full signature."""
        items = []
        hot_names: Set[str] = set()
        for module in self.program.modules:
            options = codegen_options
            if per_module_options is not None and module.name in per_module_options:
                options = per_module_options[module.name]
                hot_names.add(module.name)
            items.append((
                [self._digest(module), self._options_signature(options)],
                compile_action,
                (module, options, phases.CODEGEN_FIXED_SECONDS,
                 phases.CODEGEN_SECONDS_PER_INSTR),
            ))
        with self.tracer.span("codegen-batch", category="batch") as sp:
            actions = self.buildsys.run_batch("codegen", items)
            backends = self.buildsys.schedule(actions)
            sp.advance(backends.wall_seconds)
            sp.note(actions=backends.actions, cache_hits=backends.cache_hits,
                    hot_modules=len(hot_names))
        cold_hits = 0
        if per_module_options is not None:
            cold_hits = sum(
                1 for module, result in zip(self.program.modules, actions)
                if result.cache_hit and module.name not in hot_names
            )
        return CodegenBatch(
            keys=[a.key for a in actions],
            objects=[a.value.obj for a in actions],
            backends=backends,
            hot_modules=len(hot_names),
            cold_cache_hits=cold_hits,
        )

    def link_batch(self, batch: CodegenBatch, link_options: LinkOptions,
                   metadata: Optional[BuildOutcome] = None) -> BuildOutcome:
        """The second half: link a batch's objects as one cached action,
        keyed by the batch's action keys and the link options.  Given
        ``metadata``, the batch's link with its BB address map, the
        objects are linked without their map: the action derives its
        executable from ``metadata``'s (:func:`without_bb_addr_map`) and
        keeps the batch's schedule (a compile's cost does not depend on
        the map), re-deriving only its peak memory from the stripped
        objects."""
        objects, backends, inputs = batch.objects, batch.backends, batch.keys
        if metadata is not None:
            objects = [strip_bb_addr_map(obj) for obj in objects]
            backends = replace(backends, peak_action_memory=max(
                map(compile_peak_memory, objects), default=0))
            inputs = [*inputs, "strip:bb_addr_map"]

        def _link_compute():
            if metadata is None:
                link_result = link(objects, link_options, meter=MemoryMeter())
            else:
                link_result = without_bb_addr_map(
                    LinkResult(metadata.executable, metadata.link_stats), objects, link_options)
            seconds = link_result.stats.cost_units * phases.LINK_SECONDS_PER_BYTE
            return link_result, seconds, link_result.stats.peak_memory_bytes

        link_action = phases.run_cached_action(
            self, "link", "link",
            [hashlib.sha256("\n".join(inputs).encode()).hexdigest(),
             _link_options_signature(link_options)], _link_compute)
        link_result: LinkResult = link_action.value
        return BuildOutcome(
            executable=link_result.executable,
            objects=objects,
            backends=backends,
            link_stats=link_result.stats,
            link_seconds=link_action.cost_seconds,
            hot_modules=batch.hot_modules,
            cold_cache_hits=batch.cold_cache_hits,
        )

    # ------------------------------------------------------------------
    # Single phases (what the CLI subcommands, examples and benchmarks
    # are wired from).  Each calls the same function the stage graph
    # runs -- see :mod:`repro.core.phases` for the bodies -- given only
    # the inputs it reads; its times are dropped and no fallback
    # applies (:class:`~repro.faults.RetriesExhausted` propagates).

    def collect_pgo_profile(self) -> IRProfile:
        """Instrumented training run (the ``pgo-profile`` phase)."""
        return phases.PGO_PROFILE.run(self, {})["ir_profile"]

    def metadata_options(self, profile: IRProfile) -> CodeGenOptions:
        """Phases 1-2's one codegen configuration: PGO plus the BB address map."""
        return CodeGenOptions(ir_profile=profile, bb_addr_map=True)

    def link_options(self, name: str, **overrides) -> LinkOptions:
        """:class:`LinkOptions` for this program, with ``overrides`` applied.

        The public way to derive link options consistent with the
        pipeline's configuration (entry symbol, features, hugepages) --
        what every stage's :meth:`link_batch` call is given.
        """
        base = LinkOptions(
            output_name=name,
            entry_symbol=self.program.entry_function,
            features=self.program.features,
            hugepages=self.config.hugepages,
        )
        return replace(base, **overrides)

    def build_metadata(self, profile: IRProfile) -> BuildOutcome:
        """Phases 1-2: the BB-address-map metadata build (§3.2), from
        the ``metadata-build`` stage (its baseline is not returned)."""
        return phases.METADATA_BUILD.run(
            self, {"ir_profile": profile})["metadata"]

    def collect_perf(self, profile: Optional[IRProfile] = None) -> PerfData:
        """Phase 3 sampling: train, build the metadata binary, profile it.

        One public call covering what ``repro.tools profile`` does:
        returns the LBR :class:`PerfData` for this pipeline's program
        and configuration (``lbr_branches``, ``lbr_period``, seed).  A
        pre-collected ``profile`` skips the instrumented training run.
        """
        if profile is None:
            profile = self.collect_pgo_profile()
        return phases.LBR_PROFILE.run(
            self, {"metadata": self.build_metadata(profile)})["perf"]

    def analyze(
        self, perf: PerfData, profile: Optional[IRProfile] = None
    ) -> WPAResult:
        """Phase 3 analysis: WPA of ``perf`` against the metadata binary.

        The ``create_llvm_prof`` analogue as a public method: builds (or
        replays from cache) the metadata binary and converts the profile
        into layout directives.  ``perf`` may come from
        :meth:`collect_perf` or from disk; its content digest keys the
        cached analysis either way.
        """
        if profile is None:
            profile = self.collect_pgo_profile()
        return phases.WPA.run(
            self, {"metadata": self.build_metadata(profile), "perf": perf,
                   "perf_key": perf.digest()})["wpa_result"]

    def relink(
        self,
        ir_profile: IRProfile,
        wpa_result: WPAResult,
        hot_profile: Optional[IRProfile] = None,
    ) -> BuildOutcome:
        """Phase 4 alone (callable with externally computed directives).

        ``ir_profile`` must be the profile the metadata build consumed;
        ``hot_profile`` is the stale-matching recovery of it, when
        enabled (see :func:`repro.core.phases.relink`).
        """
        return phases.RELINK.run(
            self, {"ir_profile": ir_profile, "wpa_result": wpa_result,
                   "recovered_profile": hot_profile})["optimized"]

    def build_bolt_input(self, ir_profile: IRProfile) -> BuildOutcome:
        """The BOLT metadata binary: same objects, linked with --emit-relocs."""
        with self.tracer.span("build:bolt-metadata.out", category="build"):
            batch = self.codegen_batch(self.metadata_options(ir_profile))
            return self.link_batch(batch, self.link_options(
                "bolt-metadata.out", keep_bb_addr_map=False, emit_relocs=True))

    # ------------------------------------------------------------------
    # The whole pipeline

    def run_stages(
        self,
        *,
        stop_after: Optional[str] = None,
        resume: Optional[ArtifactSet] = None,
    ) -> ArtifactSet:
        """Execute :data:`repro.core.phases.PIPELINE`.

        The engine underneath :meth:`run`, exposed for partial
        execution: ``stop_after`` runs the graph only through the named
        stage (``"wpa"``, ...), the returned
        :class:`~repro.core.stages.ArtifactSet` serializes with
        :meth:`~repro.core.stages.ArtifactSet.save`, and a later call
        with ``resume`` (the loaded set) replays it and runs only the
        remaining stages -- bit-identical to one full run.
        """
        # Digest of the program *as constructed* (pre-inlining), the
        # identity a resumed process can recompute before any stage ran.
        program_digest = self._program_digest()
        if resume is not None:
            expected = resume.meta.get("program")
            if expected is not None and expected != program_digest:
                raise StageGraphError(
                    "resume-mismatch",
                    "resumed artifact set was produced from a different "
                    f"program (digest {expected[:12]}.. != "
                    f"{program_digest[:12]}..)")
            if "prepared_program" in resume.values:
                # The inline stage already ran in the producing process;
                # replay its program transform, not just its artifacts.
                self.program = resume.values["prepared_program"]
        artifacts = phases.PIPELINE.execute(
            self, stop_after=stop_after, resume=resume)
        artifacts.meta.setdefault("program", program_digest)
        artifacts.meta.setdefault("program_name", self.program.name)
        return artifacts

    def result_from(self, artifacts: ArtifactSet) -> PipelineResult:
        """Assemble the :class:`PipelineResult` of a complete execution."""
        pending = phases.PIPELINE.pending(artifacts)
        if pending:
            raise StageGraphError(
                "missing-producer",
                f"execution is partial (stages not run: {pending}); "
                "resume it to completion before assembling a result",
                stage=pending[0])
        values = artifacts.values
        degraded_reasons = artifacts.degraded_reasons()
        return PipelineResult(
            program=self.program,
            config=self.config,
            baseline=values["baseline"],
            metadata=values["metadata"],
            optimized=values["optimized"],
            ir_profile=values["ir_profile"],
            perf=values["perf"],
            wpa_result=values["wpa_result"],
            phase_seconds=artifacts.phase_seconds(),
            match_stats=values["match_stats"],
            recovered_profile=values["recovered_profile"],
            counters=self.counters,
            degraded=bool(degraded_reasons),
            degraded_reasons=degraded_reasons,
        )

    def run(self) -> PipelineResult:
        """Execute Phases 1-4 and return all artifacts.

        One full pass of :data:`repro.core.phases.PIPELINE`
        through the stage driver (see :mod:`repro.core.stages`), which
        applies tracing, fault degradation and phase accounting
        uniformly.

        Degradation contract (active only under a ``fault_plan``): an
        exhausted retry budget in profile collection, WPA or the Phase-4
        relink falls back -- empty instrumented profile, baseline
        layout, baseline binary respectively, per the stages' declared
        ``fallback=`` -- and marks the result ``degraded`` with an
        explicit reason.  The product build (``metadata-build``, which
        links the metadata and baseline binaries) has nothing to fall
        back to, so its exhaustion propagates as
        :class:`~repro.faults.RetriesExhausted`.
        """
        return self.result_from(self.run_stages())

    def reoptimize(self, state) -> PipelineResult:
        """Re-run the four phases against a prior release's state.

        ``state`` is the :class:`repro.incr.IncrState` snapshot captured
        from the previous release's :class:`PipelineResult` (or the
        path such a snapshot was saved to).  This is :meth:`run`, with
        the pipeline's :class:`~repro.runtime.FunctionSolveCache`
        replaying unchanged functions' Ext-TSP solves, between two
        plain functions: :func:`repro.core.phases.plan_dirty` (the
        *dirty set*, functions whose CFG or profile slice changed, for
        observability only) and
        :func:`repro.core.phases.incremental_summary`, which lands the
        plan, hot-set flips and solve reuse on ``result.incremental``.
        The solve cache is keyed by the exact solver inputs, so the
        result is **bit-identical** to a full rebuild whatever the plan
        predicted, and degradations keep their :meth:`run` semantics.
        """
        from repro import incr as incr_mod

        if isinstance(state, (str, Path)):
            state = incr_mod.IncrState.load(state)
        state.check(self.program.name, self.config)
        plan = phases.plan_dirty(self, state)
        result = self.run()
        result.incremental = phases.incremental_summary(
            self, state, plan, result.wpa_result)
        return result


def optimize(
    program: ir.Program,
    config: PipelineConfig = PipelineConfig(),
    seed: Optional[int] = None,
) -> PipelineResult:
    """One-call Propeller: run all four phases on ``program``."""
    if seed is not None:
        config = replace(config, seed=seed)
    return PropellerPipeline(program, config).run()
