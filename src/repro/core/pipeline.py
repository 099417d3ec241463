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
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Set, Tuple

from repro import ir
from repro.buildsys import BuildSystem, PhaseReport, digest_parts
from repro.codegen import CodeGenOptions, compile_action
from repro.codegen.lowering import compile_peak_memory
from repro.core.wpa import WPAOptions, WPAResult
from repro.elf import Executable, ObjectFile
from repro.elf.strip import strip_bb_addr_map
from repro.faults import FaultPlan, RetriesExhausted
from repro.ir.digest import module_digests
from repro.linker import LinkOptions, LinkResult, LinkStats, link, without_bb_addr_map
from repro.linker.linker import PAGE_SIZE, TEXT_BASE
from repro.obs import NULL_TRACER, Counters, PipelineReport, Tracer
from repro.profiles import MATCH_MODES, IRProfile, MatchStats, PerfData
from repro.runtime import FunctionSolveCache, resolve_cache_dir

if TYPE_CHECKING:
    from repro.incr.state import FunctionState


#: Every action kind :meth:`PropellerPipeline.run` and
#: :meth:`PropellerPipeline.build_bolt_input` submit to the build
#: system: what a ``fault_plan``'s ``only=`` may name.
ACTION_KINDS = ("codegen", "link", "profile-pgo", "profile-lbr", "wpa")

#: Blocks the frontend scorecard walks unless told otherwise.
SCORECARD_BLOCKS = 200_000


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
    #: a compact spec string (``"fail=0.02,timeout=0.01,seed=7"``) or
    #: ``None`` for no injection.  A plan changes simulated durations
    #: and the ``faults.*``/``retry.*`` counters, never any artifact:
    #: ``PipelineResult.digest()`` is bit-identical with any
    #: non-exhausting plan on or off.  When a whole retry budget is
    #: exhausted for profile collection, WPA or the relink, the run
    #: degrades instead of failing (``PipelineResult.degraded``); a
    #: product build that exhausts raises
    #: :class:`repro.faults.RetriesExhausted`.
    fault_plan: Optional[str] = None
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
        if not (isinstance(self.pgo_drift, (int, float))
                and 0.0 <= self.pgo_drift <= 1.0):
            raise ValueError(
                f"pgo_drift must be a finite number in [0, 1], "
                f"got {self.pgo_drift!r}")
        if self.stale_matching not in MATCH_MODES:
            raise ValueError(
                f"stale_matching must be one of {MATCH_MODES}, "
                f"got {self.stale_matching!r}")
        plan = FaultPlan.resolve(self.fault_plan)
        for kind in plan.only_kinds if plan is not None else ():
            if kind not in ACTION_KINDS:
                raise ValueError(
                    f"fault_plan only= kinds must be among {ACTION_KINDS}, "
                    f"got {kind!r}")


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

    The diff of the finished run against the prior release's snapshot
    (what changed and why, hot-set churn) and the solve-cache reuse
    tallies.  Pure accounting -- never part of
    :meth:`PipelineResult.digest` -- and serialized onto the report
    additively by :func:`repro.obs.report.plain`.
    """

    #: ``result.digest()`` of the prior release the run was diffed against.
    prior_digest: str
    #: Functions whose CFG or profile slice changed (sorted).
    dirty: Tuple[str, ...]
    #: Functions absent from the prior snapshot (sorted).
    added: Tuple[str, ...]
    #: Prior functions no longer present (sorted).
    deleted: Tuple[str, ...]
    #: Function -> why it is dirty (``cfg`` or ``profile``).
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
    #: Function -> its CFG digest in ``program``, from the pass
    #: (:func:`repro.ir.digest.module_digests`) that keyed the compiles.
    cfg_digests: Dict[str, str]
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
    #: True when some phase exhausted its fault-retry budget and the
    #: pipeline fell back (empty profile, baseline layout, ...) instead
    #: of failing.  Degradation is honest: the flag and its reasons ride
    #: on the report, and the ``faults.degraded`` counter matches.
    degraded: bool = False
    #: One entry per degraded phase, in the order they ran, e.g.
    #: ``("lbr-profile",)``.
    degraded_reasons: Tuple[str, ...] = ()
    #: Incremental re-optimization accounting, filled only by
    #: :meth:`PropellerPipeline.reoptimize`: the dirty/added/deleted
    #: function sets, their reasons, hot-set flips and the solve-cache
    #: hit/miss tallies.  Accounting, never content -- excluded from
    #: :meth:`digest` like every other non-artifact field.
    incremental: Optional[IncrementalSummary] = None

    @cached_property
    def functions(self) -> Dict[str, "FunctionState"]:
        """The run's per-function evidence, built on first read: each
        function's :class:`~repro.incr.FunctionState` (CFG digest,
        profile-slice digest, WPA hot-set membership).  What
        ``--state-dir`` persists, ``reoptimize()`` diffs and ``explain``
        reads."""
        from repro.incr.state import FunctionState

        hot = set(self.wpa_result.hot_functions)
        return {name: FunctionState(cfg, self.ir_profile.function_digest(name), name in hot)
                for name, cfg in self.cfg_digests.items()}

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
        self, max_blocks: int = SCORECARD_BLOCKS,
    ) -> Dict[str, Dict[str, float]]:
        """Hardware-counter scorecards for the baseline and optimized binaries.

        Walks the program once and replays that one walk, projected onto
        each binary, through the scaled frontend model; returns
        ``{"baseline": {...}, "optimized": {...}}`` of Table 4 counters
        plus cycles/instructions/ipc (see :meth:`FrontendCounters.as_dict`).  Fully deterministic in
        (binaries, ``max_blocks``) -- which is what lets regression
        gates compare the values exactly.
        """
        return self._simulate_frontend(max_blocks)[0]

    def frontend_counters_by_function(
        self, max_blocks: int = SCORECARD_BLOCKS,
    ) -> Dict[str, Dict[str, Dict[str, float]]]:
        """Per-function frontend attribution for both binaries.

        Same simulation as :meth:`frontend_counters`, read per function:
        returns ``{"baseline": {fn: {...}}, "optimized": {fn: {...}}}``
        where each function's dict carries the subset of counters the
        explain engine ranks on (``cycles``, ``instructions``,
        ``l1i_miss``, ``itlb_miss``, ``taken_branches``, ``baclears``,
        ``dsb_miss``).  The scorecard's totals are the row sums of the
        same charges.
        """
        return self._simulate_frontend(max_blocks)[1]

    def _simulate_frontend(self, max_blocks=SCORECARD_BLOCKS):
        """One walk replayed through both binaries; scorecard and
        per-function attribution.  The walk seed (77) and the model
        (:data:`~repro.hwmodel.frontend.SCALED_PARAMS`) are fixed:
        :func:`~repro.hwmodel.frontend_scorecard`'s defaults."""
        from repro.hwmodel import frontend_scorecard

        counters = frontend_scorecard(
            {"baseline": self.baseline.executable,
             "optimized": self.optimized.executable},
            max_blocks)
        scorecard = {name: c.as_dict() for name, c in counters.items()}
        attribution = {
            name: {
                func: {key: float(getattr(fc, key)) for key in (
                    "cycles", "instructions", "l1i_miss", "itlb_miss",
                    "taken_branches", "baclears", "dsb_miss")}
                for func, fc in c.per_function.items()
            }
            for name, c in counters.items()
        }
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


# Imported here, not at the top: the phases build the result types
# defined above (``IncrementalSummary``).
from repro.core import phases  # noqa: E402


class PropellerPipeline:
    """Drives Phases 1-4 for one program.

    :param tracer: span sink for this run (see :mod:`repro.obs`): pass
        a :class:`~repro.obs.Tracer` to record phase/batch/action spans.
        ``None`` is the shared no-op tracer, and the instrumented paths
        then cost nothing.  Tracing never changes any artifact
        (``PipelineResult.digest()`` is identical either way).
        Counters are always collected; they live on the build system
        (``self.counters``) so externally supplied build systems keep
        their own accounting.
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
        self.tracer = NULL_TRACER if tracer is None else tracer
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
        self._digests: Dict[str, Tuple[ir.Module, str, Dict[str, str]]] = {}
        # id -> (options, signature); the options reference keeps the
        # object alive so a recycled id can never alias a stale entry.
        self._option_sigs: Dict[int, Tuple[CodeGenOptions, str]] = {}

    # ------------------------------------------------------------------
    # Build helpers

    def _digest(self, module: ir.Module) -> Tuple[str, Dict[str, str]]:
        """The module's digest and its functions' digests, from one pass.
        Identity-checked, so replacing ``self.program`` (inlining) can
        never serve a stale digest."""
        cached = self._digests.get(module.name)
        if cached is None or cached[0] is not module:
            cached = self._digests[module.name] = (module, *module_digests(module))
        return cached[1:]

    def _program_digest(self) -> str:
        """Digest of the whole program (module digests in order)."""
        h = hashlib.sha256()
        for module in self.program.modules:
            h.update(self._digest(module)[0].encode())
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
                [self._digest(module)[0], self._options_signature(options)],
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
                link_result = link(objects, link_options)
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
    # are wired from).  Each calls the same function :meth:`run` does
    # -- see :mod:`repro.core.phases` for the bodies -- given only the
    # values it reads; its seconds are dropped and no fallback applies
    # (:class:`~repro.faults.RetriesExhausted` propagates).

    def collect_pgo_profile(self) -> IRProfile:
        """Instrumented training run (the ``pgo-profile`` phase)."""
        return phases.pgo_profile(self)[0]

    def metadata_options(self, profile: IRProfile) -> CodeGenOptions:
        """Phases 1-2's one codegen configuration: PGO plus the BB address map."""
        return CodeGenOptions(ir_profile=profile, bb_addr_map=True)

    def link_options(self, name: str, **overrides) -> LinkOptions:
        """:class:`LinkOptions` for this program, with ``overrides`` applied.

        The public way to derive link options consistent with the
        pipeline's configuration (entry symbol, features, hugepages) --
        what every phase's :meth:`link_batch` call is given.
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
        the ``metadata-build`` phase (its baseline is not returned)."""
        return phases.metadata_build(self, profile)[0]

    def collect_perf(self) -> PerfData:
        """Phase 3 sampling: train, build the metadata binary, profile it.

        One public call covering what ``repro.tools profile`` does:
        returns the LBR :class:`PerfData` for this pipeline's program
        and configuration (``lbr_branches``, ``lbr_period``, seed).
        """
        profile = self.collect_pgo_profile()
        return phases.lbr_profile(self, self.build_metadata(profile))[0]

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
        return phases.wpa_analysis(self, self.build_metadata(profile), perf,
                                   perf.digest())[0]

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
        return phases.relink(self, ir_profile, wpa_result, hot_profile)

    def build_bolt_input(self, ir_profile: IRProfile) -> BuildOutcome:
        """The BOLT metadata binary: same objects, linked with --emit-relocs."""
        with self.tracer.span("build:bolt-metadata.out", category="build"):
            batch = self.codegen_batch(self.metadata_options(ir_profile))
            return self.link_batch(batch, self.link_options(
                "bolt-metadata.out", keep_bb_addr_map=False, emit_relocs=True))

    # ------------------------------------------------------------------
    # The whole pipeline

    def run(self) -> PipelineResult:
        """Execute Phases 1-4 and return all artifacts.

        The phases of :mod:`repro.core.phases`, called in order, each
        under its ``phase:*`` span: ``pgo-profile`` and ``inline``
        share ``phase:baseline``, stale matching runs outside any phase
        span.  Over a ``cache_dir`` an earlier run (or
        :meth:`collect_perf`) populated, every cached action replays and
        only what is missing is computed: the artifacts are a cold run's,
        bit for bit; only replayed actions' simulated seconds shrink.

        Degradation contract (active only under a ``fault_plan``): an
        exhausted retry budget in profile collection, WPA or the Phase-4
        relink falls back -- empty instrumented profile, baseline
        layout, baseline binary respectively -- and marks the result
        ``degraded`` with the phase's name as the reason, a
        ``degraded:<name>`` span and one ``faults.degraded`` count.  A
        run whose hardware profile degraded skips WPA silently (no
        span, no second reason).  The product build
        (``metadata-build``, which links the metadata and baseline
        binaries) has nothing to fall back to, so its exhaustion
        propagates as :class:`~repro.faults.RetriesExhausted`.
        """
        tracer = self.tracer
        degraded: List[str] = []

        def degradable(name, body, fallback):
            try:
                return body()
            except RetriesExhausted as exc:
                value = fallback()
                degraded.append(name)
                self.counters.incr("faults.degraded")
                with tracer.span(f"degraded:{name}", category="fault") as sp:
                    sp.note(kind=exc.kind, attempts=exc.attempts,
                            events=",".join(exc.events))
                return value

        with tracer.span("phase:baseline", category="phase"):
            # Instrumented training kept crashing: proceed un-PGO'd.
            ir_profile, pgo_seconds = degradable(
                "pgo-profile", lambda: phases.pgo_profile(self),
                lambda: (IRProfile(), 0.0))
            phases.inline(self, ir_profile)
        recovered, match_stats = phases.match_stale(
            self, ir_profile, self.config.stale_matching)
        with tracer.span("phase:metadata-build", category="phase"):
            metadata, baseline = phases.metadata_build(self, ir_profile)
        with tracer.span("phase:profile", category="phase"):
            # No hardware profile: empty perf data.
            perf, perf_key, lbr_seconds = degradable(
                "lbr-profile", lambda: phases.lbr_profile(self, metadata),
                lambda: (PerfData(period=self.config.lbr_period,
                                  binary_name="metadata.out"), "", 0.0))
        if "lbr-profile" in degraded:
            # Nothing to analyze; the run is already degraded.
            wpa_result, wpa_seconds = phases.empty_wpa_result(), 0.0
        else:
            with tracer.span("phase:wpa", category="phase"):
                # No layout directives: Phase 4 keeps the baseline layout.
                wpa_result, wpa_seconds = degradable(
                    "wpa",
                    lambda: phases.wpa_analysis(self, metadata, perf, perf_key),
                    lambda: (phases.empty_wpa_result(), 0.0))
        with tracer.span("phase:relink", category="phase"):
            # The relink itself exhausted its budget: ship the baseline.
            optimized = degradable("relink", lambda: phases.relink(
                self, ir_profile, wpa_result, recovered), lambda: baseline)
        phase_seconds = {key: float(value) for key, value in (
            ("pgo_profile_run", pgo_seconds),
            ("pgo_instrumented_build",
             baseline.wall_seconds * phases.INSTRUMENTED_BUILD_FACTOR),
            ("opt_build", baseline.wall_seconds),
            ("metadata_build", metadata.wall_seconds),
            ("lbr_profile_run", lbr_seconds),
            ("wpa_convert", wpa_seconds),
            ("prop_backends", optimized.backends.wall_seconds),
            ("prop_link", optimized.link_seconds))}
        return PipelineResult(
            program=self.program,
            config=self.config,
            baseline=baseline,
            metadata=metadata,
            optimized=optimized,
            ir_profile=ir_profile,
            perf=perf,
            wpa_result=wpa_result,
            cfg_digests={name: cfg for module in self.program.modules
                         for name, cfg in self._digest(module)[1].items()},
            phase_seconds=phase_seconds,
            match_stats=match_stats,
            recovered_profile=recovered,
            counters=self.counters,
            degraded=bool(degraded),
            degraded_reasons=tuple(degraded),
        )

    def reoptimize(self, state) -> PipelineResult:
        """:meth:`run` against a prior release's state, plus accounting.

        ``state`` is the :class:`repro.incr.IncrState` snapshot captured
        from the previous release's :class:`PipelineResult` (or the
        path such a snapshot was saved to).  The run is :meth:`run`
        itself, with the pipeline's
        :class:`~repro.runtime.FunctionSolveCache` replaying unchanged
        functions' Ext-TSP solves; afterwards
        :func:`repro.core.phases.incremental_summary` diffs the snapshot
        against the finished run's evidence and lands the dirty set,
        hot-set flips and solve reuse on ``result.incremental``.  The
        solve cache is keyed by the exact solver inputs, so the result
        is **bit-identical** to a full rebuild, and every artifact,
        phase second, fault and degradation is :meth:`run`'s.
        """
        from repro import incr as incr_mod

        if isinstance(state, (str, Path)):
            state = incr_mod.IncrState.load(state)
        state.check(self.program.name, self.config)
        result = self.run()
        result.incremental = phases.incremental_summary(self, state, result)
        return result


def optimize(
    program: ir.Program,
    config: PipelineConfig = PipelineConfig(),
) -> PipelineResult:
    """One-call Propeller: run all four phases on ``program``."""
    return PropellerPipeline(program, config).run()
