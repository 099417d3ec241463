"""The Propeller phases, one definition each (§3, Figure 1).

The only place a phase is written down: each stage function below *is*
the phase body -- ``(pipeline, inputs) -> {artifact or phase_seconds
key: value}``: the cached action, its gauges, its outputs and times --
followed by its fallback, its artifacts and its
:class:`~repro.core.stages.Stage` declaration.  To change a phase, edit
its function here.

* **Phase 1/2** -- compile every module once, with PGO and BB address
  map metadata (actions cached by module content digest), and link the
  objects twice: the metadata binary keeps the map, the baseline is
  the same objects with the map stripped (§3.2).
* **Phase 3** -- run the workload on the metadata binary, sample LBR,
  and run whole-program analysis to produce ``cc_prof``/``ld_prof``.
* **Phase 4** -- re-run codegen *only* for modules containing hot
  functions (with basic block section clusters); every cold module's
  object is a cache hit from Phase 2; relink with the global symbol
  order, dropping metadata sections.

The stages are wired into one graph, the module constant
:data:`PIPELINE`.  The incremental engine adds no stage to it:
:func:`plan_dirty` and :func:`incremental_summary` are plain functions
``reoptimize()`` calls before and after the same ``run()``.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Set, Tuple

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions
from repro.core import wpa as wpa_mod
from repro.core.exttsp import DEFAULT_PARAMS, ext_tsp_order_many
from repro.core.pipeline import BuildOutcome, IncrementalSummary
from repro.core.stages import Artifact, Stage, StageGraph
from repro.core.wpa import WPAOptions, WPAResult, WPAStats
from repro.faults import RetriesExhausted
from repro.ir.passes import clone_program, inline_hot_calls
from repro.ir.verify import verify_program
from repro.profiles import (
    IRProfile,
    MatchStats,
    PerfData,
    collect_ir_profile,
    collect_lbr_profile,
    match_profile,
)

#: Modelled cost of the instrumented (``-fprofile-generate``) build
#: relative to the optimized baseline build it precedes: slightly
#: cheaper, because instrumentation replaces the optimization passes
#: whose time it saves with cheap counter insertion.  Reported as
#: ``phase_seconds["pgo_instrumented_build"]`` (Fig. 4's PGO column);
#: purely accounting, never part of any artifact digest.
INSTRUMENTED_BUILD_FACTOR = 0.9

# Cost-model rates (simulated seconds per unit of work).
CODEGEN_SECONDS_PER_INSTR = 1e-4
#: Fixed per-compile-action overhead (process spawn, IR read) -- this
#: is what makes full backend re-runs expensive relative to BOLT's
#: in-process passes on a workstation (Fig. 9, right).
CODEGEN_FIXED_SECONDS = 1.5
LINK_SECONDS_PER_BYTE = 2e-7
WPA_SECONDS_PER_UNIT = 1e-6
PROFILE_SECONDS_PER_BRANCH = 2e-6


def run_cached_action(pipe: Any, span: str, kind: str, key_parts, compute):
    """Run one cached action on the submitting machine, under its span.

    Profile collection, whole-program analysis and the final link all
    run locally (``remote=False``), outside the per-action RAM budget
    (§3.5), each inside one ``category="action"`` span that advances by
    the action's simulated cost and notes whether the cache replayed
    it.
    """
    with pipe.tracer.span(span, category="action") as sp:
        action = pipe.buildsys.run_action(kind, key_parts, compute,
                                          remote=False)
        sp.advance(action.cost_seconds)
        sp.note(cache_hit=action.cache_hit)
    return action


def pgo_profile(pipe: Any, inputs) -> Dict[str, Any]:
    """Instrumented training run (the first stage of the PGO baseline).

    The run is deterministic in (program, steps, seed, drift), so it
    is itself an action: a warm cache replays the profile instead of
    re-interpreting the program.
    """
    config = pipe.config
    program = pipe.program

    def compute():
        profile = collect_ir_profile(
            program, max_steps=config.pgo_steps, seed=config.seed)
        profile = profile.apply_drift(config.pgo_drift, seed=config.seed)
        return profile, config.pgo_steps * PROFILE_SECONDS_PER_BRANCH, 0

    action = run_cached_action(
        pipe, "pgo-train", "profile-pgo",
        [pipe._program_digest(), str(config.pgo_steps),
         str(config.seed), float(config.pgo_drift).hex()],
        compute)
    profile: IRProfile = action.value
    # getattr: a persistent-store entry written by an older version
    # may predate the profile-quality fields.
    pipe.counters.gauge("pgo.match_rate", profile.match_rate)
    pipe.counters.gauge("pgo.source_entries",
                        getattr(profile, "source_entries", 0))
    pipe.counters.gauge("pgo.dropped_entries",
                        getattr(profile, "dropped_entries", 0))
    return {"ir_profile": profile, "pgo_profile_run": action.cost_seconds}


def _pgo_profile_fallback(pipe: Any, inputs) -> Dict[str, Any]:
    # Instrumented training kept crashing: proceed un-PGO'd.
    return {"ir_profile": IRProfile(), "pgo_profile_run": 0.0}


ART_IR_PROFILE = Artifact("ir_profile", IRProfile)

PGO_PROFILE = Stage(
    name="pgo-profile",
    run=pgo_profile,
    outputs=(ART_IR_PROFILE,),
    phase="baseline",
    fallback=_pgo_profile_fallback,
    time_keys=("pgo_profile_run",),
    doc="Instrumented PGO training run (cached action).",
)


def inline(pipe: Any, inputs) -> Dict[str, Any]:
    """Phase 1 optimization: profile-guided inlining (when configured).

    Replaces the pipeline's program with a transformed copy; every
    later phase (including the profiled run) sees the inlined code,
    while ``ir_profile`` still describes the pre-inlining CFG --
    deliberately, that is the point.
    """
    if pipe.config.inline_hot:
        transformed = clone_program(pipe.program)
        inline_hot_calls(transformed, inputs["ir_profile"])
        verify_program(transformed)
        pipe.program = transformed
    return {"prepared_program": pipe.program}


ART_PREPARED = Artifact("prepared_program", ir.Program)

INLINE = Stage(
    name="inline",
    run=inline,
    inputs=(ART_IR_PROFILE,),
    outputs=(ART_PREPARED,),
    phase="baseline",
    doc="Profile-guided inlining (when configured); fixes the "
        "program every build stage codegens.",
)


def match_stale(pipe: Any, profile: IRProfile,
                mode: str) -> Tuple[IRProfile, MatchStats]:
    """Re-attach ``profile`` to the pipeline's *current* program.

    Runs :func:`repro.profiles.match_profile` in ``mode`` and records
    the ``profile.*`` gauges.  The stage runs after profile-guided
    inlining, so the anchors are matched against the CFGs codegen will
    actually see.
    """
    with pipe.tracer.span("stale-match", category="action") as sp:
        recovered, stats = match_profile(profile, pipe.program, mode=mode)
        sp.note(mode=mode, matched_exact=stats.matched_exact,
                matched_loose=stats.matched_loose)
    for name, value in stats.as_gauges().items():
        pipe.counters.gauge(name, value)
    return recovered, stats


def stale_match(pipe: Any, inputs) -> Dict[str, Any]:
    mode = pipe.config.stale_matching
    if mode == "off":
        return {"recovered_profile": None, "match_stats": None}
    recovered, stats = match_stale(pipe, inputs["ir_profile"], mode)
    return {"recovered_profile": recovered, "match_stats": stats}


#: ``Optional[IRProfile]`` / ``Optional[MatchStats]`` -- ``object``
#: (the type escape hatch) because ``None`` is a legal value.
ART_RECOVERED = Artifact("recovered_profile")
ART_MATCH_STATS = Artifact("match_stats")

STALE_MATCH = Stage(
    name="stale-match",
    run=stale_match,
    inputs=(ART_IR_PROFILE, ART_PREPARED),
    outputs=(ART_RECOVERED, ART_MATCH_STATS),
    doc="Stale-profile matching: re-attach the drifted profile to "
        "the current CFGs (no-op when mode is 'off').",
)


def metadata_build(pipe: Any, inputs) -> Dict[str, Any]:
    """Phases 1-2: one compile of every module, linked twice (§3.2).

    ``metadata.out`` keeps the BB address map: the binary Phase 3
    profiles.  ``base.out`` is the same objects without it -- the PGO
    baseline the paper deploys and measures against, which differs from
    the profiled binary only by that non-allocated section, and so is
    derived from ``metadata.out`` rather than relinked.  Both consume
    the profile as trained, stale and all.
    """
    with pipe.tracer.span("build:metadata.out", category="build"):
        batch = pipe.codegen_batch(pipe.metadata_options(inputs["ir_profile"]))
        metadata = pipe.link_batch(
            batch, pipe.link_options("metadata.out", keep_bb_addr_map=True))
    with pipe.tracer.span("build:base.out", category="build"):
        baseline = pipe.link_batch(
            batch, pipe.link_options("base.out", keep_bb_addr_map=False), metadata)
    return {"metadata": metadata, "baseline": baseline,
            "pgo_instrumented_build":
                baseline.wall_seconds * INSTRUMENTED_BUILD_FACTOR,
            "opt_build": baseline.wall_seconds,
            "metadata_build": metadata.wall_seconds}


ART_METADATA = Artifact("metadata", BuildOutcome)
ART_BASELINE = Artifact("baseline", BuildOutcome)

METADATA_BUILD = Stage(
    name="metadata-build",
    run=metadata_build,
    inputs=(ART_IR_PROFILE, ART_PREPARED),
    outputs=(ART_METADATA, ART_BASELINE),
    phase="metadata-build",
    time_keys=("pgo_instrumented_build", "opt_build", "metadata_build"),
    doc="Phases 1-2: compile every module once with the BB address map; "
        "link the metadata binary, and the baseline from the same "
        "objects without the map.",
)


def lbr_profile(pipe: Any, inputs) -> Dict[str, Any]:
    """Phase 3 profiled run: deterministic in (binary, run length, seed).

    The producing action's key rides along as ``perf_key``: it doubles
    as the perf data's content identity for downstream action keys.
    """
    config = pipe.config
    metadata_exe = inputs["metadata"].executable

    def compute():
        perf = collect_lbr_profile(metadata_exe, max_branches=config.lbr_branches,
                                   period=config.lbr_period, seed=config.seed + 1)
        cost = config.lbr_branches * PROFILE_SECONDS_PER_BRANCH
        return perf, cost, perf.size_bytes

    action = run_cached_action(
        pipe, "lbr-sample", "profile-lbr",
        [metadata_exe.content_digest(), str(config.lbr_branches),
         str(config.lbr_period), str(config.seed + 1)],
        compute)
    perf: PerfData = action.value
    pipe.counters.gauge("lbr.samples", perf.num_samples)
    pipe.counters.gauge("lbr.records", perf.num_records)
    pipe.counters.gauge("lbr.profile_bytes", perf.size_bytes)
    return {"perf": perf, "perf_key": action.key,
            "lbr_profile_run": action.cost_seconds}


def _lbr_profile_fallback(pipe: Any, inputs) -> Dict[str, Any]:
    # No hardware profile: empty perf data.
    return {
        "perf": PerfData(period=pipe.config.lbr_period, binary_name="metadata.out"),
        "perf_key": "",
        "lbr_profile_run": 0.0,
    }


ART_PERF = Artifact("perf", PerfData)
ART_PERF_KEY = Artifact("perf_key", str)

LBR_PROFILE = Stage(
    name="lbr-profile",
    run=lbr_profile,
    inputs=(ART_METADATA,),
    outputs=(ART_PERF, ART_PERF_KEY),
    phase="profile",
    fallback=_lbr_profile_fallback,
    time_keys=("lbr_profile_run",),
    doc="Phase 3 sampling: run the metadata binary, sample LBR.",
)


def _wpa_options_signature(options: WPAOptions) -> str:
    """Digest of the WPA knobs and the constants WPA reads beside them
    (flat values, so the auto-generated reprs are complete and stable)."""
    signed = (options, wpa_mod.HOT_FUNCTION_MIN_FRACTION, DEFAULT_PARAMS)
    return hashlib.sha256(repr(signed).encode("utf-8")).hexdigest()


def wpa_analysis(pipe: Any, inputs) -> Dict[str, Any]:
    """Whole-program analysis as a cached action.

    Keyed by the metadata binary, the perf data's producing action
    and the WPA options.
    """
    config = pipe.config
    metadata_exe = inputs["metadata"].executable
    perf = inputs["perf"]

    def compute():
        wpa_result = wpa_mod.analyze(
            metadata_exe, perf, config.wpa,
            tracer=pipe.tracer, solve_cache=pipe.solve_cache,
        )
        cost = wpa_result.stats.cost_units * WPA_SECONDS_PER_UNIT
        return wpa_result, cost, wpa_result.stats.peak_memory_bytes

    action = run_cached_action(
        pipe, "wpa-analyze", "wpa",
        [metadata_exe.content_digest(), inputs["perf_key"],
         _wpa_options_signature(config.wpa)],
        compute)
    wpa_result: WPAResult = action.value
    stats = wpa_result.stats
    pipe.counters.gauge(
        "lbr.record_coverage",
        1.0 - stats.records_dropped / stats.num_records if stats.num_records else 1.0,
    )
    pipe.counters.gauge("wpa.hot_functions", stats.hot_functions)
    pipe.counters.gauge("wpa.dcfg_nodes", stats.dcfg_nodes)
    pipe.counters.gauge("wpa.dcfg_edges", stats.dcfg_edges)
    pipe.counters.gauge("wpa.peak_memory_bytes", stats.peak_memory_bytes)
    return {"wpa_result": wpa_result, "wpa_convert": action.cost_seconds}


def empty_wpa_result() -> WPAResult:
    """The no-directives WPA result degraded runs fall back to.

    With empty clusters and an empty symbol order, Phase 4 degenerates
    to the stale-matching recovery's warm clusters when available, or
    to the baseline layout -- the honest "ship something" outcome when
    profile collection or analysis exhausted its retry budget.
    """
    return WPAResult(clusters={}, symbol_order=[], hot_functions=[],
                     dcfg={}, call_edges={}, stats=WPAStats())


def _wpa_fallback(pipe: Any, inputs) -> Dict[str, Any]:
    # No layout directives: Phase 4 keeps the baseline layout.
    return {"wpa_result": empty_wpa_result(), "wpa_convert": 0.0}


ART_WPA = Artifact("wpa_result", WPAResult)

WPA = Stage(
    name="wpa",
    run=wpa_analysis,
    inputs=(ART_METADATA, ART_PERF, ART_PERF_KEY),
    outputs=(ART_WPA,),
    phase="wpa",
    fallback=_wpa_fallback,
    # No hardware profile was collected: nothing to analyze.  The
    # skip is silent -- the run is already degraded by lbr-profile.
    skip_if_degraded=("lbr-profile",),
    time_keys=("wpa_convert",),
    doc="Phase 3 analysis: whole-program analysis into "
        "cc_prof/ld_prof layout directives.",
)


def _warm_clusters(
    pipe: Any,
    profile: IRProfile,
    exclude: Set[str],
) -> Dict[str, List[List[int]]]:
    """Ext-TSP block clusters for *warm* functions, from IR counts.

    The hardware profile's hot set (``exclude``) already gets WPA
    clusters; this covers the tier below it -- functions whose
    recovered instrumented counts carry at least 1e-4 of the
    profile's total weight.  With stale matching on, the
    inferred counts are complete enough for Ext-TSP to lay the
    whole warm tier out; with a raw stale profile the dropout
    zeros starve it (which is the measured difference).
    """
    total = sum(sum(c.values()) for c in profile.blocks.values())
    floor = total * 1e-4
    warm = []
    problems = []
    for module in pipe.program.modules:
        for function in module.functions:
            name = function.name
            if name in exclude:
                continue
            counts = profile.block_counts(name)
            if not counts or sum(counts.values()) < floor:
                continue
            entry_id = function.entry.bb_id
            hot_ids = [b.bb_id for b in function.blocks
                       if counts.get(b.bb_id, 0.0) > 0]
            if entry_id not in hot_ids:
                hot_ids.insert(0, entry_id)
            hot_set = set(hot_ids)
            nodes = {
                b.bb_id: (len(b.instrs) + 1, counts.get(b.bb_id, 0.0))
                for b in function.blocks if b.bb_id in hot_set
            }
            edges = [(s, d, w)
                     for (s, d), w in sorted(profile.edge_counts(name).items())
                     if s in hot_set and d in hot_set]
            warm.append(function)
            problems.append((nodes, edges, entry_id))
    clusters: Dict[str, List[List[int]]] = {}
    orders = ext_tsp_order_many(problems, cache=pipe.solve_cache)
    for function, order in zip(warm, orders):
        if not order or order[0] != function.entry.bb_id:
            continue  # defensive: the section plan needs entry first
        placed = set(order)
        clusters[function.name] = [
            order + [b.bb_id for b in function.blocks
                     if b.bb_id not in placed]]
    return clusters


def relink(pipe: Any, inputs) -> Dict[str, Any]:
    """Phase 4: re-codegen hot modules with clusters and relink.

    ``ir_profile`` must be the profile the metadata build consumed,
    so that every cold module's Phase-2 object is a cache hit --
    the economics of the relink (§3.4).  ``recovered_profile`` (the
    stale-matching recovery of ``ir_profile``, when enabled) is
    consumed only by re-codegen'd modules: it adds
    :func:`_warm_clusters` for the functions WPA's hot set missed
    and drives the local layout of unclustered functions there.
    """
    ir_profile = inputs["ir_profile"]
    wpa_result = inputs["wpa_result"]
    hot_profile = inputs["recovered_profile"]
    hot_funcs = set(wpa_result.clusters)
    extra_clusters: Dict[str, List[List[int]]] = {}
    if hot_profile is not None:
        extra_clusters = _warm_clusters(pipe, hot_profile, exclude=hot_funcs)
    layout_funcs = hot_funcs | set(extra_clusters)
    module_profile = hot_profile if hot_profile is not None else ir_profile
    per_module_options: Dict[str, CodeGenOptions] = {}
    for module in pipe.program.modules:
        module_hot = {f.name for f in module.functions} & layout_funcs
        if not module_hot:
            continue
        clusters = {
            fn: wpa_result.clusters.get(fn) or extra_clusters[fn]
            for fn in module_hot
        }
        prefetches = {
            fn: wpa_result.prefetches[fn]
            for fn in module_hot
            if fn in wpa_result.prefetches
        }
        per_module_options[module.name] = CodeGenOptions(
            ir_profile=module_profile,
            bb_sections=BBSectionsMode.LIST,
            clusters=clusters,
            prefetches=prefetches or None,
        )
    with pipe.tracer.span("build:propeller.out", category="build"):
        # Cold modules replay their Phase 2 action: same module, same options.
        batch = pipe.codegen_batch(pipe.metadata_options(ir_profile),
                                   per_module_options)
        optimized = pipe.link_batch(batch, pipe.link_options(
            "propeller.out",
            # An empty order (degraded/no-directives runs) means "no
            # ordering requested", not "order zero symbols".
            symbol_order=wpa_result.symbol_order or None,
            keep_bb_addr_map=False,
        ))
    return {"optimized": optimized,
            "prop_backends": optimized.backends.wall_seconds,
            "prop_link": optimized.link_seconds}


def _relink_fallback(pipe: Any, inputs) -> Dict[str, Any]:
    # The relink itself exhausted its budget: ship the baseline.
    baseline = inputs["baseline"]
    return {"optimized": baseline,
            "prop_backends": baseline.backends.wall_seconds,
            "prop_link": baseline.link_seconds}


ART_OPTIMIZED = Artifact("optimized", BuildOutcome)

RELINK = Stage(
    name="relink",
    run=relink,
    inputs=(ART_IR_PROFILE, ART_PREPARED, ART_WPA, ART_RECOVERED,
            ART_BASELINE),
    outputs=(ART_OPTIMIZED,),
    phase="relink",
    fallback=_relink_fallback,
    time_keys=("prop_backends", "prop_link"),
    doc="Phase 4: re-codegen hot modules with clusters, reuse cold "
        "objects from cache, relink with the global symbol order.",
)


def plan_dirty(pipeline: Any, state: Any) -> Any:
    """Pre-run incremental accounting of one ``reoptimize()``.

    Plans the dirty set (a :class:`repro.incr.DirtyPlan`) against the
    *new* profile epoch and records the ``incr.*`` function counters.
    The pre-collection is itself a cached action, so the pgo-profile
    stage replays it for free.
    """
    from repro import incr as incr_mod

    try:
        profile = pipeline.collect_pgo_profile()
    except RetriesExhausted:
        # Collection is doomed under the fault plan: plan against an
        # empty profile, silently -- the pgo-profile stage will degrade
        # the run honestly, once, with the right reason.
        profile = IRProfile()
    program = pipeline.program
    plan = incr_mod.plan_dirty(state, program, profile)
    counters = pipeline.counters
    counters.incr("incr.dirty_functions", len(plan.dirty))
    counters.incr("incr.added_functions", len(plan.added))
    counters.incr("incr.deleted_functions", len(plan.deleted))
    counters.incr(
        "incr.clean_functions",
        max(0, program.num_functions - len(plan.dirty) - len(plan.added)),
    )
    return plan


def incremental_summary(pipeline: Any, state: Any, plan: Any,
                        wpa_result: WPAResult) -> IncrementalSummary:
    """Post-run incremental accounting of one ``reoptimize()``.

    Folds the :func:`plan_dirty` plan, the WPA hot-set churn
    against the prior release's ``state`` and the solve-cache tallies
    into the ``incr.*`` counters and an :class:`IncrementalSummary` --
    the half of the incremental engine that needs the whole run.
    """
    counters = pipeline.counters
    new_hot = set(wpa_result.hot_functions)
    old_hot = {n for n, fs in state.functions.items() if fs.hot}
    hot_flips = sorted(new_hot.symmetric_difference(old_hot))
    counters.incr("incr.hot_flips", len(hot_flips))
    cache = pipeline.solve_cache
    hits = cache.hits if cache is not None else 0
    misses = cache.misses if cache is not None else 0
    reuse = cache.reuse_rate if cache is not None else 1.0
    counters.gauge("incr.solve_reuse", reuse)
    return IncrementalSummary(
        prior_digest=state.result_digest,
        dirty=tuple(sorted(plan.dirty)),
        added=tuple(sorted(plan.added)),
        deleted=tuple(sorted(plan.deleted)),
        reasons=dict(plan.reasons),
        hot_flips=tuple(hot_flips),
        solve_hits=hits,
        solve_misses=misses,
        solve_reuse=reuse,
    )


# ----------------------------------------------------------------------
# The graph

#: The Propeller stages, in the order they run.  Their wiring is pinned
#: by ``tests/golden/stage_graph.json`` and checked by the tier-1 test
#: over ``PIPELINE``'s inputs, not at import.
#: Stage names double as degradation reasons (``degraded_reasons``
#: entries and ``degraded:*`` span names), so they are part of the
#: pinned observability surface -- do not rename casually.
PIPELINE = StageGraph((
    PGO_PROFILE, INLINE, STALE_MATCH, METADATA_BUILD, LBR_PROFILE, WPA, RELINK,
))
