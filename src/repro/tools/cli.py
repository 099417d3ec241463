"""Command-line interface: ``python -m repro.tools <command>``.

Commands mirror the paper's tool flow:

* ``generate``  -- synthesize a workload (Table 2 presets) to JSON;
* ``presets``   -- list the available workload presets;
* ``profile``   -- build the metadata binary and collect an LBR profile;
* ``wpa``       -- the create_llvm_prof analogue: profile -> cc_prof/ld_prof;
* ``optimize``  -- run all four phases and report;
* ``compare``   -- Propeller vs BOLT on one workload;
* ``edit``      -- apply a seeded edit script to a workload (the "next
  release" of incremental/attribution studies);
* ``bench``     -- the continuous benchmark harness: run the suite's
  rows (each one pipeline run, flattened to exact metrics), print the
  scorecard, and optionally gate against a baseline;
* ``stages``    -- the pipeline's stage graph as schema-versioned JSON
  (the committed golden ``tests/golden/stage_graph.json``);
* ``explain``   -- the run-to-run attribution engine: diff two runs'
  metrics/trace/state artifacts and say which functions, layout
  decisions and phases moved, and why (see :mod:`repro.obs.explain`).

Output discipline: *results* (tables, summaries, scorecards) go to
stdout via ``print``; *progress* goes through the :mod:`repro.obs.log`
logger on stderr, silenced by ``--quiet`` and widened by ``--verbose``.
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path
from typing import List, Optional

from repro.analysis import Table, format_bytes
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs.log import configure_logging, get_logger
from repro.profiles import MATCH_MODES
from repro.synth import ALL_PRESETS, PRESETS, generate_workload
from repro.tools.io import load_perf_data, load_program, save_perf_data, save_program

log = get_logger("tools.cli")

#: Single source of truth for every pipeline flag's default: the
#: :class:`PipelineConfig` dataclass.  CLI and library runs of the same
#: nominal configuration are therefore identical by construction
#: (asserted in tests/test_tools.py).
_DEFAULTS = PipelineConfig()

#: argparse dest -> PipelineConfig field, for every flag added by
#: :func:`_add_pipeline_args`.  Tests iterate this mapping to prove the
#: two default sets never diverge again.
PIPELINE_FLAG_FIELDS = {
    "seed": "seed",
    "lbr_branches": "lbr_branches",
    "lbr_period": "lbr_period",
    "pgo_steps": "pgo_steps",
    "workers": "workers",
    "cache_dir": "cache_dir",
    "enforce_ram": "enforce_ram",
    "stale_matching": "stale_matching",
    "fault_plan": "fault_plan",
    "state_dir": "state_dir",
}


def _add_pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=_DEFAULTS.seed)
    parser.add_argument("--lbr-branches", type=int, default=_DEFAULTS.lbr_branches,
                        help="profiling run length in taken branches")
    parser.add_argument("--lbr-period", type=int, default=_DEFAULTS.lbr_period,
                        help="LBR sampling period in taken branches")
    parser.add_argument("--pgo-steps", type=int, default=_DEFAULTS.pgo_steps,
                        help="instrumented-PGO training run length (IR steps)")
    parser.add_argument("--workers", type=int, default=_DEFAULTS.workers,
                        help="simulated remote build pool size")
    parser.add_argument("--cache-dir", default=_DEFAULTS.cache_dir,
                        help="persistent action-cache directory; falls back to "
                             "$REPRO_CACHE_DIR, else in-memory only")
    parser.add_argument("--enforce-ram", action=argparse.BooleanOptionalAction,
                        default=_DEFAULTS.enforce_ram,
                        help="apply the per-action RAM limit (remote builds)")
    parser.add_argument("--stale-matching",
                        choices=list(MATCH_MODES),
                        default=_DEFAULTS.stale_matching,
                        help="recover stale instrumented-profile counts by "
                             "fuzzy block matching + count inference before "
                             "the metadata/Propeller builds")
    parser.add_argument("--fault-plan", default=_DEFAULTS.fault_plan,
                        help="deterministic fault-injection plan: a spec "
                             "string like 'fail=0.02,timeout=0.01,seed=7' or "
                             "the path of a plan JSON file (see repro.faults); "
                             "changes simulated durations, never artifacts")
    parser.add_argument("--state-dir", default=_DEFAULTS.state_dir,
                        help="directory holding incremental state across "
                             "runs (IncrState snapshot, solve cache, action "
                             "store; see repro.incr): a run that finds a "
                             "snapshot there re-optimizes against it, "
                             "replaying per-function layout solves and prior "
                             "build actions -- bit-identical to a full run "
                             "by construction")


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace-out", default=None, metavar="FILE",
                        help="write a Chrome trace_event JSON of the run "
                             "(open in chrome://tracing or ui.perfetto.dev)")
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the schema-versioned metrics report JSON "
                             "(includes the frontend counter scorecard)")


def _add_verbosity_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-q", "--quiet", action="store_true",
                       help="suppress progress output (results still print)")
    group.add_argument("-v", "--verbose", action="count", default=0,
                       help="debug-level progress output")


class _UsageError(Exception):
    """A flag value or input file the command cannot use; ``main``
    reports it in one line and exits 2."""


def _read(load, path, what: str):
    """``load(path)``; an unreadable or malformed file is a usage error."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot read {what}: {exc}") from None


def _pipeline(args) -> PropellerPipeline:
    """The pipeline of ``args.program`` under the pipeline flags, built
    inside the guard: a value :class:`PipelineConfig` refuses, or a
    fault plan that does not resolve, is a usage error before any work
    starts."""
    program = _read(load_program, args.program, "program")
    try:
        return PropellerPipeline(program, PipelineConfig(
            trace=bool(getattr(args, "trace_out", None)),
            **{field: getattr(args, dest) for dest, field in PIPELINE_FLAG_FIELDS.items()},
        ))
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _finish_optimize(args, pipe: PropellerPipeline, result) -> int:
    """The tail of every completed ``optimize`` run: print the summary
    and honor ``--report``/``--trace-out``/``--metrics-out``."""
    summary = result.summary()
    print(summary)
    if args.report:
        Path(args.report).write_text(summary + "\n")
    if args.trace_out:
        from repro.obs import write_chrome_trace

        write_chrome_trace(pipe.tracer, args.trace_out)
        log.info("wrote trace to %s", args.trace_out)
    if args.metrics_out:
        from repro.obs import write_metrics

        # Attribution rides along so any two --metrics-out files are
        # explainable (`explain`) without re-running the pipeline.
        write_metrics(
            result.report(include_frontend=True, include_attribution=True),
            args.metrics_out)
        log.info("wrote metrics to %s", args.metrics_out)
    return 0


def cmd_presets(_args) -> int:
    table = Table(["preset", "kind", "funcs", "basic blocks", "text", "% cold"])
    for preset in ALL_PRESETS:
        table.add_row(
            preset.name, preset.kind, preset.funcs, preset.total_bbs,
            format_bytes(preset.text_bytes), f"{100 * preset.pct_cold_objects:.0f}%",
        )
    print(table)
    return 0


def cmd_generate(args) -> int:
    preset = PRESETS.get(args.preset)
    if preset is None:
        raise _UsageError(f"unknown preset {args.preset!r}; see `presets`")
    try:
        program = generate_workload(preset, scale=args.scale, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(f"--scale {args.scale}: {exc}") from None
    save_program(program, args.output)
    log.info("%s: %d functions, %d basic blocks, %d modules",
             args.output, program.num_functions, program.num_blocks,
             len(program.modules))
    return 0


def cmd_profile(args) -> int:
    pipe = _pipeline(args)
    perf = pipe.collect_perf()
    save_perf_data(perf, args.output)
    log.info("%s: %d samples, %d records (%s)",
             args.output, perf.num_samples, perf.num_records,
             format_bytes(perf.size_bytes))
    return 0


def cmd_wpa(args) -> int:
    pipe = _pipeline(args)
    result = pipe.analyze(_read(load_perf_data, args.perf, "profile"))
    Path(args.cc_prof).write_text(result.cc_prof_text)
    Path(args.ld_prof).write_text(result.ld_prof_text)
    log.info("%d hot functions; peak memory %s",
             len(result.hot_functions),
             format_bytes(result.stats.peak_memory_bytes))
    log.info("wrote %s and %s", args.cc_prof, args.ld_prof)
    return 0


def cmd_optimize(args) -> int:
    pipe = _pipeline(args)
    if args.stop_after or args.resume_from or args.artifacts_out:
        return _optimize_partial(args, pipe)
    if not pipe.config.state_dir:
        return _finish_optimize(args, pipe, pipe.run())
    from repro.incr import IncrState, IncrStateError, state_path

    snapshot = state_path(pipe.config.state_dir)
    if snapshot.exists():
        try:
            result = pipe.reoptimize(snapshot)
        except IncrStateError as exc:
            raise _UsageError(str(exc)) from None
    else:
        log.info("no prior state at %s; running full (and capturing)",
                 snapshot)
        result = pipe.run()
    # Captured even for full runs: two snapshots are what lets `explain`
    # tag each mover's cause (code edit vs profile drift vs hot-set
    # churn) from files alone.
    IncrState.capture(result).save(snapshot)
    log.info("captured incremental state at %s", snapshot)
    return _finish_optimize(args, pipe, result)


def _optimize_partial(args, pipe: PropellerPipeline) -> int:
    """``optimize --stop-after`` / ``--resume-from``: partial execution.

    ``--stop-after STAGE`` runs the graph through STAGE and serializes
    the produced artifact set to ``--artifacts-out`` (each requires the
    other).  ``--resume-from DIR`` loads such a set and runs only the
    remaining stages; a completed resume prints the normal summary --
    bit-identical to one uninterrupted run.  Both compose: a resumed
    run may itself stop after a later stage.  A partial run neither
    reads nor writes a ``--state-dir`` snapshot (re-optimizing needs
    the whole run).
    """
    from repro.core.stages import ArtifactSet, StageGraphError

    if args.stop_after and not args.artifacts_out:
        raise _UsageError("--stop-after requires --artifacts-out DIR")
    if args.artifacts_out and not args.stop_after:
        raise _UsageError("--artifacts-out requires --stop-after STAGE")
    resume = None
    if args.resume_from:
        try:
            resume = ArtifactSet.load(args.resume_from)
        except StageGraphError as exc:
            raise _UsageError(f"cannot resume from {args.resume_from}: "
                              f"{exc.kind}: {exc}") from None
    try:
        artifacts = pipe.run_stages(stop_after=args.stop_after or None,
                                    resume=resume)
        result = None if args.stop_after else pipe.result_from(artifacts)
    except StageGraphError as exc:
        raise _UsageError(f"{exc.kind}: {exc}") from None
    if args.stop_after:
        out = artifacts.save(args.artifacts_out)
        produced = sorted(artifacts.values)
        log.info("stopped after %r; %d artifact(s) saved to %s",
                 args.stop_after, len(produced), out)
        for name in produced:
            print(name)
        return 0
    return _finish_optimize(args, pipe, result)


def cmd_stages(args) -> int:
    """Print (or write) the pipeline stage graph as JSON: the one
    constant whose wiring the tier-1 golden and wiring test pin."""
    import json as _json

    from repro.core.phases import PIPELINE

    text = _json.dumps(PIPELINE.describe(), indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
        log.info("wrote the stage graph to %s", args.output)
    else:
        print(text, end="")
    return 0


def cmd_compare(args) -> int:
    from repro.bolt import BoltError, BoltStartupCrash, check_startup, run_bolt
    from repro.hwmodel import frontend_scorecard
    from repro.hwmodel.frontend import DEFAULT_PARAMS
    from repro.profiles import ProjectionError

    if args.blocks < 1:
        raise _UsageError(f"--blocks must be >= 1, got {args.blocks}")
    try:
        params = DEFAULT_PARAMS.scaled(args.hw_scale)
    except ValueError as exc:
        raise _UsageError(f"--hw-scale {args.hw_scale}: {exc}") from None
    pipe = _pipeline(args)
    result = pipe.run()
    bm = pipe.build_bolt_input(result.ir_profile)
    bolt_exe = None
    bolt_note = "ok"
    try:
        bolt = run_bolt(bm.executable, result.perf)
        check_startup(bolt.executable)
        bolt_exe = bolt.executable
    except BoltError as exc:
        bolt_note = f"rewrite failed: {exc}"
    except BoltStartupCrash as exc:
        bolt_note = f"startup crash: {exc}"

    rows = {"baseline": result.baseline.executable,
            "propeller": result.optimized.executable}
    if bolt_exe is not None:
        rows["bolt"] = bolt_exe
    try:
        cards = frontend_scorecard(rows, args.blocks, params=params)
    except ProjectionError as exc:
        if bolt_exe is None:
            raise
        # BOLT may rewrite the block set: score it on a walk of its own.
        log.warning("bolt binary cannot replay the baseline's walk (%s); "
                    "walking it separately", exc)
        del rows["bolt"]
        cards = frontend_scorecard(rows, args.blocks, params=params)
        cards.update(frontend_scorecard({"bolt": bolt_exe}, args.blocks, params=params))
    table = Table(["binary", "cycles", "L1i miss", "iTLB miss", "taken branches",
                   "vs baseline"])
    base_cycles = cards["baseline"].cycles
    for label, c in cards.items():
        table.add_row(label, f"{c.cycles / 1e6:.2f}M", c.l1i_miss, c.itlb_miss,
                      c.taken_branches, f"{100 * (base_cycles / c.cycles - 1):+.2f}%")
    print(table)
    if bolt_exe is None:
        print(f"\nBOLT: {bolt_note}")
    return 0


def cmd_edit(args) -> int:
    """Apply a seeded edit script and save the edited program.

    ``--pick seed`` delegates candidate choice to
    :meth:`repro.synth.EditScript.generate` (any body candidate);
    ``--pick hottest`` targets the body candidate with the largest
    instrumented-profile mass -- the deterministic "one-line fix in the
    hot loop" the attribution acceptance tests revolve around.  The
    touched function names are printed to stdout, one per line, so
    scripts can capture what changed.
    """
    from repro.synth import EditScript
    from repro.synth.edits import Edit, _body_candidates

    if args.edits < 1:
        raise _UsageError(f"--edits must be >= 1, got {args.edits}")
    program = _read(load_program, args.program, "program")
    if args.pick == "hottest":
        from repro.profiles import collect_ir_profile

        profile = collect_ir_profile(program, max_steps=args.pgo_steps,
                                     seed=args.seed)
        candidates = _body_candidates(program)
        if not candidates:
            raise _UsageError(f"no body-editable function in {args.program}")
        target = max(candidates,
                     key=lambda f: (sum(profile.block_counts(f).values()), f))
        script = EditScript(edits=(
            Edit("body", target, program.module_of(target).name, args.seed),))
    else:
        try:
            script = EditScript.generate(program, seed=args.seed,
                                         edits=args.edits,
                                         kinds=tuple(args.kinds.split(",")))
        except ValueError as exc:
            raise _UsageError(f"--edits {args.edits} --kinds {args.kinds}: {exc}") from None
    edited = script.apply(program)
    save_program(edited, args.output)
    log.info("%s: applied %d edit(s)", args.output, len(script.edits))
    for name in sorted(script.touched()):
        print(name)
    return 0


def cmd_explain(args) -> int:
    """Diff two runs and print/write the attribution report.

    Exit codes: 0 = explained; 2 = unusable inputs.  A report full of
    suspicious deltas still exits 0 -- the report is the answer, and
    gating belongs to ``bench --compare``.
    """
    from repro.obs import RunSnapshot, explain

    try:
        base = RunSnapshot.load(args.base, trace=args.base_trace,
                                state=args.base_state,
                                label=args.label_base)
        new = RunSnapshot.load(args.new, trace=args.new_trace,
                               state=args.new_state,
                               label=args.label_new)
    except (OSError, ValueError) as exc:
        raise _UsageError(str(exc)) from None
    report = explain(base, new, top_k=args.top_k)
    print(report.table())
    suspicious = report.suspicious
    if suspicious:
        print()
        print(f"{len(suspicious)} suspicious counter delta(s):")
        for c in suspicious:
            print(f"  {c.name}: {c.base:g} -> {c.new:g} ({c.reason})")
    if args.json:
        import json as _json

        Path(args.json).write_text(
            _json.dumps(report.to_json(), indent=2, sort_keys=True))
        log.info("wrote explain report to %s", args.json)
    if args.markdown:
        Path(args.markdown).write_text(report.markdown())
        log.info("wrote markdown report to %s", args.markdown)
    return 0


def cmd_bench(args) -> int:
    """Run the benchmark suite; optionally gate against a baseline.

    Exit codes: 0 = ran (and, with ``--compare``, no regression);
    1 = regression gate failed; 2 = usage error (unknown scenario,
    missing or unreadable baseline, regenerating from a perturbed run).
    """
    from repro.obs import (
        REGEN_BASELINE_ENV,
        bench_markdown,
        bench_scorecard,
        compare,
        comparison_markdown,
        comparison_table,
        load_bench_report,
        run_suite,
        write_bench_report,
    )
    from repro.obs.bench import ROWS

    blog = get_logger("tools.bench")
    if args.list:
        table = Table(["row", "paper refs"], title="bench rows")
        for row in ROWS:
            table.add_row(row.name, row.paper_ref)
        print(table)
        return 0

    try:
        report = run_suite(
            seed=args.seed,
            perturb=args.perturb,
            only=args.scenario or None,
            progress=lambda msg: blog.info("%s", msg),
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    if args.out:
        write_bench_report(report, args.out)
        blog.info("wrote %s", args.out)
    print(bench_scorecard(report))

    comparison = None
    if args.compare:
        baseline_path = Path(args.compare)
        if os.environ.get(REGEN_BASELINE_ENV):
            if report.perturb:
                raise _UsageError(
                    f"refusing to regenerate {baseline_path} from a perturbed "
                    f"run (--perturb {report.perturb})")
            write_bench_report(report, baseline_path)
            blog.info("regenerated baseline %s ($%s set)",
                      baseline_path, REGEN_BASELINE_ENV)
            return 0
        if not baseline_path.exists():
            raise _UsageError(f"baseline {baseline_path} does not exist; run "
                              f"with {REGEN_BASELINE_ENV}=1 to create it")
        try:
            comparison = compare(report, load_bench_report(baseline_path))
        except ValueError as exc:
            raise _UsageError(str(exc)) from None
        print(comparison_table(comparison))

    if args.markdown:
        text = bench_markdown(report)
        if comparison is not None:
            text += "\n" + comparison_markdown(comparison)
        Path(args.markdown).write_text(text)
        blog.info("wrote markdown scorecard to %s", args.markdown)

    if comparison is not None and not comparison.ok:
        blog.error("regression gate failed: %d failing metric(s)",
                   len(comparison.failures))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.tools", description="Propeller reproduction toolchain"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("presets", help="list workload presets")
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_presets)

    p = sub.add_parser("generate", help="synthesize a workload")
    p.add_argument("--preset", required=True)
    p.add_argument("--scale", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("profile", help="collect an LBR profile")
    p.add_argument("program")
    p.add_argument("-o", "--output", required=True)
    _add_pipeline_args(p)
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("wpa", help="whole-program analysis (create_llvm_prof)")
    p.add_argument("program")
    p.add_argument("perf")
    p.add_argument("--cc-prof", default="cc_prof.txt")
    p.add_argument("--ld-prof", default="ld_prof.txt")
    _add_pipeline_args(p)
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_wpa)

    p = sub.add_parser("optimize", help="run all four phases")
    p.add_argument("program")
    p.add_argument("--report")
    p.add_argument("--stop-after", metavar="STAGE", default=None,
                   help="run the stage graph only through STAGE (e.g. "
                        "'wpa'; see `stages` for names) and save the "
                        "artifact set to --artifacts-out")
    p.add_argument("--artifacts-out", metavar="DIR", default=None,
                   help="directory for the serialized artifact set "
                        "(requires --stop-after)")
    p.add_argument("--resume-from", metavar="DIR", default=None,
                   help="resume from an artifact set saved by "
                        "--stop-after: replay its stages, run the rest")
    _add_pipeline_args(p)
    _add_observability_args(p)
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("stages",
                       help="the pipeline stage graph as JSON")
    p.add_argument("-o", "--output", metavar="FILE", default=None,
                   help="write to FILE instead of stdout")
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_stages)

    p = sub.add_parser("compare", help="Propeller vs BOLT")
    p.add_argument("program")
    p.add_argument("--blocks", type=int, default=300_000)
    p.add_argument("--hw-scale", type=int, default=16)
    _add_pipeline_args(p)
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("edit", help="apply a seeded edit script (next release)")
    p.add_argument("program")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--edits", type=int, default=1,
                   help="number of edits (--pick seed only)")
    p.add_argument("--kinds", default="body",
                   help="comma-separated edit kinds (body,add,delete)")
    p.add_argument("--pick", choices=("seed", "hottest"), default="seed",
                   help="candidate choice: 'seed' = any body candidate "
                        "(EditScript.generate), 'hottest' = the body "
                        "candidate with the most instrumented-profile mass")
    p.add_argument("--pgo-steps", type=int, default=_DEFAULTS.pgo_steps,
                   help="training-run length for --pick hottest")
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_edit)

    p = sub.add_parser("explain", help="run-to-run attribution")
    p.add_argument("base", help="base run: metrics JSON or a "
                                "--state-dir/state.json snapshot")
    p.add_argument("new", help="new run (same kind as base)")
    p.add_argument("--base-trace", metavar="FILE", default=None,
                   help="base run's --trace-out Chrome trace")
    p.add_argument("--new-trace", metavar="FILE", default=None,
                   help="new run's --trace-out Chrome trace")
    p.add_argument("--base-state", metavar="PATH", default=None,
                   help="base run's --state-dir (adds cause evidence)")
    p.add_argument("--new-state", metavar="PATH", default=None,
                   help="new run's --state-dir (adds cause evidence)")
    p.add_argument("--top-k", type=int, default=10,
                   help="attribution entries to keep (default: 10)")
    p.add_argument("--json", metavar="FILE", default=None,
                   help="write the schema-versioned ExplainReport JSON")
    p.add_argument("--markdown", metavar="FILE", default=None,
                   help="write the markdown scorecard")
    p.add_argument("--label-base", default=None,
                   help="label for the base run (default: file name)")
    p.add_argument("--label-new", default=None,
                   help="label for the new run (default: file name)")
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("bench", help="run the benchmark suite")
    from repro.obs.bench import PERTURBATIONS

    p.add_argument("--seed", type=int, default=3)
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the schema-versioned report JSON here "
                        "(default: print the scorecard, write nothing)")
    p.add_argument("--markdown", metavar="FILE", default=None,
                   help="also write a markdown scorecard")
    p.add_argument("--compare", metavar="BASELINE", default=None,
                   help="gate against a stored report; exit 1 on "
                        "regression ($REPRO_REGEN_BASELINE=1 refreshes it)")
    p.add_argument("--perturb", choices=PERTURBATIONS, default=None,
                   help="inject a known fault (harness self-test)")
    p.add_argument("--scenario", action="append", metavar="NAME",
                   help="run only this row (repeatable)")
    p.add_argument("--list", action="store_true",
                   help="list the suite's rows and exit")
    _add_verbosity_args(p)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    configure_logging(
        -1 if getattr(args, "quiet", False) else getattr(args, "verbose", 0))
    try:
        return args.fn(args)
    except _UsageError as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
