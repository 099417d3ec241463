"""In-process half of the release benchmark; runs as a child of ``run.py``.

``prepare`` sets one workload up in ``--dir`` (program, populated action
store or prior-release state, reference digest) and exits, so that what
set-up allocates never counts towards the measuring child's peak RSS.
``measure`` times releases against that directory; with ``--trace-out`` it
sets up in-process instead, so the benchmark's set-up spans, its rep
spans and the program's own spans land on one timeline, and adds one
traced rep, two direct probes and one rep counted under ``cProfile``.

Every layer is measured from outside: by spans this file opens around
calls into the program's public functions, and by the real-clock side of
the spans the program's ``Tracer`` already records.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import repro
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.hwmodel import simulate_frontend
from repro.hwmodel.frontend import SCALED_PARAMS
from repro.incr import IncrState
from repro.obs import NULL_TRACER, Tracer, write_chrome_trace
from repro.profiles import generate_trace
from repro.synth import PRESETS, EditScript, generate_workload

from compare import spread
from workloads import MIN_REPS, SHAPE_SEED, SMOKE_REPS, WORKLOADS, Workload

#: ``reoptimize()`` must replay at least this share of Ext-TSP solves.
MIN_SOLVE_REUSE = 0.9

_REPRO_DIR = str(Path(repro.__file__).parent) + "/"
#: Packages counted whole, and the three counted one level deeper.
_WHOLE = ("linker", "codegen", "isa", "elf", "ir", "hwmodel", "buildsys")
_SPLIT = {"core": ("wpa", "exttsp"), "profiles": ("trace", "pgo", "lbr"),
          "runtime": ("cache",)}
CALL_GROUPS = _WHOLE + tuple(
    f"{pkg}.{mod}" for pkg, mods in _SPLIT.items() for mod in mods) + ("other",)

#: ``PipelineResult.phase_seconds`` keys reported as ``sim.<key>_s``.
_SIM_KEYS = ("opt_build", "metadata_build", "wpa_convert", "prop_backends",
             "prop_link")
_PHASES = ("baseline", "metadata-build", "profile", "wpa", "relink")
#: Program spans whose self time is one layer's; the rest of the
#: optimize span is the driver's.
_LAYER_SPANS = ("pgo-train", "lbr-sample", "codegen-batch", "link",
                "wpa:index", "wpa:dcfg", "wpa:layout", "stale-match")


def call_group(filename: str) -> str:
    """The ``calls.<group>`` a profiled function's file belongs to."""
    if not filename.startswith(_REPRO_DIR):
        return "other"
    package, _, rest = filename[len(_REPRO_DIR):].partition("/")
    if package in _WHOLE:
        return package
    module = rest[:-3] if rest.endswith(".py") else rest
    if module in _SPLIT.get(package, ()):
        return f"{package}.{module}"
    return "other"


def count_calls(profiler: cProfile.Profile) -> Dict[str, int]:
    """Primitive calls per group: the only cost number that repeats exactly.

    A Python function counts towards the file that defines it; a builtin
    has no file (three calls in four are ``len``, ``append`` and the
    like), so it counts towards the function that called it.
    """
    counts = dict.fromkeys(CALL_GROUPS, 0)
    total = 0
    for entry in profiler.getstats():
        total += entry.callcount - entry.reccallcount
        if isinstance(entry.code, str):
            continue
        group = call_group(entry.code.co_filename)
        counts[group] += entry.callcount - entry.reccallcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                counts[group] += callee.callcount - callee.reccallcount
    # Builtins called by builtins (``map(len, ...)``) have no caller here.
    counts["other"] += total - sum(counts.values())
    counts["total"] = total
    return counts


def self_times(spans) -> Dict[int, float]:
    """Span id -> real duration minus the interval its children cover.

    One thread, so a span's children never overlap and the covered
    interval is the sum of their durations.
    """
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            covered[span.parent_id] += span.real_seconds
    return {s.span_id: s.real_seconds - covered[s.span_id] for s in spans}


class Bench:
    """One workload at one seed in one working directory."""

    def __init__(self, workload: Workload, seed: int, smoke: bool, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        (self.scale, self.lbr_branches, self.pgo_steps,
         self.frontend_blocks) = workload.sized(smoke)
        self.min_reps = SMOKE_REPS if smoke else MIN_REPS
        #: What prepare populates and every rep copies: the action store
        #: (warm) or the whole state directory (reopt).  None when cold.
        self.pristine: Optional[Path] = {
            "warm": workdir / "store", "reopt": workdir / "state",
        }.get(workload.kind)

    def config(self, store: Optional[Path] = None) -> PipelineConfig:
        # jobs=1: on these 2 shared cores the default jobs=2 read
        # 15.7-20.9 s where jobs=1 read 13.9-16.9 s -- too wide to gate on.
        dirs = {}
        if store is not None:
            key = "cache_dir" if self.workload.kind == "warm" else "state_dir"
            dirs[key] = str(store)
        return PipelineConfig(seed=self.seed, jobs=1,
                              lbr_branches=self.lbr_branches,
                              pgo_steps=self.pgo_steps, **dirs)

    # -- set-up ---------------------------------------------------------

    def make_inputs(self, tracer) -> Tuple[Any, Any]:
        """``(program, program to release)``; they differ only for reopt."""
        with tracer.span("generate_workload", category="bench"):
            program = generate_workload(PRESETS[self.workload.preset],
                                        scale=self.scale, seed=SHAPE_SEED)
        if self.workload.kind != "reopt":
            return program, program
        # Which function the release edits is pinned with the shape: the
        # module it lands in sets the modelled rebuild cost, and seeds
        # 1..10 spread sim.total_s by 6.7 % when the seed picked it.
        script = EditScript.generate(program, seed=SHAPE_SEED, kinds=("body",))
        with tracer.span("EditScript.apply", category="bench"):
            return program, script.apply(program)

    def prepare(self, tracer) -> Tuple[Any, Dict[str, Any]]:
        """Set the workload up; returns the release program and the facts
        a measuring process needs (also written to ``prepared.json``)."""
        program, release_program = self.make_inputs(tracer)
        info: Dict[str, Any] = {"expected_digest": None}
        kind = self.workload.kind
        if kind == "warm":
            with tracer.span("populate-store", category="bench"):
                populated = PropellerPipeline(
                    program, self.config(self.pristine)).run()
            info["expected_digest"] = populated.digest()
        elif kind == "reopt":
            with tracer.span("prior-release", category="bench"):
                prior = PropellerPipeline(
                    program, self.config(self.pristine)).run()
            with tracer.span("IncrState.capture+save", category="bench"):
                IncrState.capture(prior).save(self.pristine)
            del prior
            with tracer.span("full-rebuild", category="bench"):
                full = PropellerPipeline(release_program, self.config()).run()
            info["expected_digest"] = full.digest()
        (self.workdir / "prepared.json").write_text(json.dumps(info))
        return release_program, info

    # -- the timed operation --------------------------------------------

    def release(self, program, store: Optional[Path], tracer):
        """One release: fresh pipeline, optimize, frontend counters."""
        pipeline = PropellerPipeline(program, self.config(store), tracer=tracer)
        if self.workload.kind == "reopt":
            with tracer.span("reoptimize", category="bench"):
                result = pipeline.reoptimize(store)
        else:
            with tracer.span("optimize", category="bench"):
                result = pipeline.run()
        with tracer.span("frontend_counters", category="bench"):
            scorecard = result.frontend_counters(max_blocks=self.frontend_blocks)
        return result, scorecard

    def rep(self, program, tracer=NULL_TRACER,
            profiler: Optional[cProfile.Profile] = None) -> Dict[str, Any]:
        """One rep: untimed hygiene, the timed release, untimed read-out."""
        # The caller holds no previous result.  Without this collect
        # mysql-warm @ 0.02 read 3.4-5.8 s and 537 MB; with it 4.3-4.8 s
        # and 315 MB.
        gc.collect()
        store = None
        if self.pristine is not None:
            # A fresh copy per rep: reoptimize() writes the edited
            # module's actions back, so a second rep on the same state
            # would be a pure replay, not a release.
            store = self.workdir / "rep"
            with tracer.span("copytree", category="bench"):
                shutil.copytree(self.pristine, store)
        try:
            cpu0, wall0 = time.process_time(), time.perf_counter()
            if profiler is not None:
                profiler.enable()
            try:
                with tracer.span("release", category="bench"):
                    result, scorecard = self.release(program, store, tracer)
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            return {"wall": wall, "cpu": cpu, "result": result,
                    "facts": self.facts(result, scorecard)}
        finally:
            if store is not None:
                shutil.rmtree(store)

    def facts(self, result, scorecard) -> Dict[str, Any]:
        """What a rep produced, as plain values (the result is then dropped)."""
        counters = result.counters
        incremental = result.incremental
        return {
            "result_digest": result.digest(),
            "optimized_digest": result.optimized.executable.content_digest(),
            "degraded": result.degraded,
            "cycles_baseline": scorecard["baseline"]["cycles"],
            "cycles_optimized": scorecard["optimized"]["cycles"],
            "text_bytes": result.optimized.executable.text_size,
            "sim_total_s": sum(result.phase_seconds.values()),
            "executed_actions": counters.count("executor.batch_misses"),
            "solve_reuse": incremental.solve_reuse if incremental else None,
        }

    def check(self, facts, first, expected_digest) -> List[str]:
        """Why this rep fails, if it does.  Self-consistency only: the
        independent oracle (ROADMAP item 5) does not exist yet."""
        problems = []
        if facts["degraded"]:
            problems.append("result degraded")
        if facts["result_digest"] != first["result_digest"]:
            problems.append("digest differs from rep 1")
        if expected_digest and facts["result_digest"] != expected_digest:
            problems.append("digest differs from the reference run")
        if facts["cycles_optimized"] >= facts["cycles_baseline"]:
            problems.append("optimized binary is not faster than baseline")
        kind = self.workload.kind
        if kind == "warm" and facts["executed_actions"] != 0:
            problems.append(f"{facts['executed_actions']} actions executed warm")
        if kind == "reopt" and (facts["solve_reuse"] or 0.0) < MIN_SOLVE_REUSE:
            problems.append(f"solve reuse {facts['solve_reuse']}")
        return problems

    # -- a run ----------------------------------------------------------

    def measure(self, seconds: float,
                trace_out: Optional[Path] = None) -> Dict[str, Any]:
        """The untraced loop; given ``trace_out``, the per-layer pass too."""
        trace = trace_out is not None
        tracer = Tracer() if trace else NULL_TRACER
        if trace:
            program, info = self.prepare(tracer)
        else:
            _, program = self.make_inputs(NULL_TRACER)
            info = json.loads((self.workdir / "prepared.json").read_text())
        expected = info["expected_digest"]

        walls: List[float] = []
        cpus: List[float] = []
        failures: List[str] = []
        first: Optional[Dict[str, Any]] = None
        attempted = 0

        def attempt(label: str, **kwargs) -> Optional[Dict[str, Any]]:
            nonlocal attempted, first
            attempted += 1
            try:
                rep = self.rep(program, **kwargs)
            except Exception:
                # The boundary that must keep counting: a rep that
                # raises is a failed release, not a crashed benchmark.
                traceback.print_exc()
                failures.append(f"{label}: raised")
                return None
            first = first or rep["facts"]
            problems = self.check(rep["facts"], first, expected)
            failures.extend(f"{label}: {p}" for p in problems)
            return None if problems else rep

        deadline = time.perf_counter() + seconds
        while attempted < self.min_reps or time.perf_counter() < deadline:
            rep = attempt(f"rep {attempted + 1}")
            if rep is not None:
                walls.append(rep["wall"])
                cpus.append(rep["cpu"])
            del rep
        if not walls:
            raise SystemExit(f"no release succeeded: {failures}")

        # Read before the traced and counted reps can raise it.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out: Dict[str, Any] = {
            "digests": {k: first[k] for k in ("result_digest", "optimized_digest")},
            "samples": {"wall_s": walls},
            "end_to_end": {
                "wall_s": statistics.median(walls),
                "peak_rss_mb": peak_rss_mb,
                "cycles_ratio": first["cycles_optimized"] / first["cycles_baseline"],
                "text_bytes": first["text_bytes"],
            },
        }
        if trace:
            traced = attempt("traced rep", tracer=tracer)
            profiler = cProfile.Profile()
            counted = attempt("counted rep", profiler=profiler)
            if traced is None or counted is None:
                raise SystemExit(f"traced or counted rep failed: {failures}")
            del counted
            out["per_layer"] = self.layers(
                tracer, traced, walls, cpus, count_calls(profiler))
            write_chrome_trace(tracer, trace_out)
        out.update(attempted=attempted, failed=len(failures), failures=failures)
        return out

    def layers(self, tracer, traced, walls, cpus, calls) -> Dict[str, float]:
        """Every per-layer metric, from the traced rep and the counted rep."""
        result, facts = traced["result"], traced["facts"]
        exe = result.optimized.executable
        with tracer.span("probe:generate_trace", category="bench"):
            trace = generate_trace(exe, max_blocks=self.frontend_blocks, seed=77)
        with tracer.span("probe:simulate_frontend", category="bench"):
            simulate_frontend(exe, trace, SCALED_PARAMS)

        spans = tracer.spans
        own = self_times(spans)
        self_of: Dict[str, float] = defaultdict(float)
        total_of: Dict[str, float] = defaultdict(float)
        for span in spans:
            self_of[span.name] += own[span.span_id]
            total_of[span.name] += span.real_seconds
        optimize_s = total_of["optimize"] + total_of["reoptimize"]
        layer_s = {name: self_of[name] for name in _LAYER_SPANS}
        # Independent of the subtraction below: every span under the
        # optimize span, by parent links, self times summed.
        by_id = {s.span_id: s for s in spans}

        def under_optimize(span) -> bool:
            while span is not None:
                if span.name in ("optimize", "reoptimize"):
                    return True
                span = by_id.get(span.parent_id)
            return False

        self_sum_s = sum(own[s.span_id] for s in spans if under_optimize(s))

        program = result.program
        functions = program.all_functions()
        counters, gauge = result.counters, result.counters.gauge_value
        links = [b.link_stats for b in
                 (result.baseline, result.metadata, result.optimized)]
        wpa = result.wpa_result.stats
        hits, misses = counters.count("cache.hits"), counters.count("cache.misses")
        incremental = result.incremental
        store_files = ([p for p in self.pristine.rglob("*") if p.is_file()]
                       if self.pristine is not None else [])
        median_wall = statistics.median(walls)

        m: Dict[str, float] = {
            "synth.generate_s": total_of["generate_workload"],
            "synth.edit_apply_s": total_of["EditScript.apply"],
            "synth.modules": len(program.modules),
            "synth.functions": len(functions),
            "synth.blocks": sum(len(f.blocks) for f in functions),
            "profiles.pgo_train_s": layer_s["pgo-train"],
            "profiles.lbr_sample_s": layer_s["lbr-sample"],
            "profiles.trace_generate_s": total_of["probe:generate_trace"],
            "profiles.pgo_match_rate": gauge("pgo.match_rate"),
            "profiles.lbr_record_coverage": gauge("lbr.record_coverage"),
            "profiles.lbr_samples": gauge("lbr.samples"),
            "codegen.batch_s": layer_s["codegen-batch"],
            "codegen.actions": counters.count("executor.batch_tasks"),
            "codegen.executed": facts["executed_actions"],
            "codegen.hot_modules": result.optimized.hot_modules,
            "linker.link_s": layer_s["link"],
            "wpa.index_s": layer_s["wpa:index"],
            "wpa.dcfg_s": layer_s["wpa:dcfg"],
            "wpa.layout_s": layer_s["wpa:layout"],
            "wpa.dcfg_nodes": wpa.dcfg_nodes,
            "wpa.dcfg_edges": wpa.dcfg_edges,
            "wpa.hot_functions": wpa.hot_functions,
            "wpa.records": wpa.num_records,
            "wpa.records_dropped": wpa.records_dropped,
            "exttsp.solve_hits": counters.count("incr.solve_hits"),
            "exttsp.solve_misses": counters.count("incr.solve_misses"),
            "exttsp.solve_reuse": facts["solve_reuse"] or 0.0,
            "hwmodel.frontend_s": total_of["frontend_counters"],
            "hwmodel.simulate_s": total_of["probe:simulate_frontend"],
            "hwmodel.cycles_baseline": facts["cycles_baseline"],
            "hwmodel.cycles_optimized": facts["cycles_optimized"],
            "hwmodel.cycle_improvement_pct": 100.0 * (
                facts["cycles_baseline"] / facts["cycles_optimized"] - 1.0),
            "hwmodel.trace_blocks": trace.num_blocks_executed,
            "buildsys.cache_hits": hits,
            "buildsys.cache_misses": misses,
            "buildsys.disk_hits": counters.count("cache.disk_hits"),
            "buildsys.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "runtime.cache.store_loads": counters.count("store.loads"),
            "runtime.cache.store_files": len(store_files),
            "runtime.cache.store_bytes": sum(p.stat().st_size for p in store_files),
            "runtime.cache.populate_s": (total_of["populate-store"]
                                         + total_of["prior-release"]),
            "runtime.cache.copy_s": total_of["copytree"],
            "incr.capture_save_s": total_of["IncrState.capture+save"],
            "incr.dirty_functions": len(incremental.dirty) if incremental else 0,
            "incr.hot_flips": len(incremental.hot_flips) if incremental else 0,
            "pipeline.optimize_s": optimize_s,
            "pipeline.driver_self_s": optimize_s - sum(layer_s.values()),
            "pipeline.span_self_sum_s": self_sum_s,
            "process.cpu_s": statistics.median(cpus),
            "process.reps": len(walls),
            "process.wall_min_s": min(walls),
            "process.wall_max_s": max(walls),
            "process.wall_spread_pct": 100.0 * spread(walls),
            "process.trace_overhead_pct": 100.0 * (traced["wall"] / median_wall - 1.0),
        }
        for field in ("input_bytes", "output_bytes", "relocations_applied",
                      "shrunk_branches", "deleted_jumps", "relax_passes"):
            m[f"linker.{field}"] = sum(getattr(s, field) for s in links)
        for phase in _PHASES:
            m[f"pipeline.phase_{phase}_s"] = total_of[f"phase:{phase}"]
        # Modelled seconds: real-clock work must not move them.
        m["sim.total_s"] = facts["sim_total_s"]
        for key in _SIM_KEYS:
            m[f"sim.{key}_s"] = result.phase_seconds.get(key, 0.0)
        m.update((f"calls.{group}", count) for group, count in calls.items())
        return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prepare", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", type=Path,
                        help="run the per-layer pass and write its trace here")
    args = parser.parse_args(argv)

    bench = Bench(WORKLOADS[args.workload], args.seed, args.smoke, args.dir)
    if args.mode == "prepare":
        _, out = bench.prepare(NULL_TRACER)
    else:
        out = bench.measure(args.seconds, args.trace_out)
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
