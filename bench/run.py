#!/usr/bin/env python3
"""Real-clock release benchmark: one release, timed end to end and per layer.

    python3 bench/run.py                       # every workload, both passes
    python3 bench/run.py --workload mysql-cold --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --smoke               # same code path, tiny sizes

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` measures the per-layer metrics (one traced rep, one rep
counted under cProfile) and writes ``<out>/trace-<workload>.json``.
Without ``--trace`` both passes run.  A single (workload, pass) run ends
with the one-line JSON object ``BENCHMARK.json``'s contract asks for;
every run writes ``<out>/results.json`` for ``compare.py``.

This file only orchestrates: the program under test is imported by
``worker.py`` in child processes, one at a time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Sequence

from workloads import SETUPS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
#: The contract allows a run 180 s; leave the parent time to report.
RUN_DEADLINE_S = 170.0
#: Above this rep-to-rep spread a workload's timings are flagged noisy.
NOISY_SPREAD_PCT = 10.0


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    # Fixed string hashing: set iteration order, and with it the exact
    # cProfile call counts, repeat across processes.
    env["PYTHONHASHSEED"] = "0"
    # A developer's persistent cache would turn every cold rep warm.
    env.pop("REPRO_CACHE_DIR", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run_child(mode: str, workload: str, seed: int, smoke: bool, workdir: Path,
              deadline: float, extra: Sequence[str] = ()) -> Dict[str, Any]:
    """One worker child to completion; its result, plus ``elapsed_s``
    (spawn to exit: interpreter start and imports are part of set-up)."""
    result = workdir / f"{mode}-result.json"
    command = [sys.executable, str(BENCH / "worker.py"), mode,
               "--workload", workload, "--seed", str(seed),
               "--dir", str(workdir), "--result", str(result), *extra]
    if smoke:
        command.append("--smoke")
    start = time.perf_counter()
    # One child at a time: two would share this box's 2 cores.  Its
    # stdout goes to our stderr; our last stdout line is the result.
    proc = subprocess.run(command, env=child_env(), cwd=ROOT, stdout=sys.stderr,
                          timeout=max(1.0, deadline - time.monotonic()))
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: {mode} child exited {proc.returncode}")
    out = json.loads(result.read_text())
    out["elapsed_s"] = elapsed
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            smoke: bool, out_dir: Path) -> Dict[str, Any]:
    """One (workload, pass) run: set-up children, then the measuring child."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    # Every store and state copy lives under this one directory, removed
    # on the way out, failure included: a leftover 20 MB store would
    # otherwise ride along into the next run's checkout.
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=out_dir))
    try:
        measure_args = ["--seconds", str(seconds)]
        if trace:
            # Set-up happens inside the measuring child, on its timeline.
            workdir = tmp / "traced"
            workdir.mkdir()
            trace_out = out_dir / f"trace-{workload}.json"
            return run_child("measure", workload, seed, smoke, workdir, deadline,
                             [*measure_args, "--trace-out", str(trace_out)])
        # Prepare and measure in separate children: set-up's allocations
        # (a whole cold run for warm and reopt) must not reach peak_rss_mb.
        setups: List[float] = []
        count = 1 if smoke else SETUPS
        for i in range(count):
            workdir = tmp / f"setup-{i}"
            workdir.mkdir()
            setups.append(run_child("prepare", workload, seed, smoke, workdir,
                                    deadline)["elapsed_s"])
            if i < count - 1:
                shutil.rmtree(workdir)
        measured = run_child("measure", workload, seed, smoke, workdir,
                             deadline, measure_args)
        measured["end_to_end"]["setup_s"] = statistics.median(setups)
        measured["samples"]["setup_s"] = setups
        return measured
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def with_units(values: Dict[str, float], declared: List[Dict[str, Any]],
               workload: str) -> Dict[str, Dict[str, Any]]:
    """``name -> {value, unit}`` with BENCHMARK.json's units; the two
    name sets must be the same."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(values) != set(units):
        odd = sorted(set(values) ^ set(units))
        raise SystemExit(f"{workload}: metrics differ from BENCHMARK.json: {odd}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def print_table(name: str, record: Dict[str, Any]) -> None:
    samples = record.get("samples", {})
    layers = record.get("per_layer", {})
    spread = layers.get("process.wall_spread_pct", {}).get("value", 0.0)
    noisy = "  [noisy: rep spread %.1f %%]" % spread if spread > NOISY_SPREAD_PCT else ""
    print(f"\n== {name}: {record['attempted']} releases attempted, "
          f"{record['failed']} failed{noisy}")
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in record.get(section, {}).items():
            n = len(samples.get(metric, ())) or 1
            print(f"   {metric:34s} {entry['value']:>16.6g} {entry['unit']:<6s} n={n}")
    for key, digest in record["digests"].items():
        print(f"   {key:34s} {digest[:16]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="See bench/README.md for the metric glossary.")
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="drives the profiled runs (PGO training, LBR sampling)")
    parser.add_argument("--seconds", type=float,
                        help="how long each run measures (default: "
                             "BENCHMARK.json's run_seconds; 0 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end pass, 1: per-layer pass (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, 2 reps, 1 set-up: exercises the code "
                             "path, not the clock")
    parser.add_argument("--out", type=Path, default=BENCH / "out",
                        help="results.json and trace files go here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds
    if seconds is None:
        seconds = 0.0 if args.smoke else float(spec["run_seconds"])
    names = [args.workload] if args.workload else list(WORKLOADS)
    passes = [bool(args.trace)] if args.trace is not None else [False, True]
    out_dir = args.out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)

    records: Dict[str, Dict[str, Any]] = {}
    for name in names:
        record = records[name] = {"attempted": 0, "failed": 0, "failures": []}
        for trace in passes:
            run = run_one(name, args.seed, seconds, trace, args.smoke, out_dir)
            record["attempted"] += run["attempted"]
            record["failed"] += run["failed"]
            record["failures"] += run["failures"]
            record["digests"] = run["digests"]
            if trace:
                record["per_layer"] = with_units(
                    run["per_layer"], spec["per_layer"], name)
            else:
                record["end_to_end"] = with_units(
                    run["end_to_end"], spec["end_to_end"], name)
                record["samples"] = run["samples"]
        print_table(name, record)

    results = {"schema": 1, "seed": args.seed, "seconds": seconds,
               "smoke": args.smoke, "workloads": records}
    (out_dir / "results.json").write_text(json.dumps(results, indent=1))
    failed = sum(r["failed"] for r in records.values())
    print(f"\n{len(records)} workload(s), {failed} failed release(s); "
          f"wrote {out_dir / 'results.json'}")
    if len(names) == 1 and len(passes) == 1:
        record = records[names[0]]
        print(json.dumps({
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": record["per_layer" if passes[0] else "end_to_end"],
        }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
