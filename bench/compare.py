#!/usr/bin/env python3
"""Compare two ``results.json`` files of the release benchmark.

    python3 bench/compare.py A.json B.json      # A: parent, B: change

One row per (end-to-end metric, workload): both medians, how much worse
B reads as a share of A, the bound from ``BENCHMARK.json`` and a verdict:

  within      B is no worse than A by more than the bound
  improved    B is better than A by more than the bound
  regressed   B is worse than A by more than the bound
  unresolved  the rep-to-rep spread of either side is wider than the
              bound and the two sides' samples overlap: no verdict

Below the table, every metric that must repeat exactly on one commit
(``cycles_ratio``, ``text_bytes``, every ``sim.*`` and ``calls.*``) is
listed if it differs; that list is information, a change may move them
on purpose.
Exits 1 on any ``regressed``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: Metrics that are modelled or counted, not timed: equal inputs give
#: equal values to the last digit.
EXACT = ("cycles_ratio", "text_bytes")
EXACT_LAYER_PREFIXES = ("calls.", "sim.")


def spread(samples: List[float]) -> float:
    """Quartile distance as a share of the median (0 for one sample)."""
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / abs(statistics.median(samples))


def verdict(a: List[float], b: List[float], bound: float,
            lower_is_better: bool) -> Tuple[float, float, str]:
    """``(how much worse B's median is as a share of A's, the wider of the
    two spreads, verdict)`` for one metric's samples on both sides."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    worse = (b_median - a_median) / abs(a_median)
    if not lower_is_better:
        worse = -worse
    noise = max(spread(a), spread(b))
    if noise > bound:
        # Wider than the bound: only a clean separation counts.
        separated = max(b) < min(a) if lower_is_better else min(b) > max(a)
        return worse, noise, "improved" if separated else "unresolved"
    if worse > bound:
        return worse, noise, "regressed"
    return worse, noise, "improved" if worse < -bound else "within"


def compare(a: Dict, b: Dict) -> int:
    """Print the table for two loaded result files; 1 if anything regressed."""
    same_inputs = all(a[k] == b[k] for k in ("seed", "smoke"))
    verdicts: List[str] = []
    changed: List[str] = []
    print(f"{'workload':12s} {'metric':14s} {'A':>12s} {'B':>12s} {'unit':5s} "
          f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict")
    for workload, a_rec in a["workloads"].items():
        b_rec = b["workloads"].get(workload)
        if b_rec is None or "end_to_end" not in a_rec or "end_to_end" not in b_rec:
            continue
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a_value = a_rec["end_to_end"][name]["value"]
            b_value = b_rec["end_to_end"][name]["value"]
            worse, noise, outcome = verdict(
                a_rec["samples"].get(name, [a_value]),
                b_rec["samples"].get(name, [b_value]),
                bound, metric["better"] == "lower")
            verdicts.append(outcome)
            print(f"{workload:12s} {name:14s} {a_value:12.6g} {b_value:12.6g} "
                  f"{metric['unit']:5s} {100 * worse:+8.2f}% {100 * bound:5.0f}% "
                  f"{100 * noise:6.1f}%  {outcome}")
        if not same_inputs:
            continue
        for section, exact in (("end_to_end", lambda n: n in EXACT),
                               ("per_layer", lambda n: n.startswith(EXACT_LAYER_PREFIXES))):
            a_values, b_values = a_rec.get(section, {}), b_rec.get(section, {})
            changed += [
                f"  {workload:12s} {name:22s} {a_values[name]['value']!r} -> "
                f"{b_values[name]['value']!r}"
                for name in a_values
                if exact(name) and name in b_values
                and a_values[name]["value"] != b_values[name]["value"]]

    if not same_inputs:
        print("\nseed or --smoke differ: exact metrics not compared")
    elif changed:
        print("\nexact metrics that changed:", *changed, sep="\n")
    else:
        print("\nexact metrics (cycles_ratio, text_bytes, sim.*, calls.*): all identical")
    regressed = verdicts.count("regressed")
    print(f"{len(verdicts)} rows, {regressed} regressed, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if regressed else 0


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    return compare(a, b)


if __name__ == "__main__":
    sys.exit(main())
