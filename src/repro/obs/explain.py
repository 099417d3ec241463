"""Run-to-run attribution: *why* did this release regress?

``baseline.compare`` and the bench gates say *that* a metric moved;
this module says *which functions, which layout decisions and which
pipeline phase* moved it -- the first operational question of the daily
relink loop the paper deploys (§2, §5).  Three analyses, one report:

1. **Per-function cycle attribution** -- diff the frontend model's
   per-function counters (``PipelineResult.frontend_counters_by_function``)
   between two runs, rank the movers (first-order causes before their
   ripple effects, |cycle delta| within each class), and tag each with
   its *cause* by diffing the change evidence the pipeline already
   records: CFG digests and WPA hot-set membership from
   :class:`~repro.incr.IncrState`, profile-slice digests from
   :mod:`repro.profiles`, and Ext-TSP cluster signatures from the
   layout plan.  Causes form a causality chain and the first differing
   link wins: ``added``/``deleted`` > ``code-edit`` > ``hot-set`` >
   ``profile-drift`` > ``layout`` > ``address-shift`` (cycles moved
   with no content change -- someone else's edit shifted this
   function's addresses) > ``unknown`` (no evidence captured).
2. **Critical-path analysis** -- reconstruct the span tree of each run
   (:mod:`repro.obs.critical_path`), report the simulated-clock
   critical path, per-phase slack, and how the binding phase shifted.
3. **Counter delta triage** -- classify every ``Counters``/gauge delta
   as ``expected`` or ``suspicious`` with a one-line reason, encoding
   the determinism contracts the counters already obey
   (``cache.*``/``incr.*`` may move only when code or profile changed;
   degradation markers never move silently).

Two identical runs produce the fixed point: an empty attribution list,
zero phase shift and every counter delta ``expected`` -- asserted by
``tests/test_explain.py``.

Inputs are deliberately file-shaped: two ``--metrics-out`` JSON reports
(plus optional ``--trace-out`` Chrome traces and ``--state-dir``
snapshots) or two state snapshots alone.  :func:`explain_results` wires
the same engine to in-process
:class:`~repro.core.pipeline.PipelineResult` pairs.  Two ``bench
--out`` scorecards are not an input: ``bench --compare`` is the one
engine that diffs those.

Like the rest of :mod:`repro.obs`, module scope imports nothing from
the wider package (the tracer must stay importable everywhere);
evidence loaders import lazily.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.obs.report import PipelineReport, plain, record

__all__ = [
    "EXPLAIN_SCHEMA_VERSION",
    "CAUSES",
    "CounterDelta",
    "ExplainReport",
    "FunctionDelta",
    "PhaseDelta",
    "RunSnapshot",
    "explain",
    "explain_results",
]

#: Bump on any backwards-incompatible change to the report's JSON layout.
EXPLAIN_SCHEMA_VERSION = 1

#: Attribution causes, in precedence order (first differing link wins).
CAUSES = ("added", "deleted", "code-edit", "hot-set", "profile-drift",
          "layout", "address-shift", "unknown")

#: Ranking class per cause: first-order causes before layout decisions
#: before ripple effects (see :func:`_attribute`).
_CAUSE_PRIORITY = {
    "added": 0, "deleted": 0, "code-edit": 0, "hot-set": 0,
    "profile-drift": 0, "layout": 1, "address-shift": 2, "unknown": 2,
}

#: Counters whose *increase* is never routine: they mark degradation,
#: data loss or rejected work, and a release bumping them needs eyes.
_ALWAYS_SUSPICIOUS = {
    "store.load_errors": "persisted artifacts failed to load back",
    "store.quarantined": "corrupt cache entries were quarantined",
    "ram.rejections": "actions were rejected for exceeding the RAM limit",
    "retry.exhausted": "a stage ran out of fault-retry budget",
    "faults.degraded": "the pipeline fell back instead of completing a stage",
}

#: Reuse/occupancy counter prefixes: legitimate movers when (and only
#: when) the code or profile actually changed between the runs.
_REUSE_PREFIXES = ("cache.", "incr.", "executor.", "store.", "solve.")


# ----------------------------------------------------------------------
# Report model

@dataclass(frozen=True)
class FunctionDelta:
    """One function's cycle movement between two runs, with its cause."""

    rank: int
    function: str
    base_cycles: float
    new_cycles: float
    cause: str
    #: One-line statement of the evidence behind ``cause``.
    evidence: str

    @property
    def delta(self) -> float:
        return self.new_cycles - self.base_cycles


@dataclass(frozen=True)
class PhaseDelta:
    """One pipeline phase's simulated-time movement between two runs."""

    phase: str
    base_seconds: float
    new_seconds: float

    @property
    def delta(self) -> float:
        return self.new_seconds - self.base_seconds


@dataclass(frozen=True)
class CounterDelta:
    """One counter/gauge delta with its triage verdict."""

    name: str
    base: float
    new: float
    #: ``expected`` or ``suspicious``.
    verdict: str
    reason: str

    @property
    def delta(self) -> float:
        return self.new - self.base


@dataclass(frozen=True)
class ExplainReport:
    """The full run-to-run diff: attribution, critical path, triage."""

    base_label: str
    new_label: str
    program: str
    #: Movers ranked by absolute cycle delta (rank 1 first); empty when
    #: the two runs are identical.
    attribution: Tuple[FunctionDelta, ...] = ()
    #: Per-phase simulated-time shifts (only phases that exist in at
    #: least one run; zero-delta phases are kept -- they are evidence
    #: of stability, and the list is small).
    phases: Tuple[PhaseDelta, ...] = ()
    #: ``{"base": {...}, "new": {...}}`` critical-path summaries
    #: (:meth:`repro.obs.critical_path.CriticalPath.as_dict`), empty
    #: when neither run carried a trace.
    critical_path: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    counters: Tuple[CounterDelta, ...] = ()
    schema_version: int = EXPLAIN_SCHEMA_VERSION

    @property
    def suspicious(self) -> Tuple[CounterDelta, ...]:
        return tuple(c for c in self.counters if c.verdict == "suspicious")

    @property
    def binding_phase_base(self) -> str:
        return self.critical_path.get("base", {}).get("binding_phase", "")

    @property
    def binding_phase_new(self) -> str:
        return self.critical_path.get("new", {}).get("binding_phase", "")

    def to_json(self) -> Dict[str, Any]:
        return plain(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "ExplainReport":
        version = data.get("schema_version")
        if version != EXPLAIN_SCHEMA_VERSION:
            raise ValueError(
                f"explain schema version {version!r} is not the supported "
                f"{EXPLAIN_SCHEMA_VERSION}"
            )
        return record(cls, data)

    # -- rendering ------------------------------------------------------

    def markdown(self) -> str:
        """The report as a GitHub-flavored markdown scorecard."""
        from repro.analysis import Table

        lines = [
            f"## Explain — `{self.base_label}` → `{self.new_label}`",
            "",
            f"Program `{self.program}`. "
            f"{len(self.attribution)} attributed function(s), "
            f"{len(self.suspicious)} suspicious counter delta(s).",
            "",
            "### Cycle attribution",
            "",
        ]
        if self.attribution:
            table = Table(["rank", "function", "Δ cycles", "base", "new",
                           "cause", "evidence"])
            for f in self.attribution:
                table.add_row(f.rank, f"`{f.function}`", f"{f.delta:+.1f}",
                              f"{f.base_cycles:.1f}", f"{f.new_cycles:.1f}",
                              f.cause, f.evidence)
            lines.append(table.markdown())
        else:
            lines.append("No function-level movement: the runs are "
                         "indistinguishable to the frontend model.")
        lines += ["", "### Critical path", ""]
        if self.critical_path:
            base_cp = self.critical_path.get("base", {})
            new_cp = self.critical_path.get("new", {})
            shift = ("unchanged" if self.binding_phase_base ==
                     self.binding_phase_new else
                     f"shifted `{self.binding_phase_base}` → "
                     f"`{self.binding_phase_new}`")
            lines.append(
                f"Binding phase {shift}; makespan "
                f"{base_cp.get('total_seconds', 0.0):.2f}s → "
                f"{new_cp.get('total_seconds', 0.0):.2f}s.")
            if self.phases:
                table = Table(["phase", "base s", "new s", "Δ s"])
                for p in self.phases:
                    table.add_row(p.phase, f"{p.base_seconds:.2f}",
                                  f"{p.new_seconds:.2f}", f"{p.delta:+.2f}")
                lines += ["", table.markdown()]
        else:
            lines.append("No traces supplied; critical path not computed.")
        lines += ["", "### Counter triage", ""]
        moved = [c for c in self.counters if c.delta != 0.0]
        if not moved:
            lines.append(f"All {len(self.counters)} counter(s) unchanged.")
        else:
            table = Table(["counter", "base", "new", "Δ", "verdict", "why"])
            for c in sorted(moved, key=lambda c: (c.verdict != "suspicious",
                                                  c.name)):
                table.add_row(f"`{c.name}`", f"{c.base:g}", f"{c.new:g}",
                              f"{c.delta:+g}", f"**{c.verdict}**", c.reason)
            lines.append(table.markdown())
            unchanged = len(self.counters) - len(moved)
            if unchanged:
                lines.append("")
                lines.append(f"({unchanged} further counter(s) unchanged.)")
        return "\n".join(lines) + "\n"

    def table(self):
        """The attribution ranking as an aligned text table (stdout)."""
        from repro.analysis import Table

        table = Table(
            ["rank", "function", "Δ cycles", "cause", "evidence"],
            title=f"{self.program}: {self.base_label} → {self.new_label}",
        )
        for f in self.attribution:
            table.add_row(f.rank, f.function, f"{f.delta:+.1f}", f.cause,
                          f.evidence)
        if not self.attribution:
            table.add_row("-", "(no movement)", "-", "-", "-")
        return table


# ----------------------------------------------------------------------
# Run snapshots: the engine's normalized input

@dataclass
class RunSnapshot:
    """One run, reduced to exactly what the explain engine diffs."""

    label: str
    program: str = ""
    #: Function -> frontend counters of the *optimized* binary.
    per_function: Dict[str, Dict[str, float]] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Change evidence per function: ``{"cfg": ..., "profile": ...,
    #: "hot": ...}`` (from an :class:`~repro.incr.IncrState` snapshot).
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Ext-TSP cluster signature per laid-out function (result mode).
    clusters: Dict[str, str] = field(default_factory=dict)
    #: Tracer spans (live) or reconstructed from a Chrome trace.
    spans: Optional[List[Any]] = None

    # -- loaders --------------------------------------------------------

    @classmethod
    def from_report(cls, report, label: str, spans=None,
                    state=None) -> "RunSnapshot":
        """From a :class:`~repro.obs.PipelineReport` (+ optional extras)."""
        snap = cls(
            label=label,
            program=report.program,
            per_function={fn: dict(c) for fn, c in
                          report.frontend_by_function.get("optimized",
                                                          {}).items()},
            counters=dict(report.counters),
            gauges=dict(report.gauges),
            phase_seconds={p.name: p.sim_seconds for p in report.phases},
            spans=list(spans) if spans is not None else None,
        )
        if state is not None:
            snap.functions = _evidence_from_state(state)
        return snap

    @classmethod
    def from_result(cls, result, label: str, tracer=None,
                    max_blocks: int = 200_000, seed: int = 77) -> "RunSnapshot":
        """From an in-process :class:`~repro.core.pipeline.PipelineResult`.

        The richest mode: per-function counters are simulated on the
        spot, change evidence is captured exactly as ``--state-dir``
        would persist it, and the Ext-TSP cluster plans are
        fingerprinted so pure layout changes are nameable.
        """
        from repro.incr import IncrState

        report = result.report()
        snap = cls.from_report(report, label=label,
                               spans=list(tracer.spans) if tracer is not None
                               and getattr(tracer, "spans", None) else None,
                               state=IncrState.capture(result))
        snap.per_function = result.frontend_counters_by_function(
            max_blocks=max_blocks, seed=seed)["optimized"]
        snap.clusters = {
            fn: _cluster_signature(clusters)
            for fn, clusters in result.wpa_result.clusters.items()
        }
        return snap

    @classmethod
    def load(cls, path, trace=None, state=None,
             label: Optional[str] = None) -> "RunSnapshot":
        """Autodetecting file loader (the CLI's entry point).

        ``path`` may be a ``--metrics-out`` report or a ``--state-dir``
        directory / ``state.json`` snapshot; ``trace`` and ``state``
        optionally enrich a metrics report with its Chrome trace and
        incremental state.
        """
        path = Path(path)
        label = label or path.name
        if path.is_dir() or path.name == "state.json":
            return cls._load_state(path, label)
        data = json.loads(path.read_text())
        if "scenarios" in data and "suite" in data:
            raise ValueError(
                f"{path}: a bench scorecard; diff two of those with "
                "`python -m repro.tools bench --compare`")
        if "builds" in data and "schema_version" in data:
            return cls._load_metrics(data, trace, state, label)
        raise ValueError(
            f"{path}: not a metrics report or state snapshot (nothing "
            "here to explain)")

    @classmethod
    def _load_metrics(cls, data, trace, state, label) -> "RunSnapshot":
        spans = None
        if trace is not None:
            from repro.obs.critical_path import spans_from_chrome

            spans = spans_from_chrome(json.loads(Path(trace).read_text()))
        incr_state = None
        if state is not None:
            from repro.incr import IncrState

            incr_state = IncrState.load(state)
        return cls.from_report(PipelineReport.from_json(data), label=label,
                               spans=spans, state=incr_state)

    @classmethod
    def _load_state(cls, path, label) -> "RunSnapshot":
        from repro.incr import IncrState

        state = IncrState.load(path)
        return cls(label=label, program=state.program,
                   functions=_evidence_from_state(state))


def _evidence_from_state(state) -> Dict[str, Dict[str, Any]]:
    return {
        name: {"cfg": fs.cfg_digest, "profile": fs.profile_digest,
               "hot": fs.hot}
        for name, fs in state.functions.items()
    }


def _cluster_signature(clusters: Sequence[Sequence[int]]) -> str:
    """Stable fingerprint of one function's Ext-TSP cluster plan."""
    import hashlib

    h = hashlib.sha256()
    for cluster in clusters:
        h.update(("|" + ",".join(str(b) for b in cluster)).encode())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# The engine

def explain(base: RunSnapshot, new: RunSnapshot,
            top_k: int = 10) -> ExplainReport:
    """Diff two run snapshots into an :class:`ExplainReport`."""
    attribution = _attribute(base, new, top_k)
    content_changed = any(
        f.cause in ("added", "deleted", "code-edit", "hot-set",
                    "profile-drift")
        for f in attribution)
    counters = _triage(base, new, content_changed)
    phases, cp = _phase_analysis(base, new)
    return ExplainReport(
        base_label=base.label,
        new_label=new.label,
        program=new.program or base.program,
        attribution=attribution,
        phases=phases,
        critical_path=cp,
        counters=counters,
    )


def explain_results(base_result, new_result, base_tracer=None,
                    new_tracer=None, top_k: int = 10,
                    labels: Tuple[str, str] = ("base", "new"),
                    max_blocks: int = 200_000, seed: int = 77) -> ExplainReport:
    """In-process convenience: explain two pipeline results directly."""
    return explain(
        RunSnapshot.from_result(base_result, labels[0], tracer=base_tracer,
                                max_blocks=max_blocks, seed=seed),
        RunSnapshot.from_result(new_result, labels[1], tracer=new_tracer,
                                max_blocks=max_blocks, seed=seed),
        top_k=top_k,
    )


def _attribute(base: RunSnapshot, new: RunSnapshot,
               top_k: int) -> Tuple[FunctionDelta, ...]:
    names = set(base.per_function) | set(new.per_function)
    # Functions whose evidence changed are movers even at zero cycle
    # delta (a cold function's edit still deserves a row); in pure
    # state-snapshot mode they are the *only* candidates.
    if base.functions and new.functions:
        for name in set(base.functions) | set(new.functions):
            if base.functions.get(name) != new.functions.get(name):
                names.add(name)
    entries: List[Tuple[float, float, str, str, str]] = []
    for name in names:
        b = base.per_function.get(name, {}).get("cycles", 0.0)
        n = new.per_function.get(name, {}).get("cycles", 0.0)
        cause, evidence = _cause(name, base, new, n - b)
        if cause is None:
            continue
        entries.append((b, n, name, cause, evidence))
    # Causal movers outrank their symptoms: a one-function edit shifts
    # every function laid out after it, and the address-shift ripples
    # can individually out-delta the edit itself.  The ranking exists
    # to answer "what changed?", so first-order causes (content,
    # hot-set, profile) come first, layout decisions second, ripple
    # effects last -- by |Δcycles| within each class.
    entries.sort(key=lambda e: (_CAUSE_PRIORITY[e[3]],
                                -abs(e[1] - e[0]), e[2]))
    return tuple(
        FunctionDelta(rank=i + 1, function=name, base_cycles=b, new_cycles=n,
                      cause=cause, evidence=evidence)
        for i, (b, n, name, cause, evidence) in enumerate(entries[:top_k])
    )


def _cause(name: str, base: RunSnapshot, new: RunSnapshot,
           delta: float) -> Tuple[Optional[str], str]:
    """(cause, evidence) for one function; ``(None, "")`` = not a mover."""
    have_evidence = bool(base.functions and new.functions)
    if have_evidence:
        b_ev = base.functions.get(name)
        n_ev = new.functions.get(name)
        if b_ev is None and n_ev is not None:
            return "added", "function exists only in the new run"
        if b_ev is not None and n_ev is None:
            return "deleted", "function exists only in the base run"
        if b_ev is not None and n_ev is not None:
            if b_ev["cfg"] != n_ev["cfg"]:
                return "code-edit", (
                    f"CFG digest changed ({b_ev['cfg'][:12]} → "
                    f"{n_ev['cfg'][:12]})")
            if b_ev["hot"] != n_ev["hot"]:
                flip = "cold → hot" if n_ev["hot"] else "hot → cold"
                return "hot-set", f"WPA hot-set membership flipped ({flip})"
            if b_ev["profile"] != n_ev["profile"]:
                return "profile-drift", (
                    "profile slice digest changed with an unchanged CFG")
    if base.clusters and new.clusters:
        b_sig = base.clusters.get(name)
        n_sig = new.clusters.get(name)
        if b_sig != n_sig:
            if b_sig is None or n_sig is None:
                side = "entered" if b_sig is None else "left"
                return "layout", f"function {side} the Ext-TSP layout plan"
            return "layout", (
                f"Ext-TSP cluster plan changed ({b_sig[:8]} → {n_sig[:8]})")
    if delta == 0.0:
        return None, ""
    if have_evidence:
        return "address-shift", (
            "no content/profile/layout change of its own; cycles moved "
            "with the surrounding layout")
    return "unknown", (
        "no change evidence captured (rerun with --state-dir to tag causes)")


def _phase_analysis(base: RunSnapshot, new: RunSnapshot):
    names: List[str] = list(base.phase_seconds)
    names += [n for n in new.phase_seconds if n not in names]
    phases = tuple(
        PhaseDelta(phase=name,
                   base_seconds=base.phase_seconds.get(name, 0.0),
                   new_seconds=new.phase_seconds.get(name, 0.0))
        for name in names
    )
    cp: Dict[str, Dict[str, Any]] = {}
    if base.spans and new.spans:
        from repro.obs.critical_path import critical_path

        cp = {"base": critical_path(base.spans).as_dict(),
              "new": critical_path(new.spans).as_dict()}
    return phases, cp


def _triage(base: RunSnapshot, new: RunSnapshot,
            content_changed: bool) -> Tuple[CounterDelta, ...]:
    out: List[CounterDelta] = []
    for kind, b_map, n_map in (("counter", base.counters, new.counters),
                               ("gauge", base.gauges, new.gauges)):
        names = list(b_map)
        names += [n for n in n_map if n not in names]
        for name in names:
            b = float(b_map.get(name, 0.0))
            n = float(n_map.get(name, 0.0))
            verdict, reason = _triage_one(name, b, n, kind, content_changed)
            out.append(CounterDelta(name=name, base=b, new=n,
                                    verdict=verdict, reason=reason))
    return tuple(out)


def _triage_one(name: str, b: float, n: float, kind: str,
                content_changed: bool) -> Tuple[str, str]:
    """First matching rule wins; identical values are always expected."""
    delta = n - b
    if delta == 0.0:
        return "expected", "unchanged"
    if name in _ALWAYS_SUSPICIOUS and delta > 0:
        return "suspicious", _ALWAYS_SUSPICIOUS[name]
    if name.startswith(("faults.", "retry.")):
        return "expected", (
            "fault injection is configured; planned retries and recoveries "
            "move these")
    if name == "pgo.match_rate" and delta < -0.01:
        return "suspicious", (
            f"profile match rate dropped {delta:+.3f}; the profile is "
            "going stale faster than matching recovers")
    if name.startswith(_REUSE_PREFIXES):
        if content_changed:
            return "expected", (
                "reuse/occupancy shifted with a detected code or profile "
                "change")
        return "suspicious", (
            "reuse shifted with no detected code or profile change "
            "-- cache keys or digests may be unstable")
    return "expected", f"moved with the workload ({kind}); no invariant violated"
