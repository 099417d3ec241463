"""Typed pipeline reports: the supported programmatic result surface.

:class:`PipelineReport` is what ``PipelineResult.report()`` returns and
what ``--metrics-out`` serializes.  It is a plain frozen dataclass of
scalars -- no IR, no executables -- so it is cheap to keep, diff and
ship to dashboards, and its JSON form is versioned
(:data:`METRICS_SCHEMA_VERSION`) so downstream consumers can detect
drift instead of silently misreading renamed fields.

``PipelineResult.summary()`` is :meth:`PipelineReport.summary`:
anything the human-readable text can say, the typed object says first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Tuple

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "BuildStat",
    "PhaseStat",
    "PipelineReport",
]

#: Bump on any backwards-incompatible change to the JSON layout.
METRICS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BuildStat:
    """One full (re)build's accounting: backends plus the final link."""

    name: str
    #: Simulated wall-clock of the whole build (backends + link).
    wall_seconds: float
    backend_seconds: float
    link_seconds: float
    #: Backend actions in the build (the link is counted separately).
    actions: int
    cache_hits: int
    #: Cold modules replayed from the cache during the Phase-4 relink.
    cold_cache_hits: int
    hot_modules: int
    #: Largest modelled RAM footprint of any action in the build.
    peak_memory_bytes: int
    binary_size: int


@dataclass(frozen=True)
class PhaseStat:
    """One pipeline phase's simulated cost and modelled peak memory."""

    name: str
    sim_seconds: float
    peak_memory_bytes: int = 0


@dataclass(frozen=True)
class PipelineReport:
    """Everything a run's evaluation needs, as data."""

    program: str
    modules: int
    hot_functions: int
    builds: Tuple[BuildStat, ...]
    phases: Tuple[PhaseStat, ...]
    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    #: Hardware-counter scorecard per binary (``baseline``/``optimized``
    #: -> Table 4 label -> value), as produced by
    #: ``PipelineResult.frontend_counters()``.  Empty when the run did
    #: not simulate the frontend (it is an opt-in measurement, not an
    #: accounting byproduct).
    frontend: Mapping[str, Mapping[str, float]] = field(default_factory=dict)
    #: Per-function frontend attribution (``baseline``/``optimized``
    #: -> function -> counter -> value), as produced by
    #: ``PipelineResult.frontend_counters_by_function()``.  Empty unless
    #: the report was built with ``include_attribution=True``; this is
    #: the input ``repro-explain`` ranks cycle deltas from.
    frontend_by_function: Mapping[str, Mapping[str, Mapping[str, float]]] = (
        field(default_factory=dict))
    #: Stale-profile matching accounting (mode, match tiers, inferred
    #: counts, stale/recovered match rates) when the run enabled
    #: ``stale_matching``; empty otherwise.  See
    #: :class:`repro.profiles.MatchStats`.
    profile_recovery: Mapping[str, Any] = field(default_factory=dict)
    #: True when the run fell back somewhere instead of failing -- a
    #: fault plan exhausted a retry budget for profile collection, WPA
    #: or the relink (see :mod:`repro.faults`).  A degraded report is a
    #: *successful* run with reduced optimization, and says so.
    degraded: bool = False
    #: One entry per degraded stage, e.g. ``("lbr-profile", "wpa")``.
    degraded_reasons: Tuple[str, ...] = ()
    #: Incremental re-optimization accounting (dirty/added/deleted
    #: function sets, hot-set flips, solve-cache reuse) when the run
    #: came from ``PropellerPipeline.reoptimize``; empty otherwise.
    #: See :mod:`repro.incr`.
    incremental: Mapping[str, Any] = field(default_factory=dict)
    schema_version: int = METRICS_SCHEMA_VERSION

    def build(self, name: str) -> BuildStat:
        for stat in self.builds:
            if stat.name == name:
                return stat
        raise KeyError(f"no build stat named {name!r}")

    def phase(self, name: str) -> PhaseStat:
        for stat in self.phases:
            if stat.name == name:
                return stat
        raise KeyError(f"no phase stat named {name!r}")

    @property
    def pct_hot_modules(self) -> float:
        return self.build("optimized").hot_modules / max(1, self.modules)

    def frontend_counter(self, binary: str, label: str) -> float:
        """One scorecard value, e.g. ``frontend_counter("optimized", "I1")``."""
        try:
            return self.frontend[binary][label]
        except KeyError:
            raise KeyError(
                f"no frontend counter {label!r} for binary {binary!r}; "
                "was the report built with include_frontend=True?"
            ) from None

    @property
    def frontend_improvement(self) -> float:
        """Fractional cycle improvement of ``optimized`` over ``baseline``."""
        base = self.frontend_counter("baseline", "cycles")
        opt = self.frontend_counter("optimized", "cycles")
        return base / opt - 1.0 if opt else 0.0

    def summary(self) -> str:
        """The human-readable run summary (what ``optimize`` prints)."""
        base, meta, opt = (self.build("baseline"), self.build("metadata"),
                           self.build("optimized"))
        lines = [
            f"program: {self.program}",
            f"modules: {self.modules}  "
            f"hot (re-codegen'd): {opt.hot_modules} "
            f"({100 * self.pct_hot_modules:.0f}%)",
            f"hot functions: {self.hot_functions}",
            f"baseline build: {base.wall_seconds:.2f}s "
            f"(backends {base.backend_seconds:.2f}s, "
            f"link {base.link_seconds:.2f}s)",
            f"propeller phase 4: {opt.wall_seconds:.2f}s "
            f"(backends {opt.backend_seconds:.2f}s, "
            f"relink {opt.link_seconds:.2f}s, "
            f"{opt.cold_cache_hits} cold objects from cache)",
            f"wpa peak memory: {self.phase('wpa_convert').peak_memory_bytes / (1 << 20):.1f} MB",
            f"binary sizes: base {base.binary_size}, "
            f"metadata {meta.binary_size}, "
            f"optimized {opt.binary_size}",
        ]
        if self.profile_recovery:
            rec = self.profile_recovery
            lines.append(
                f"stale matching ({rec['mode']}): match-rate "
                f"{rec['stale_match_rate']:.2f} -> "
                f"{rec['recovered_match_rate']:.2f} "
                f"(exact {rec['matched_exact']}, loose {rec['matched_loose']}, "
                f"inferred {rec['blocks_inferred']}+{rec['edges_inferred']})"
            )
        if self.incremental:
            inc = self.incremental
            lines.append(
                f"incremental: {len(inc['dirty'])} dirty, "
                f"{len(inc['added'])} added, {len(inc['deleted'])} deleted; "
                f"solve reuse {inc['solve_reuse']:.2f} "
                f"({inc['solve_hits']} replayed, {inc['solve_misses']} solved)"
            )
        if self.degraded:
            lines.append(f"DEGRADED: {', '.join(self.degraded_reasons)}")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Plain-data form (``json.dumps``-able), schema-versioned."""
        return {
            "schema_version": self.schema_version,
            "program": self.program,
            "modules": self.modules,
            "hot_functions": self.hot_functions,
            "builds": [asdict(b) for b in self.builds],
            "phases": [asdict(p) for p in self.phases],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "frontend": {k: dict(v) for k, v in self.frontend.items()},
            "frontend_by_function": {
                binary: {fn: dict(c) for fn, c in funcs.items()}
                for binary, funcs in self.frontend_by_function.items()
            },
            "profile_recovery": dict(self.profile_recovery),
            "degraded": self.degraded,
            "degraded_reasons": list(self.degraded_reasons),
            "incremental": dict(self.incremental),
        }

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "PipelineReport":
        version = data.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema version {version!r} is not the supported "
                f"{METRICS_SCHEMA_VERSION}"
            )
        return cls(
            program=data["program"],
            modules=data["modules"],
            hot_functions=data["hot_functions"],
            builds=tuple(BuildStat(**b) for b in data["builds"]),
            phases=tuple(PhaseStat(**p) for p in data["phases"]),
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            # Additive in schema version 1: absent in payloads written
            # before the frontend scorecard existed.
            frontend={k: dict(v) for k, v in data.get("frontend", {}).items()},
            # Additive in schema version 1: absent before the explain
            # engine's per-function attribution existed.
            frontend_by_function={
                binary: {fn: dict(c) for fn, c in funcs.items()}
                for binary, funcs in data.get("frontend_by_function", {}).items()
            },
            # Additive in schema version 1: absent before stale-profile
            # matching existed.
            profile_recovery=dict(data.get("profile_recovery", {})),
            # Additive in schema version 1: absent before fault
            # injection existed.
            degraded=bool(data.get("degraded", False)),
            degraded_reasons=tuple(data.get("degraded_reasons", ())),
            # Additive in schema version 1: absent before incremental
            # re-optimization existed.
            incremental=dict(data.get("incremental", {})),
        )
