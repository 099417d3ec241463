"""Typed pipeline reports, and the one codec every report shares.

:class:`PipelineReport` is what ``PipelineResult.report()`` returns and
what ``--metrics-out`` serializes.  It is a plain frozen dataclass of
scalars -- no IR, no executables -- so it is cheap to keep, diff and
ship to dashboards, and its JSON form is versioned
(:data:`METRICS_SCHEMA_VERSION`) so downstream consumers can detect
drift instead of silently misreading renamed fields.  It is built in
one place, :meth:`PipelineReport.from_result`, and
``PipelineResult.summary()`` is :meth:`PipelineReport.summary`:
anything the human-readable text can say, the typed object says first.

**The dataclass is the schema.**  Every record :mod:`repro.obs`
publishes (this report, the bench report, the explain report, the
critical path) is written by :func:`plain` and read back by
:func:`record`, both driven by the dataclass's own fields.  To add a
field, declare it -- once, with a default so files written before it
existed still load ("additive in schema v1"); there is no ``to_json``
body to extend and no ``from_json`` body to keep in step.
"""

from __future__ import annotations

from collections import abc
from dataclasses import dataclass, field, fields, is_dataclass
from functools import lru_cache
from typing import Any, Dict, Mapping, Tuple, get_args, get_origin, get_type_hints

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "BuildStat",
    "PhaseStat",
    "PipelineReport",
    "plain",
    "record",
]


def plain(value: Any) -> Any:
    """A record as ``json.dumps``-able data: a dataclass becomes the
    dict of its fields, a tuple a list, recursively."""
    if is_dataclass(value):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, abc.Mapping):
        return {key: plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    return value


def record(cls, data: Mapping[str, Any]):
    """The inverse of :func:`plain`, driven by ``cls``'s field types.

    Nested records, ``Tuple[X, ...]`` and mappings are rebuilt from
    their hints; everything else is taken as is.  Unknown keys are
    ignored and absent keys keep the field's default; a missing
    *required* key is the constructor's ``TypeError``.
    """
    return cls(**{name: _rebuild(hint, data[name])
                  for name, hint in _field_hints(cls) if name in data})


@lru_cache(maxsize=None)
def _field_hints(cls) -> Tuple[Tuple[str, Any], ...]:
    # Resolved once per class: a state snapshot is one record per function.
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _rebuild(hint: Any, value: Any) -> Any:
    if is_dataclass(hint):
        return record(hint, value)
    origin, args = get_origin(hint), get_args(hint)
    if origin is tuple:
        return tuple(_rebuild(args[0], item) for item in value)
    if origin in (dict, abc.Mapping):
        return {key: _rebuild(args[1], item) for key, item in value.items()}
    return value


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
    #: the input ``explain`` ranks cycle deltas from.
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
        return plain(self)

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "PipelineReport":
        version = data.get("schema_version")
        if version != METRICS_SCHEMA_VERSION:
            raise ValueError(
                f"metrics schema version {version!r} is not the supported "
                f"{METRICS_SCHEMA_VERSION}"
            )
        return record(cls, data)

    @classmethod
    def from_result(cls, result, include_frontend: bool = False,
                    include_attribution: bool = False) -> "PipelineReport":
        """The report of one :class:`~repro.core.pipeline.PipelineResult`
        (what ``PipelineResult.report()`` delegates to).

        Everything in it is accounting -- the artifacts themselves stay
        on the result object.  ``include_frontend=True`` additionally
        simulates the frontend model on the baseline and optimized
        binaries (a real measurement, not free) and attaches the
        hardware-counter scorecard as the ``frontend`` section;
        ``include_attribution=True`` also fills ``frontend_by_function``
        with per-function attribution (the input to ``explain``).
        When both are requested the simulation runs once and feeds both
        sections.
        """
        builds = tuple(
            BuildStat(
                name=name,
                wall_seconds=outcome.wall_seconds,
                backend_seconds=outcome.backends.wall_seconds,
                link_seconds=outcome.link_seconds,
                actions=outcome.backends.actions,
                cache_hits=outcome.backends.cache_hits,
                cold_cache_hits=outcome.cold_cache_hits,
                hot_modules=outcome.hot_modules,
                peak_memory_bytes=max(
                    outcome.backends.peak_action_memory,
                    outcome.link_stats.peak_memory_bytes,
                ),
                binary_size=outcome.executable.total_size,
            )
            for name, outcome in (("baseline", result.baseline),
                                  ("metadata", result.metadata),
                                  ("optimized", result.optimized)))
        baseline, metadata, _ = builds
        phase_peaks = {
            "wpa_convert": result.wpa_result.stats.peak_memory_bytes,
            "lbr_profile_run": result.perf.size_bytes,
            "prop_backends": result.optimized.backends.peak_action_memory,
            "prop_link": result.optimized.link_stats.peak_memory_bytes,
            "opt_build": baseline.peak_memory_bytes,
            "metadata_build": metadata.peak_memory_bytes,
        }
        snapshot = result.counters.snapshot()
        scorecard, attribution = {}, {}
        if include_frontend or include_attribution:
            scorecard, attribution = result._simulate_frontend()
        return cls(
            program=result.program.name,
            modules=len(result.program.modules),
            hot_functions=len(result.wpa_result.hot_functions),
            builds=builds,
            phases=tuple(
                PhaseStat(name=name, sim_seconds=seconds,
                          peak_memory_bytes=phase_peaks.get(name, 0))
                for name, seconds in result.phase_seconds.items()
            ),
            counters=snapshot["counters"],
            gauges=snapshot["gauges"],
            frontend=scorecard if include_frontend else {},
            frontend_by_function=attribution if include_attribution else {},
            profile_recovery=(result.match_stats.as_dict()
                              if result.match_stats else {}),
            degraded=result.degraded,
            degraded_reasons=result.degraded_reasons,
            incremental=plain(result.incremental) or {},
        )
