"""Typed artifact/stage engine: the pipeline as a validated sequence.

Propeller's defining property (PAPER.md §3-§4) is a *relinking pipeline
of distinct, cacheable phases* -- baseline build, metadata build,
profile collection, whole-program analysis, relink.  This module makes
that structure first-class instead of a hard-coded call sequence:

* :class:`Artifact` -- a named, typed value flowing between stages
  (``Artifact("ir_profile", IRProfile)``).
* :class:`Stage` -- one phase, declaring the artifacts it consumes and
  produces, the ``phase:*`` span it runs under, its degradation policy
  (a ``fallback`` callable or propagate) and the ``phase_seconds`` keys
  it accounts.
* :class:`StageGraph` -- takes the stages in declaration order, which
  is the execution order, validates the wiring in one pass (an input
  must come from an *earlier* stage; duplicate producer, type mismatch
  -- each a structured :class:`StageGraphError`), and executes through
  one driver.

The driver applies every cross-cutting layer *uniformly*, where the
imperative ``PropellerPipeline.run()`` used to hand-weave them into
each phase:

* **Tracing** -- contiguous stages sharing a ``phase`` name run inside
  one ``phase:<name>`` span (the golden-pinned span names are produced
  here, nowhere else).  Stage bodies still emit their own inner spans
  through the shared tracer.
* **Fault degradation** -- a stage whose body exhausts its retry budget
  (:class:`~repro.faults.RetriesExhausted`) falls back to its declared
  ``fallback`` and the run is marked degraded, with the
  ``degraded:*`` span and ``faults.degraded`` counter emitted by the
  driver; a stage with no fallback (the product builds) propagates.
  ``skip_if_degraded`` lets a stage declare "when that upstream stage
  degraded, use my fallback silently" -- how WPA is skipped when the
  hardware profile never materialized.
* **Accounting** -- per-stage ``phase_seconds`` entries are recorded
  through :meth:`StageContext.time` and read back off the
  :class:`ArtifactSet`'s records, so a resumed run reports the same
  mapping.
* **Stores** -- the persistent action store, the
  :class:`~repro.runtime.FunctionSolveCache` and the counters sink all
  ride on the :class:`StageContext`; stages reach them through one
  object instead of importing pipeline internals.

Partial execution is built in: ``execute(stop_after=...)`` runs a
prefix of the graph, the produced :class:`ArtifactSet` serializes to a
directory (self-verifying envelopes, see :mod:`repro.runtime.cache`),
and a later ``execute(resume=...)`` replays the loaded artifacts and
runs only the remaining stages -- bit-identical to one full run,
because artifacts are content, not accounting.

``StageGraph.describe()`` returns the DAG as plain data (and
:meth:`StageGraph.to_dot` as Graphviz) -- what the ``repro-stages``
CLI prints and CI validates against the committed golden topology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults import RetriesExhausted
from repro.runtime.cache import read_envelope, write_envelope

__all__ = [
    "Artifact",
    "ArtifactSet",
    "Stage",
    "StageContext",
    "StageGraph",
    "StageGraphError",
    "StageRecord",
]

#: Schema version of ``describe()``'s JSON layout and the serialized
#: :class:`ArtifactSet` manifest.  Bump on incompatible change.
STAGE_GRAPH_SCHEMA_VERSION = 1

#: Manifest file name inside a serialized artifact directory.
MANIFEST_FILENAME = "manifest.json"


class StageGraphError(Exception):
    """A structural problem with a stage graph (or its execution).

    ``kind`` is machine-readable: ``"missing-producer"``,
    ``"duplicate-producer"``, ``"type-mismatch"``, ``"unknown-stage"``,
    ``"resume-mismatch"`` or ``"bad-output"``.
    ``stage`` / ``artifact`` carry the offending names when known.
    """

    def __init__(self, kind: str, message: str, *,
                 stage: Optional[str] = None,
                 artifact: Optional[str] = None):
        super().__init__(message)
        self.kind = kind
        self.stage = stage
        self.artifact = artifact


@dataclass(frozen=True)
class Artifact:
    """A named, typed value produced by one stage and consumed by others.

    ``type`` is enforced twice: statically at graph validation (the
    producer's declared type must match every consumer's), and at
    runtime on the produced value (``isinstance``, skipped for the
    escape hatch ``object`` which also admits ``None`` -- optional
    artifacts like the stale-matching recovery declare ``object``).
    """

    name: str
    type: type = object

    @property
    def type_name(self) -> str:
        return getattr(self.type, "__name__", str(self.type))


@dataclass(frozen=True)
class Stage:
    """One pipeline phase: typed inputs/outputs plus cross-cutting policy."""

    name: str
    run: Callable[["StageContext", Mapping[str, Any]], Mapping[str, Any]]
    inputs: Tuple[Artifact, ...] = ()
    outputs: Tuple[Artifact, ...] = ()
    #: ``phase:<phase>`` span group; contiguous stages sharing it run
    #: inside one span.  ``None`` = no phase span (e.g. stale matching).
    phase: Optional[str] = None
    #: Degradation policy: ``fallback(ctx, inputs)`` returns the output
    #: mapping the body would (including its :meth:`StageContext.time`
    #: entries) when the retry budget exhausts, and the run is marked
    #: degraded.  ``None`` propagates
    #: :class:`~repro.faults.RetriesExhausted` (product builds).
    fallback: Optional[
        Callable[["StageContext", Mapping[str, Any]], Mapping[str, Any]]] = None
    #: Upstream stage names whose degradation silently short-circuits
    #: this stage to its fallback (no span, no degradation mark).
    skip_if_degraded: Tuple[str, ...] = ()
    #: ``phase_seconds`` keys this stage accounts (declared for
    #: introspection; recorded via :meth:`StageContext.time`).
    time_keys: Tuple[str, ...] = ()
    doc: str = ""


@dataclass
class StageRecord:
    """How one stage resolved during an execution."""

    name: str
    #: ``computed`` | ``fallback`` | ``skipped``
    status: str = "computed"
    #: Degradation reason (== stage name) when the stage fell back
    #: on an exhausted retry budget.
    degraded: bool = False
    #: ``phase_seconds`` entries recorded by the stage, in record order.
    times: List[Tuple[str, float]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "status": self.status,
                "degraded": self.degraded,
                "times": [[k, v] for k, v in self.times]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StageRecord":
        return cls(name=data["name"], status=data["status"],
                   degraded=bool(data.get("degraded", False)),
                   times=[(k, float(v)) for k, v in data.get("times", [])])


class StageContext:
    """What a stage body sees: the pipeline and every cross-cutting service.

    One object, handed to every ``run``/``fallback`` callable, so the
    stages depend on a single seam instead of reaching into pipeline
    internals: the tracer (inner spans), the counters sink, the build
    system with its persistent action store, and the function-solve
    cache of the incremental engine.
    """

    def __init__(self, pipeline: Any, record: Optional[StageRecord] = None):
        self.pipeline = pipeline
        #: Where :meth:`time` records; the driver points it at the
        #: running stage's record.
        self._record = record

    @property
    def config(self) -> Any:
        return self.pipeline.config

    @property
    def tracer(self) -> Any:
        return self.pipeline.tracer

    @property
    def counters(self) -> Any:
        return self.pipeline.counters

    @property
    def buildsys(self) -> Any:
        return self.pipeline.buildsys

    @property
    def solve_cache(self) -> Any:
        return self.pipeline.solve_cache

    def time(self, key: str, sim_seconds: float) -> None:
        """Record one ``phase_seconds`` entry for the current stage."""
        if self._record is None:
            raise RuntimeError("StageContext.time() outside a running stage")
        self._record.times.append((key, float(sim_seconds)))


class ArtifactSet:
    """The values a (possibly partial) execution produced, serializable.

    ``save``/``load`` persist every artifact as a self-verifying
    envelope (:func:`repro.runtime.cache.write_envelope`) plus a JSON
    manifest carrying the stage records and caller metadata -- enough
    for a later process to resume exactly where ``stop_after`` left
    off.  A corrupted artifact file fails loudly at load (resume must
    never silently recompute half a run against mismatched inputs).
    """

    def __init__(self, values: Optional[Dict[str, Any]] = None,
                 records: Optional[Dict[str, StageRecord]] = None,
                 meta: Optional[Dict[str, str]] = None):
        self.values: Dict[str, Any] = dict(values or {})
        #: Stage name -> record, in the order the stages ran (which is
        #: declaration order; a resumed set is always a prefix of it).
        self.records: Dict[str, StageRecord] = dict(records or {})
        #: Caller metadata validated on resume (program/config digests).
        self.meta: Dict[str, str] = dict(meta or {})

    def degraded_reasons(self) -> Tuple[str, ...]:
        """Names of the stages that degraded, in the order they ran."""
        return tuple(r.name for r in self.records.values() if r.degraded)

    def phase_seconds(self) -> Dict[str, float]:
        """Every recorded time entry, in the order the stages ran."""
        return {key: value for record in self.records.values()
                for key, value in record.times}

    def save(self, directory: "str | Path") -> Path:
        root = Path(directory)
        root.mkdir(parents=True, exist_ok=True)
        for name, value in self.values.items():
            write_envelope(root / f"{name}.artifact", value)
        manifest = {
            "schema_version": STAGE_GRAPH_SCHEMA_VERSION,
            "artifacts": sorted(self.values),
            "records": [r.as_dict() for r in self.records.values()],
            "meta": dict(self.meta),
        }
        (root / MANIFEST_FILENAME).write_text(
            json.dumps(manifest, indent=2, sort_keys=True))
        return root

    @classmethod
    def load(cls, directory: "str | Path") -> "ArtifactSet":
        root = Path(directory)
        path = root / MANIFEST_FILENAME
        if not path.exists():
            raise StageGraphError(
                "resume-mismatch", f"no artifact manifest at {path}")
        try:
            manifest = json.loads(path.read_text())
            version = manifest.get("schema_version")
            if version != STAGE_GRAPH_SCHEMA_VERSION:
                raise StageGraphError(
                    "resume-mismatch",
                    f"artifact-set schema v{version!r} is not the supported "
                    f"v{STAGE_GRAPH_SCHEMA_VERSION}")
            names = list(manifest.get("artifacts", []))
            records = {
                r["name"]: StageRecord.from_dict(r)
                for r in manifest.get("records", [])
            }
            meta = dict(manifest.get("meta", {}))
        except (OSError, ValueError, LookupError, TypeError,
                AttributeError) as exc:
            raise StageGraphError(
                "resume-mismatch",
                f"artifact manifest {path} is unreadable or mis-shaped: "
                f"{exc!r}") from exc
        values = {}
        for name in names:
            try:
                values[name] = read_envelope(root / f"{name}.artifact")
            except (OSError, ValueError) as exc:
                raise StageGraphError(
                    "resume-mismatch",
                    f"artifact {name!r} in {root} is unreadable: {exc}",
                    artifact=name) from exc
        return cls(values=values, records=records, meta=meta)


class StageGraph:
    """A validated sequence of stages: declaration order is execution
    order."""

    def __init__(self, stages: Sequence[Stage]):
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self._by_name: Dict[str, Stage] = {}
        self._producer: Dict[str, Stage] = {}
        self.validate()

    # -- validation ----------------------------------------------------

    def validate(self) -> None:
        """Raise a structured :class:`StageGraphError` on bad wiring."""
        by_name: Dict[str, Stage] = {}
        types: Dict[str, Tuple[str, str]] = {}  # artifact -> (type, where)

        def check_type(artifact: Artifact, where: str) -> None:
            seen = types.get(artifact.name)
            if seen is None:
                types[artifact.name] = (artifact.type_name, where)
            elif seen[0] != artifact.type_name:
                raise StageGraphError(
                    "type-mismatch",
                    f"artifact {artifact.name!r} is declared as "
                    f"{seen[0]} by {seen[1]} but as "
                    f"{artifact.type_name} by {where}",
                    artifact=artifact.name)

        producer: Dict[str, Stage] = {}
        for stage in self.stages:
            if stage.name in by_name:
                raise StageGraphError(
                    "duplicate-producer",
                    f"two stages named {stage.name!r}", stage=stage.name)
            for artifact in stage.inputs:
                check_type(artifact, f"stage {stage.name!r}")
                if artifact.name not in producer:
                    raise StageGraphError(
                        "missing-producer",
                        f"stage {stage.name!r} consumes {artifact.name!r}, "
                        "which no earlier stage produces",
                        stage=stage.name, artifact=artifact.name)
            for artifact in stage.outputs:
                check_type(artifact, f"stage {stage.name!r}")
                other = producer.get(artifact.name)
                if other is not None:
                    raise StageGraphError(
                        "duplicate-producer",
                        f"artifact {artifact.name!r} is produced by both "
                        f"{other.name!r} and {stage.name!r}",
                        stage=stage.name, artifact=artifact.name)
                producer[artifact.name] = stage
            for upstream in stage.skip_if_degraded:
                if upstream not in by_name:
                    raise StageGraphError(
                        "unknown-stage",
                        f"stage {stage.name!r} skips on {upstream!r}, "
                        "which is not an earlier stage", stage=stage.name)
                if by_name[upstream].fallback is None:
                    raise StageGraphError(
                        "unknown-stage",
                        f"stage {stage.name!r} skips on {upstream!r}, "
                        "which has no fallback and can never degrade",
                        stage=stage.name)
            if stage.skip_if_degraded and stage.fallback is None:
                raise StageGraphError(
                    "unknown-stage",
                    f"stage {stage.name!r} declares skip_if_degraded but "
                    "no fallback to skip to", stage=stage.name)
            by_name[stage.name] = stage
        self._by_name = by_name
        self._producer = producer

    # -- introspection -------------------------------------------------

    @property
    def order(self) -> Tuple[str, ...]:
        """Stage names in declaration order, the order they run in."""
        return tuple(s.name for s in self.stages)

    def stage(self, name: str) -> Stage:
        try:
            return self._by_name[name]
        except KeyError:
            raise StageGraphError(
                "unknown-stage", f"no stage named {name!r}", stage=name
            ) from None

    def pending(self, artifacts: ArtifactSet) -> List[str]:
        """Names of the stages ``artifacts`` carries no record of, in
        order -- empty once an execution is complete."""
        return [s.name for s in self.stages if s.name not in artifacts.records]

    def describe(self) -> Dict[str, Any]:
        """The DAG as plain data (JSON-able, schema-versioned)."""
        edges = []
        for stage in self.stages:
            for artifact in stage.inputs:
                edges.append({
                    "from": self._producer[artifact.name].name,
                    "to": stage.name,
                    "artifact": artifact.name,
                })
        return {
            "schema_version": STAGE_GRAPH_SCHEMA_VERSION,
            # Constants of schema v1: there are no seed artifacts and a
            # fallback always degrades; both keys go at the next reviewed
            # golden regeneration.
            "seeds": [],
            "stages": [
                {
                    "name": s.name,
                    "phase": s.phase,
                    "inputs": [{"name": a.name, "type": a.type_name}
                               for a in s.inputs],
                    "outputs": [{"name": a.name, "type": a.type_name}
                                for a in s.outputs],
                    "fallback": s.fallback is not None,
                    "degrades": s.fallback is not None,
                    "skip_if_degraded": list(s.skip_if_degraded),
                    "time_keys": list(s.time_keys),
                    "doc": s.doc,
                }
                for s in self.stages
            ],
            "order": list(self.order),
            "edges": edges,
        }

    def to_dot(self) -> str:
        """The DAG as Graphviz DOT (stages as boxes, artifacts as edges)."""
        lines = [
            "digraph stages {",
            "  rankdir=LR;",
            '  node [shape=box, fontname="Helvetica"];',
            '  edge [fontname="Helvetica", fontsize=10];',
        ]
        for stage in self.stages:
            label = stage.name
            if stage.phase:
                label += f"\\nphase:{stage.phase}"
            if stage.fallback is not None:
                label += "\\n[fallback]"
            lines.append(f'  "{stage.name}" [label="{label}"];')
        for stage in self.stages:
            for artifact in stage.inputs:
                lines.append(
                    f'  "{self._producer[artifact.name].name}" -> '
                    f'"{stage.name}" [label="{artifact.name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------

    def execute(
        self,
        ctx: StageContext,
        *,
        stop_after: Optional[str] = None,
        resume: Optional[ArtifactSet] = None,
    ) -> ArtifactSet:
        """Run the graph (or the prefix up to ``stop_after``).

        ``resume`` replays an earlier partial execution: stages whose
        records it carries are not re-run, their artifacts and
        accounting (status, degradations, recorded times) are taken
        as-is.  It must be a prefix of the graph carrying every output
        its stages declare -- checked here, before any stage runs.
        """
        if stop_after is not None:
            self.stage(stop_after)  # raises unknown-stage

        artifacts = ArtifactSet()
        if resume is not None:
            artifacts.values.update(resume.values)
            for stage in self.stages:
                if stage.name not in resume.records:
                    continue
                for artifact in stage.outputs:
                    if artifact.name not in resume.values:
                        raise StageGraphError(
                            "resume-mismatch",
                            f"resumed artifact set says stage {stage.name!r} "
                            f"ran but carries no {artifact.name!r} artifact",
                            stage=stage.name, artifact=artifact.name)
                artifacts.records[stage.name] = resume.records[stage.name]
            pending = self.pending(artifacts)
            if pending != list(self.order[len(artifacts.records):]):
                raise StageGraphError(
                    "resume-mismatch",
                    f"resumed artifact set skips stage {pending[0]!r} but "
                    "carries a later one", stage=pending[0])

        open_phase: Optional[str] = None
        open_span = None

        def close_phase():
            nonlocal open_phase, open_span
            if open_span is not None:
                open_span.__exit__(None, None, None)
            open_phase = None
            open_span = None

        try:
            for stage in self.stages:
                if stage.name in artifacts.records:
                    # Replayed from a resumed artifact set: keep its
                    # accounting, run nothing, open no span.
                    continue
                if stage.phase != open_phase:
                    close_phase()
                record = StageRecord(name=stage.name)
                inputs = {a.name: artifacts.values[a.name]
                          for a in stage.inputs}
                degraded_now = set(artifacts.degraded_reasons())
                ctx._record = record
                try:
                    if stage.skip_if_degraded and degraded_now.intersection(
                            stage.skip_if_degraded):
                        record.status = "skipped"
                        outputs = stage.fallback(ctx, inputs)
                    else:
                        if stage.phase is not None and open_span is None:
                            open_span = ctx.tracer.span(
                                f"phase:{stage.phase}", category="phase")
                            open_span.__enter__()
                            open_phase = stage.phase
                        try:
                            outputs = stage.run(ctx, inputs)
                        except RetriesExhausted as exc:
                            if stage.fallback is None:
                                raise
                            record.status = "fallback"
                            outputs = stage.fallback(ctx, inputs)
                            record.degraded = True
                            ctx.counters.incr("faults.degraded")
                            with ctx.tracer.span(
                                    f"degraded:{stage.name}",
                                    category="fault") as sp:
                                sp.note(kind=exc.kind, attempts=exc.attempts,
                                        events=",".join(exc.events))
                finally:
                    ctx._record = None
                self._bind_outputs(stage, outputs, artifacts)
                artifacts.records[stage.name] = record
                if stage.name == stop_after:
                    break
        except BaseException:
            close_phase()
            raise
        close_phase()
        return artifacts

    def _bind_outputs(self, stage: Stage, outputs: Mapping[str, Any],
                      artifacts: ArtifactSet) -> None:
        declared = {a.name: a for a in stage.outputs}
        if set(outputs) != set(declared):
            raise StageGraphError(
                "bad-output",
                f"stage {stage.name!r} returned {sorted(outputs)}, "
                f"declared {sorted(declared)}", stage=stage.name)
        for name, value in outputs.items():
            artifact = declared[name]
            if artifact.type is not object and not isinstance(
                    value, artifact.type):
                raise StageGraphError(
                    "type-mismatch",
                    f"stage {stage.name!r} produced {type(value).__name__} "
                    f"for artifact {name!r} declared {artifact.type_name}",
                    stage=stage.name, artifact=name)
            artifacts.values[name] = value
