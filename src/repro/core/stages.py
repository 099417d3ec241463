"""Typed artifact/stage engine: the pipeline as a declared sequence.

Propeller's defining property (PAPER.md §3-§4) is a *relinking pipeline
of distinct, cacheable phases* -- baseline build, metadata build,
profile collection, whole-program analysis, relink.  This module makes
that structure first-class instead of a hard-coded call sequence:

* :class:`Artifact` -- a named, typed value flowing between stages
  (``Artifact("ir_profile", IRProfile)``).
* :class:`Stage` -- one phase: a function ``run(pipeline, inputs)``
  returning *everything it produced* in one mapping -- its declared
  output artifacts and its declared ``phase_seconds`` keys -- plus the
  ``phase:*`` span it runs under and its degradation policy (a
  ``fallback`` of the same shape, or propagate).
* :class:`StageGraph` -- the stages in declaration order, which is the
  execution order, run through one driver.  There is one graph, the
  constant :data:`repro.core.phases.PIPELINE`; its wiring is not
  re-checked at import but pinned in tier 1 by the committed golden
  (``tests/golden/stage_graph.json``) and a test over its inputs.

The driver applies every cross-cutting layer *uniformly*:

* **Tracing** -- contiguous stages sharing a ``phase`` name run inside
  one ``phase:<name>`` span (the golden-pinned span names are produced
  here, nowhere else).  Stage bodies still emit their own inner spans
  through the pipeline's tracer.
* **Fault degradation** -- a stage whose body exhausts its retry budget
  (:class:`~repro.faults.RetriesExhausted`) falls back to its declared
  ``fallback`` and the run is marked degraded, with the
  ``degraded:*`` span and ``faults.degraded`` counter emitted by the
  driver; a stage with no fallback (the product builds) propagates.
  ``skip_if_degraded`` lets a stage declare "when that upstream stage
  degraded, use my fallback silently" -- how WPA is skipped when the
  hardware profile never materialized.
* **Accounting and outputs** -- the driver splits what a body returned:
  the artifacts go into the :class:`ArtifactSet` (each checked against
  its declared type), the times into the stage's :class:`StageRecord`
  in ``time_keys`` order.  A missing or undeclared key is
  ``bad-output``, so declared and recorded times cannot diverge, and a
  resumed run reports the same ``phase_seconds`` mapping.

Partial execution is built in: ``execute(stop_after=...)`` runs a
prefix of the graph, the produced :class:`ArtifactSet` serializes to a
directory (self-verifying envelopes, see :mod:`repro.runtime.cache`),
and a later ``execute(resume=...)`` replays the loaded artifacts and
runs only the remaining stages -- bit-identical to one full run,
because artifacts are content, not accounting.

``StageGraph.describe()`` returns the DAG as plain data (and
:meth:`StageGraph.to_dot` as Graphviz) -- what the ``repro-stages``
CLI prints and CI diffs against the committed golden topology.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.faults import RetriesExhausted
from repro.obs.report import plain, record
from repro.runtime.cache import read_envelope, write_envelope

__all__ = [
    "Artifact",
    "ArtifactSet",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "StageRecord",
]

#: Schema version of ``describe()``'s JSON layout and the serialized
#: :class:`ArtifactSet` manifest.  Still 1 although ``describe()``
#: dropped its constant ``seeds`` / ``degrades`` keys: the manifest
#: shares this number and its layout did not change, so a bump would
#: refuse every artifact directory an earlier version wrote.
STAGE_GRAPH_SCHEMA_VERSION = 1

#: Manifest file name inside a serialized artifact directory.
MANIFEST_FILENAME = "manifest.json"


class StageGraphError(Exception):
    """A structural problem with a stage graph's execution.

    ``kind`` is machine-readable: ``"missing-producer"``,
    ``"type-mismatch"``, ``"unknown-stage"``, ``"resume-mismatch"`` or
    ``"bad-output"``.  ``stage`` / ``artifact`` carry the offending
    names when known.
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

    ``type`` is enforced on the produced value (``isinstance``, skipped
    for the escape hatch ``object`` which also admits ``None`` --
    optional artifacts like the stale-matching recovery declare
    ``object``).
    """

    name: str
    type: type = object

    @property
    def type_name(self) -> str:
        return getattr(self.type, "__name__", str(self.type))


@dataclass(frozen=True)
class Stage:
    """One pipeline phase: typed inputs/outputs plus cross-cutting policy.

    ``run(pipeline, inputs)`` returns one mapping holding exactly the
    declared ``outputs`` (by artifact name) and ``time_keys`` (simulated
    seconds).
    """

    name: str
    run: Callable[[Any, Mapping[str, Any]], Mapping[str, Any]]
    inputs: Tuple[Artifact, ...] = ()
    outputs: Tuple[Artifact, ...] = ()
    #: ``phase:<phase>`` span group; contiguous stages sharing it run
    #: inside one span.  ``None`` = no phase span (e.g. stale matching).
    phase: Optional[str] = None
    #: Degradation policy: ``fallback(pipeline, inputs)`` returns the
    #: mapping the body would when the retry budget exhausts, and the
    #: run is marked degraded.  ``None`` propagates
    #: :class:`~repro.faults.RetriesExhausted` (product builds).
    fallback: Optional[
        Callable[[Any, Mapping[str, Any]], Mapping[str, Any]]] = None
    #: Upstream stage names whose degradation silently short-circuits
    #: this stage to its fallback (no span, no degradation mark).
    skip_if_degraded: Tuple[str, ...] = ()
    #: ``phase_seconds`` keys this stage returns, in record order.
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
    #: ``phase_seconds`` entries returned by the stage, in
    #: ``time_keys`` order.
    times: Tuple[Tuple[str, float], ...] = ()


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
            "records": [plain(r) for r in self.records.values()],
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
                r["name"]: record(StageRecord, r)
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
    """A sequence of stages: declaration order is execution order."""

    def __init__(self, stages: Sequence[Stage]):
        self.stages: Tuple[Stage, ...] = tuple(stages)
        self._by_name: Dict[str, Stage] = {s.name: s for s in self.stages}

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

    def _edges(self) -> Iterator[Tuple[str, str, str]]:
        """``(producer, consumer, artifact)`` per declared input, in
        declaration order; the producer is the latest earlier stage
        declaring the artifact as an output."""
        producer: Dict[str, str] = {}
        for stage in self.stages:
            for artifact in stage.inputs:
                yield producer[artifact.name], stage.name, artifact.name
            for artifact in stage.outputs:
                producer[artifact.name] = stage.name

    def describe(self) -> Dict[str, Any]:
        """The DAG as plain data (JSON-able, schema-versioned)."""
        return {
            "schema_version": STAGE_GRAPH_SCHEMA_VERSION,
            "stages": [
                {
                    "name": s.name,
                    "phase": s.phase,
                    "inputs": [{"name": a.name, "type": a.type_name}
                               for a in s.inputs],
                    "outputs": [{"name": a.name, "type": a.type_name}
                                for a in s.outputs],
                    "fallback": s.fallback is not None,
                    "skip_if_degraded": list(s.skip_if_degraded),
                    "time_keys": list(s.time_keys),
                    "doc": s.doc,
                }
                for s in self.stages
            ],
            "order": list(self.order),
            "edges": [{"from": src, "to": dst, "artifact": name}
                      for src, dst, name in self._edges()],
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
        for src, dst, name in self._edges():
            lines.append(f'  "{src}" -> "{dst}" [label="{name}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- execution -----------------------------------------------------

    def execute(
        self,
        pipeline: Any,
        *,
        stop_after: Optional[str] = None,
        resume: Optional[ArtifactSet] = None,
    ) -> ArtifactSet:
        """Run the graph (or the prefix up to ``stop_after``).

        ``pipeline`` is handed to every stage body and fallback; the
        driver itself uses its ``tracer`` and ``counters``.  ``resume``
        replays an earlier partial execution: stages whose records it
        carries are not re-run, their artifacts and accounting (status,
        degradations, recorded times) are taken as-is.  It must be a
        prefix of the graph carrying every output its stages declare,
        and record no stage the graph lacks -- checked here, before any
        stage runs.  ``stop_after`` stops once
        the named stage has been replayed or run.
        """
        if stop_after is not None:
            self.stage(stop_after)  # raises unknown-stage

        artifacts = ArtifactSet()
        if resume is not None:
            artifacts.values.update(resume.values)
            unknown = [n for n in resume.records if n not in self._by_name]
            if unknown:
                raise StageGraphError(
                    "resume-mismatch", f"resumed artifact set records stage "
                    f"{unknown[0]!r}, which this graph does not have",
                    stage=unknown[0])
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
                # A stage a resumed set carries is replayed: its
                # accounting is kept, nothing runs, no span opens.
                if stage.name not in artifacts.records:
                    if stage.phase != open_phase:
                        close_phase()
                    record = StageRecord(name=stage.name)
                    inputs = {a.name: artifacts.values[a.name]
                              for a in stage.inputs}
                    if set(stage.skip_if_degraded).intersection(
                            artifacts.degraded_reasons()):
                        record.status = "skipped"
                        produced = stage.fallback(pipeline, inputs)
                    else:
                        if stage.phase is not None and open_span is None:
                            open_span = pipeline.tracer.span(
                                f"phase:{stage.phase}", category="phase")
                            open_span.__enter__()
                            open_phase = stage.phase
                        try:
                            produced = stage.run(pipeline, inputs)
                        except RetriesExhausted as exc:
                            if stage.fallback is None:
                                raise
                            record.status = "fallback"
                            produced = stage.fallback(pipeline, inputs)
                            record.degraded = True
                            pipeline.counters.incr("faults.degraded")
                            with pipeline.tracer.span(
                                    f"degraded:{stage.name}",
                                    category="fault") as sp:
                                sp.note(kind=exc.kind, attempts=exc.attempts,
                                        events=",".join(exc.events))
                    self._bind(stage, produced, artifacts, record)
                    artifacts.records[stage.name] = record
                if stage.name == stop_after:
                    break
        except BaseException:
            close_phase()
            raise
        close_phase()
        return artifacts

    def _bind(self, stage: Stage, produced: Mapping[str, Any],
              artifacts: ArtifactSet, record: StageRecord) -> None:
        """Split what ``stage`` returned into artifacts and times."""
        declared = [a.name for a in stage.outputs] + list(stage.time_keys)
        if set(produced) != set(declared):
            raise StageGraphError(
                "bad-output",
                f"stage {stage.name!r} returned {sorted(produced)}, "
                f"declared {sorted(declared)}", stage=stage.name)
        for artifact in stage.outputs:
            value = produced[artifact.name]
            if artifact.type is not object and not isinstance(
                    value, artifact.type):
                raise StageGraphError(
                    "type-mismatch",
                    f"stage {stage.name!r} produced {type(value).__name__} "
                    f"for artifact {artifact.name!r} declared "
                    f"{artifact.type_name}",
                    stage=stage.name, artifact=artifact.name)
            artifacts.values[artifact.name] = value
        record.times = tuple((key, float(produced[key]))
                             for key in stage.time_keys)
