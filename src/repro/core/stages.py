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
  ``bad-output``, so declared and recorded times cannot diverge.

There is no partial execution: every costly stage body is a cached
action (:mod:`repro.runtime.cache`), so a run stopped after profiling
(``repro.tools profile --cache-dir D``) resumes as a full run over the
same store, which replays what exists and computes only what is
missing: its artifacts are bit-identical to one uninterrupted run's.

``StageGraph.describe()`` returns the DAG as plain data -- what
``python -m repro.tools stages`` prints and CI diffs against the
committed golden topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.faults import RetriesExhausted

__all__ = [
    "Artifact",
    "ArtifactSet",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "StageRecord",
]

#: Schema version of ``describe()``'s JSON layout.
STAGE_GRAPH_SCHEMA_VERSION = 1


class StageGraphError(Exception):
    """A structural problem with a stage graph's execution.

    ``kind`` is machine-readable: ``"type-mismatch"`` or
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
    """The values and stage records of one execution."""

    def __init__(self):
        self.values: Dict[str, Any] = {}
        #: Stage name -> record, in the order the stages ran.
        self.records: Dict[str, StageRecord] = {}

    def degraded_reasons(self) -> Tuple[str, ...]:
        """Names of the stages that degraded, in the order they ran."""
        return tuple(r.name for r in self.records.values() if r.degraded)

    def phase_seconds(self) -> Dict[str, float]:
        """Every recorded time entry, in the order the stages ran."""
        return {key: value for record in self.records.values()
                for key, value in record.times}


class StageGraph:
    """A sequence of stages: declaration order is execution order."""

    def __init__(self, stages: Sequence[Stage]):
        self.stages: Tuple[Stage, ...] = tuple(stages)

    # -- introspection -------------------------------------------------

    @property
    def order(self) -> Tuple[str, ...]:
        """Stage names in declaration order, the order they run in."""
        return tuple(s.name for s in self.stages)

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

    # -- execution -----------------------------------------------------

    def execute(self, pipeline: Any) -> ArtifactSet:
        """Run every stage, in declaration order.

        ``pipeline`` is handed to every stage body and fallback; the
        driver itself uses its ``tracer`` and ``counters``.
        """
        artifacts = ArtifactSet()
        # Contiguous stages sharing a phase run inside one span, opened
        # by the first of them that runs its body.
        open_phase: Optional[str] = None
        open_span = None
        try:
            for stage in self.stages:
                if open_span is not None and stage.phase != open_phase:
                    open_span.__exit__(None, None, None)
                    open_phase = open_span = None
                record = StageRecord(name=stage.name)
                inputs = {a.name: artifacts.values[a.name] for a in stage.inputs}
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
                        with pipeline.tracer.span(f"degraded:{stage.name}",
                                                  category="fault") as sp:
                            sp.note(kind=exc.kind, attempts=exc.attempts,
                                    events=",".join(exc.events))
                self._bind(stage, produced, artifacts, record)
                artifacts.records[stage.name] = record
        finally:
            if open_span is not None:
                open_span.__exit__(None, None, None)
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
