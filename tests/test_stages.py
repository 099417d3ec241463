"""Tests for the typed stage-graph engine (:mod:`repro.core.stages`).

Two layers:

* the engine itself, on toy graphs: structured execution errors (bad
  output, produced-value type mismatch), ``execute`` taking only the
  pipeline, declaration order as the execution order, uniform
  degradation (fallback/skip_if_degraded) and phase-span grouping;
* the Propeller graph: its wiring, the committed golden topology
  (``tests/golden/stage_graph.json``), resuming a stopped run from the
  action store bit-identically and the pinned instrumented-build ratio.

Golden regeneration: ``REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m
pytest tests/test_stages.py`` (same contract as tests/test_golden.py).
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.phases import INSTRUMENTED_BUILD_FACTOR, PIPELINE
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.core.stages import Artifact, Stage, StageGraph, StageGraphError
from repro.faults import RetriesExhausted
from repro.obs import Counters, Tracer
from repro.synth import PRESETS, generate_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN"))


# ----------------------------------------------------------------------
# Toy-graph helpers


def _pipe() -> SimpleNamespace:
    """A stub pipeline: the tracer and counters the driver uses."""
    return SimpleNamespace(tracer=Tracer(), counters=Counters())


def _stage(name, run, **kwargs) -> Stage:
    return Stage(name=name, run=run, **kwargs)


def _produce(**values):
    def run(pipe, inputs):
        return dict(values)
    return run


A_INT = Artifact("number", int)
A_STR = Artifact("text", str)


# ----------------------------------------------------------------------
# Execution errors


class TestValidation:
    def test_runtime_type_mismatch(self):
        graph = StageGraph([
            _stage("one", _produce(number="not an int"), outputs=(A_INT,)),
        ])
        with pytest.raises(StageGraphError) as err:
            graph.execute(_pipe())
        assert err.value.kind == "type-mismatch"

    def test_undeclared_output_rejected(self):
        graph = StageGraph([
            _stage("one", _produce(number=1, extra=2), outputs=(A_INT,)),
        ])
        with pytest.raises(StageGraphError) as err:
            graph.execute(_pipe())
        assert err.value.kind == "bad-output"

    def test_missing_time_key_rejected(self):
        graph = StageGraph([
            _stage("one", _produce(number=1), outputs=(A_INT,),
                   time_keys=("one_s",)),
        ])
        with pytest.raises(StageGraphError) as err:
            graph.execute(_pipe())
        assert (err.value.kind, err.value.stage) == ("bad-output", "one")

    def test_times_recorded_in_time_keys_order(self):
        graph = StageGraph([
            _stage("one", _produce(number=1, late_s=2, early_s=1),
                   outputs=(A_INT,), time_keys=("early_s", "late_s")),
        ])
        artifacts = graph.execute(_pipe())
        assert artifacts.values == {"number": 1}
        assert artifacts.records["one"].times == (("early_s", 1.0),
                                                  ("late_s", 2.0))
        assert list(artifacts.phase_seconds()) == ["early_s", "late_s"]

    def test_unknown_stop_after(self):
        """``execute`` takes only the pipeline: ``stop_after`` and
        ``resume`` are unknown keywords (a stopped run resumes through
        the action store, see :class:`TestResumeFromStore`)."""
        graph = StageGraph([_stage("one", _produce(number=1),
                                   outputs=(A_INT,))])
        with pytest.raises(TypeError):
            graph.execute(_pipe(), stop_after="one")
        with pytest.raises(TypeError):
            graph.execute(_pipe(), resume=None)

    def test_seeds_are_not_a_parameter(self):
        stage = _stage("one", _produce(number=1), outputs=(A_INT,))
        with pytest.raises(TypeError):
            StageGraph([stage], seeds=(Artifact("seeded", int),))
        with pytest.raises(TypeError):
            StageGraph([stage]).execute(_pipe(), {})

    def test_execution_order_is_not_a_parameter(self):
        graph = StageGraph([
            _stage("one", _produce(number=1), outputs=(A_INT,)),
            _stage("two", _produce(text="x"), inputs=(A_INT,),
                   outputs=(A_STR,)),
        ])
        with pytest.raises(TypeError):
            graph.execute(_pipe(), order=["one", "two"])


# ----------------------------------------------------------------------
# Declaration order is execution order


class TestTopoOrder:
    def test_registration_order_breaks_ties(self):
        a, b, c = Artifact("a"), Artifact("b"), Artifact("c")
        graph = StageGraph([
            _stage("root", _produce(a=1), outputs=(a,)),
            _stage("left", _produce(b=1), inputs=(a,), outputs=(b,)),
            _stage("right", _produce(c=1), inputs=(a,), outputs=(c,)),
        ])
        assert graph.order == ("root", "left", "right")
        flipped = StageGraph([
            _stage("root", _produce(a=1), outputs=(a,)),
            _stage("right", _produce(c=1), inputs=(a,), outputs=(c,)),
            _stage("left", _produce(b=1), inputs=(a,), outputs=(b,)),
        ])
        assert flipped.order == ("root", "right", "left")


# ----------------------------------------------------------------------
# Execution: degradation, skipping, spans


class TestExecution:
    def _boom(self, pipe, inputs):
        raise RetriesExhausted("unit", "key", 3, ("crash", "crash", "crash"))

    def test_fallback_degrades_with_span_and_counter(self):
        graph = StageGraph([
            _stage("flaky", self._boom, outputs=(A_INT,), phase="p",
                   fallback=_produce(number=0)),
        ])
        pipe = _pipe()
        artifacts = graph.execute(pipe)
        assert artifacts.values["number"] == 0
        assert artifacts.degraded_reasons() == ("flaky",)
        assert artifacts.records["flaky"].status == "fallback"
        assert pipe.counters.count("faults.degraded") == 1
        names = [s.name for s in pipe.tracer.spans]
        assert "degraded:flaky" in names
        assert "phase:p" in names

    def test_no_fallback_propagates(self):
        graph = StageGraph([
            _stage("hard", self._boom, outputs=(A_INT,), phase="p"),
        ])
        pipe = _pipe()
        with pytest.raises(RetriesExhausted):
            graph.execute(pipe)
        # The phase span is still closed and recorded on the way out.
        assert [s.name for s in pipe.tracer.spans] == ["phase:p"]

    def test_skip_if_degraded_is_silent_and_spanless(self):
        graph = StageGraph([
            _stage("flaky", self._boom, outputs=(A_INT,),
                   fallback=_produce(number=0)),
            _stage("downstream", _produce(text="computed"),
                   inputs=(A_INT,), outputs=(A_STR,), phase="down",
                   fallback=_produce(text="skipped"),
                   skip_if_degraded=("flaky",)),
        ])
        pipe = _pipe()
        artifacts = graph.execute(pipe)
        assert artifacts.values["text"] == "skipped"
        # Only the upstream degradation counts; the skip is silent.
        assert artifacts.degraded_reasons() == ("flaky",)
        assert pipe.counters.count("faults.degraded") == 1
        assert artifacts.records["downstream"].status == "skipped"
        assert "phase:down" not in [s.name for s in pipe.tracer.spans]

    def test_contiguous_stages_share_one_phase_span(self):
        a, b = Artifact("a"), Artifact("b")
        graph = StageGraph([
            _stage("one", _produce(a=1), outputs=(a,), phase="joint"),
            _stage("two", _produce(b=1), inputs=(a,), outputs=(b,),
                   phase="joint"),
        ])
        pipe = _pipe()
        graph.execute(pipe)
        assert [s.name for s in pipe.tracer.spans] == ["phase:joint"]


# ----------------------------------------------------------------------
# The Propeller graph


def _cheap_config(**overrides) -> PipelineConfig:
    defaults = dict(pgo_steps=5_000, lbr_branches=10_000, workers=72,
                    enforce_ram=False)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def stage_program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.3, seed=7)


@pytest.fixture(scope="module")
def full_digest(stage_program):
    return PropellerPipeline(stage_program, _cheap_config()).run().digest()


class TestPipelineGraph:
    def test_wiring(self):
        """Every input comes from an earlier stage that declares it with
        the same type, and every ``skip_if_degraded`` entry names an
        earlier stage that has a fallback (so can degrade) -- as does
        the skipping stage.  Nothing checks this at import."""
        produced = {}
        earlier = {}
        for stage in PIPELINE.stages:
            for artifact in stage.inputs:
                assert produced.get(artifact.name) is artifact.type, (
                    stage.name, artifact.name)
            for upstream in stage.skip_if_degraded:
                assert upstream in earlier, (stage.name, upstream)
                assert earlier[upstream].fallback is not None, upstream
                assert stage.fallback is not None, stage.name
            for artifact in stage.outputs:
                assert artifact.name not in produced, artifact.name
                produced[artifact.name] = artifact.type
            assert stage.name not in earlier, stage.name
            earlier[stage.name] = stage

    def test_golden_topology(self):
        """The DAG shape is a frozen public surface (CI gates on it)."""
        described = PIPELINE.describe()
        text = json.dumps(described, indent=2, sort_keys=True) + "\n"
        path = GOLDEN_DIR / "stage_graph.json"
        if REGEN:
            GOLDEN_DIR.mkdir(exist_ok=True)
            path.write_text(text)
        assert path.exists(), (
            f"missing golden file {path}; run with REPRO_REGEN_GOLDEN=1 "
            "to create it")
        assert text == path.read_text()

    def test_describe_order_is_declaration_order(self):
        names = [s.name for s in PIPELINE.stages]
        assert PIPELINE.describe()["order"] == names
        assert list(PIPELINE.order) == names

    def test_canonical_order_is_the_run_order(self):
        assert PIPELINE.order == (
            "pgo-profile", "inline", "stale-match", "metadata-build",
            "lbr-profile", "wpa", "relink")

    def test_recorded_times_match_declared_time_keys(self, stage_program):
        """``Stage.time_keys`` is golden-pinned introspection; what a real
        run records must be exactly that."""
        artifacts = PIPELINE.execute(
            PropellerPipeline(stage_program, _cheap_config()))
        for stage in PIPELINE.stages:
            record = artifacts.records[stage.name]
            assert tuple(k for k, _ in record.times) == stage.time_keys, (
                stage.name)

    def test_instrumented_build_factor_pinned(self, stage_program):
        """Satellite: the modelled instrumented-build ratio, as a named
        constant, pinned where the magic number used to live."""
        assert INSTRUMENTED_BUILD_FACTOR == 0.9
        result = PropellerPipeline(stage_program, _cheap_config()).run()
        assert result.phase_seconds["pgo_instrumented_build"] == (
            pytest.approx(result.phase_seconds["opt_build"]
                          * INSTRUMENTED_BUILD_FACTOR))


class TestResumeFromStore:
    """A run stopped after profiling resumes through the action store:
    ``collect_perf()`` over a ``cache_dir``, then ``run()`` of a fresh
    pipeline over the same directory, replays every action the first
    run stored and computes only what is missing."""

    def test_resumed_run_is_the_cold_run(self, stage_program, full_digest,
                                         tmp_path):
        config = _cheap_config(cache_dir=str(tmp_path))
        PropellerPipeline(stage_program, config).collect_perf()

        pipe = PropellerPipeline(stage_program, replace(config, trace=True))
        result = pipe.run()
        assert result.digest() == full_digest
        assert list(result.phase_seconds) == [
            "pgo_profile_run", "pgo_instrumented_build", "opt_build",
            "metadata_build", "lbr_profile_run", "wpa_convert",
            "prop_backends", "prop_link"]

        spans = pipe.tracer.spans
        by_id = {s.span_id: s for s in spans}

        def hits(name, parent=None):
            return [s.args["cache_hit"] for s in spans if s.name == name
                    and (parent is None or by_id[s.parent_id].name == parent)]

        assert hits("pgo-train") == [True]
        assert hits("lbr-sample") == [True]
        assert hits("link", "build:metadata.out") == [True]
        assert hits("link", "build:base.out") == [True]
        assert hits("wpa-analyze") == [False]
