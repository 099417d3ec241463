"""Tests for the incremental re-optimization engine (repro.incr).

The load-bearing invariant everything here circles: an incremental
re-optimization is **bit-identical** to a full rebuild of the edited
program -- reuse is keyed by exact content, so the dirty set can only
ever change *speed*, never *bytes*.
"""

import dataclasses
import json
import shutil
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import phases
from repro.core.exttsp import ext_tsp_order, solve_signature
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.incr import (
    FunctionState,
    IncrState,
    IncrStateError,
    config_signature,
    diff_functions,
    reoptimize,
    state_path,
)
from repro.ir import Call, Instr
from repro.ir.digest import module_digests
from repro.obs import Counters, Tracer
from repro.obs.report import plain
from repro.runtime import FunctionSolveCache
from repro.synth import EditScript, PRESETS, generate_workload


def _cfg_digests(program):
    """Function -> its CFG digest in ``program``."""
    return {name: cfg for module in program.modules
            for name, cfg in module_digests(module)[1].items()}


def _config(**overrides) -> PipelineConfig:
    base = dict(seed=3, lbr_branches=40_000, pgo_steps=20_000,
                workers=72, enforce_ram=False)
    base.update(overrides)
    return PipelineConfig(**base)


def _sim_compute(result) -> float:
    """Total simulated CPU seconds of one run: every backend action and
    link of the three builds, plus profiling and analysis.  Makespan is
    the wrong quantity here -- with a wide pool one module's recompile
    dominates it whether 1 or 40 modules rebuild -- so this is the
    compute the pool actually burns."""
    builds = (result.baseline, result.metadata, result.optimized)
    return sum(b.backends.cpu_seconds + b.link_seconds for b in builds) + sum(
        result.phase_seconds.get(phase, 0.0)
        for phase in ("pgo_profile_run", "lbr_profile_run", "wpa_convert"))


@pytest.fixture(scope="module")
def program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.3, seed=3)


@pytest.fixture(scope="module")
def state_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("incr-state")


@pytest.fixture(scope="module")
def prior(program, state_dir):
    """The prior release: run with the incremental engine active."""
    config = _config(state_dir=str(state_dir))
    result = PropellerPipeline(program, config).run()
    IncrState.capture(result).save(state_dir)
    return result


# ----------------------------------------------------------------------
# FunctionSolveCache


class TestFunctionSolveCache:
    def test_memory_tier_roundtrip(self):
        cache = FunctionSolveCache(None, Counters())
        assert cache.get("a" * 64) is None
        cache.put("a" * 64, [1, 2, 3])
        assert cache.get("a" * 64) == [1, 2, 3]
        assert cache.counters.snapshot()["counters"] == {
            "incr.solve_hits": 1, "incr.solve_misses": 1}

    def test_reuse_rate_is_one_without_lookups(self):
        """A run whose solver was never asked (a full action-cache
        replay) reused everything: ``incr.solve_reuse`` is 1.0."""
        pipeline = SimpleNamespace(counters=Counters())
        state = SimpleNamespace(functions={}, result_digest="d")
        result = SimpleNamespace(functions={})
        summary = phases.incremental_summary(pipeline, state, result)
        assert (summary.solve_hits, summary.solve_misses, summary.solve_reuse) == (0, 0, 1.0)
        assert pipeline.counters.gauge_value("incr.solve_reuse") == 1.0

    def test_disk_tier_survives_processes(self, tmp_path):
        key = solve_signature({0: (4, 10.0), 1: (4, 5.0)},
                              [(0, 1, 5.0)], entry=0)
        first = FunctionSolveCache(tmp_path, Counters())
        first.put(key, [0, 1])
        second = FunctionSolveCache(tmp_path, Counters())
        assert second.get(key) == [0, 1]
        assert second.counters.count("incr.solve_hits") == 1

    def test_returns_copies(self):
        cache = FunctionSolveCache(None, Counters())
        cache.put("b" * 64, [1, 2])
        cache.get("b" * 64).append(99)
        assert cache.get("b" * 64) == [1, 2]


class TestSolveSignature:
    def test_insertion_order_matters(self):
        """Chain ids depend on node enumeration order, so the signature
        must too (equal signature == identical solve, guaranteed)."""
        a = solve_signature({0: (4, 1.0), 1: (4, 2.0)}, [], entry=0)
        b = solve_signature({1: (4, 2.0), 0: (4, 1.0)}, [], entry=0)
        assert a != b

    def test_content_sensitivity(self):
        base = solve_signature({0: (4, 1.0)}, [(0, 0, 1.0)], entry=0)
        assert solve_signature({0: (5, 1.0)}, [(0, 0, 1.0)], entry=0) != base
        assert solve_signature({0: (4, 2.0)}, [(0, 0, 1.0)], entry=0) != base
        assert solve_signature({0: (4, 1.0)}, [(0, 0, 2.0)], entry=0) != base
        assert solve_signature({0: (4, 1.0)}, [(0, 0, 1.0)], entry=None) != base

    def test_cached_solve_equals_fresh_solve(self):
        nodes = {0: (8, 100.0), 1: (6, 60.0), 2: (6, 40.0), 3: (4, 0.0)}
        edges = [(0, 1, 60.0), (0, 2, 40.0), (1, 3, 1.0), (2, 3, 1.0)]
        cache = FunctionSolveCache(None, Counters())
        key = solve_signature(nodes, edges, entry=0)
        fresh = ext_tsp_order(nodes, edges, entry=0)
        cache.put(key, fresh)
        assert cache.get(key) == ext_tsp_order(nodes, edges, entry=0)


# ----------------------------------------------------------------------
# EditScript


class TestEditScript:
    def test_generation_is_deterministic(self, program):
        a = EditScript.generate(program, seed=9, edits=3,
                                kinds=("body", "add", "delete"))
        b = EditScript.generate(program, seed=9, edits=3,
                                kinds=("body", "add", "delete"))
        assert a == b
        assert len(a.edits) == 3
        assert {e.kind for e in a.edits} == {"body", "add", "delete"}

    def test_apply_never_mutates_input(self, program):
        script = EditScript.generate(program, seed=9, kinds=("body",))
        name = script.edits[0].function
        before = _cfg_digests(program)[name]
        edited = script.apply(program)
        assert _cfg_digests(program)[name] == before
        assert _cfg_digests(edited)[name] != before

    def test_body_edit_preserves_cfg_and_calls(self, program):
        script = EditScript.generate(program, seed=9, kinds=("body",))
        edited = script.apply(program)
        old = program.function(script.edits[0].function)
        new = edited.function(script.edits[0].function)
        assert [b.bb_id for b in old.blocks] == [b.bb_id for b in new.blocks]
        for ob, nb in zip(old.blocks, new.blocks):
            assert ob.term == nb.term
            assert [i for i in ob.instrs if isinstance(i, Call)] == \
                   [i for i in nb.instrs if isinstance(i, Call)]
            # every plain instruction changed kind
            for oi, ni in zip(ob.instrs, nb.instrs):
                if isinstance(oi, Instr):
                    assert oi.kind != ni.kind

    def test_add_edit_creates_unreferenced_function(self, program):
        script = EditScript.generate(program, seed=5, kinds=("add",))
        edited = script.apply(program)
        name = script.edits[0].function
        assert not program.has_function(name)
        assert edited.has_function(name)

    def test_delete_edit_removes_function(self, program):
        script = EditScript.generate(program, seed=5, kinds=("delete",))
        edited = script.apply(program)
        name = script.edits[0].function
        assert program.has_function(name)
        assert not any(f.name == name for f in edited.all_functions())

    def test_touched_names_every_edit(self, program):
        script = EditScript.generate(program, seed=9, edits=2,
                                     kinds=("body", "add"))
        assert script.touched() == {e.function for e in script.edits}

    def test_unknown_kind_rejected(self, program):
        with pytest.raises(ValueError, match="unknown edit kind"):
            EditScript.generate(program, seed=1, kinds=("rename",))


# ----------------------------------------------------------------------
# IncrState


class TestIncrState:
    def test_roundtrip(self, prior, tmp_path):
        state = IncrState.capture(prior)
        path = state.save(tmp_path)
        assert path == state_path(tmp_path)
        loaded = IncrState.load(tmp_path)
        assert loaded == state
        # and the file is honest JSON
        data = json.loads(path.read_text())
        assert data["program"] == prior.program.name

    def test_capture_covers_every_function(self, prior):
        state = IncrState.capture(prior)
        assert set(state.functions) == {
            f.name for f in prior.program.all_functions()
        }
        hot = {n for n, fs in state.functions.items() if fs.hot}
        assert hot == set(prior.wpa_result.hot_functions)

    def test_check_rejects_other_program(self, prior):
        state = IncrState.capture(prior)
        with pytest.raises(IncrStateError, match="program"):
            state.check("somebody-else", prior.config)

    def test_check_rejects_artifact_config_change(self, prior):
        state = IncrState.capture(prior)
        with pytest.raises(IncrStateError, match="configuration"):
            state.check(prior.program.name,
                        dataclasses.replace(prior.config, seed=99))

    def test_execution_knobs_do_not_invalidate(self, prior):
        """workers/state_dir/cache_dir change speed, never artifacts, so
        the state must stay valid across them."""
        state = IncrState.capture(prior)
        changed = dataclasses.replace(
            prior.config, workers=9999, state_dir="/elsewhere",
            cache_dir="/also/elsewhere")
        state.check(prior.program.name, changed)  # does not raise
        assert config_signature(changed) == config_signature(prior.config)

    def test_check_rejects_schema_drift(self, prior):
        state = dataclasses.replace(IncrState.capture(prior), schema_version=99)
        with pytest.raises(IncrStateError, match="schema"):
            state.check(prior.program.name, prior.config)

    def test_snapshot_without_a_version_is_rejected(self, prior):
        data = IncrState.capture(prior).to_json()
        del data["schema_version"]
        with pytest.raises(IncrStateError, match="schema"):
            IncrState.from_json(data).check(prior.program.name, prior.config)

    @pytest.mark.parametrize("payload", [
        '{"program": "p", "config_sig',
        "[1,2]",
        '{"program": "p", "config_signature": "c", "result_digest": "d", '
        '"schema_version": 1, "functions": {"f": {}}}',
        "{}",
    ], ids=["truncated", "list", "empty-function", "empty-object"])
    def test_mis_shaped_snapshot_is_a_state_error_naming_the_file(
            self, tmp_path, payload):
        path = tmp_path / "state.json"
        path.write_text(payload)
        with pytest.raises(IncrStateError, match="state.json"):
            IncrState.load(tmp_path)


# ----------------------------------------------------------------------
# The one diff


def _states(result, program=None, profile=None):
    """One release's evidence: ``result.functions``, with ``program``
    and ``profile`` swapped in when given."""
    if program is None and profile is None:
        return result.functions
    program = result.program if program is None else program
    profile = result.ir_profile if profile is None else profile
    hot = set(result.wpa_result.hot_functions)
    return {name: FunctionState(cfg, profile.function_digest(name), name in hot)
            for name, cfg in _cfg_digests(program).items()}


class TestPlanDirty:
    """:func:`diff_functions`, the one per-function diff that both
    ``reoptimize()``'s accounting and ``explain`` read."""

    def test_clean_release_has_empty_plan(self, prior, program):
        diff = diff_functions(_states(prior), _states(prior, program))
        assert (diff.dirty, diff.added, diff.deleted, diff.hot_flips) == \
            ((), (), (), ())

    def test_body_edit_is_exactly_one_cfg_dirty(self, prior, program):
        script = EditScript.generate(program, seed=3, kinds=("body",))
        edited = script.apply(program)
        diff = diff_functions(_states(prior), _states(prior, edited))
        assert diff.dirty == (script.edits[0].function,)
        assert diff.reasons == {script.edits[0].function: "cfg"}
        assert diff.added == () and diff.deleted == ()

    def test_add_and_delete_are_planned(self, prior, program):
        script = EditScript.generate(program, seed=4, edits=2,
                                     kinds=("add", "delete"))
        edited = script.apply(program)
        diff = diff_functions(_states(prior), _states(prior, edited))
        kinds = {e.kind: e.function for e in script.edits}
        assert diff.added == (kinds["add"],)
        assert diff.deleted == (kinds["delete"],)

    def test_profile_delta_dirty_with_threshold(self, prior, program):
        """The threshold is zero: any profile-content change is dirty."""
        shifted = prior.ir_profile.apply_drift(0.5, seed=123)
        before, after = _states(prior), _states(prior, program, shifted)
        diff = diff_functions(before, after)
        assert any(r == "profile" for r in diff.reasons.values())
        with pytest.raises(TypeError):
            diff_functions(before, after, threshold=1e9)


# ----------------------------------------------------------------------
# reoptimize(): the bit-identity contract


@pytest.mark.integration
class TestReoptimize:
    def test_body_edit_bit_identical_and_reuses_solves(
            self, prior, program, state_dir):
        script = EditScript.generate(program, seed=3, kinds=("body",))
        edited = script.apply(program)
        config = _config(state_dir=str(state_dir))
        incr = PropellerPipeline(edited, config).reoptimize(
            state_path(state_dir))

        full = PropellerPipeline(edited, _config()).run()
        assert incr.digest() == full.digest()
        # The daily-release loop's point: a third of the compute or less.
        assert _sim_compute(incr) <= _sim_compute(full) / 3

        inc = incr.incremental
        assert inc.dirty == (script.edits[0].function,)
        assert inc.solve_reuse >= 0.90
        assert inc.solve_hits + inc.solve_misses > 0
        assert inc.prior_digest == prior.digest()
        # accounting rides the report, additively
        report = incr.report()
        assert report.incremental["solve_reuse"] == inc.solve_reuse
        assert report.incremental == plain(inc)
        roundtrip = type(report).from_json(report.to_json())
        assert roundtrip.incremental == dict(report.incremental)

    @pytest.mark.parametrize("kind, seed", [("add", 4), ("delete", 5)])
    def test_add_and_delete_bit_identical(self, prior, program, state_dir,
                                          kind, seed):
        edited = EditScript.generate(program, seed=seed,
                                     kinds=(kind,)).apply(program)
        incr = PropellerPipeline(edited, _config(
            state_dir=str(state_dir))).reoptimize(state_path(state_dir))
        full = PropellerPipeline(edited, _config()).run()
        assert incr.digest() == full.digest()
        assert _sim_compute(incr) <= _sim_compute(full) / 3
        inc = incr.incremental
        assert (inc.added if kind == "add" else inc.deleted)

    def test_degrades_honestly_under_faults(self, prior, program, state_dir):
        """A starved LBR collection degrades the incremental run with an
        explicit reason -- it must never silently replay stale state."""
        script = EditScript.generate(program, seed=11, kinds=("body",))
        edited = script.apply(program)
        config = _config(state_dir=str(state_dir),
                         fault_plan="fail=1,only=profile-lbr,seed=3")
        result = PropellerPipeline(edited, config).reoptimize(
            state_path(state_dir))
        assert result.degraded
        assert "lbr-profile" in result.degraded_reasons
        assert result.incremental  # accounting still attached

    def test_doomed_pgo_collection_degrades_once(
            self, prior, program, state_dir):
        """The run's ``pgo-profile`` stage degrades -- once, and to the
        bytes a plain ``run()`` under the same plan produces."""
        # An edit no other test here makes: a profile-pgo action the
        # shared store already holds would replay, and a replay cannot
        # fault.
        script = EditScript.generate(program, seed=5, kinds=("body",))
        edited = script.apply(program)
        plan = "fail=1,only=profile-pgo,seed=3"
        pipeline = PropellerPipeline(edited, _config(
            state_dir=str(state_dir), fault_plan=plan), tracer=Tracer())
        result = pipeline.reoptimize(state_path(state_dir))
        assert result.degraded_reasons == ("pgo-profile",)
        assert result.counters.count("faults.degraded") == 1
        assert [s.name for s in pipeline.tracer.spans
                if s.name.startswith("degraded:")] == ["degraded:pgo-profile"]
        assert result.incremental is not None and result.incremental.reasons
        full = PropellerPipeline(edited, _config(fault_plan=plan)).run()
        assert result.digest() == full.digest()

    @pytest.mark.parametrize("fault_plan, seed", [
        (None, 7), ("fail=1,only=profile-pgo,seed=3", 8)],
        ids=["clean", "pgo-exhausted"])
    def test_reoptimize_is_run_plus_accounting(
            self, prior, program, state_dir, tmp_path, fault_plan, seed):
        """Over two copies of one prior state directory, ``run()`` and
        ``reoptimize()`` of the same edit spend the same simulated
        seconds and count the same actions, faults and retries: only
        the ``incr.*`` accounting differs.  (Each case's edit is one no
        other test makes, so its ``profile-pgo`` action is not stored.)"""
        edited = EditScript.generate(program, seed=seed,
                                     kinds=("body",)).apply(program)
        dirs = [tmp_path / "run", tmp_path / "reopt"]
        for copy in dirs:
            shutil.copytree(state_dir, copy)

        def pipeline(copy):
            return PropellerPipeline(edited, _config(
                state_dir=str(copy), fault_plan=fault_plan))

        full = pipeline(dirs[0]).run()
        incr = pipeline(dirs[1]).reoptimize(state_path(dirs[1]))

        def accounting(result):
            return {kind: {k: v for k, v in values.items()
                           if not k.startswith("incr.")}
                    for kind, values in result.counters.snapshot().items()}

        assert incr.phase_seconds == full.phase_seconds
        assert accounting(incr) == accounting(full)
        assert incr.degraded_reasons == full.degraded_reasons
        if fault_plan is not None:
            assert incr.counters.count("faults.degraded") == 1
            assert incr.counters.count("retry.exhausted") == 1

    def test_identical_rerun_under_inlining_is_clean(self, program, tmp_path):
        """The diff reads the run's own post-inlining program, the one
        the snapshot was captured from: re-running an unchanged program
        with ``inline_hot`` reports nothing dirty."""
        config = _config(state_dir=str(tmp_path), inline_hot=True)
        IncrState.capture(PropellerPipeline(program, config).run()).save(tmp_path)
        inc = PropellerPipeline(program, config).reoptimize(
            state_path(tmp_path)).incremental
        assert (inc.dirty, inc.added, inc.deleted) == ((), (), ())

    def test_convenience_wrapper_forces_incremental(
            self, prior, program, state_dir):
        result = reoptimize(program, state_path(state_dir),
                            config=_config(state_dir=str(state_dir)))
        assert result.incremental is not None
        assert result.digest() == prior.digest()

    def test_store_counts_the_action_store_only(self, prior, program, state_dir):
        """``store.loads`` counts the action store's loads, which are the
        build system's disk hits; the solve cache's loads from its own
        store under the same state directory count as ``incr.solve_*``.
        (The edit is one no other test makes, so WPA is not replayed
        whole and its solves are looked up.)"""
        edited = EditScript.generate(program, seed=11, kinds=("body",)).apply(program)
        result = PropellerPipeline(edited, _config(
            state_dir=str(state_dir))).reoptimize(state_path(state_dir))
        counters = result.counters
        assert counters.count("incr.solve_hits") > 0
        assert counters.count("store.loads") == counters.count("cache.disk_hits") > 0

    def test_state_mismatch_raises(self, prior, program, state_dir):
        config = _config(state_dir=str(state_dir), seed=99)
        with pytest.raises(IncrStateError):
            PropellerPipeline(program, config).reoptimize(
                state_path(state_dir))


# ----------------------------------------------------------------------
# Property: the empty edit script is a pure replay


@pytest.mark.integration
class TestEmptyScriptIsPureReplay:
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_empty_script_pure_replay(self, tmp_path_factory, seed):
        """For any generation seed: applying the *empty* edit script and
        re-optimizing against freshly captured state performs zero solve
        lookups, plans zero dirty functions, and reproduces the prior
        digest bit-for-bit."""
        program = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=seed)
        tmp = tmp_path_factory.mktemp(f"replay-{seed}")
        config = _config(pgo_steps=5_000, lbr_branches=10_000,
                         state_dir=str(tmp))
        prior = PropellerPipeline(program, config).run()
        path = IncrState.capture(prior).save(tmp)

        unchanged = EditScript().apply(program)
        result = PropellerPipeline(unchanged, config).reoptimize(path)
        inc = result.incremental
        assert inc.dirty == () and inc.added == () and inc.deleted == ()
        assert inc.solve_hits + inc.solve_misses == 0
        assert inc.solve_reuse == 1.0
        assert result.digest() == prior.digest()
