"""Tests for the four-phase Propeller pipeline."""

import copy
import dataclasses
import math

import pytest

from repro import ir
from repro.buildsys import BuildSystem, ResourceLimitExceeded
from repro.core import phases
from repro.core.phases import INSTRUMENTED_BUILD_FACTOR
from repro.core.pipeline import (
    ACTION_KINDS,
    PipelineConfig,
    PropellerPipeline,
    _link_options_signature,
    optimize,
)
from repro.elf import SectionKind
from repro.linker import LinkOptions
from repro.obs import Tracer
from repro.synth import PRESETS, generate_workload


class TestRun:
    def test_binaries_produced(self, pipeline_result):
        res = pipeline_result
        assert res.baseline.executable.text_size > 0
        assert res.metadata.executable.text_size > 0
        assert res.optimized.executable.text_size > 0

    def test_metadata_binary_carries_map_po_does_not(self, pipeline_result):
        res = pipeline_result
        assert res.metadata.executable.section_sizes()["bb_addr_map"] > 0
        assert res.optimized.executable.section_sizes()["bb_addr_map"] == 0
        assert res.baseline.executable.section_sizes()["bb_addr_map"] == 0

    def test_metadata_overhead_in_paper_band(self, pipeline_result):
        """§3.2: metadata binaries are 7-9% larger than baseline."""
        res = pipeline_result
        ratio = res.metadata.executable.total_size / res.baseline.executable.total_size
        assert 1.04 < ratio < 1.15

    def test_optimized_size_overhead_small(self, pipeline_result):
        """§5.3: Propeller-optimized binaries are ~1% larger on average."""
        res = pipeline_result
        ratio = res.optimized.executable.total_size / res.baseline.executable.total_size
        assert ratio < 1.05

    def test_cold_objects_replayed_from_cache(self, pipeline_result):
        res = pipeline_result
        cold_modules = len(res.program.modules) - res.optimized.hot_modules
        assert res.optimized.cold_cache_hits == cold_modules
        assert res.optimized.hot_modules > 0

    def test_phase_times_recorded(self, pipeline_result):
        times = pipeline_result.phase_seconds
        for key in ("opt_build", "metadata_build", "lbr_profile_run",
                    "wpa_convert", "prop_backends", "prop_link"):
            assert times[key] > 0, key

    def test_hot_function_layout_changed(self, pipeline_result):
        res = pipeline_result
        fn = res.wpa_result.hot_functions[0]
        base_blocks = sorted(
            (b.addr, b.bb_id) for b in res.baseline.executable.exec_blocks if b.func == fn
        )
        opt_blocks = sorted(
            (b.addr, b.bb_id) for b in res.optimized.executable.exec_blocks if b.func == fn
        )
        assert len(base_blocks) == len(opt_blocks)

    def test_exec_model_invariants_all_binaries(self, pipeline_result):
        res = pipeline_result
        for exe in (res.baseline.executable, res.metadata.executable,
                    res.optimized.executable):
            addrs = {b.addr for b in exe.exec_blocks}
            for block in exe.exec_blocks:
                term = block.term
                if term.kind == "condbr":
                    assert term.cond_target in addrs
                    if term.uncond_target is None:
                        assert block.addr + block.size in addrs
                elif term.kind == "jump":
                    assert term.uncond_target in addrs
                elif term.kind == "fallthrough":
                    assert block.addr + block.size in addrs

    def test_summary_renders(self, pipeline_result):
        text = pipeline_result.summary()
        assert "propeller phase 4" in text
        assert "cold objects from cache" in text

    def test_pct_hot_objects(self, pipeline_result):
        assert 0 < pipeline_result.report().pct_hot_modules <= 1


class TestDeterminism:
    @pytest.mark.slow
    def test_same_seed_same_binaries(self, small_program, pipeline_config):
        a = PropellerPipeline(small_program, pipeline_config).run()
        b = PropellerPipeline(small_program, pipeline_config).run()
        assert a.optimized.executable.section_sizes() == b.optimized.executable.section_sizes()
        assert a.wpa_result.symbol_order == b.wpa_result.symbol_order


class TestLinkActionKey:
    def test_signature_covers_every_link_option(self):
        """The link action is keyed by ``_link_options_signature``, whose
        field list is hand-written: a ``LinkOptions`` field missing from
        it would replay a stale link from the persistent store."""
        base = LinkOptions()

        def perturb(value):
            if isinstance(value, bool):
                return not value
            if isinstance(value, int):
                return value + 1
            if isinstance(value, str):
                return value + "x"
            if isinstance(value, frozenset):
                return value | {"perturbed"}
            assert value is None, f"teach perturb() about {value!r}"
            return ["sym"]

        for f in dataclasses.fields(LinkOptions):
            changed = dataclasses.replace(
                base, **{f.name: perturb(getattr(base, f.name))})
            assert (_link_options_signature(changed)
                    != _link_options_signature(base)), f.name


def _edit_block(program, pick, edit):
    """A copy of ``program`` with ``edit`` applied to its first block
    that ``pick`` accepts."""
    program = copy.deepcopy(program)
    block = next(b for f in program.all_functions() for b in f.blocks if pick(b))
    edit(block)
    return program


def _raise_cond_prob(block):
    block.term = dataclasses.replace(block.term, prob=block.term.prob + 0.05)


def _shift_switch_probs(block):
    probs = list(block.term.probs)
    probs[0], probs[-1] = probs[0] + 0.01, probs[-1] - 0.01
    block.term = dataclasses.replace(block.term, probs=tuple(probs))


def _shift_icall_probs(block):
    i, call = next((i, c) for i, c in enumerate(block.instrs)
                   if isinstance(c, ir.Call) and c.is_indirect)
    targets = [list(t) for t in call.indirect_targets]
    targets[0][1] += 0.01
    targets[-1][1] -= 0.01
    block.instrs[i] = dataclasses.replace(
        call, indirect_targets=tuple(map(tuple, targets)))


def _is_icall_block(block):
    return any(isinstance(c, ir.Call) and c.is_indirect for c in block.instrs)


class TestLbrActionKey:
    """``profile-lbr`` replays perf data from a shared store, so its key
    must cover every input the LBR walk reads -- including the branch
    probabilities ``exec_blocks`` carries from the IR, which the
    metadata binary's ``content_digest()`` does not hash."""

    def test_probability_edit_replays_nothing_stale(self, tmp_path):
        program = generate_workload(PRESETS["mysql"], scale=0.003, seed=1)
        edited = copy.deepcopy(program)
        _raise_cond_prob(edited.function("m0_f1").blocks[2])  # 0.0766 -> 0.1266
        config = PipelineConfig(seed=1, pgo_steps=20_000, lbr_branches=20_000)
        warm_config = dataclasses.replace(config, cache_dir=str(tmp_path))
        PropellerPipeline(program, warm_config).run()
        warm = PropellerPipeline(edited, warm_config).run()
        cold = PropellerPipeline(edited, config).run()
        assert (warm.metadata.executable.content_digest()
                == cold.metadata.executable.content_digest())
        assert warm.digest() == cold.digest()
        assert (warm.optimized.executable.content_digest()
                == cold.optimized.executable.content_digest())

    def test_key_covers_every_walk_input(self, tiny_program):
        profile = PropellerPipeline(tiny_program, _cheap_config()).collect_pgo_profile()

        def key(program, **overrides):
            pipe = PropellerPipeline(program, _cheap_config(**overrides))
            return phases.lbr_profile(pipe, pipe.build_metadata(profile))[1]

        base = key(tiny_program)
        edits = {
            "cond-prob": (lambda b: isinstance(b.term, ir.CondBr), _raise_cond_prob),
            "switch-prob": (lambda b: isinstance(b.term, ir.Switch), _shift_switch_probs),
            "icall-prob": (_is_icall_block, _shift_icall_probs),
        }
        for name, (pick, edit) in edits.items():
            assert key(_edit_block(tiny_program, pick, edit)) != base, name
        for field in ("lbr_branches", "lbr_period", "seed"):
            value = getattr(_cheap_config(), field)
            assert key(tiny_program, **{field: value + 1}) != base, field


class TestBaselineIsMetadataWithoutMap:
    """Independent oracle for Phases 1-2 (§3.2): the baseline the
    pipeline links from the metadata build's objects is the plain PGO
    build -- every module compiled from the profile as trained without
    the BB address map, linked without the map -- object for object,
    byte for byte, and charged the same simulated seconds."""

    CASES = {
        "deepsjeng": (("531.deepsjeng", 0.3, 7), {}),
        "mcf-inline-loose": (("505.mcf", 1.0, 11),
                             {"inline_hot": True, "stale_matching": "loose"}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_baseline_is_the_plain_pgo_build(self, case):
        from repro.codegen import CodeGenOptions, compile_action
        from repro.core.phases import (CODEGEN_FIXED_SECONDS,
                                       CODEGEN_SECONDS_PER_INSTR)
        from repro.linker import link

        (preset, scale, seed), extra = self.CASES[case]
        program = generate_workload(PRESETS[preset], scale=scale, seed=seed)
        config = PipelineConfig(lbr_branches=20_000, pgo_steps=10_000,
                                workers=72, enforce_ram=False, **extra)
        result = PropellerPipeline(program, config).run()

        # The program codegen saw (post-inlining) and the stale profile.
        options = CodeGenOptions(ir_profile=result.ir_profile)
        compiled = [compile_action(m, options, CODEGEN_FIXED_SECONDS,
                                   CODEGEN_SECONDS_PER_INSTR)
                    for m in result.program.modules]
        objects = [c.obj for c, _cost, _peak in compiled]
        expected = link(objects, LinkOptions(
            output_name="base.out", keep_bb_addr_map=False,
            entry_symbol=result.program.entry_function,
            features=result.program.features))

        baseline = result.baseline
        assert ([o.content_digest() for o in baseline.objects]
                == [o.content_digest() for o in objects])
        assert (baseline.executable.content_digest()
                == expected.executable.content_digest())
        assert (dataclasses.asdict(baseline.link_stats)
                == dataclasses.asdict(expected.stats))
        costs = [cost for _c, cost, _peak in compiled]
        backends = baseline.backends
        assert backends.cpu_seconds == sum(costs)
        assert backends.wall_seconds == max(max(costs), sum(costs) / 72)
        assert backends.peak_action_memory == max(p for _c, _cost, p in compiled)
        assert (backends.actions, backends.cache_hits) == (len(objects), 0)

    def test_one_codegen_batch_per_build(self, tiny_program):
        """A cold run submits every module in two codegen batches --
        Phases 1-2, and Phase 4, whose cold modules replay -- not three."""
        result = PropellerPipeline(tiny_program, PipelineConfig(
            lbr_branches=20_000, pgo_steps=10_000, enforce_ram=False)).run()
        modules = len(tiny_program.modules)
        assert result.counters.count("executor.batches") == 2
        assert result.counters.count("executor.batch_tasks") == 2 * modules


class TestBoltInput:
    def test_bolt_metadata_has_relocations(self, small_program, pipeline_config):
        pipe = PropellerPipeline(small_program, pipeline_config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        assert bm.executable.retained_relocations
        # Codegen actions replay from the Phase 2 cache.
        assert all(r == len(small_program.modules) for r in [len(bm.objects)])

    @pytest.mark.slow
    def test_bm_size_overhead_band(self, small_program, pipeline_config):
        """§5.3: BOLT metadata binaries are 20-60% larger than baseline."""
        pipe = PropellerPipeline(small_program, pipeline_config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        ratio = bm.executable.total_size / res.baseline.executable.total_size
        assert 1.15 < ratio < 1.7


class TestResourceEnforcement:
    def test_ram_limit_blocks_oversized_actions(self, tiny_program):
        config = PipelineConfig(
            lbr_branches=5_000, pgo_steps=5_000, enforce_ram=True, ram_limit=64
        )
        with pytest.raises(ResourceLimitExceeded):
            PropellerPipeline(tiny_program, config).run()


class TestOptimizeAPI:
    def test_one_call(self, tiny_program):
        result = optimize(
            tiny_program,
            PipelineConfig(lbr_branches=30_000, pgo_steps=20_000, enforce_ram=False, seed=5),
        )
        assert result.config.seed == 5
        assert result.optimized.executable.name == "propeller.out"


class TestConfigValidation:
    """Bad values are refused where the config is made, naming the field
    -- not as a traceback out of the first cached action that reads it."""

    BAD = {
        "lbr_period": 0,
        "lbr_branches": -5,
        "pgo_steps": -1,
        "workers": 0,
        "ram_limit": 0,
        "stale_matching": "fuzzy",
        "jobs": 2,
        # A mistyped kind would fault nothing and degrade nothing.
        "fault_plan": "fail=1,only=profile-pgx",
    }
    #: A NaN drift trained a profile whose counts summed to NaN, and one
    #: above 1 silently dropped every count.
    BAD_DRIFTS = {"nan": math.nan, "negative": -0.1, "above-one": 1.5,
                  "inf": math.inf}

    @pytest.mark.parametrize("field, value", [
        *(pytest.param(f, v, id=f) for f, v in sorted(BAD.items())),
        *(pytest.param("pgo_drift", v, id=f"pgo_drift-{name}")
          for name, v in BAD_DRIFTS.items())])
    def test_out_of_range_field_is_a_value_error(self, field, value):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PipelineConfig(), **{field: value})

    def test_boundary_values_are_accepted(self):
        PipelineConfig(lbr_period=1, lbr_branches=0, pgo_steps=0, workers=1,
                       ram_limit=1, stale_matching="loose", jobs=1,
                       pgo_drift=0.0)
        PipelineConfig(pgo_drift=1.0)

    def test_jobs_accepts_only_one(self):
        """The pool is gone; the field outlives it only because the
        frozen ``bench/worker.py`` passes ``jobs=1``."""
        assert PipelineConfig().jobs == PipelineConfig(jobs=1).jobs == 1
        for bad in (0, 2, -1):
            with pytest.raises(ValueError, match="jobs"):
                dataclasses.replace(PipelineConfig(), jobs=bad)
        assert len(dataclasses.fields(PipelineConfig)) == 16


def _cheap_config(**overrides) -> PipelineConfig:
    defaults = dict(pgo_steps=5_000, lbr_branches=10_000, workers=72,
                    enforce_ram=False)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestActionKinds:
    def test_action_kinds_are_what_a_release_submits(self, tiny_program,
                                                     monkeypatch):
        """``ACTION_KINDS``, the kinds a fault plan's ``only=`` may
        name, is exactly what ``run()`` and ``build_bolt_input()``
        submit to the build system."""
        kinds = set()
        for name in ("run_action", "run_batch"):
            def spy(self, kind, *args, _real=getattr(BuildSystem, name),
                    **kwargs):
                kinds.add(kind)
                return _real(self, kind, *args, **kwargs)
            monkeypatch.setattr(BuildSystem, name, spy)
        pipe = PropellerPipeline(tiny_program, _cheap_config())
        pipe.build_bolt_input(pipe.run().ir_profile)
        assert kinds == set(ACTION_KINDS)


@pytest.fixture(scope="module")
def full_digest(tiny_program):
    return PropellerPipeline(tiny_program, _cheap_config()).run().digest()


class TestRunPhases:
    def test_pgo_and_inline_share_one_baseline_span(self, tiny_program,
                                                    monkeypatch):
        """``pgo-profile`` and ``inline`` run inside one
        ``phase:baseline`` span; stale matching runs outside it."""
        def probed(name, body):
            def run(pipe, *args):
                with pipe.tracer.span(f"probe:{name}"):
                    return body(pipe, *args)
            return run

        monkeypatch.setattr(phases, "inline", probed("inline", phases.inline))
        monkeypatch.setattr(phases, "match_stale",
                            probed("stale-match", phases.match_stale))
        pipe = PropellerPipeline(tiny_program, _cheap_config(
            inline_hot=True, stale_matching="loose"), tracer=Tracer())
        pipe.run()
        spans = pipe.tracer.spans
        by_id = {s.span_id: s for s in spans}

        def parent(name):
            (span,) = [s for s in spans if s.name == name]
            return (None if span.parent_id is None
                    else by_id[span.parent_id].name)

        assert [s.name for s in spans].count("phase:baseline") == 1
        assert parent("pgo-train") == "phase:baseline"
        assert parent("probe:inline") == "phase:baseline"
        assert parent("probe:stale-match") is None
        assert parent("stale-match") == "probe:stale-match"

    def test_instrumented_build_factor_pinned(self, tiny_program):
        """The modelled instrumented-build ratio, as a named constant,
        pinned where the magic number used to live."""
        assert INSTRUMENTED_BUILD_FACTOR == 0.9
        result = PropellerPipeline(tiny_program, _cheap_config()).run()
        assert result.phase_seconds["pgo_instrumented_build"] == (
            pytest.approx(result.phase_seconds["opt_build"]
                          * INSTRUMENTED_BUILD_FACTOR))


class TestResumeFromStore:
    """A run stopped after profiling resumes through the action store:
    ``collect_perf()`` over a ``cache_dir``, then ``run()`` of a fresh
    pipeline over the same directory, replays every action the first
    run stored and computes only what is missing."""

    def test_resumed_run_is_the_cold_run(self, tiny_program, full_digest,
                                         tmp_path):
        config = _cheap_config(cache_dir=str(tmp_path))
        PropellerPipeline(tiny_program, config).collect_perf()

        pipe = PropellerPipeline(tiny_program, config, tracer=Tracer())
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
