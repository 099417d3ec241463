"""Tests for the four-phase Propeller pipeline."""

import dataclasses

import pytest

from repro.buildsys import BuildSystem, ResourceLimitExceeded
from repro.core.pipeline import (
    PipelineConfig,
    PropellerPipeline,
    _link_options_signature,
    optimize,
)
from repro.elf import SectionKind
from repro.linker import LinkOptions
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
            PipelineConfig(lbr_branches=30_000, pgo_steps=20_000, enforce_ram=False),
            seed=5,
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
    }

    @pytest.mark.parametrize("field", sorted(BAD))
    def test_out_of_range_field_is_a_value_error(self, field):
        with pytest.raises(ValueError, match=field):
            PipelineConfig(**{field: self.BAD[field]})
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(PipelineConfig(), **{field: self.BAD[field]})

    def test_boundary_values_are_accepted(self):
        PipelineConfig(lbr_period=1, lbr_branches=0, pgo_steps=0, workers=1,
                       ram_limit=1, stale_matching="loose", jobs=1)

    def test_jobs_accepts_only_one(self):
        """The pool is gone; the field outlives it only because the
        frozen ``bench/worker.py`` passes ``jobs=1``."""
        assert PipelineConfig().jobs == PipelineConfig(jobs=1).jobs == 1
        for bad in (0, 2, -1):
            with pytest.raises(ValueError, match="jobs"):
                dataclasses.replace(PipelineConfig(), jobs=bad)
        assert len(dataclasses.fields(PipelineConfig)) == 17
