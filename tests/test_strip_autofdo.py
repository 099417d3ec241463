"""Tests for strip semantics (§5.8) and AutoFDO conversion (§2.2)."""

import pytest

from repro.bolt import run_bolt
from repro.codegen import CodeGenOptions, compile_program
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.elf.strip import StripError, strip_executable
from repro.linker import LinkOptions, link
from repro.profiles import collect_lbr_profile, convert_to_ir_profile


class TestStrip:
    def test_propeller_binary_strips(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        stripped, saved = strip_executable(exe)
        assert saved > 0
        assert len(stripped.symbols) < len(exe.symbols)
        assert not stripped.retained_relocations
        # The execution model (the "code") is untouched.
        assert stripped.exec_blocks is exe.exec_blocks

    def test_baseline_binary_strips(self, pipeline_result):
        stripped, saved = strip_executable(pipeline_result.baseline.executable)
        assert saved >= 0

    @pytest.mark.slow
    def test_bolt_binary_cannot_strip(self, small_program, pipeline_config):
        pipe = PropellerPipeline(small_program, pipeline_config)
        result = pipe.run()
        bm = pipe.build_bolt_input(result.ir_profile)
        bolt = run_bolt(bm.executable, result.perf)
        with pytest.raises(StripError, match="misaligned"):
            strip_executable(bolt.executable)

    def test_local_cold_symbols_removed(self, pipeline_result):
        exe = pipeline_result.optimized.executable
        cold = [s.name for s in exe.symbols if s.name.endswith(".cold")]
        stripped, _ = strip_executable(exe)
        assert cold  # propeller created cold-part symbols...
        assert not any(s.name.endswith(".cold") for s in stripped.symbols)  # ...all local


class TestAutoFDO:
    def test_conversion_produces_ir_profile(self, small_program):
        objs = compile_program(small_program, CodeGenOptions(bb_addr_map=True))
        exe = link([c.obj for c in objs], LinkOptions(keep_bb_addr_map=True)).executable
        perf = collect_lbr_profile(exe, max_branches=60_000, period=31, seed=2)
        profile = convert_to_ir_profile(exe, perf)
        hot = profile.hot_functions()
        assert hot
        top = hot[0]
        assert profile.block_counts(top)
        assert profile.edge_counts(top)
        # Counts reference real IR blocks.
        fn = small_program.function(top)
        for bb in profile.block_counts(top):
            assert fn.has_block(bb)

    def test_autofdo_drives_baseline_build(self, small_program):
        """An AutoFDO profile slots into the same codegen interface."""
        objs = compile_program(small_program, CodeGenOptions(bb_addr_map=True))
        exe = link([c.obj for c in objs], LinkOptions(keep_bb_addr_map=True)).executable
        perf = collect_lbr_profile(exe, max_branches=60_000, period=31, seed=2)
        profile = convert_to_ir_profile(exe, perf)
        rebuilt = compile_program(small_program, CodeGenOptions(ir_profile=profile))
        relinked = link([c.obj for c in rebuilt], LinkOptions())
        assert relinked.executable.text_size > 0

    def test_unsampled_functions_absent(self, small_program):
        objs = compile_program(small_program, CodeGenOptions(bb_addr_map=True))
        exe = link([c.obj for c in objs], LinkOptions(keep_bb_addr_map=True)).executable
        perf = collect_lbr_profile(exe, max_branches=5_000, period=97, seed=2)
        profile = convert_to_ir_profile(exe, perf)
        sampled = set(profile.blocks)
        all_funcs = {f.name for f in small_program.all_functions()}
        assert sampled < all_funcs  # sparse by construction