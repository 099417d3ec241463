"""Tests for the BOLT-style baseline optimizer."""

import pytest

from repro.analysis import MemoryMeter
from repro.bolt import (
    BoltError,
    BoltOptions,
    BoltStartupCrash,
    check_startup,
    disassemble,
    perf2bolt,
    run_bolt,
)
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.core.wpa import analyze
from repro.profiles import generate_trace
from repro.synth import PRESETS, generate_workload


@pytest.fixture(scope="module")
def setup(small_program, pipeline_config):
    pipe = PropellerPipeline(small_program, pipeline_config)
    res = pipe.run()
    bm = pipe.build_bolt_input(res.ir_profile)
    return pipe, res, bm


class TestDisassembly:
    def test_requires_relocations(self, setup):
        _pipe, res, _bm = setup
        with pytest.raises(ValueError, match="emit-relocs"):
            disassemble(res.baseline.executable)

    def test_discovers_all_functions(self, setup, small_program):
        _pipe, _res, bm = setup
        result = disassemble(bm.executable)
        assert len(result.functions) == small_program.num_functions

    def test_blocks_within_function_ranges(self, setup):
        _pipe, _res, bm = setup
        result = disassemble(bm.executable)
        for func in result.functions:
            for block in func.blocks:
                assert func.addr <= block.addr < func.end
                assert block.size > 0

    def test_memory_scales_with_instructions(self, setup):
        _pipe, _res, bm = setup
        meter = MemoryMeter()
        result = disassemble(bm.executable, meter=meter)
        assert result.total_instrs > 0
        assert meter.peak_bytes >= result.total_instrs * 100

    def test_lite_mode_reduces_retained_memory(self, setup):
        _pipe, _res, bm = setup
        full = MemoryMeter()
        disassemble(bm.executable, meter=full)
        lite = MemoryMeter()
        some = {f.name for f in disassemble(bm.executable).functions[:3]}
        disassemble(bm.executable, meter=lite, lite_names=some)
        assert lite.peak_bytes < full.peak_bytes

    @pytest.mark.slow
    def test_embedded_jump_tables_marked_non_simple(self, pipeline_config):
        program = generate_workload(PRESETS["spanner"], scale=0.0008, seed=2)
        pipe = PropellerPipeline(program, pipeline_config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        result = disassemble(bm.executable)
        non_simple = [f for f in result.functions if not f.simple]
        assert non_simple
        assert any("jump table" in f.reason or "decode" in f.reason for f in non_simple)


class TestPerf2Bolt:
    def test_profile_aggregation(self, setup):
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        assert out.profile.block_counts
        assert out.profile.edges
        assert out.cost_units > 0

    def test_memory_exceeds_wpa(self, setup):
        """Figure 4's claim: disassembly-driven conversion uses far more
        memory than the BB-address-map path on the same profile."""
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        wpa_stats = analyze(res.metadata.executable, res.perf).stats
        assert out.peak_memory_bytes > 2 * wpa_stats.peak_memory_bytes

    def test_call_edges_found(self, setup):
        _pipe, res, bm = setup
        out = perf2bolt(bm.executable, res.perf)
        assert out.profile.call_edges


class TestOptimizer:
    def test_rewrite_produces_runnable_binary(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        check_startup(result.executable)
        trace = generate_trace(result.executable, max_blocks=20_000, seed=5)
        assert trace.num_blocks_executed == 20_000

    def test_layout_invariant_execution(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        t_base = generate_trace(res.baseline.executable, max_blocks=10_000, seed=6)
        t_bolt = generate_trace(result.executable, max_blocks=10_000, seed=6)
        m1 = {b.addr: (b.func, b.bb_id) for b in res.baseline.executable.exec_blocks}
        m2 = {b.addr: (b.func, b.bb_id) for b in result.executable.exec_blocks}
        assert [m1[a] for a in t_base.block_addrs] == [m2[a] for a in t_bolt.block_addrs]

    def test_original_text_retained(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        names = {s.name for s in result.executable.sections}
        assert ".text.bolt" in names
        original = {s.name for s in bm.executable.sections}
        assert original <= names

    def test_output_larger_than_input(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        assert result.stats.output_size > res.baseline.executable.total_size * 1.2

    def test_moved_symbols_updated(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        before = {sym.name: sym.addr for sym in bm.executable.symbols}
        moved = [
            sym.name for sym in result.executable.symbols
            if sym.addr != before[sym.name] and not sym.name.startswith(".")
        ]
        assert moved

    @pytest.mark.slow
    def test_lite_processes_fewer_functions(self, setup):
        _pipe, res, bm = setup
        full = run_bolt(bm.executable, res.perf, BoltOptions(lite=False))
        lite = run_bolt(bm.executable, res.perf, BoltOptions(lite=True))
        assert lite.stats.funcs_rewritten <= full.stats.funcs_rewritten

    def test_no_overlapping_blocks(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        blocks = sorted(result.executable.exec_blocks, key=lambda b: b.addr)
        for a, b in zip(blocks, blocks[1:]):
            assert a.addr + a.size <= b.addr

    def test_runtime_and_memory_accounted(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        assert result.stats.runtime_seconds > 0
        assert result.stats.peak_memory_bytes > bm.executable.total_size


class TestFailureModes:
    def _bolt_for(self, preset_name, scale=0.002):
        program = generate_workload(PRESETS[preset_name], scale=scale, seed=1)
        config = PipelineConfig(lbr_branches=40_000, pgo_steps=20_000, enforce_ram=False)
        pipe = PropellerPipeline(program, config)
        res = pipe.run()
        bm = pipe.build_bolt_input(res.ir_profile)
        return bm, res

    @pytest.mark.slow
    def test_huge_binary_fails_during_rewrite(self):
        bm, res = self._bolt_for("superroot", scale=0.0004)
        with pytest.raises(BoltError, match="eh_frame"):
            run_bolt(bm.executable, res.perf)

    @pytest.mark.slow
    def test_rseq_binary_crashes_at_startup(self):
        bm, res = self._bolt_for("spanner", scale=0.0008)
        result = run_bolt(bm.executable, res.perf)
        with pytest.raises(BoltStartupCrash, match="rseq"):
            check_startup(result.executable)

    @pytest.mark.slow
    def test_fips_binary_crashes_at_startup(self):
        bm, res = self._bolt_for("bigtable", scale=0.0008)
        result = run_bolt(bm.executable, res.perf)
        with pytest.raises(BoltStartupCrash, match="FIPS"):
            check_startup(result.executable)

    def test_plain_binary_starts_fine(self, setup):
        _pipe, res, bm = setup
        result = run_bolt(bm.executable, res.perf)
        check_startup(result.executable)  # must not raise

    @pytest.mark.slow
    def test_propeller_binary_unaffected_by_features(self):
        # Propeller relinks rather than rewrites: rseq/FIPS still work.
        program = generate_workload(PRESETS["spanner"], scale=0.0008, seed=1)
        config = PipelineConfig(lbr_branches=40_000, pgo_steps=20_000, enforce_ram=False)
        res = PropellerPipeline(program, config).run()
        check_startup(res.optimized.executable)
