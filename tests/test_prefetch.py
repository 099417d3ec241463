"""Tests for §3.5 software prefetch insertion."""

import pytest

from repro import ir
from repro.codegen import CodeGenOptions, compile_module
from repro.core.prefetch import plan_prefetches
from repro.core.wpa import FunctionDCFG, WPAOptions, analyze
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.isa import Opcode, decode_range
from repro.linker import LinkOptions, link
from tests.conftest import section_named


def _leaf(name="callee"):
    return ir.Function(name=name, blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)], term=ir.Ret()),
    ])


def _caller():
    return ir.Function(name="caller", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.LOAD)], term=ir.Jump(1)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Call(callee="callee")], term=ir.Ret()),
    ])


def _module():
    return ir.Module(name="m", functions=[_caller(), _leaf()])


class TestCodegen:
    def test_prefetch_instruction_emitted(self):
        options = CodeGenOptions(prefetches={"caller": [(0, "callee")]})
        compiled = compile_module(_module(), options)
        section = section_named(compiled.obj, ".text.caller")
        assert compiled.obj.blocks[section.blocks][0].prefetches
        instrs = decode_range(bytes(section.data), 0, section.size)
        assert instrs[0].opcode == Opcode.PREFETCH

    def test_no_directives_no_prefetch(self):
        compiled = compile_module(_module(), CodeGenOptions())
        section = section_named(compiled.obj, ".text.caller")
        assert not compiled.obj.blocks[section.blocks][0].prefetches
        instrs = decode_range(bytes(section.data), 0, section.size)
        assert all(i.opcode != Opcode.PREFETCH for i in instrs)

    def test_linker_resolves_prefetch_target(self):
        options = CodeGenOptions(prefetches={"caller": [(0, "callee")]})
        compiled = compile_module(_module(), options)
        exe = link([compiled.obj], LinkOptions(entry_symbol="caller")).executable
        block0 = exe.block_at(exe.symbol("caller").addr)
        assert block0.prefetch_targets == (exe.symbol("callee").addr,)

    def test_trace_unaffected_by_prefetch(self):
        from repro.profiles import generate_trace

        plain = compile_module(_module(), CodeGenOptions())
        pf = compile_module(
            _module(), CodeGenOptions(prefetches={"caller": [(0, "callee")]})
        )
        exe_a = link([plain.obj], LinkOptions(entry_symbol="caller")).executable
        exe_b = link([pf.obj], LinkOptions(entry_symbol="caller")).executable
        seq = []
        for exe in (exe_a, exe_b):
            trace = generate_trace(exe, max_blocks=100, seed=3)
            mapping = {b.addr: (b.func, b.bb_id) for b in exe.exec_blocks}
            seq.append([mapping[a] for a in trace.block_addrs])
        assert seq[0] == seq[1]


class TestPlanner:
    def _dcfg(self):
        fd = FunctionDCFG(name="caller")
        fd.block_counts = {0: 100.0, 1: 100.0}
        fd.edges = {(0, 1): 100.0}
        return {"caller": fd}

    def test_hot_call_gets_directive(self):
        edges = {("caller", 1, "callee", 0): 100.0}
        plan = plan_prefetches(self._dcfg(), edges)
        assert "caller" in plan
        bb, symbol = plan["caller"][0]
        assert symbol == "callee"
        # Hoisted to the hot predecessor of the calling block.
        assert bb == 0

    def test_cold_call_skipped(self):
        edges = {("caller", 1, "callee", 0): 2.0}
        assert plan_prefetches(self._dcfg(), edges, min_count=16.0) == {}

    def test_cap_per_function(self):
        edges = {("caller", 1, f"c{i}", 0): 100.0 - i for i in range(10)}
        plan = plan_prefetches(self._dcfg(), edges, max_per_function=3)
        assert len(plan["caller"]) == 3

    def test_empty(self):
        assert plan_prefetches({}, {}) == {}


class TestEndToEnd:
    @pytest.mark.slow
    @pytest.mark.integration
    def test_pipeline_with_prefetches(self, small_program):
        config = PipelineConfig(
            lbr_branches=120_000, lbr_period=31, pgo_steps=60_000,
            enforce_ram=False, wpa=WPAOptions(insert_prefetches=True),
        )
        result = PropellerPipeline(small_program, config).run()
        assert result.wpa_result.prefetches
        prefetching_blocks = [
            b for b in result.optimized.executable.exec_blocks if b.prefetch_targets
        ]
        assert prefetching_blocks
        # Prefetch targets are real function entries.
        entries = {s.addr for s in result.optimized.executable.function_symbols()}
        for block in prefetching_blocks:
            for target in block.prefetch_targets:
                assert target in entries

    @pytest.mark.slow
    @pytest.mark.integration
    def test_prefetch_does_not_regress(self, small_program):
        from repro.hwmodel import simulate_frontend
        from repro.hwmodel.frontend import DEFAULT_PARAMS
        from repro.profiles import generate_trace

        base_cfg = PipelineConfig(lbr_branches=120_000, pgo_steps=60_000,
                                  enforce_ram=False)
        pf_cfg = PipelineConfig(lbr_branches=120_000, pgo_steps=60_000,
                                enforce_ram=False,
                                wpa=WPAOptions(insert_prefetches=True))
        params = DEFAULT_PARAMS.scaled(16)
        cycles = {}
        for label, cfg in (("plain", base_cfg), ("prefetch", pf_cfg)):
            result = PropellerPipeline(small_program, cfg).run()
            trace = generate_trace(result.optimized.executable,
                                   max_blocks=150_000, seed=77)
            cycles[label] = simulate_frontend(
                result.optimized.executable, trace, params
            ).cycles
        assert cycles["prefetch"] < 1.02 * cycles["plain"]
