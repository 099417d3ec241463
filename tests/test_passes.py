"""Tests for IR transformation passes (cloning, DCE, inlining)."""

import pytest

from repro import ir
from repro.ir import verify_function, verify_program
from repro.ir.digest import module_digests
from repro.ir.passes import (
    MAX_GROWTH_BLOCKS,
    InlineReport,
    clone_function,
    clone_program,
    eliminate_unreachable_blocks,
    inline_hot_calls,
)
from repro.profiles import IRProfile


def _callee(name="leaf", blocks=2):
    bl = []
    for i in range(blocks - 1):
        bl.append(ir.BasicBlock(bb_id=i, instrs=[ir.Instr(ir.OpKind.ALU8)],
                                term=ir.Jump(i + 1)))
    bl.append(ir.BasicBlock(bb_id=blocks - 1, instrs=[ir.Instr(ir.OpKind.MOV)],
                            term=ir.Ret()))
    return ir.Function(name=name, blocks=bl)


def _caller(callee="leaf"):
    return ir.Function(name="top", blocks=[
        ir.BasicBlock(
            bb_id=0,
            instrs=[ir.Instr(ir.OpKind.LOAD), ir.Call(callee=callee),
                    ir.Instr(ir.OpKind.STORE)],
            term=ir.CondBr(taken=2, fallthrough=1, prob=0.3),
        ),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.ALU8)], term=ir.Ret()),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.ALU8)], term=ir.Ret()),
    ])


def _program(caller, callee):
    return ir.Program(
        name="p",
        modules=[ir.Module(name="m0", functions=[caller]),
                 ir.Module(name="m1", functions=[callee])],
        entry_function="top",
    )


def _profile(counts):
    profile = IRProfile()
    profile.call_counts.update(counts)
    return profile


class TestClone:
    def test_clone_is_deep(self):
        fn = _caller()
        copy = clone_function(fn)
        copy.blocks[0].instrs.append(ir.Instr(ir.OpKind.NOP))
        assert len(fn.blocks[0].instrs) == 3

    def test_clone_program_preserves_digests(self):
        program = _program(_caller(), _callee())
        copy = clone_program(program)
        for a, b in zip(program.modules, copy.modules):
            assert module_digests(a)[0] == module_digests(b)[0]

    def test_clone_keeps_features_and_entry(self):
        program = ir.Program(name="p", modules=[ir.Module(name="m", functions=[_callee("main")])],
                             entry_function="main", features=frozenset({"rseq"}))
        copy = clone_program(program)
        assert copy.features == frozenset({"rseq"})
        assert copy.entry_function == "main"


class TestDCE:
    def test_removes_unreachable(self):
        fn = ir.Function(name="f", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.Ret()),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),  # unreachable
        ])
        assert eliminate_unreachable_blocks(fn) == 1
        assert fn.num_blocks == 1
        verify_function(fn)

    def test_keeps_reachable(self):
        fn = _caller()
        assert eliminate_unreachable_blocks(fn) == 0
        assert fn.num_blocks == 3


class TestInlining:
    def test_simple_inline(self):
        program = _program(_caller(), _callee())
        report = inline_hot_calls(program, _profile({"leaf": 100.0}))
        assert report.sites_inlined == 1
        caller = program.function("top")
        verify_program(program)
        # The call disappeared from the caller.
        assert not any(
            isinstance(i, ir.Call) and i.callee == "leaf"
            for b in caller.blocks for i in b.instrs
        )
        # Callee body (2 blocks) + continuation were added.
        assert caller.num_blocks == 3 + 2 + 1

    def test_continuation_keeps_terminator_and_suffix(self):
        program = _program(_caller(), _callee())
        inline_hot_calls(program, _profile({"leaf": 100.0}))
        caller = program.function("top")
        cont = max(caller.blocks, key=lambda b: b.bb_id)
        assert isinstance(cont.term, ir.CondBr)
        assert any(isinstance(i, ir.Instr) and i.kind == ir.OpKind.STORE
                   for i in cont.instrs)

    def test_cold_call_not_inlined(self):
        program = _program(_caller(), _callee())
        report = inline_hot_calls(program, _profile({"leaf": 1.0}))
        assert report.sites_inlined == 0

    def test_large_callee_not_inlined(self):
        program = _program(_caller(), _callee(blocks=20))
        report = inline_hot_calls(program, _profile({"leaf": 100.0}))
        assert report.sites_inlined == 0

    def test_hand_written_callee_not_inlined(self):
        callee = _callee()
        callee.hand_written = True
        report = inline_hot_calls(_program(_caller(), callee), _profile({"leaf": 100.0}))
        assert report.sites_inlined == 0

    def test_indirect_calls_untouched(self):
        caller = ir.Function(name="top", blocks=[
            ir.BasicBlock(bb_id=0,
                          instrs=[ir.Call(callee=None, indirect_targets=(("leaf", 1.0),))],
                          term=ir.Ret()),
        ])
        program = _program(caller, _callee())
        report = inline_hot_calls(program, _profile({"leaf": 100.0}))
        assert report.sites_inlined == 0

    def test_nested_callee_calls_survive(self):
        inner = _callee("inner")
        mid = ir.Function(name="mid", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="inner")], term=ir.Ret()),
        ])
        caller = _caller(callee="mid")
        program = ir.Program(name="p", modules=[
            ir.Module(name="m0", functions=[caller]),
            ir.Module(name="m1", functions=[mid, inner]),
        ], entry_function="top")
        # Only mid is hot enough to inline.
        report = inline_hot_calls(program, _profile({"mid": 100.0, "inner": 0.0}))
        assert report.sites_inlined >= 1
        verify_program(program)
        top = program.function("top")
        assert any(
            isinstance(i, ir.Call) and i.callee == "inner"
            for b in top.blocks for i in b.instrs
        )

    def test_growth_bounded(self):
        # A caller with more call sites to the same hot callee than the
        # growth cap can absorb: each inline adds the callee's 2 blocks
        # plus a continuation.
        sites = MAX_GROWTH_BLOCKS // 3 + 30
        blocks = [
            ir.BasicBlock(bb_id=i, instrs=[ir.Call(callee="leaf")], term=ir.Jump(i + 1))
            for i in range(sites)
        ]
        blocks.append(ir.BasicBlock(bb_id=sites, term=ir.Ret()))
        caller = ir.Function(name="top", blocks=blocks)
        program = _program(caller, _callee())
        report = inline_hot_calls(program, _profile({"leaf": 100.0}))
        top = program.function("top")
        assert report.sites_inlined < sites
        assert top.num_blocks <= sites + 1 + MAX_GROWTH_BLOCKS + 3
        verify_program(program)

    def test_semantics_preserved_in_trace(self):
        """The inlined program executes the same computation."""
        from repro.codegen import CodeGenOptions, compile_program
        from repro.linker import LinkOptions, link
        from repro.profiles import generate_trace

        program = _program(_caller(), _callee())
        inlined = clone_program(program)
        inline_hot_calls(inlined, _profile({"leaf": 100.0}))
        traces = {}
        for label, prog in (("orig", program), ("inlined", inlined)):
            objs = compile_program(prog, CodeGenOptions())
            exe = link([c.obj for c in objs], LinkOptions(entry_symbol="top")).executable
            traces[label] = generate_trace(exe, max_blocks=50, seed=1)
        # Same work budget executes without faults in both.
        assert traces["orig"].num_blocks_executed == 50
        assert traces["inlined"].num_blocks_executed == 50


class TestPipelineIntegration:
    @pytest.mark.slow
    def test_inline_hot_flag(self, tiny_program):
        from repro.core.pipeline import PipelineConfig, PropellerPipeline

        config = PipelineConfig(lbr_branches=40_000, pgo_steps=30_000,
                                enforce_ram=False, inline_hot=True)
        pipe = PropellerPipeline(tiny_program, config)
        result = pipe.run()
        # The pipeline's program was replaced by the transformed copy.
        assert result.program is not tiny_program
        assert result.program.num_blocks >= tiny_program.num_blocks
        assert result.optimized.executable.text_size > 0
