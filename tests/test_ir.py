"""Unit tests for the IR: nodes, CFG utilities, verifier, digests."""

import pytest

from repro.ir import (
    BasicBlock,
    Call,
    CondBr,
    Function,
    Instr,
    IRVerificationError,
    Jump,
    Module,
    OpKind,
    Program,
    Ret,
    Switch,
    Unreachable,
    predecessor_map,
    reachable_blocks,
    successor_edges,
    verify_function,
    verify_program,
)
from repro.ir.digest import module_digests


def _simple_function(name="f"):
    blocks = [
        BasicBlock(bb_id=0, instrs=[Instr(OpKind.ALU8)], term=CondBr(taken=2, fallthrough=1, prob=0.1)),
        BasicBlock(bb_id=1, instrs=[Instr(OpKind.LOAD)], term=Jump(2)),
        BasicBlock(bb_id=2, instrs=[Instr(OpKind.MOV)], term=Ret()),
    ]
    return Function(name=name, blocks=blocks)


class TestNodes:
    def test_entry_is_first_block(self):
        fn = _simple_function()
        assert fn.entry.bb_id == 0

    def test_block_lookup(self):
        fn = _simple_function()
        assert fn.block(1).term == Jump(2)
        assert fn.has_block(2)
        assert not fn.has_block(9)

    def test_module_function_registry(self):
        mod = Module(name="m", functions=[_simple_function()])
        assert mod.function("f").name == "f"
        with pytest.raises(ValueError):
            mod.add_function(_simple_function())

    def test_program_cross_module_registry(self):
        prog = Program(name="p", modules=[Module(name="m", functions=[_simple_function()])],
                       entry_function="f")
        assert prog.has_function("f")
        assert prog.module_of("f").name == "m"
        assert prog.num_functions == 1
        assert prog.num_blocks == 3

    def test_program_rejects_duplicate_function_across_modules(self):
        with pytest.raises(ValueError):
            Program(name="p", modules=[
                Module(name="a", functions=[_simple_function()]),
                Module(name="b", functions=[_simple_function()]),
            ])

    def test_call_is_indirect(self):
        assert Call(callee=None).is_indirect
        assert not Call(callee="g").is_indirect


class TestCFG:
    def test_condbr_successors(self):
        fn = _simple_function()
        edges = successor_edges(fn.block(0))
        assert (2, pytest.approx(0.1)) in [(b, p) for b, p in edges]
        assert (1, pytest.approx(0.9)) in [(b, p) for b, p in edges]

    def test_switch_successors(self):
        block = BasicBlock(bb_id=0, term=Switch(targets=(1, 2), probs=(0.3, 0.7)))
        assert successor_edges(block) == [(1, 0.3), (2, 0.7)]

    def test_ret_has_no_successors(self):
        assert successor_edges(BasicBlock(bb_id=0, term=Ret())) == []
        assert successor_edges(BasicBlock(bb_id=0, term=Unreachable())) == []

    def test_predecessor_map(self):
        fn = _simple_function()
        preds = predecessor_map(fn)
        assert sorted(preds[2]) == [0, 1]
        assert preds[0] == []

    def test_reachable_blocks(self):
        fn = _simple_function()
        assert reachable_blocks(fn) == {0, 1, 2}

    def test_unreachable_block_detected(self):
        fn = Function(name="g", blocks=[
            BasicBlock(bb_id=0, term=Ret()),
            BasicBlock(bb_id=1, term=Ret()),
        ])
        assert reachable_blocks(fn) == {0}

    def test_landing_pad_counts_as_reachable(self):
        fn = Function(name="h", blocks=[
            BasicBlock(bb_id=0, instrs=[Call(callee="x", landing_pad=1)], term=Ret()),
            BasicBlock(bb_id=1, is_landing_pad=True, term=Ret()),
        ])
        assert reachable_blocks(fn) == {0, 1}


class TestVerifier:
    def test_valid_function_passes(self):
        verify_function(_simple_function())

    def test_empty_function_rejected(self):
        with pytest.raises(IRVerificationError, match="no blocks"):
            verify_function(Function(name="e", blocks=[]))

    def test_missing_target_rejected(self):
        fn = Function(name="f", blocks=[BasicBlock(bb_id=0, term=Jump(5))])
        with pytest.raises(IRVerificationError, match="missing"):
            verify_function(fn)

    def test_identical_condbr_arms_rejected(self):
        fn = Function(name="f", blocks=[
            BasicBlock(bb_id=0, term=CondBr(taken=1, fallthrough=1, prob=0.5)),
            BasicBlock(bb_id=1, term=Ret()),
        ])
        with pytest.raises(IRVerificationError, match="identical"):
            verify_function(fn)

    def test_switch_probs_must_sum_to_one(self):
        fn = Function(name="f", blocks=[
            BasicBlock(bb_id=0, term=Switch(targets=(1, 2), probs=(0.5, 0.4))),
            BasicBlock(bb_id=1, term=Ret()),
            BasicBlock(bb_id=2, term=Ret()),
        ])
        with pytest.raises(IRVerificationError, match="sum"):
            verify_function(fn)

    def test_landing_pad_must_be_marked(self):
        fn = Function(name="f", blocks=[
            BasicBlock(bb_id=0, instrs=[Call(callee="g", landing_pad=1)], term=Ret()),
            BasicBlock(bb_id=1, term=Ret()),  # not marked as landing pad
        ])
        with pytest.raises(IRVerificationError, match="landing pad"):
            verify_function(fn)

    def test_program_level_undefined_callee(self):
        fn = Function(name="f", blocks=[
            BasicBlock(bb_id=0, instrs=[Call(callee="nothere")], term=Ret()),
        ])
        prog = Program(name="p", modules=[Module(name="m", functions=[fn])], entry_function="f")
        with pytest.raises(IRVerificationError, match="undefined"):
            verify_program(prog)

    def test_program_entry_must_exist(self):
        prog = Program(name="p", modules=[Module(name="m", functions=[_simple_function()])],
                       entry_function="main")
        with pytest.raises(IRVerificationError, match="entry"):
            verify_program(prog)


class TestDigest:
    def test_digest_deterministic(self):
        m1 = Module(name="m", functions=[_simple_function()])
        m2 = Module(name="m", functions=[_simple_function()])
        assert module_digests(m1)[0] == module_digests(m2)[0]

    def test_digest_sensitive_to_probability(self):
        fa = _simple_function()
        fb = _simple_function()
        fb.blocks[0].term = CondBr(taken=2, fallthrough=1, prob=0.11)
        assert module_digests(Module(name="m", functions=[fa]))[0] != module_digests(
            Module(name="m", functions=[fb]))[0]

    def test_digest_sensitive_to_instr_kind(self):
        fa = _simple_function()
        fb = _simple_function()
        fb.blocks[0].instrs[0] = Instr(OpKind.ALU32)
        assert module_digests(Module(name="m", functions=[fa]))[0] != module_digests(
            Module(name="m", functions=[fb]))[0]

    def test_digest_sensitive_to_hand_written_flag(self):
        fa = _simple_function()
        fb = _simple_function()
        fb.hand_written = True
        assert module_digests(Module(name="m", functions=[fa]))[0] != module_digests(
            Module(name="m", functions=[fb]))[0]
