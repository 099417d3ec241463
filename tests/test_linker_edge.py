"""Edge-case tests for the linker and codegen interplay."""

import pytest

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.elf import SectionKind
from repro.isa import Opcode
from repro.linker import LinkOptions, link


def _switch_module():
    fn = ir.Function(name="sw", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)],
                      term=ir.Switch(targets=(1, 2, 3), probs=(0.5, 0.3, 0.2))),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.MOV)], term=ir.Ret()),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.MOV)], term=ir.Ret()),
        ir.BasicBlock(bb_id=3, instrs=[ir.Instr(ir.OpKind.MOV)], term=ir.Ret()),
    ])
    return ir.Module(name="m", functions=[fn])


class TestJumpTables:
    def test_rodata_entries_hold_block_addresses(self):
        compiled = compile_module(_switch_module(), CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="sw")).executable
        rodata = exe.section_bytes(SectionKind.RODATA)
        block_addrs = {b.addr for b in exe.exec_blocks}
        for i in range(0, len(rodata), 4):
            entry = int.from_bytes(rodata[i : i + 4], "little")
            assert entry in block_addrs

    def test_inline_table_entries_resolve(self):
        module = _switch_module()
        module.functions[0].hand_written = True
        compiled = compile_module(module, CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="sw")).executable
        base, image = exe.text_image()
        head = exe.block_at(exe.entry)
        # The jump table sits right after the IJMP inside the block.
        table_off = head.term.end_instr_addr + head.term.end_instr_size - base
        block_addrs = {b.addr for b in exe.exec_blocks}
        for i in range(3):
            entry = int.from_bytes(image[table_off + 4 * i : table_off + 4 * i + 4], "little")
            assert entry in block_addrs

    def test_ijmp_exec_targets_match_table(self):
        compiled = compile_module(_switch_module(), CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="sw")).executable
        head = exe.block_at(exe.entry)
        assert len(head.term.ijmp_targets) == 3
        assert abs(sum(p for _a, p in head.term.ijmp_targets) - 1.0) < 1e-9


class TestDegenerateShapes:
    def test_single_block_function(self):
        fn = ir.Function(name="one", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.NOP)], term=ir.Ret()),
        ])
        compiled = compile_module(ir.Module(name="m", functions=[fn]), CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="one")).executable
        assert len(exe.exec_blocks) == 1

    def test_self_loop_block(self):
        fn = ir.Function(name="spin", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)],
                          term=ir.CondBr(taken=0, fallthrough=1, prob=0.9)),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
        ])
        compiled = compile_module(ir.Module(name="m", functions=[fn]), CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="spin")).executable
        from repro.profiles import generate_trace

        trace = generate_trace(exe, max_blocks=100, seed=1)
        assert trace.num_blocks_executed == 100

    def test_empty_cluster_list_rejected(self):
        module = _switch_module()
        options = CodeGenOptions(bb_sections=BBSectionsMode.LIST, clusters={"sw": []})
        with pytest.raises(ValueError):
            compile_module(module, options)

    def test_unreachable_terminator(self):
        fn = ir.Function(name="trap", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.NOP)],
                          term=ir.Unreachable()),
        ])
        compiled = compile_module(ir.Module(name="m", functions=[fn]), CodeGenOptions())
        exe = link([compiled.obj], LinkOptions(entry_symbol="trap")).executable
        from repro.profiles import generate_trace

        trace = generate_trace(exe, max_blocks=10, seed=1)
        assert trace.restarts > 0


class TestOrderingInteractions:
    def test_cluster_symbols_orderable(self):
        module = _switch_module()
        options = CodeGenOptions(
            bb_sections=BBSectionsMode.LIST, clusters={"sw": [[0, 2], [1]]}
        )
        compiled = compile_module(module, options)
        exe = link(
            [compiled.obj],
            LinkOptions(entry_symbol="sw", symbol_order=["sw.cold", "sw.1", "sw"]),
        ).executable
        cold = next(s for s in exe.sections if s.name == ".text.sw.cold")
        one = next(s for s in exe.sections if s.name == ".text.sw.1")
        primary = next(s for s in exe.sections if s.name == ".text.sw")
        assert cold.vaddr < one.vaddr < primary.vaddr

    def test_relink_same_objects_twice(self):
        compiled = compile_module(_switch_module(), CodeGenOptions())
        first = link([compiled.obj], LinkOptions(entry_symbol="sw"))
        second = link([compiled.obj], LinkOptions(entry_symbol="sw"))
        # Input objects are not mutated by linking: identical results.
        assert first.executable.text_size == second.executable.text_size
        assert first.stats.shrunk_branches == second.stats.shrunk_branches
