"""Tests for DWARF debug-info modelling (§4.3)."""

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.elf import SectionKind
from repro.elf.strip import strip_executable
from repro.linker import LinkOptions, link
from tests.conftest import section_named


def _func(name="f", nblocks=6):
    blocks = []
    for i in range(nblocks - 1):
        blocks.append(ir.BasicBlock(bb_id=i, instrs=[ir.Instr(ir.OpKind.ALU8)] * 3,
                                    term=ir.Jump(i + 1)))
    blocks.append(ir.BasicBlock(bb_id=nblocks - 1, instrs=[ir.Instr(ir.OpKind.MOV)],
                                term=ir.Ret()))
    return ir.Function(name=name, blocks=blocks)


def _module():
    return ir.Module(name="m", functions=[_func()])


class TestDebugInfo:
    def test_emitted_when_enabled(self):
        compiled = compile_module(_module(), CodeGenOptions(debug_info=True))
        section = section_named(compiled.obj, ".debug_info.f")
        assert section is not None
        assert section.kind == SectionKind.DEBUG

    def test_absent_by_default(self):
        compiled = compile_module(_module(), CodeGenOptions())
        assert section_named(compiled.obj, ".debug_info.f") is None

    def test_overhead_grows_with_fragments(self):
        """§4.3: one DW_AT_ranges descriptor per cluster section."""
        whole = compile_module(_module(), CodeGenOptions(debug_info=True))
        split = compile_module(
            _module(),
            CodeGenOptions(
                debug_info=True, bb_sections=BBSectionsMode.LIST,
                clusters={"f": [[0, 1], [2, 3]]},
            ),
        )
        per_block = compile_module(
            _module(), CodeGenOptions(debug_info=True, bb_sections=BBSectionsMode.ALL)
        )
        s0 = section_named(whole.obj, ".debug_info.f").size
        s1 = section_named(split.obj, ".debug_info.f").size
        s2 = section_named(per_block.obj, ".debug_info.f").size
        assert s0 < s1 < s2

    def test_counted_as_other_and_strippable(self):
        compiled = compile_module(_module(), CodeGenOptions(debug_info=True))
        exe = link([compiled.obj], LinkOptions(entry_symbol="f")).executable
        with_debug = exe.total_size
        stripped, saved = strip_executable(exe)
        assert saved > 0
        assert stripped.total_size < with_debug
        assert not stripped.sections_of_kind(SectionKind.DEBUG)
