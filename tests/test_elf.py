"""Unit tests for sections, symbols, object files and executables."""

import pytest

from repro.elf import (
    Executable,
    ObjectFile,
    PlacedSection,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolInfo,
    SymbolType,
    Table,
)
from tests.conftest import symbol


def _text_section(name=".text.f", data=b"\x90" * 8, align=16):
    return Section(name=name, kind=SectionKind.TEXT, data=bytearray(data), alignment=align)


class TestSection:
    def test_size_tracks_data(self):
        s = _text_section(data=b"\x90" * 5)
        assert s.size == 5

    def test_data_coerced_to_bytearray(self):
        s = Section(name="x", kind=SectionKind.DATA, data=b"abc")
        assert isinstance(s.data, bytearray)

    def test_non_power_of_two_alignment_rejected(self):
        with pytest.raises(ValueError):
            Section(name="x", kind=SectionKind.TEXT, alignment=3)


class TestObjectFile:
    def test_duplicate_section_rejected(self):
        with pytest.raises(ValueError, match=r"duplicate section '\.text\.f' in a\.o"):
            ObjectFile(name="a.o", sections=[_text_section(), _text_section(),
                                             _text_section(".text.g")])
        # Pickling goes through the same check.
        obj = ObjectFile(name="a.o", sections=[_text_section(), _text_section(".text.g")])
        state = obj.__getstate__()
        state["sections"][1].name = ".text.f"
        with pytest.raises(ValueError, match="duplicate section"):
            ObjectFile.__new__(ObjectFile).__setstate__(state)

    def test_sizes_by_kind(self):
        obj = ObjectFile(name="a.o", sections=[
            _text_section(data=b"\x90" * 10),
            Section(name=".eh_frame", kind=SectionKind.EH_FRAME, data=bytearray(24))])
        assert [s.size for s in obj.sections_of_kind(SectionKind.TEXT)] == [10]
        assert [s.size for s in obj.sections_of_kind(SectionKind.EH_FRAME)] == [24]
        assert obj.total_size == 34

    def test_digest_stable(self):
        def make():
            return ObjectFile(name="a.o", sections=[_text_section()], symbols=[
                Symbol(name="f", section=".text.f", offset=0, size=8,
                       binding=SymbolBinding.GLOBAL, stype=SymbolType.FUNC)])

        assert make().content_digest() == make().content_digest()

    def test_digest_changes_with_data(self):
        a = ObjectFile(name="a.o", sections=[_text_section(data=b"\x90" * 8)])
        b = ObjectFile(name="a.o", sections=[_text_section(data=b"\x90" * 7 + b"\xc3")])
        assert a.content_digest() != b.content_digest()

    def test_digest_changes_with_relocation(self):
        a = ObjectFile(name="a.o", sections=[_text_section()])
        text = _text_section()
        text.relocations = range(1)
        b = ObjectFile(name="a.o", sections=[text],
                       relocations=[Relocation(offset=1, rtype=RelocType.PC32, symbol="g")])
        assert a.content_digest() != b.content_digest()

    def test_each_section_owns_the_rows_added_with_it(self):
        f, g = _text_section(".text.f"), _text_section(".text.g")
        f.relocations, g.relocations = range(0, 1), range(1, 3)
        obj = ObjectFile(name="a.o", sections=[f, g], relocations=[
            Relocation(1, RelocType.PC32, "g"), Relocation(2, RelocType.PC32, "f"),
            Relocation(3, RelocType.PC32, "f")])
        assert (f.relocations, g.relocations, g.blocks) == (range(0, 1), range(1, 3), range(0))
        assert [r.offset for r in obj.relocations[g.relocations]] == [2, 3]

    def test_rows_of_no_section_or_out_of_order_are_rejected(self):
        with pytest.raises(ValueError, match="relocations rows .* do not tile its 1"):
            ObjectFile(name="a.o", sections=[_text_section()],
                       relocations=[Relocation(1, RelocType.PC32, "g")])
        with pytest.raises(ValueError, match="do not tile"):
            ObjectFile(name="a.o", sections=[
                Section(".text.f", SectionKind.TEXT, relocations=range(1, 2)),
                Section(".text.g", SectionKind.TEXT, relocations=range(0, 1))],
                relocations=[Relocation(1, RelocType.PC32, "g")] * 2)

    def test_digest_changes_with_symbol(self):
        a = ObjectFile(name="a.o", sections=[_text_section()])
        b = ObjectFile(name="a.o", sections=[_text_section()],
                       symbols=[Symbol(name="f", section=".text.f", offset=0)])
        assert a.content_digest() != b.content_digest()


def _exe_with_sections():
    sections = [
        PlacedSection(name=".text.a", kind=SectionKind.TEXT, vaddr=0x400000, size=32),
        PlacedSection(name=".text.b", kind=SectionKind.TEXT, vaddr=0x400040, size=16),
        PlacedSection(name=".eh_frame", kind=SectionKind.EH_FRAME, vaddr=0x500000, size=24),
        PlacedSection(name=".llvm_bb_addr_map.a", kind=SectionKind.BB_ADDR_MAP,
                      vaddr=0x501000, size=10),
    ]
    symbols = [
        SymbolInfo(name="a", addr=0x400000, size=32, stype=SymbolType.FUNC),
        SymbolInfo(name="b", addr=0x400040, size=16, stype=SymbolType.FUNC),
        SymbolInfo(name="datum", addr=0x500000, size=8, stype=SymbolType.OBJECT),
    ]
    return Executable(name="t", entry=0x400000, sections=sections,
                      data=b"\x90" * 48 + b"\x00" * 24 + b"\x01" * 10, symbols=symbols)


class TestExecutable:
    def test_text_image_fills_gaps_with_traps(self):
        exe = _exe_with_sections()
        base, image = exe.text_image()
        assert base == 0x400000
        assert len(image) == 0x50
        assert image[0x20:0x40] == b"\xcc" * 32  # alignment gap

    def test_section_sizes_breakdown(self):
        exe = _exe_with_sections()
        sizes = exe.section_sizes()
        assert sizes["text"] == 48
        assert sizes["eh_frame"] == 24
        assert sizes["bb_addr_map"] == 10
        assert sizes["other"] > 0  # symtab model

    def test_function_symbols_sorted(self):
        exe = _exe_with_sections()
        funcs = exe.function_symbols()
        assert [f.name for f in funcs] == ["a", "b"]

    def test_section_bytes_by_kind(self):
        exe = _exe_with_sections()
        assert exe.section_bytes(SectionKind.BB_ADDR_MAP) == b"\x01" * 10

    def test_total_size_counts_symtab(self):
        exe = _exe_with_sections()
        assert exe.total_size > 48 + 24 + 10

    def test_tables_share_one_pool(self):
        exe = _exe_with_sections()
        assert all(type(t) is Table and t.strings is exe.strings for t in (
            exe.sections, exe.symbols, exe.exec_blocks, exe.retained_relocations))

    def test_symbol_lookup_by_name(self):
        exe = _exe_with_sections()
        assert symbol(exe, "datum") == SymbolInfo(name="datum", addr=0x500000, size=8,
                                                  stype=SymbolType.OBJECT)
        assert symbol(exe, "missing") is None

    def test_section_bytes_are_one_buffer_in_row_order(self):
        exe = _exe_with_sections()
        assert exe.sections_at([1])[1] == b"\x90" * 16
        assert exe.sections_at([2])[1] == b"\x00" * 24
        sections, data = exe.sections_at([3, 0])
        assert [s.name for s in sections] == [".llvm_bb_addr_map.a", ".text.a"]
        assert data == b"\x01" * 10 + b"\x90" * 32

    def test_data_must_cover_the_sections(self):
        with pytest.raises(ValueError, match="81 bytes of data for sections of 82"):
            Executable(name="t", entry=0, sections=list(_exe_with_sections().sections),
                       data=b"\x00" * 81)


class TestExecutableDigest:
    """``content_digest()`` serialises an executable byte for byte as the
    executable of per-section objects did: these literals were computed
    before its sections, symbols and retained relocations became tables."""

    def test_hand_built_executable(self):
        assert _exe_with_sections().content_digest() == (
            "9b2f77601962f5c5d20f6e5f980f8614cead6af83241c0dc181418c7cfebaa61")

    def test_link_with_retained_relocations_and_features(self):
        from repro.codegen import CodeGenOptions, compile_module
        from repro.linker import LinkOptions, link
        from tests.test_runtime import _golden_module

        obj = compile_module(_golden_module(), CodeGenOptions(bb_addr_map=True)).obj
        exe = link([obj], LinkOptions(entry_symbol="f", emit_relocs=True,
                                      features=frozenset({"rseq"}))).executable
        assert len(exe.retained_relocations) == 4
        assert exe.content_digest() == (
            "7108d9fc75b2e0ba56ed3c8c9493a2a2d6bbc0499de63b55251b873d5a1b9ec5")
