"""Unit tests for WorkSection: offset remap and section materialisation
(the relaxation substrate)."""

import pickle
from dataclasses import replace

import pytest

from repro.elf import (
    BlockMeta,
    BranchFixup,
    ObjectFile,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    TerminatorKind,
    TerminatorMeta,
)
from repro.isa import Opcode
from repro.linker import LinkError, LinkOptions, link
from repro.linker.worksection import WorkSection
from tests.test_relaxation_oracle import fallthrough_object


def _section():
    """21 bytes: bb0 [0,11) ends in a jcc at 5, bb1 [11,21) in a jmp at 16."""
    section = Section(name=".text.f", kind=SectionKind.TEXT, data=bytearray(range(21)))
    section.relocations += [Relocation(offset=7, rtype=RelocType.PC32, symbol="y"),
                            Relocation(offset=17, rtype=RelocType.PC32, symbol="x")]
    section.branch_fixups += [
        BranchFixup(offset=5, opcode=Opcode.JCC_LONG, symbol="y"),
        BranchFixup(offset=16, opcode=Opcode.JMP_LONG, symbol="x", deletable=True),
    ]
    section.blocks.append(BlockMeta(
        bb_id=0, func="f", offset=0, size=11,
        term=TerminatorMeta(kind=TerminatorKind.CONDBR, cond_target="y",
                            cond_br_offset=5, cond_br_size=6),
    ))
    section.blocks.append(BlockMeta(
        bb_id=1, func="f", offset=11, size=10,
        term=TerminatorMeta(kind=TerminatorKind.JUMP, uncond_target="x",
                            uncond_br_offset=16, uncond_br_size=5),
    ))
    return section


def _rewrite(ws, i, opcode):
    """``ws.rewrite`` plus what the relaxation sweep does with the result:
    ``prefix[k]`` is the bytes saved by fixups ``0..k-1``."""
    saved = ws.rewrite(i, opcode)
    for k in range(i + 1, len(ws.prefix)):
        ws.prefix[k] += saved
    return saved


def _span(ws, block):
    start = ws.remap(block.offset)
    return start, ws.remap(block.offset + block.size) - start


class TestSplice:
    """What re-encoding a branch does to every other offset in its section."""

    def test_inputs_not_mutated(self):
        section = _section()
        before = pickle.dumps(section)
        ws = WorkSection(section, origin="o")
        _rewrite(ws, 0, Opcode.JCC_SHORT)
        _rewrite(ws, 1, None)
        assert len(ws.materialize()) == ws.size == 12
        ws.relocations()
        assert pickle.dumps(section) == before

    def test_delete_shifts_following_records(self):
        section = _section()
        ws = WorkSection(section, origin="t.o")
        assert _rewrite(ws, 1, None) == 5
        assert ws.size == 16
        assert bytes(ws.materialize()) == bytes(range(16))
        # The relocation inside the deleted jump is dropped, the other kept.
        assert ws.relocations() == [(7, section.relocations[0])]
        # The containing block shrank; the earlier block is untouched.
        assert _span(ws, section.blocks[0]) == (0, 11)
        assert _span(ws, section.blocks[1]) == (11, 5)
        # The start of the deleted instruction stays put (the terminator
        # that names it is rewritten by its owner); its end moves.
        assert ws.remap(16) == 16
        assert ws.remap(21) == 16

    def test_delete_in_first_block_shifts_second(self):
        section = _section()
        ws = WorkSection(section, origin="t.o")
        _rewrite(ws, 0, None)
        assert _span(ws, section.blocks[0]) == (0, 5)
        assert _span(ws, section.blocks[1]) == (5, 10)
        assert ws.remap(section.blocks[1].term.uncond_br_offset) == 10
        assert ws.relocations() == [(11, section.relocations[1])]
        assert ws.remap(section.branch_fixups[1].offset) == 10
        assert ws.remap(11) == 5  # the .Lf.__bb1 label

    def test_replace_keeps_total_accounting(self):
        section = _section()
        ws = WorkSection(section, origin="t.o")
        assert _rewrite(ws, 1, Opcode.JMP_SHORT) == 3
        assert ws.size == 18
        assert _span(ws, section.blocks[1]) == (11, 7)
        assert bytes(ws.materialize()[16:18]) == b"\xeb\x00"
        # PC32 on the old displacement dropped, PC8 added on the new byte.
        assert ws.relocations() == [
            (7, section.relocations[0]),
            (17, Relocation(offset=17, rtype=RelocType.PC8, symbol="x")),
        ]

    def test_out_of_bounds_rejected(self):
        section = _section()
        # A table hands out a fresh record each time: edit it, assign it back.
        section.branch_fixups[1] = replace(
            section.branch_fixups[1], offset=18)  # a 5-byte jump, 3 bytes from the end
        with pytest.raises(LinkError, match=r"t\.o: section \.text\.f: .*past the section end"):
            WorkSection(section, origin="t.o")


class TestRemap:
    def test_identity_until_something_is_rewritten(self):
        ws = WorkSection(_section(), origin="o")
        assert [ws.remap(p) for p in (0, 5, 16, 21)] == [0, 5, 16, 21]
        assert ws.relocations() == [(r.offset, r) for r in ws.section.relocations]
        assert bytes(ws.materialize()) == bytes(range(21))

    def test_before_stays_after_shifts(self):
        ws = WorkSection(_section(), origin="o")
        _rewrite(ws, 0, Opcode.JCC_SHORT)  # 6 -> 2 bytes at offset 5
        assert [ws.remap(p) for p in (0, 4, 5)] == [0, 4, 5]
        assert [ws.remap(p) for p in (11, 16, 21)] == [7, 12, 17]

    def test_negative_offsets_pass_through(self):
        ws = WorkSection(_section(), origin="o")
        _rewrite(ws, 0, None)
        assert ws.remap(-1) == -1

    def test_pc8_relocations_follow_shrink_order_and_skip_deleted(self):
        ws = WorkSection(_section(), origin="o")
        _rewrite(ws, 1, Opcode.JMP_SHORT)
        _rewrite(ws, 0, Opcode.JCC_SHORT)
        assert [(at, r.symbol) for at, r in ws.relocations()] == [(13, "x"), (6, "y")]
        _rewrite(ws, 1, None)  # short, then adjacent and deleted
        assert [(at, r.symbol) for at, r in ws.relocations()] == [(6, "y")]
        assert ws.size == 21 - 4 - 5


class TestFixupOrder:
    """Relaxation sweeps fixups in offset order; the order is checked, not assumed."""

    @pytest.mark.parametrize("offsets", [(16, 5), (5, 5), (5, 8)],
                             ids=["unsorted", "duplicate", "overlapping"])
    def test_bad_order_is_a_link_error(self, offsets):
        section = _section()
        section.branch_fixups[:] = [replace(fixup, offset=offset)
                                    for fixup, offset in zip(section.branch_fixups, offsets)]
        with pytest.raises(LinkError, match=r"bad\.o: section \.text\.f: branch fixup at offset"):
            WorkSection(section, origin="bad.o")
        obj = ObjectFile(name="bad.o", sections=[section])
        with pytest.raises(LinkError, match=r"bad\.o: section \.text\.f"):
            link([obj], LinkOptions(entry_symbol="f"))


class TestTerminators:
    def test_deleted_jump_turns_its_block_into_a_fallthrough(self):
        exe = link([fallthrough_object()], LinkOptions(entry_symbol="f")).executable
        bb1, bb2 = [b for b in exe.exec_blocks if b.func == "f"][1:]
        assert (bb1.term.kind, bb1.term.cond_br_size) == ("condbr", 2)
        assert bb1.term.cond_target == exe.symbols["g"].addr
        term = bb2.term
        assert term.kind == "fallthrough"
        assert (term.uncond_target, term.uncond_br_addr, term.uncond_br_size) == (None, -1, 0)
