"""Unit tests for LinkState: offset remap, section materialisation and
offset checks (the relaxation substrate)."""

import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.elf import (
    BlockMeta,
    BranchFixup,
    ObjectFile,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolType,
    TerminatorKind,
    TerminatorMeta,
)
from repro.isa import OPCODE_SIZES, Opcode, short_form
from repro.linker import LinkError, LinkOptions, link
from repro.linker.state import LinkState
from tests.conftest import section_named, symbol
from tests.test_relaxation_oracle import fallthrough_object


_RELOCATIONS = (Relocation(offset=7, rtype=RelocType.PC32, symbol="y"),
                Relocation(offset=17, rtype=RelocType.PC32, symbol="x"))
_FIXUPS = (BranchFixup(offset=5, opcode=Opcode.JCC_LONG, symbol="y"),
           BranchFixup(offset=16, opcode=Opcode.JMP_LONG, symbol="x", deletable=True))


def _object(relocations=_RELOCATIONS, fixups=_FIXUPS, origin="o"):
    """One 21-byte ``.text.f``: bb0 [0,11) ends in a jcc at 5, bb1 [11,21)
    in a jmp at 16."""
    blocks = [
        BlockMeta(bb_id=0, func="f", offset=0, size=11,
                  term=TerminatorMeta(kind=TerminatorKind.CONDBR, cond_target="y",
                                      cond_br_offset=5, cond_br_size=6)),
        BlockMeta(bb_id=1, func="f", offset=11, size=10,
                  term=TerminatorMeta(kind=TerminatorKind.JUMP, uncond_target="x",
                                      uncond_br_offset=16, uncond_br_size=5)),
    ]
    text = Section(name=".text.f", kind=SectionKind.TEXT, data=bytearray(range(21)),
                   relocations=range(len(relocations)), blocks=range(len(blocks)),
                   fixups=range(len(fixups)))
    return ObjectFile(name=origin, sections=[text], relocations=relocations, blocks=blocks,
                      fixups=fixups)


def _rewrite(state, f, opcode, s=0):
    """``state.rewrite`` plus what the relaxation sweep does with the
    result: ``saved[k + s]`` is the bytes saved by fixups ``first..k-1``."""
    saved = state.rewrite(s, f, opcode)
    for k in range(f + 1, state.end[s] + 1):
        state.saved[k + s] += saved
    return saved


def _pending(state):
    """Everything still to apply in section 0, as ``(current offset,
    relocation)`` in application order."""
    state.settle()
    _, at, k = state.pending([0])
    return [(a, state.relocations[i] if i >= 0 else
             Relocation(offset=a, rtype=RelocType.PC8, symbol=state.target[~i]))
            for a, i in zip(at.tolist(), k.tolist())]


def _span(state, block):
    start = state.remap(0, block.offset)
    return start, state.remap(0, block.offset + block.size) - start


class TestSplice:
    """What re-encoding a branch does to every other offset in its section."""

    def test_inputs_not_mutated(self):
        obj = _object()
        before = pickle.dumps(obj)
        state = LinkState([obj])
        _rewrite(state, 0, Opcode.JCC_SHORT)
        _rewrite(state, 1, None)
        assert len(state.image([0])) == state.size[0] == 12
        _pending(state)
        assert pickle.dumps(obj) == before

    def test_delete_shifts_following_records(self):
        obj = _object()
        state = LinkState([obj])
        assert _rewrite(state, 1, None) == 5
        assert state.size[0] == 16
        assert bytes(state.image([0])) == bytes(range(16))
        # The containing block shrank; the earlier block is untouched.
        assert _span(state, obj.blocks[0]) == (0, 11)
        assert _span(state, obj.blocks[1]) == (11, 5)
        # The start of the deleted instruction stays put (the terminator
        # that names it is rewritten by its owner); its end moves.
        assert state.remap(0, 16) == 16
        assert state.remap(0, 21) == 16
        # The relocation inside the deleted jump is dropped, the other kept.
        assert _pending(state) == [(7, obj.relocations[0])]

    def test_delete_in_first_block_shifts_second(self):
        obj = _object()
        state = LinkState([obj])
        _rewrite(state, 0, None)
        assert _span(state, obj.blocks[0]) == (0, 5)
        assert _span(state, obj.blocks[1]) == (5, 10)
        assert state.remap(0, obj.blocks[1].term.uncond_br_offset) == 10
        assert state.remap(0, obj.fixups[1].offset) == 10
        assert state.remap(0, 11) == 5  # the .Lf.__bb1 label
        assert _pending(state) == [(11, obj.relocations[1])]

    def test_replace_keeps_total_accounting(self):
        obj = _object()
        state = LinkState([obj])
        assert _rewrite(state, 1, Opcode.JMP_SHORT) == 3
        assert state.size[0] == 18
        assert _span(state, obj.blocks[1]) == (11, 7)
        assert bytes(state.image([0])[16:18]) == b"\xeb\x00"
        # PC32 on the old displacement dropped, PC8 added on the new byte.
        assert _pending(state) == [
            (7, obj.relocations[0]),
            (17, Relocation(offset=17, rtype=RelocType.PC8, symbol="x")),
        ]

    def test_out_of_bounds_rejected(self):
        # A 5-byte jump 3 bytes from the end.
        obj = _object(fixups=(_FIXUPS[0], replace(_FIXUPS[1], offset=18)), origin="t.o")
        with pytest.raises(LinkError, match=r"t\.o: section \.text\.f: .*past the section end"):
            LinkState([obj])


class TestRemap:
    def test_identity_until_something_is_rewritten(self):
        state = LinkState([_object()])
        assert [state.remap(0, p) for p in (0, 5, 16, 21)] == [0, 5, 16, 21]
        assert bytes(state.image([0])) == bytes(range(21))
        assert _pending(state) == [(r.offset, r) for r in state.relocations]

    def test_before_stays_after_shifts(self):
        state = LinkState([_object()])
        _rewrite(state, 0, Opcode.JCC_SHORT)  # 6 -> 2 bytes at offset 5
        assert [state.remap(0, p) for p in (0, 4, 5)] == [0, 4, 5]
        assert [state.remap(0, p) for p in (11, 16, 21)] == [7, 12, 17]

    def test_negative_offsets_pass_through(self):
        state = LinkState([_object()])
        _rewrite(state, 0, None)
        assert state.remap(0, -1) == -1
        state.settle()
        assert state(np.array([0]), np.array([-1])).tolist() == [-1]

    def test_pc8_relocations_follow_shrink_order_and_skip_deleted(self):
        state = LinkState([_object()])
        _rewrite(state, 1, Opcode.JMP_SHORT)
        _rewrite(state, 0, Opcode.JCC_SHORT)
        assert [(at, r.symbol) for at, r in _pending(state)] == [(13, "x"), (6, "y")]
        _rewrite(state, 1, None)  # short, then adjacent and deleted
        assert [(at, r.symbol) for at, r in _pending(state)] == [(6, "y")]
        assert state.size[0] == 21 - 4 - 5


class TestFixupOrder:
    """Relaxation sweeps fixups in offset order; the order is checked, not assumed."""

    @pytest.mark.parametrize("offsets", [(16, 5), (5, 5), (5, 8)],
                             ids=["unsorted", "duplicate", "overlapping"])
    def test_bad_order_is_a_link_error(self, offsets):
        obj = _object(fixups=[replace(fixup, offset=offset)
                              for fixup, offset in zip(_FIXUPS, offsets)], origin="bad.o")
        with pytest.raises(LinkError, match=r"bad\.o: section \.text\.f: branch fixup at offset"):
            LinkState([obj])
        with pytest.raises(LinkError, match=r"bad\.o: section \.text\.f"):
            link([obj], LinkOptions(entry_symbol="f"))


class TestOffsetsInsideTheirSection:
    """A relocation or symbol outside its section is a link error, not a
    patch of a neighbour's bytes or an address past the image."""

    @staticmethod
    def _object(relocation=None, symbol=None):
        """An 8-byte ``.text.f`` followed by an 8-byte ``.text.g``."""
        symbols = [Symbol(name, f".text.{name}", 0, stype=SymbolType.FUNC) for name in "fg"]
        if symbol is not None:
            symbols.append(Symbol("h", ".text.f", symbol))
        relocations = [] if relocation is None else [
            Relocation(offset=relocation, rtype=RelocType.PC32, symbol="g")]
        n = len(relocations)  # all .text.f's
        sections = [Section(name=".text.f", kind=SectionKind.TEXT, data=bytearray(8),
                            relocations=range(0, n)),
                    Section(name=".text.g", kind=SectionKind.TEXT, data=bytearray(8),
                            relocations=range(n, n))]
        return ObjectFile(name="t.o", sections=sections, symbols=symbols, relocations=relocations)

    @pytest.mark.parametrize("relocation, symbol, message", [
        (6, None, "relocation at offset 6"),    # two bytes into .text.g
        (8, None, "relocation at offset 8"),    # all four
        (20, None, "relocation at offset 20"),  # past the image
        (-3, None, "relocation at offset -3"),  # the image's last bytes
        (None, -5, "symbol h at offset -5"),    # the remap's "no offset"
        (None, 100, "symbol h at offset 100"),  # past every section
    ], ids=["reloc-straddles-end", "reloc-at-end", "reloc-past-image", "reloc-negative",
            "symbol-negative", "symbol-past-end"])
    def test_outside_is_a_link_error(self, relocation, symbol, message):
        obj = self._object(relocation, symbol)
        with pytest.raises(LinkError, match=rf"^t\.o: section \.text\.f: {message} lies outside"):
            link([obj], LinkOptions(entry_symbol="f"))

    def test_a_symbol_may_sit_at_the_end(self):
        exe = link([self._object(relocation=4, symbol=8)],
                   LinkOptions(entry_symbol="f")).executable
        assert symbol(exe, "h").addr == symbol(exe, "f").addr + 8


class TestBlocksInsideTheirSection:
    """A block outside its section, or a call, branch or end instruction
    outside its block, is a link error naming the object and section --
    with the address map kept or dropped -- never a wrong execution model."""

    @staticmethod
    def _object(path):
        """The golden module's object with column ``path`` of ``.text.f``'s
        last block that sets it pushed past the section's end."""
        from repro.codegen import CodeGenOptions, compile_module
        from tests.test_runtime import _golden_module

        obj = pickle.loads(pickle.dumps(
            compile_module(_golden_module(), CodeGenOptions(bb_addr_map=True)).obj))
        text = section_named(obj, ".text.f")
        column = obj.blocks.col(path)
        if path.startswith("calls."):  # the items of the section's blocks
            offsets = obj.blocks.col("calls")
            rows = range(offsets[text.blocks.start], offsets[text.blocks.stop])
        else:
            rows = text.blocks
        row = max(j for j in rows if column[j] != -1)
        column[row] += len(text.data)
        return obj

    @pytest.mark.parametrize("keep_map", [True, False], ids=["map-kept", "map-dropped"])
    @pytest.mark.parametrize("path, message", [
        ("offset", "block 3 at offset"),
        ("size", "block 3 at offset"),
        ("calls.offset", "call at offset"),
        ("term.cond_br_offset", "branch at offset"),
        ("term.uncond_br_offset", "branch at offset"),
        ("term.end_instr_offset", "end instruction at offset"),
    ], ids=["offset", "size", "call", "cond-branch", "uncond-branch", "end-instr"])
    def test_outside_is_a_link_error(self, path, message, keep_map):
        obj = self._object(path)
        with pytest.raises(LinkError, match=rf"^golden\.o: section \.text\.f: {message} "):
            link([obj], LinkOptions(entry_symbol="f", keep_bb_addr_map=keep_map))

    def test_the_unmutated_object_links(self):
        from repro.codegen import CodeGenOptions, compile_module
        from tests.test_runtime import _golden_module

        obj = compile_module(_golden_module(), CodeGenOptions(bb_addr_map=True)).obj
        assert len(link([obj], LinkOptions(entry_symbol="f")).executable.exec_blocks) == 7


class TestTerminators:
    def test_deleted_jump_turns_its_block_into_a_fallthrough(self):
        exe = link([fallthrough_object()], LinkOptions(entry_symbol="f")).executable
        bb1, bb2 = [b for b in exe.exec_blocks if b.func == "f"][1:]
        assert (bb1.term.kind, bb1.term.cond_br_size) == ("condbr", 2)
        assert bb1.term.cond_target == symbol(exe, "g").addr
        term = bb2.term
        assert term.kind == "fallthrough"
        assert (term.uncond_target, term.uncond_br_addr, term.uncond_br_size) == (None, -1, 0)


class TestPendingRelocations:
    def test_a_relocation_before_the_first_rewritten_fixup_is_kept(self):
        """Only a relocation inside a rewritten branch is dropped: one
        ahead of every fixup of its section stays, at its own offset."""
        state = LinkState([_object(relocations=(
            Relocation(offset=1, rtype=RelocType.PC32, symbol="z"), *_RELOCATIONS))])
        _rewrite(state, 0, Opcode.JCC_SHORT)
        assert [(at, r.symbol) for at, r in _pending(state)] == [
            (1, "z"), (13, "x"), (6, "y")]


@st.composite
def _rewritten_state(draw):
    """Sections with random fixups, then a random sequence of rewrites:
    shrinks, deletions and grow-backs to the input form."""
    sections, fixups = [], []
    for n in range(draw(st.integers(1, 4))):
        first, cursor = len(fixups), 0
        for _ in range(draw(st.integers(0, 5))):
            cursor += draw(st.integers(0, 6))
            opcode = draw(st.sampled_from([Opcode.JMP_LONG, Opcode.JCC_LONG]))
            fixups.append(BranchFixup(offset=cursor, opcode=opcode, symbol="x"))
            cursor += OPCODE_SIZES[opcode]
        size = cursor + draw(st.integers(0, 6))
        sections.append(Section(name=f".text.{n}", kind=SectionKind.TEXT, data=bytearray(size),
                                fixups=range(first, len(fixups))))
    obj = ObjectFile(name="o", sections=sections, fixups=fixups)
    state = LinkState([obj])
    for s, f in draw(st.lists(st.tuples(st.integers(0, len(obj.sections) - 1), st.integers(0, 5)),
                              max_size=12)):
        f += state.first[s]
        if f >= state.end[s] or state.rewritten.get(f, 0) is None:
            continue  # no such fixup, or deleted for good
        opcode = state.opcode[f]
        grow_back = [opcode] if f in state.rewritten else []
        _rewrite(state, f, draw(st.sampled_from([short_form(opcode), None, *grow_back])), s)
    return state


@settings(max_examples=150, deadline=None)
@given(_rewritten_state())
def test_scalar_and_column_remaps_agree(state):
    """``remap(s, p)`` (the sweep's bisect) equals ``state(s, p)`` (the
    column readers' searchsorted) for every offset of every section."""
    sizes = [len(section.data) for section in state.section]
    scalar = [(s, p, state.remap(s, p)) for s, size in enumerate(sizes) for p in range(-1, size + 1)]
    state.settle()
    s, p, expected = (np.array(column, dtype=np.int64) for column in zip(*scalar))
    assert state(s, p).tolist() == expected.tolist()
