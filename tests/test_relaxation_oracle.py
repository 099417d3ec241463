"""An independent oracle for linker relaxation.

The linker derives every final offset from its own bookkeeping (prefix
sums over rewritten branches); this file re-derives the same facts from
the *output bytes* with :func:`repro.isa.decode_instruction`, which
shares no code with the linker, and requires the two to agree:

* at every block's ``cond_br_addr`` / ``uncond_br_addr`` there is a
  branch of the recorded size whose decoded target is the recorded one;
* the blocks of a text section tile it with no gap and no overlap (but
  for the nop codegen puts in front of a section-leading landing pad);
* every BB address map entry equals its block's ``(offset, size)``.
"""

import random
from bisect import bisect_right
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.elf import (
    BlockMeta,
    BranchFixup,
    ObjectFile,
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolType,
    TerminatorKind,
    TerminatorMeta,
    bbaddrmap,
)
from repro.isa import Opcode, decode_instruction
from repro.linker import LinkError, LinkOptions, link
from tests.conftest import encode_bb_addr_maps, section_named, symbol
from tests.test_isa import encode_instruction
from tests.test_properties import _random_module


def assert_relaxation_consistent(exe):
    """Check ``exe``'s execution model against its bytes (see module docstring)."""
    texts = sorted((s for s in exe.sections_of_kind(SectionKind.TEXT) if s.size),
                   key=lambda s: s.vaddr)
    data = {s.name: exe.sections_at([i])[1] for i, s in enumerate(exe.sections)}
    starts = [s.vaddr for s in texts]
    for before, after in zip(texts, texts[1:]):
        assert before.end <= after.vaddr, f"{before.name} overlaps {after.name}"

    def section_at(addr):
        section = texts[bisect_right(starts, addr) - 1]
        assert section.vaddr <= addr < section.end, f"{addr:#x} is outside text"
        return section

    tiles = defaultdict(list)
    for block in exe.exec_blocks:
        if block.size:
            tiles[section_at(block.addr).name].append(block)
        else:  # nothing left of the block: it must still sit on a boundary
            assert any(s.vaddr <= block.addr <= s.end for s in texts)
        term = block.term
        for addr, size, target in (
            (term.cond_br_addr, term.cond_br_size, term.cond_target),
            (term.uncond_br_addr, term.uncond_br_size, term.uncond_target),
        ):
            if addr < 0:
                assert size == 0
                continue
            assert block.addr <= addr and addr + size <= block.end
            section = section_at(addr)
            instr = decode_instruction(data[section.name], addr - section.vaddr)
            assert instr.size == size, (block.func, block.bb_id, instr)
            assert instr.target(section.vaddr) == target, (block.func, block.bb_id, instr)
        if term.kind == "fallthrough":
            assert term.uncond_target is None and term.uncond_br_addr == -1

    for section in texts:
        cursor = section.vaddr
        blocks = sorted(tiles[section.name], key=lambda b: b.addr)
        if blocks and blocks[0].is_landing_pad:
            # §4.5: codegen keeps a landing pad off section offset 0 with a nop.
            cursor = blocks[0].addr
            assert set(data[section.name][: cursor - section.vaddr]) == {int(Opcode.NOP)}
        for block in blocks:
            assert block.addr == cursor, f"{section.name}: gap or overlap at {block.addr:#x}"
            cursor = block.end
        assert cursor == section.end, f"{section.name}: blocks stop short of the end"

    placed = {(b.addr, b.bb_id, b.size) for b in exe.exec_blocks}
    for section in exe.sections_of_kind(SectionKind.BB_ADDR_MAP):
        amap = bbaddrmap.decode_section(data[section.name])
        bounds = amap.bounds.tolist()
        for func, lo, hi in zip(amap.funcs, bounds, bounds[1:]):
            base = symbol(exe, func).addr
            entries = list(zip(amap.bb_id[lo:hi].tolist(), amap.offset[lo:hi].tolist(),
                               amap.size[lo:hi].tolist()))
            assert len({bb_id for bb_id, _, _ in entries}) == len(entries)
            for bb_id, offset, size in entries:
                assert (base + offset, bb_id, size) in placed, (func, bb_id)


# ----------------------------------------------------------------------
# The smoke presets, through the whole pipeline


def test_smoke_mcf_all_three_builds(pipeline_result):
    for outcome in (pipeline_result.baseline, pipeline_result.metadata,
                    pipeline_result.optimized):
        assert_relaxation_consistent(outcome.executable)
    assert pipeline_result.optimized.link_stats.shrunk_branches > 0


def test_smoke_deepsjeng_all_three_builds(tiny_program):
    config = PipelineConfig(lbr_branches=40_000, pgo_steps=20_000, enforce_ram=False)
    result = PropellerPipeline(tiny_program, config).run()
    for outcome in (result.baseline, result.metadata, result.optimized):
        assert_relaxation_consistent(outcome.executable)


def test_emit_relocs_and_unrelaxed_links(small_objects):
    objs = [c.obj for c in small_objects]
    for options in (LinkOptions(emit_relocs=True), LinkOptions(relax=False)):
        assert_relaxation_consistent(link(objs, options).executable)


# ----------------------------------------------------------------------
# Random modules under every sectioning mode


def section_leaders(objects):
    """The names a symbol ordering file may list: each text section's leader."""
    return [s.name for obj in objects for s in obj.symbols
            if s.offset == 0 and s.stype == SymbolType.FUNC]


def _random_clusters(module, rng):
    """Per function: entry-led hot cluster, one more cluster, the rest cold."""
    clusters = {}
    for fn in module.functions:
        rest = [b.bb_id for b in fn.blocks[1:]]
        rng.shuffle(rest)
        a, b = sorted((rng.randint(0, len(rest)), rng.randint(0, len(rest))))
        clusters[fn.name] = [c for c in ([fn.blocks[0].bb_id] + rest[:a], rest[a:b]) if c]
    return clusters


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(list(BBSectionsMode)))
def test_random_modules_decode_consistently(seed, mode):
    module = _random_module(seed, nfuncs=3, nblocks=12)
    rng = random.Random(seed)
    clusters = _random_clusters(module, rng) if mode == BBSectionsMode.LIST else None
    compiled = compile_module(module, CodeGenOptions(
        bb_sections=mode, clusters=clusters, bb_addr_map=True))
    # A shuffled symbol order moves sections apart and next to each
    # other, so both long and short (and deleted) branches occur.
    leaders = section_leaders([compiled.obj])
    rng.shuffle(leaders)
    for order in (None, leaders):
        result = link([compiled.obj], LinkOptions(
            entry_symbol=module.functions[0].name, symbol_order=order))
        assert_relaxation_consistent(result.executable)


# ----------------------------------------------------------------------
# A hand-built object that exercises every rewrite at once


def fallthrough_object():
    """``f`` = three blocks whose branches end up long, short and deleted.

    bb0 ``alu8; jcc far`` (300 bytes away: stays rel32), bb1 ``alu8;
    jcc g`` (adjacent: shrinks to rel8), bb2 ``alu16; jmp g`` (trailing,
    deletable, ``g`` follows unaligned: deleted).  No benchmark workload
    deletes a jump (``linker.deleted_jumps`` is 0 on all four), so this
    is the case that keeps that path honest.
    """
    def block(bb_id, func, offset, size, **term):
        term.setdefault("kind", TerminatorKind.FALLTHROUGH)
        return BlockMeta(bb_id=bb_id, func=func, offset=offset, size=size,
                         term=TerminatorMeta(**term))

    alu8 = encode_instruction(Opcode.ALU8, payload=b"\x01")
    alu16 = encode_instruction(Opcode.ALU16, payload=b"\x01\x02")
    jcc = encode_instruction(Opcode.JCC_LONG, displacement=0, payload=b"\x04")
    jmp = encode_instruction(Opcode.JMP_LONG, displacement=0)
    ret = encode_instruction(Opcode.RET)
    symbols = [Symbol("f", ".text.f", 0, 24, SymbolBinding.GLOBAL, SymbolType.FUNC),
               Symbol(".Lf.bb2", ".text.f", 16)]
    relocations = [Relocation(4, RelocType.PC32, "far"), Relocation(12, RelocType.PC32, "g"),
                   Relocation(20, RelocType.PC32, "g")]
    fixups = [BranchFixup(2, Opcode.JCC_LONG, "far"), BranchFixup(10, Opcode.JCC_LONG, "g"),
              BranchFixup(19, Opcode.JMP_LONG, "g", deletable=True)]
    blocks = [
        block(0, "f", 0, 8, kind=TerminatorKind.CONDBR, cond_target="far",
              cond_prob=0.1, cond_br_offset=2, cond_br_size=6),
        block(1, "f", 8, 8, kind=TerminatorKind.CONDBR, cond_target="g",
              cond_prob=0.5, cond_br_offset=10, cond_br_size=6),
        block(2, "f", 16, 8, kind=TerminatorKind.JUMP, uncond_target="g",
              uncond_br_offset=19, uncond_br_size=5),
    ]
    fmap = ("f", [(b.bb_id, b.offset, b.size, 0) for b in blocks])
    # .text.f owns every relocation and fixup and the first three blocks;
    # each section after it owns the block listed with it, or none.
    sections = [
        Section(name=".text.f", kind=SectionKind.TEXT, alignment=16,
                data=bytearray(alu8 + jcc + alu8 + jcc + alu16 + jmp),
                relocations=range(0, 3), blocks=range(0, 3), fixups=range(0, 3)),
        Section(name=".llvm_bb_addr_map.f", kind=SectionKind.BB_ADDR_MAP, link_name=".text.f",
                data=bytearray(encode_bb_addr_maps([fmap])),
                relocations=range(3, 3), blocks=range(3, 3), fixups=range(3, 3)),
    ]
    for name, body, term in (
        ("g", ret, dict(kind=TerminatorKind.RET, end_instr_offset=0, end_instr_size=1)),
        ("pad", encode_instruction(Opcode.NOP) * 300, {}),
        ("far", ret, dict(kind=TerminatorKind.RET, end_instr_offset=0, end_instr_size=1)),
    ):
        sections.append(Section(name=f".text.{name}", kind=SectionKind.TEXT, data=bytearray(body),
                                relocations=range(3, 3), fixups=range(3, 3),
                                blocks=range(len(blocks), len(blocks) + 1)))
        blocks.append(block(0, name, 0, len(body), **term))
        symbols.append(Symbol(name, f".text.{name}", 0, len(body),
                              SymbolBinding.GLOBAL, SymbolType.FUNC))
    return ObjectFile(name="hand.o", sections=sections, symbols=symbols,
                      relocations=relocations, blocks=blocks, fixups=fixups)


class TestFallthroughDeletion:
    def test_long_short_and_deleted_in_one_link(self):
        result = link([fallthrough_object()], LinkOptions(entry_symbol="f"))
        # bb2's jump first goes short (g's address is a pass old, so the
        # displacement still reads 4), then adjacent and deleted in pass 2.
        assert (result.stats.deleted_jumps, result.stats.shrunk_branches) == (1, 2)
        exe = result.executable
        assert_relaxation_consistent(exe)
        bb0, bb1, bb2 = (b for b in exe.exec_blocks if b.func == "f")
        assert (bb0.size, bb0.term.cond_br_size) == (8, 6)
        assert (bb1.size, bb1.term.cond_br_size) == (4, 2)
        # The deleted jump leaves a block that falls through into g.
        assert bb2.size == 3 and bb2.term.kind == "fallthrough"
        assert bb2.end == symbol(exe, "g").addr
        assert symbol(exe, "f").size == 15

    def test_aligned_follower_keeps_the_jump(self):
        obj = fallthrough_object()
        section_named(obj, ".text.g").alignment = 4
        result = link([obj], LinkOptions(entry_symbol="f"))
        assert result.stats.deleted_jumps == 0
        assert_relaxation_consistent(result.executable)

    def test_unrelaxed_link_keeps_every_branch_long(self):
        result = link([fallthrough_object()], LinkOptions(entry_symbol="f", relax=False))
        assert result.stats.relax_passes == 0
        assert_relaxation_consistent(result.executable)
        assert symbol(result.executable, "f").size == 24


def grow_back_object():
    """``f``'s jcc goes short in pass 1, then padding pushes it out of range.

    ``pad`` (60 bytes) puts ``f`` (alignment 4) at base+60 and ``g``
    (alignment 64) at base+192.  ``f`` = bb0 ``jmp .Lf.h`` (offset 130:
    one byte out of rel8 range), bb1 ``jcc g``, 119 bytes of nops, and
    ``.Lf.h``: ``nop; ret``.  Pass 1 shrinks the jcc (displacement 125),
    which brings the jmp in range; pass 2 shrinks the jmp, which moves
    the jcc 3 bytes down while ``g``'s padding absorbs the 3 bytes: the
    jcc now needs 128.  It must grow back to rel32 and stay there.
    """
    nop, ret = encode_instruction(Opcode.NOP), encode_instruction(Opcode.RET)
    jmp = encode_instruction(Opcode.JMP_LONG, displacement=0)
    jcc = encode_instruction(Opcode.JCC_LONG, displacement=0, payload=b"\x04")

    def block(bb_id, func, offset, size, **term):
        term.setdefault("kind", TerminatorKind.FALLTHROUGH)
        return BlockMeta(bb_id=bb_id, func=func, offset=offset, size=size,
                         term=TerminatorMeta(**term))

    symbols = [Symbol("pad", ".text.pad", 0, 60, SymbolBinding.GLOBAL, SymbolType.FUNC),
               Symbol("f", ".text.f", 0, 132, SymbolBinding.GLOBAL, SymbolType.FUNC),
               Symbol(".Lf.h", ".text.f", 130),
               Symbol("g", ".text.g", 0, 1, SymbolBinding.GLOBAL, SymbolType.FUNC)]
    blocks = [
        block(0, "pad", 0, 60),
        block(0, "f", 0, 5, kind=TerminatorKind.JUMP, uncond_target=".Lf.h",
              uncond_br_offset=0, uncond_br_size=5),
        block(1, "f", 5, 6, kind=TerminatorKind.CONDBR, cond_target="g",
              cond_prob=0.5, cond_br_offset=5, cond_br_size=6),
        block(2, "f", 11, 119),
        block(3, "f", 130, 2, kind=TerminatorKind.RET, end_instr_offset=131,
              end_instr_size=1),
        block(0, "g", 0, 1, kind=TerminatorKind.RET, end_instr_offset=0, end_instr_size=1),
    ]
    sections = [
        Section(name=".text.pad", kind=SectionKind.TEXT, data=bytearray(nop * 60),
                blocks=range(0, 1)),
        Section(name=".text.f", kind=SectionKind.TEXT, alignment=4,
                data=bytearray(jmp + jcc + nop * 119 + nop + ret),
                relocations=range(0, 2), blocks=range(1, 5), fixups=range(0, 2)),
        Section(name=".text.g", kind=SectionKind.TEXT, alignment=64, data=bytearray(ret),
                relocations=range(2, 2), blocks=range(5, 6), fixups=range(2, 2)),
    ]
    return ObjectFile(name="grow.o", sections=sections, symbols=symbols, blocks=blocks,
                      relocations=[Relocation(1, RelocType.PC32, ".Lf.h"),
                                   Relocation(7, RelocType.PC32, "g")],
                      fixups=[BranchFixup(0, Opcode.JMP_LONG, ".Lf.h"),
                              BranchFixup(5, Opcode.JCC_LONG, "g")])


class TestGrowBack:
    def test_out_of_range_short_branch_goes_back_to_rel32(self):
        result = link([grow_back_object()], LinkOptions(entry_symbol="f"))
        exe = result.executable
        assert_relaxation_consistent(exe)
        bb0, bb1 = [b for b in exe.exec_blocks if b.func == "f"][:2]
        assert bb0.term.uncond_br_size == 2  # the jmp stays short
        assert bb1.term.cond_br_size == 6    # the jcc grew back and stays long
        assert symbol(exe, "g").addr - symbol(exe, "f").addr == 132
        # Both went short once; the grow-back takes the jcc's shrink back.
        assert result.stats.shrunk_branches == 1
        # The jcc is patched through its input PC32 relocation again.
        relocs = link([grow_back_object()], LinkOptions(
            entry_symbol="f", emit_relocs=True)).executable.retained_relocations
        assert sorted((r.symbol, r.rtype) for r in relocs) == [
            (".Lf.h", RelocType.PC8), ("g", RelocType.PC32)]


class TestConvergence:
    def test_running_out_of_passes_is_a_link_error(self, monkeypatch):
        obj = fallthrough_object()
        assert link([obj], LinkOptions(entry_symbol="f")).stats.relax_passes >= 2
        monkeypatch.setattr("repro.linker.relax._MAX_PASSES", 1)
        with pytest.raises(LinkError, match="did not converge in 1 passes"):
            link([obj], LinkOptions(entry_symbol="f"))
