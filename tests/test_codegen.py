"""Tests for IR-to-machine lowering: sections, clusters, metadata."""

import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.codegen.lowering import _pgo_block_order, bb_label
from repro.elf import SectionKind, SymbolBinding, TerminatorKind, bbaddrmap
from repro.isa import OPCODE_SIZES, Opcode, decode_range
from repro.synth import PRESETS, generate_workload
from tests.conftest import section_named


def _func(name="f", lp=False):
    blocks = [
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)],
                      term=ir.CondBr(taken=2, fallthrough=1, prob=0.2)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.LOAD)], term=ir.Jump(3)),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.MOV)], term=ir.Jump(3)),
        ir.BasicBlock(bb_id=3, instrs=[ir.Instr(ir.OpKind.CMP)], term=ir.Ret()),
    ]
    if lp:
        blocks[0].instrs.append(ir.Call(callee="g", landing_pad=4))
        blocks.append(ir.BasicBlock(bb_id=4, instrs=[ir.Instr(ir.OpKind.NOP)],
                                    term=ir.Ret(), is_landing_pad=True))
    return ir.Function(name=name, blocks=blocks)


def _module(*funcs):
    return ir.Module(name="mod", functions=list(funcs))



def _rows(obj, section, table):
    """The rows of ``obj``'s ``table`` that section ``section`` owns."""
    return getattr(obj, table)[getattr(section_named(obj, section), table)]

class TestFunctionSections:
    def test_one_text_section_per_function(self):
        compiled = compile_module(_module(_func("a"), _func("b")), CodeGenOptions())
        texts = compiled.obj.sections_of_kind(SectionKind.TEXT)
        assert {s.name for s in texts} == {".text.a", ".text.b"}

    def test_function_symbol_is_global_func(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        sym = next(s for s in compiled.obj.symbols if s.name == "a")
        assert sym.binding == SymbolBinding.GLOBAL
        assert sym.offset == 0
        assert sym.size == section_named(compiled.obj, ".text.a").size

    def test_block_labels_are_temporaries(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        labels = [s.name for s in compiled.obj.symbols if s.name.startswith(".L")]
        assert bb_label("a", 0) in labels
        assert len(labels) == 4

    def test_block_metadata_covers_section(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        section = section_named(compiled.obj, ".text.a")
        assert [b.bb_id for b in _rows(compiled.obj, ".text.a", "blocks")] == [0, 1, 2, 3]
        end = 0
        for meta in _rows(compiled.obj, ".text.a", "blocks"):
            assert meta.offset == end
            end = meta.offset + meta.size
        assert end == section.size

    def test_section_bytes_decode(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        section = section_named(compiled.obj, ".text.a")
        instrs = decode_range(bytes(section.data), 0, section.size)
        assert instrs[-1].opcode == Opcode.RET

    def test_stats(self):
        compiled = compile_module(_module(_func("a"), _func("b")), CodeGenOptions())
        obj = compiled.obj
        assert [s.name for s in obj.sections_of_kind(SectionKind.TEXT)] == [".text.a", ".text.b"]
        assert len(obj.blocks) == 8
        assert compiled.num_instrs > 8


class TestTerminatorLowering:
    def test_condbr_fallthrough_next(self):
        # Layout order 0,1,...: block 0's fallthrough (1) is next, so a
        # single JCC to the taken side is emitted.
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        meta = _rows(compiled.obj, ".text.a", "blocks")[0]
        assert meta.term.kind == TerminatorKind.CONDBR
        assert meta.term.cond_target == bb_label("a", 2)
        assert meta.term.cond_prob == pytest.approx(0.2)
        assert meta.term.uncond_target is None

    def test_condbr_inversion_when_taken_is_next(self):
        fn = ir.Function(name="a", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.CondBr(taken=1, fallthrough=2, prob=0.8)),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
            ir.BasicBlock(bb_id=2, term=ir.Ret()),
        ])
        compiled = compile_module(_module(fn), CodeGenOptions())
        meta = _rows(compiled.obj, ".text.a", "blocks")[0]
        # Inverted: branch now targets block 2 with probability 0.2.
        assert meta.term.cond_target == bb_label("a", 2)
        assert meta.term.cond_prob == pytest.approx(0.2)
        assert meta.term.uncond_target is None

    def test_condbr_both_arms_far_emits_jcc_plus_jmp(self):
        fn = ir.Function(name="a", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.CondBr(taken=2, fallthrough=3, prob=0.5)),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
            ir.BasicBlock(bb_id=2, term=ir.Ret()),
            ir.BasicBlock(bb_id=3, term=ir.Ret()),
        ])
        compiled = compile_module(_module(fn), CodeGenOptions())
        meta = _rows(compiled.obj, ".text.a", "blocks")[0]
        assert meta.term.uncond_target == bb_label("a", 3)
        assert meta.term.uncond_br_offset >= 0

    def test_jump_to_next_is_fallthrough(self):
        fn = ir.Function(name="a", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.Jump(1)),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
        ])
        compiled = compile_module(_module(fn), CodeGenOptions())
        meta = _rows(compiled.obj, ".text.a", "blocks")[0]
        assert meta.term.kind == TerminatorKind.FALLTHROUGH

    def test_explicit_fallthrough_jump_is_deletable(self):
        # §4.2: with bb sections, the last block of a section must end
        # in an explicit (deletable) jump, never an implicit fall-through.
        fn = _func("a")
        options = CodeGenOptions(bb_sections=BBSectionsMode.ALL)
        compiled = compile_module(_module(fn), options)
        entry = _rows(compiled.obj, ".text.a", "blocks")[0]  # entry block section
        assert entry.term.kind == TerminatorKind.CONDBR
        assert entry.term.uncond_target is not None
        deletables = [f for f in _rows(compiled.obj, ".text.a", "fixups") if f.deletable]
        assert deletables

    def test_switch_emits_rodata_jump_table(self):
        fn = ir.Function(name="a", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.Switch(targets=(1, 2), probs=(0.5, 0.5))),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
            ir.BasicBlock(bb_id=2, term=ir.Ret()),
        ])
        compiled = compile_module(_module(fn), CodeGenOptions())
        rodata = section_named(compiled.obj, ".rodata.a")
        assert rodata is not None
        assert rodata.size == 8  # two 4-byte entries
        assert len(_rows(compiled.obj, ".rodata.a", "relocations")) == 2

    def test_hand_written_embeds_jump_table_in_text(self):
        fn = ir.Function(name="a", blocks=[
            ir.BasicBlock(bb_id=0, term=ir.Switch(targets=(1, 2), probs=(0.5, 0.5))),
            ir.BasicBlock(bb_id=1, term=ir.Ret()),
            ir.BasicBlock(bb_id=2, term=ir.Ret()),
        ])
        fn.hand_written = True
        compiled = compile_module(_module(fn), CodeGenOptions())
        assert section_named(compiled.obj, ".rodata.a") is None
        abs_relocs = [r for r in _rows(compiled.obj, ".text.a", "relocations")
                      if r.rtype.value == "abs32"]
        assert len(abs_relocs) == 2  # data in code!

    def test_unreachable_lowers_to_trap(self):
        fn = ir.Function(name="a", blocks=[ir.BasicBlock(bb_id=0, term=ir.Unreachable())])
        compiled = compile_module(_module(fn), CodeGenOptions())
        assert _rows(compiled.obj, ".text.a", "blocks")[0].term.kind == TerminatorKind.TRAP


class TestClusters:
    def _cluster_options(self, clusters):
        return CodeGenOptions(bb_sections=BBSectionsMode.LIST, clusters=clusters)

    def test_cluster_sections_and_symbols(self):
        options = self._cluster_options({"a": [[0, 2], [1]]})
        compiled = compile_module(_module(_func("a")), options)
        names = {s.name for s in compiled.obj.sections_of_kind(SectionKind.TEXT)}
        assert names == {".text.a", ".text.a.1", ".text.a.cold"}
        symbols = {s.name for s in compiled.obj.symbols if not s.name.startswith(".L")}
        assert {"a", "a.1", "a.cold"} <= symbols

    def test_cluster_block_assignment(self):
        options = self._cluster_options({"a": [[0, 2], [1]]})
        compiled = compile_module(_module(_func("a")), options)
        assert [b.bb_id for b in _rows(compiled.obj, ".text.a", "blocks")] == [0, 2]
        assert [b.bb_id for b in _rows(compiled.obj, ".text.a.1", "blocks")] == [1]
        assert [b.bb_id for b in _rows(compiled.obj, ".text.a.cold", "blocks")] == [3]

    def test_cluster_must_start_with_entry(self):
        options = self._cluster_options({"a": [[1, 0]]})
        with pytest.raises(ValueError, match="entry"):
            compile_module(_module(_func("a")), options)

    def test_duplicate_block_in_clusters_rejected(self):
        options = self._cluster_options({"a": [[0, 1], [1]]})
        with pytest.raises(ValueError, match="multiple"):
            compile_module(_module(_func("a")), options)

    def test_unknown_block_rejected(self):
        options = self._cluster_options({"a": [[0, 42]]})
        with pytest.raises(ValueError, match="unknown"):
            compile_module(_module(_func("a")), options)

    def test_unlisted_function_lowered_normally(self):
        options = self._cluster_options({"other": [[0]]})
        compiled = compile_module(_module(_func("a")), options)
        assert section_named(compiled.obj, ".text.a.cold") is None

    def test_cold_cluster_alignment_is_one(self):
        options = self._cluster_options({"a": [[0, 2]]})
        compiled = compile_module(_module(_func("a")), options)
        assert section_named(compiled.obj, ".text.a").alignment == 16
        assert section_named(compiled.obj, ".text.a.cold").alignment == 1


class TestMetadata:
    def test_bb_addr_map_roundtrip(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions(bb_addr_map=True))
        section = section_named(compiled.obj, ".llvm_bb_addr_map.a")
        assert section is not None
        assert section.link_name == ".text.a"
        amap = bbaddrmap.decode_section(bytes(section.data))
        assert amap.funcs == ["a"]
        blocks = _rows(compiled.obj, ".text.a", "blocks")
        assert amap.bb_id.tolist() == [b.bb_id for b in blocks]
        assert amap.offset.tolist() == [b.offset for b in blocks]

    def test_bb_addr_map_flags(self):
        compiled = compile_module(_module(_func("a", lp=True)),
                                  CodeGenOptions(bb_addr_map=True))
        amap = bbaddrmap.decode_section(
            bytes(section_named(compiled.obj, ".llvm_bb_addr_map.a").data)
        )
        flags = dict(zip(amap.bb_id.tolist(), amap.flags.tolist()))
        assert flags[4] & bbaddrmap.FLAG_LANDING_PAD
        assert flags[3] & bbaddrmap.FLAG_HAS_RETURN

    def test_no_map_without_option(self):
        compiled = compile_module(_module(_func("a")), CodeGenOptions())
        assert section_named(compiled.obj, ".llvm_bb_addr_map.a") is None

    def test_eh_frame_grows_with_fragments(self):
        base = compile_module(_module(_func("a")), CodeGenOptions())
        split = compile_module(
            _module(_func("a")),
            CodeGenOptions(bb_sections=BBSectionsMode.LIST, clusters={"a": [[0, 1], [2]]}),
        )
        assert section_named(split.obj, ".eh_frame").size > section_named(base.obj, ".eh_frame").size

    def test_except_table_emitted_for_landing_pads(self):
        compiled = compile_module(_module(_func("a", lp=True)), CodeGenOptions())
        assert section_named(compiled.obj, ".gcc_except_table.a") is not None

    def test_landing_pad_section_starts_with_nop(self):
        # §4.5: a landing pad at offset 0 of its section is ambiguous;
        # a nop is inserted.
        options = CodeGenOptions(bb_sections=BBSectionsMode.LIST,
                                 clusters={"a": [[0, 1, 2, 3]]})
        compiled = compile_module(_module(_func("a", lp=True)), options)
        cold = _rows(compiled.obj, ".text.a.cold", "blocks")[0]  # the landing pad
        assert cold.is_landing_pad
        assert cold.offset == 1
        assert section_named(compiled.obj, ".text.a.cold").data[0] == Opcode.NOP


class TestPGOOrder:
    def _profile(self, edges, counts):
        class P:
            def edge_counts(self, fn):
                return edges

            def block_counts(self, fn):
                return counts

        return P()

    def test_hot_chain_followed(self):
        fn = _func("a")
        profile = self._profile({(0, 2): 100.0, (2, 3): 100.0}, {0: 100, 2: 100, 3: 100})
        order = _pgo_block_order(fn, profile)
        assert order[:3] == [0, 2, 3]

    def test_cold_blocks_sink(self):
        fn = _func("a")
        profile = self._profile({(0, 1): 50.0, (1, 3): 50.0}, {0: 50, 1: 50, 3: 50})
        order = _pgo_block_order(fn, profile)
        assert order[-1] == 2  # never-executed block last

    def test_unprofiled_function_keeps_source_order(self):
        fn = _func("a")
        profile = self._profile({}, {})
        assert _pgo_block_order(fn, profile) == [0, 1, 2, 3]

    def test_order_is_permutation(self):
        fn = _func("a", lp=True)
        profile = self._profile({(0, 1): 5.0}, {0: 5, 1: 5})
        order = _pgo_block_order(fn, profile)
        assert sorted(order) == [0, 1, 2, 3, 4]


def _payload(func, bb_id, idx, nbytes):
    """The operand-byte spec: the scalar formula lowering evaluated one
    instruction at a time before it built a module's bytes in one go."""
    out = bytearray()
    state = zlib.crc32(f"{func}:{bb_id}:{idx}".encode())
    while len(out) < nbytes:
        state = (state * 1103515245 + 12345) & 0xFFFFFFFF
        out.append((state >> 16) & 0xFF)
    return bytes(out)


_LOWERED = {ir.OpKind.NOP: Opcode.NOP, ir.OpKind.ALU8: Opcode.ALU8, ir.OpKind.ALU16: Opcode.ALU16,
            ir.OpKind.ALU32: Opcode.ALU32, ir.OpKind.LOAD: Opcode.LOAD,
            ir.OpKind.STORE: Opcode.STORE, ir.OpKind.LEA: Opcode.LEA,
            ir.OpKind.MOV: Opcode.MOVRR, ir.OpKind.CMP: Opcode.CMP}


def _expected_block(fn, block, next_bb, prefetches, hand_written):
    """``[(opcode, operand bytes)]`` of what ``block`` lowers to, followed
    in the section by that many bytes of jump table."""
    out = [(Opcode.PREFETCH, bytes(4)) for _ in prefetches]
    for idx, instr in enumerate(block.instrs):
        if isinstance(instr, ir.Call):
            out.append((Opcode.ICALL, _payload(fn, block.bb_id, idx, 1)) if instr.is_indirect
                       else (Opcode.CALL, bytes(4)))
        else:
            opcode = _LOWERED[instr.kind]
            out.append((opcode, _payload(fn, block.bb_id, idx, OPCODE_SIZES[opcode] - 1)))
    term, table = block.term, 0
    if isinstance(term, ir.CondBr):
        out.append((Opcode.JCC_LONG, bytes(5)))  # condition byte and rel32, all zero
        if next_bb not in (term.taken, term.fallthrough):
            out.append((Opcode.JMP_LONG, bytes(4)))
    elif isinstance(term, ir.Jump):
        if term.target != next_bb:
            out.append((Opcode.JMP_LONG, bytes(4)))
    elif isinstance(term, ir.Ret):
        out.append((Opcode.RET, b""))
    elif isinstance(term, ir.Switch):
        out.append((Opcode.IJMP, _payload(fn, block.bb_id, -1, 1)))
        table = 4 * len(term.targets) if hand_written else 0
    else:
        out.append((Opcode.TRAP, _payload(fn, block.bb_id, -1, 1)))
    return out, table


class TestLoweringOracle:
    """Decoded, every instruction of every text section is what its IR
    lowers to, operand byte for operand byte; the blocks tile their
    section; the modelled metadata is the same stream."""

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), mode=st.sampled_from(list(BBSectionsMode)),
           bb_addr_map=st.booleans(), debug_info=st.booleans(), prefetch=st.booleans(),
           hand_written=st.booleans())
    def test_sections_decode_to_their_ir(self, seed, mode, bb_addr_map, debug_info, prefetch,
                                         hand_written):
        program = generate_workload(PRESETS["505.mcf"], scale=0.5, seed=seed)
        module = program.modules[seed % len(program.modules)]
        rng = random.Random(seed)
        callees = [f.name for f in program.all_functions()]
        clusters, prefetches = {}, {}
        for function in module.functions:
            function.hand_written = hand_written and rng.random() < 0.5
            ids = [b.bb_id for b in function.blocks]
            rest = ids[1:]
            rng.shuffle(rest)
            lo, hi = sorted(rng.randint(0, len(rest)) for _ in range(2))
            # A primary cluster, maybe a second, and what neither lists goes cold.
            clusters[function.name] = [[ids[0], *rest[:lo]]] + ([rest[lo:hi]] if hi > lo else [])
            if prefetch:
                prefetches[function.name] = [(rng.choice(ids), rng.choice(callees))
                                             for _ in range(3)]
        options = CodeGenOptions(
            bb_sections=mode, clusters=clusters if mode == BBSectionsMode.LIST else None,
            bb_addr_map=bb_addr_map, debug_info=debug_info, prefetches=prefetches or None)
        obj = compile_module(module, options).obj

        functions = {f.name: f for f in module.functions}
        for section in obj.sections_of_kind(SectionKind.TEXT):
            data, blocks = bytes(section.data), list(obj.blocks[section.blocks])
            fn = functions[blocks[0].func]
            # A landing pad first in its section sits behind one nop (§4.5).
            pad = int(fn.block(blocks[0].bb_id).is_landing_pad)
            assert blocks[0].offset == pad and data[:pad] == bytes([Opcode.NOP]) * pad
            for meta, nxt in zip(blocks, blocks[1:] + [None]):
                assert meta.offset + meta.size == (len(data) if nxt is None else nxt.offset)
                block = fn.block(meta.bb_id)
                expected, table = _expected_block(
                    fn.name, block, nxt and nxt.bb_id,
                    [s for bb, s in prefetches.get(fn.name, ()) if bb == block.bb_id],
                    fn.hand_written)
                end = meta.offset + meta.size - table
                decoded = decode_range(data, meta.offset, end)
                assert [(i.opcode, data[i.offset + 1:i.end]) for i in decoded] == expected
                assert data[end:meta.offset + meta.size] == bytes(table)
            if bb_addr_map:
                amap = bbaddrmap.decode_section(bytes(
                    section_named(obj, ".llvm_bb_addr_map" + section.name[len(".text"):]).data))
                assert len(amap.funcs) == 1
                assert list(zip(amap.bb_id.tolist(), amap.offset.tolist(),
                                amap.size.tolist())) == [(b.bb_id, b.offset, b.size)
                                                         for b in blocks]
        for fn in functions:
            debug = section_named(obj, f".debug_info.{fn}")
            assert (debug is not None) == debug_info
            for section, tag in ((debug, -4), (section_named(obj, f".gcc_except_table.{fn}"), -2)):
                if section is not None:
                    assert bytes(section.data) == _payload(fn, tag, 0, section.size)
        eh_frame = section_named(obj, ".eh_frame")
        assert bytes(eh_frame.data) == _payload(module.name, -3, 0, eh_frame.size)
