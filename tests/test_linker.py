"""Tests for the linker: resolution, ordering, relaxation, relocation."""

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.elf import ObjectFile, Section, SectionKind, Symbol, SymbolBinding, SymbolType
from repro.elf.strip import strip_bb_addr_map
from repro.isa import DecodedInstruction, Opcode, decode_instruction
from repro.linker import LinkError, LinkOptions, link, without_bb_addr_map
from repro.synth import PRESETS, generate_workload


def _chain_module(name="mod", fname="f", nblocks=4):
    """A function whose blocks jump 0 -> 1 -> ... -> ret."""
    blocks = []
    for i in range(nblocks - 1):
        blocks.append(ir.BasicBlock(bb_id=i, instrs=[ir.Instr(ir.OpKind.ALU8)],
                                    term=ir.Jump(i + 1)))
    blocks.append(ir.BasicBlock(bb_id=nblocks - 1, instrs=[ir.Instr(ir.OpKind.ALU8)],
                                term=ir.Ret()))
    return ir.Module(name=name, functions=[ir.Function(name=fname, blocks=blocks)])


def _compile(module, **opts):
    return compile_module(module, CodeGenOptions(**opts)).obj


class TestResolution:
    def test_undefined_symbol(self):
        mod = ir.Module(name="m", functions=[ir.Function(name="f", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="ghost")], term=ir.Ret()),
        ])])
        with pytest.raises(LinkError, match="undefined"):
            link([_compile(mod)], LinkOptions(entry_symbol="f"))

    def test_duplicate_symbol(self):
        a = _compile(_chain_module("a", "f"))
        b = _compile(_chain_module("b", "f"))
        with pytest.raises(LinkError, match="duplicate"):
            link([a, b], LinkOptions(entry_symbol="f"))

    def test_entry_resolution(self):
        exe = link([_compile(_chain_module())], LinkOptions(entry_symbol="f")).executable
        assert exe.entry == exe.symbol("f").addr

    def test_temporary_labels_not_exported(self):
        exe = link([_compile(_chain_module())], LinkOptions(entry_symbol="f")).executable
        assert not any(s.name.startswith(".L") for s in exe.symbols)

    def test_cross_module_call_resolves(self):
        caller = ir.Module(name="c", functions=[ir.Function(name="main", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="f")], term=ir.Ret()),
        ])])
        objs = [_compile(caller), _compile(_chain_module())]
        exe = link(objs, LinkOptions(entry_symbol="main")).executable
        main_block = next(b for b in exe.exec_blocks if b.func == "main")
        assert main_block.calls[0].target == exe.symbol("f").addr


class TestSymbolOrdering:
    def _two_function_objs(self):
        return [_compile(_chain_module("a", "f")), _compile(_chain_module("b", "g"))]

    def test_order_honored(self):
        objs = self._two_function_objs()
        exe = link(objs, LinkOptions(entry_symbol="f", symbol_order=["g", "f"])).executable
        assert exe.symbol("g").addr < exe.symbol("f").addr
        exe2 = link(objs, LinkOptions(entry_symbol="f", symbol_order=["f", "g"])).executable
        assert exe2.symbol("f").addr < exe2.symbol("g").addr

    def test_stale_entries_ignored(self):
        objs = self._two_function_objs()
        exe = link(objs, LinkOptions(entry_symbol="f",
                                     symbol_order=["nothere", "g"])).executable
        assert exe.symbol("g").addr < exe.symbol("f").addr

    def test_unlisted_sections_follow_in_input_order(self):
        objs = self._two_function_objs()
        exe = link(objs, LinkOptions(entry_symbol="f", symbol_order=["g"])).executable
        assert exe.symbol("g").addr < exe.symbol("f").addr


class TestRelaxation:
    def test_branches_shrink(self):
        result = link([_compile(_chain_module(nblocks=6))], LinkOptions(entry_symbol="f"))
        # Intra-function forward jumps are short after relaxation... but
        # jumps to the next block were never emitted; the chain has no
        # explicit jumps at all.
        assert result.stats.shrunk_branches >= 0

    def test_cross_section_fallthrough_deleted(self):
        # With one section per block, the chain 0->1->2 becomes explicit
        # jumps; in layout order, relaxation deletes all of them.
        module = _chain_module(nblocks=4)
        obj = _compile(module, bb_sections=BBSectionsMode.ALL)
        result = link([obj], LinkOptions(entry_symbol="f"))
        assert result.stats.deleted_jumps == 3

    def test_reordered_sections_keep_jumps(self):
        module = _chain_module(nblocks=3)
        obj = _compile(module, bb_sections=BBSectionsMode.ALL)
        # Reverse order: f.__bbsec2 first; jumps cannot be deleted.
        order = ["f.__bbsec2", "f.__bbsec1", "f"]
        result = link([obj], LinkOptions(entry_symbol="f", symbol_order=order))
        assert result.stats.deleted_jumps == 0
        # Branches still resolve: follow the exec model chain.
        exe = result.executable
        b0 = exe.block_at(exe.symbol("f").addr)
        assert b0.term.kind == "jump"

    def test_relaxed_bytes_decode_consistently(self):
        module = _chain_module(nblocks=5)
        obj = _compile(module, bb_sections=BBSectionsMode.ALL)
        exe = link([obj], LinkOptions(entry_symbol="f")).executable
        base, image = exe.text_image()
        # Walk every exec block and check branch displacements land on blocks.
        addrs = {b.addr for b in exe.exec_blocks}
        for block in exe.exec_blocks:
            term = block.term
            if term.kind == "jump":
                instr = decode_instruction(image, term.uncond_br_addr - base)
                assert instr.target(base + (term.uncond_br_addr - base) - instr.offset + instr.offset) \
                    == term.uncond_target

    def test_function_symbol_size_updated_after_relaxation(self):
        module = _chain_module(nblocks=6)
        obj = _compile(module, bb_sections=BBSectionsMode.ALL)
        exe = link([obj], LinkOptions(entry_symbol="f")).executable
        base, image = exe.text_image()
        for sym in exe.function_symbols():
            assert sym.addr + sym.size <= base + len(image)


class TestRelocations:
    def test_jcc_displacement_points_at_block(self):
        mod = ir.Module(name="m", functions=[ir.Function(name="f", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8)] * 30,
                          term=ir.CondBr(taken=2, fallthrough=1, prob=0.5)),
            ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.ALU8)] * 30, term=ir.Ret()),
            ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.ALU8)], term=ir.Ret()),
        ])])
        exe = link([_compile(mod)], LinkOptions(entry_symbol="f")).executable
        base, image = exe.text_image()
        entry = exe.block_at(exe.entry)
        jcc = decode_instruction(image, entry.term.cond_br_addr - base)
        assert base + jcc.end + jcc.displacement == entry.term.cond_target

    def test_emit_relocs_retained(self):
        caller = ir.Module(name="c", functions=[ir.Function(name="main", blocks=[
            ir.BasicBlock(bb_id=0, instrs=[ir.Call(callee="f")], term=ir.Ret()),
        ])])
        objs = [_compile(caller), _compile(_chain_module())]
        result = link(objs, LinkOptions(entry_symbol="main", emit_relocs=True))
        assert result.executable.retained_relocations
        assert result.executable.section_sizes()["relocs"] > 0
        plain = link(objs, LinkOptions(entry_symbol="main"))
        assert not plain.executable.retained_relocations


class TestMetadataHandling:
    def test_bb_addr_map_kept_and_dropped(self):
        obj = compile_module(_chain_module(), CodeGenOptions(bb_addr_map=True)).obj
        kept = link([obj], LinkOptions(entry_symbol="f", keep_bb_addr_map=True)).executable
        assert kept.section_sizes()["bb_addr_map"] > 0
        dropped = link([obj], LinkOptions(entry_symbol="f", keep_bb_addr_map=False)).executable
        assert dropped.section_sizes()["bb_addr_map"] == 0

    def test_features_and_hugepages_propagate(self):
        obj = _compile(_chain_module())
        exe = link([obj], LinkOptions(entry_symbol="f", features=frozenset({"rseq"}),
                                      hugepages=True)).executable
        assert "rseq" in exe.features
        assert exe.hugepages


class TestStats:
    def test_memory_model(self):
        obj = _compile(_chain_module())
        result = link([obj], LinkOptions(entry_symbol="f"))
        stats = result.stats
        assert stats.input_bytes == obj.total_size
        assert stats.peak_memory_bytes == 2 * stats.input_bytes + stats.output_bytes
        assert stats.cost_units == stats.input_bytes + stats.output_bytes


class TestBaselineDerivation:
    """The link of the metadata build's objects without their map is the
    metadata link without its map sections (§3.2): same digest, same
    execution model, every ``LinkStats`` field equal."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), mode=st.sampled_from(list(BBSectionsMode)),
           hugepages=st.booleans(), debug_info=st.booleans(), emit_relocs=st.booleans(),
           features=st.sampled_from([frozenset(), frozenset({"rseq"}),
                                     frozenset({"rseq", "fips_integrity"})]))
    def test_metadata_without_its_map_is_the_stripped_link(
            self, seed, mode, hugepages, debug_info, emit_relocs, features):
        program = generate_workload(PRESETS["505.mcf"], scale=0.5, seed=seed)
        objects = [compile_module(m, CodeGenOptions(bb_sections=mode, bb_addr_map=True,
                                                    debug_info=debug_info)).obj
                   for m in program.modules]
        order = [f.name for f in program.all_functions()]
        random.Random(seed).shuffle(order)
        common = dict(entry_symbol=program.entry_function, symbol_order=order,
                      emit_relocs=emit_relocs, features=features, hugepages=hugepages)
        metadata = link(objects, LinkOptions(output_name="metadata.out", **common))
        stripped = [strip_bb_addr_map(obj) for obj in objects]
        options = LinkOptions(output_name="base.out", keep_bb_addr_map=False, **common)
        expected = link(stripped, options)
        derived = without_bb_addr_map(metadata, stripped, options)
        assert derived.executable.content_digest() == expected.executable.content_digest()
        assert list(derived.executable.exec_blocks) == list(expected.executable.exec_blocks)
        assert dataclasses.asdict(derived.stats) == dataclasses.asdict(expected.stats)
        assert metadata.executable.section_sizes()["bb_addr_map"] > 0
