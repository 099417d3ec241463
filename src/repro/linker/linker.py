"""The link driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis import MemoryMeter
from repro.elf import (
    ExecBlock,
    Executable,
    ObjectFile,
    PlacedSection,
    Relocation,
    SectionKind,
    Symbol,
    SymbolInfo,
    SymbolType,
    TerminatorKind,
    bbaddrmap,
)
from repro.elf.executable import ResolvedCall, ResolvedTerminator
from repro.isa import OPCODE_SIZES
from repro.linker.relax import apply_relocations, assign_addresses, relax
from repro.linker.worksection import LinkError, WorkSection


@dataclass(frozen=True)
class LinkOptions:
    """Linker configuration.

    ``symbol_order`` is the symbol ordering file (``ld_prof.txt`` in
    Figure 1): section-leader symbols named here have their sections
    placed first, in the given order; everything else follows in input
    order.  ``emit_relocs`` retains static relocations in the output
    (``--emit-relocs``, required by the BOLT baseline).
    ``keep_bb_addr_map`` controls whether BB address map metadata
    survives into the executable (kept for the Propeller metadata
    binary, dropped at the final relink -- §3.4).
    """

    symbol_order: Optional[Sequence[str]] = None
    emit_relocs: bool = False
    keep_bb_addr_map: bool = True
    text_base: int = 0x400000
    page_size: int = 4096
    entry_symbol: str = "main"
    relax: bool = True
    output_name: str = "a.out"
    features: FrozenSet[str] = frozenset()
    hugepages: bool = False


@dataclass
class LinkStats:
    """Link-action accounting (memory model: ~2x inputs + output)."""

    input_bytes: int = 0
    output_bytes: int = 0
    peak_memory_bytes: int = 0
    relocations_applied: int = 0
    deleted_jumps: int = 0
    shrunk_branches: int = 0
    relax_passes: int = 0

    @property
    def cost_units(self) -> int:
        """Work proportional to bytes processed (for the build clock)."""
        return self.input_bytes + self.output_bytes


@dataclass
class LinkResult:
    executable: Executable
    stats: LinkStats


def link(
    objects: Sequence[ObjectFile],
    options: LinkOptions = LinkOptions(),
    meter: Optional[MemoryMeter] = None,
) -> LinkResult:
    """Link ``objects`` into an executable."""
    stats = LinkStats(input_bytes=sum(obj.total_size for obj in objects))
    if meter is not None:
        # The linker holds all inputs plus working copies (~2x), then the output.
        meter.allocate(2 * stats.input_bytes, "link-inputs")

    work: List[WorkSection] = []
    defs: Dict[str, Tuple[WorkSection, Symbol]] = {}
    for obj in objects:
        by_name: Dict[str, WorkSection] = {}
        for section in obj.sections:
            ws = WorkSection(section, origin=obj.name)
            by_name[section.name] = ws
            work.append(ws)
        for sym in obj.symbols:
            ws = by_name.get(sym.section)
            if ws is None:
                raise LinkError(f"{obj.name}: symbol {sym.name} in missing section {sym.section}")
            ws.symbols.append(sym)
            if sym.name in defs:
                raise LinkError(f"duplicate symbol {sym.name!r}")
            defs[sym.name] = (ws, sym)

    # ----- text layout order ------------------------------------------
    text = [ws for ws in work if ws.kind == SectionKind.TEXT]
    if options.symbol_order:
        chosen: List[WorkSection] = []
        placed = set()
        for name in options.symbol_order:
            entry = defs.get(name)
            if entry is None:
                continue  # stale ordering entries are ignored, like real linkers
            ws, sym = entry
            if sym.offset != 0 or ws.kind != SectionKind.TEXT or id(ws) in placed:
                continue
            chosen.append(ws)
            placed.add(id(ws))
        chosen.extend(ws for ws in text if id(ws) not in placed)
        text = chosen

    # ----- relaxation and address assignment ---------------------------
    if options.relax:
        relax(text, options.text_base, defs, stats)
    text_end = assign_addresses(text, options.text_base)

    # ----- non-text placement ------------------------------------------
    page = options.page_size
    rodata = [ws for ws in work if ws.kind in (SectionKind.RODATA, SectionKind.DATA)]
    cursor = assign_addresses(rodata, (text_end + page - 1) & ~(page - 1))

    text_by_name = {ws.section.name: ws for ws in text}
    nonalloc: List[WorkSection] = []
    for ws in work:
        if ws.kind in (SectionKind.TEXT, SectionKind.RODATA, SectionKind.DATA):
            continue
        if ws.kind == SectionKind.BB_ADDR_MAP:
            linked_text = text_by_name.get(ws.section.link_name)
            if not options.keep_bb_addr_map or linked_text is None:
                continue  # dropped by the linker (§3.4)
            # Relaxation moved block boundaries; re-encode the map from
            # the final section geometry so profile mapping stays exact.
            ws.data = _reencode_bb_addr_map(linked_text)
            ws.size = len(ws.data)
        else:
            ws.data = bytes(ws.section.data)
        nonalloc.append(ws)
    cursor = (cursor + page - 1) & ~(page - 1)
    for ws in nonalloc:
        ws.vaddr = cursor
        cursor += ws.size

    # ----- final addresses, section bytes, relocations -------------------
    addresses = _Addresses()
    for name, (ws, sym) in defs.items():
        addresses[name] = ws.vaddr + ws.remap(sym.offset)
    retained: Optional[List[Tuple[int, Relocation]]] = [] if options.emit_relocs else None
    for ws in text + rodata:
        data = ws.materialize()
        stats.relocations_applied += apply_relocations(
            ws, data, addresses, retained if ws.kind == SectionKind.TEXT else None
        )
        ws.data = bytes(data)

    # ----- assemble the executable --------------------------------------
    placed_sections = [
        PlacedSection(name=ws.section.name, kind=ws.kind, vaddr=ws.vaddr,
                      data=ws.data, origin=ws.origin)
        for ws in text + rodata + nonalloc
    ]
    symbols: Dict[str, SymbolInfo] = {}
    for name, (ws, sym) in defs.items():
        if name.startswith(".L"):
            continue  # assembler temporaries never reach the symbol table
        addr = addresses[name]
        size = sym.size
        if sym.stype == SymbolType.FUNC and ws.kind == SectionKind.TEXT:
            size = ws.vaddr + ws.size - addr  # relaxation shrank the section
        symbols[name] = SymbolInfo(
            name=name, addr=addr, size=size, stype=sym.stype, binding=sym.binding,
        )

    exec_blocks = _resolve_exec_blocks(text, addresses)
    executable = Executable(
        name=options.output_name,
        entry=addresses[options.entry_symbol],
        sections=placed_sections,
        symbols=symbols,
        exec_blocks=exec_blocks,
        retained_relocations=retained or [],
        features=options.features,
        hugepages=options.hugepages,
    )
    stats.output_bytes = executable.total_size
    stats.peak_memory_bytes = 2 * stats.input_bytes + stats.output_bytes
    if meter is not None:
        meter.allocate(stats.output_bytes, "link-output")
        meter.free(2 * stats.input_bytes, "link-inputs")
        meter.free(stats.output_bytes, "link-output")
    return LinkResult(executable=executable, stats=stats)


class _Addresses(dict):
    """Final ``name -> address`` table; a missing name is a link error."""

    def __missing__(self, name: str) -> int:
        raise LinkError(f"undefined symbol {name!r}")


def _reencode_bb_addr_map(ws: WorkSection) -> bytes:
    """Serialize a text section's final block geometry as its address map."""
    leader = next(
        (s.name for s in ws.symbols if s.offset == 0 and s.stype == SymbolType.FUNC),
        None,
    )
    if leader is None:
        return b""
    remap = ws.remap
    entries = []
    for meta in ws.section.blocks:
        flags = 0
        if meta.is_landing_pad:
            flags |= bbaddrmap.FLAG_LANDING_PAD
        if meta.term.kind == TerminatorKind.RET:
            flags |= bbaddrmap.FLAG_HAS_RETURN
        if meta.term.kind == TerminatorKind.IJMP:
            flags |= bbaddrmap.FLAG_HAS_INDIRECT_JUMP
        offset = remap(meta.offset)
        entries.append(bbaddrmap.BBEntry(
            bb_id=meta.bb_id, offset=offset,
            size=remap(meta.offset + meta.size) - offset, flags=flags,
        ))
    return bbaddrmap.encode_function_map(
        bbaddrmap.FunctionMap(func=leader, entries=tuple(entries))
    )


_KIND_NAMES = {kind: kind.value for kind in TerminatorKind}


def _resolve_exec_blocks(text: List[WorkSection], addresses: Dict[str, int]) -> List[ExecBlock]:
    """The execution model: every input block at its final address."""
    blocks: List[ExecBlock] = []
    for ws in text:
        base = ws.vaddr
        remap = ws.remap
        rewritten = {ws.offsets[i]: opcode for i, opcode in ws.rewritten.items()}
        for meta in ws.section.blocks:
            term = meta.term
            kind = term.kind
            cond_at, cond_size = term.cond_br_offset, term.cond_br_size
            uncond_at, uncond_size = term.uncond_br_offset, term.uncond_br_size
            uncond_target = term.uncond_target
            end_at = term.end_instr_offset
            if rewritten:
                # A rewritten branch changes the terminator of the block it sits in.
                if cond_at in rewritten and 0 <= cond_at - meta.offset < meta.size:
                    opcode = rewritten[cond_at]
                    if opcode is not None:
                        cond_size = OPCODE_SIZES[opcode]
                if uncond_at in rewritten and 0 <= uncond_at - meta.offset < meta.size:
                    opcode = rewritten[uncond_at]
                    if opcode is not None:
                        uncond_size = OPCODE_SIZES[opcode]
                    else:  # the jump was deleted: the block now falls through
                        uncond_target, uncond_at, uncond_size = None, -1, 0
                        if kind == TerminatorKind.JUMP:
                            kind = TerminatorKind.FALLTHROUGH
            start = remap(meta.offset)
            blocks.append(ExecBlock(
                addr=base + start,
                size=remap(meta.offset + meta.size) - start,
                func=meta.func,
                bb_id=meta.bb_id,
                term=ResolvedTerminator(
                    kind=_KIND_NAMES.get(kind) or str(kind),
                    cond_target=addresses[term.cond_target] if term.cond_target else 0,
                    cond_prob=term.cond_prob,
                    cond_br_addr=base + remap(cond_at) if cond_at >= 0 else -1,
                    cond_br_size=cond_size,
                    uncond_target=addresses[uncond_target] if uncond_target else None,
                    uncond_br_addr=base + remap(uncond_at) if uncond_at >= 0 else -1,
                    uncond_br_size=uncond_size,
                    end_instr_addr=base + remap(end_at) if end_at >= 0 else -1,
                    end_instr_size=term.end_instr_size,
                    ijmp_targets=tuple([(addresses[s], p) for s, p in term.ijmp_targets])
                    if term.ijmp_targets else (),
                ),
                calls=tuple([
                    ResolvedCall(
                        addr=base + remap(call.offset),
                        size=call.size,
                        target=addresses[call.callee] if call.callee else None,
                        indirect_targets=tuple(
                            [(addresses[s], p) for s, p in call.indirect_targets]
                        ),
                    )
                    for call in meta.calls
                ]) if meta.calls else (),
                prefetch_targets=tuple([addresses[p.symbol] for p in meta.prefetches])
                if meta.prefetches else (),
                is_landing_pad=meta.is_landing_pad,
            ))
    blocks.sort(key=lambda b: b.addr)
    return blocks
