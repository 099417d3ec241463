"""The link driver."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import MemoryMeter
from repro.elf import (
    BlockMeta,
    ExecBlock,
    Executable,
    ObjectFile,
    PlacedSection,
    Relocation,
    SectionKind,
    SymbolInfo,
    SymbolType,
    TerminatorKind,
    bbaddrmap,
)
from repro.elf.table import NONE, Strings, Table
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
    defs: Dict[str, Tuple[WorkSection, int]] = {}  # name -> (section, input offset)
    exported = []  # (name, section, size, type, binding) of what reaches the symbol table
    for obj in objects:
        by_name: Dict[str, WorkSection] = {}
        for section in obj.sections:
            ws = WorkSection(section, origin=obj.name)
            by_name[section.name] = ws
            work.append(ws)
        table = obj.symbols
        for name, section, offset, size, stype, binding in zip(
                table.values("name"), table.values("section"), table.col("offset"),
                table.col("size"), table.values("stype"), table.values("binding")):
            ws = by_name.get(section)
            if ws is None:
                raise LinkError(f"{obj.name}: symbol {name} in missing section {section}")
            if name in defs:
                raise LinkError(f"duplicate symbol {name!r}")
            defs[name] = (ws, offset)
            if ws.leader is None and offset == 0 and stype == SymbolType.FUNC:
                ws.leader = name
            if not name.startswith(".L"):  # assembler temporaries stay out of the symbol table
                exported.append((name, ws, size, stype, binding))

    # ----- text layout order ------------------------------------------
    text = [ws for ws in work if ws.kind == SectionKind.TEXT]
    if options.symbol_order:
        chosen: List[WorkSection] = []
        placed = set()
        for name in options.symbol_order:
            entry = defs.get(name)
            if entry is None:
                continue  # stale ordering entries are ignored, like real linkers
            ws, offset = entry
            if offset != 0 or ws.kind != SectionKind.TEXT or id(ws) in placed:
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
    for name, (ws, offset) in defs.items():
        addresses[name] = ws.vaddr + ws.remap(offset)
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
    for name, ws, size, stype, binding in exported:
        addr = addresses[name]
        if stype == SymbolType.FUNC and ws.kind == SectionKind.TEXT:
            size = ws.vaddr + ws.size - addr  # relaxation shrank the section
        symbols[name] = SymbolInfo(name=name, addr=addr, size=size, stype=stype, binding=binding)

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
    if ws.leader is None:
        return b""
    remap, blocks = ws.remap, ws.section.blocks
    starts = [remap(at) for at in blocks.col("offset")]
    sizes = [remap(at + size) - start for at, size, start in
             zip(blocks.col("offset"), blocks.col("size"), starts)]
    return bbaddrmap.encode_blocks(ws.leader, blocks, starts, sizes)


def _ints(column) -> np.ndarray:
    """An ``array`` column as an ndarray over the same memory."""
    return np.frombuffer(column, dtype=column.typecode)


_KINDS = tuple(TerminatorKind)  # an enum column stores positions in this order


def _resolve_exec_blocks(text: List[WorkSection], addresses: Dict[str, int]) -> Table:
    """The execution model: every input block at its final address.

    Array arithmetic over the block columns of all of ``text`` at once.
    Input offset ``p`` of the ``s``-th section is position ``base[s] + p``
    of the concatenated inputs, where the sections' fixups are one sorted
    array and their prefix sums one array, so :meth:`WorkSection.remap`
    of any number of offsets is one ``searchsorted``.
    """
    text = [ws for ws in text if len(ws.section.blocks)]
    blocks = Table.concat(BlockMeta, [ws.section.blocks for ws in text])
    if not len(blocks):
        return Table(ExecBlock)
    names = blocks.strings.names
    sec = np.repeat(np.arange(len(text)), [len(ws.section.blocks) for ws in text])
    vaddr = np.array([ws.vaddr for ws in text], dtype=np.int64)
    base = np.cumsum([0] + [len(ws.section.data) for ws in text])
    fixups = [len(ws.offsets) for ws in text]
    fix_end = np.cumsum(fixups)
    fixup_at = np.concatenate([b + np.asarray(ws.offsets, dtype=np.int64)
                               for b, ws in zip(base, text)])
    saved = np.concatenate([np.asarray(ws.prefix, dtype=np.int64) for ws in text])
    # Per fixup: was it rewritten, and its size now (0: deleted).
    rewritten = np.zeros(len(fixup_at), dtype=bool)
    size_now = np.zeros(len(fixup_at), dtype=np.int64)
    for first, ws in zip(fix_end - fixups, text):
        for i, opcode in ws.rewritten.items():
            rewritten[first + i] = True
            size_now[first + i] = OPCODE_SIZES[opcode] if opcode else 0

    def final(s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Final address of input offset ``p`` of section ``s`` (-1 stays -1)."""
        k = np.minimum(np.searchsorted(fixup_at, base[s] + p), fix_end[s])
        return np.where(p >= 0, vaddr[s] + p - saved[k + s], -1)

    symbol_addr = np.fromiter((addresses.get(name, -1) for name in names), np.int64, len(names))

    def resolve(ids, missing: int = 0) -> np.ndarray:
        """Addresses of the symbols ``ids`` name (``missing`` where none is named)."""
        ids = _ints(ids)
        named = ids >= 0
        out = np.full(len(ids), missing, dtype=np.int64)
        out[named] = symbol_addr[ids[named]]
        if (out[named] < 0).any():
            raise LinkError(f"undefined symbol {names[ids[named][out[named] < 0][0]]!r}")
        return out

    offset, size = _ints(blocks.col("offset")), _ints(blocks.col("size"))
    kind = _ints(blocks.col("term.kind")).copy()
    cond_at = _ints(blocks.col("term.cond_br_offset"))
    uncond_at = _ints(blocks.col("term.uncond_br_offset"))
    cond_size = _ints(blocks.col("term.cond_br_size"))
    uncond_size = _ints(blocks.col("term.uncond_br_size"))
    uncond_target = resolve(blocks.col("term.uncond_target"), NONE["q"])

    def rewrite_of(p: np.ndarray):
        """``(mask, fixup)``: blocks whose branch at offset ``p`` (inside
        the block) was rewritten, and which fixup that is."""
        k = np.minimum(np.searchsorted(fixup_at, base[sec] + p), len(fixup_at) - 1)
        hit = (p >= offset) & (p - offset < size) & (p >= 0) & rewritten[k] & (
            fixup_at[k] == base[sec] + p)
        return hit, k

    if len(fixup_at):
        # A rewritten branch changes the terminator of the block it sits in.
        hit, k = rewrite_of(cond_at)
        cond_size = np.where(hit & (size_now[k] > 0), size_now[k], cond_size)
        hit, k = rewrite_of(uncond_at)
        uncond_size = np.where(hit, size_now[k], uncond_size)
        gone = hit & (size_now[k] == 0)  # the jump was deleted: the block now falls through
        uncond_target[gone] = NONE["q"]
        uncond_at = np.where(gone, -1, uncond_at)
        kind[gone & (kind == _KINDS.index(TerminatorKind.JUMP))] = _KINDS.index(
            TerminatorKind.FALLTHROUGH)

    # The executable's pool: the function names in use, then the kind names.
    used, func = np.unique(_ints(blocks.col("func")), return_inverse=True)
    strings = Strings([names[i] for i in used.tolist()])
    kind_ids = np.array([strings.intern(k.value) for k in _KINDS])
    call_sec = np.repeat(sec, np.diff(_ints(blocks.col("calls"))))
    start = final(sec, offset)
    return Table.from_columns(ExecBlock, strings, {
        "addr": start,
        "size": final(sec, offset + size) - start,
        "func": func,
        "bb_id": blocks.col("bb_id"),
        "term.kind": kind_ids[kind],
        "term.cond_target": resolve(blocks.col("term.cond_target")),
        "term.cond_prob": blocks.col("term.cond_prob"),
        "term.cond_br_addr": final(sec, cond_at),
        "term.cond_br_size": cond_size,
        "term.uncond_target": uncond_target,
        "term.uncond_br_addr": final(sec, uncond_at),
        "term.uncond_br_size": uncond_size,
        "term.end_instr_addr": final(sec, _ints(blocks.col("term.end_instr_offset"))),
        "term.end_instr_size": blocks.col("term.end_instr_size"),
        "term.ijmp_targets": blocks.col("term.ijmp_targets"),
        "term.ijmp_targets.0": resolve(blocks.col("term.ijmp_targets.0")),
        "term.ijmp_targets.1": blocks.col("term.ijmp_targets.1"),
        "calls": blocks.col("calls"),
        "calls.addr": final(call_sec, _ints(blocks.col("calls.offset"))),
        "calls.size": blocks.col("calls.size"),
        "calls.target": resolve(blocks.col("calls.callee"), NONE["q"]),
        "calls.indirect_targets": blocks.col("calls.indirect_targets"),
        "calls.indirect_targets.0": resolve(blocks.col("calls.indirect_targets.0")),
        "calls.indirect_targets.1": blocks.col("calls.indirect_targets.1"),
        "prefetch_targets": blocks.col("prefetches"),
        "prefetch_targets.0": resolve(blocks.col("prefetches.symbol")),
        "is_landing_pad": blocks.col("is_landing_pad"),
    })
