"""The link driver."""

from __future__ import annotations

from dataclasses import dataclass, replace
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
from repro.elf.table import NONE, Strings, Table, stacked
from repro.linker.relax import apply_relocations, assign_addresses, relax
from repro.linker.worksection import LinkError, Remap, WorkSection

#: Address of the first text section, and the page every later segment
#: starts on (x86-64 ``ld`` defaults).
TEXT_BASE = 0x400000
PAGE_SIZE = 4096


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
    def_sections: List[int] = []  # the same, by position in ``work``, for the remap
    exported = []  # (name, section, size, type, binding) of what reaches the symbol table
    for obj in objects:
        by_name: Dict[str, Tuple[WorkSection, int]] = {}
        for section in obj.sections:
            ws = WorkSection(section, origin=obj.name)
            by_name[section.name] = (ws, len(work))
            work.append(ws)
        table = obj.symbols
        names, sections, offsets = table.values("name"), table.values("section"), table.col("offset")
        homes = [by_name.get(section) for section in sections]
        if None in homes:
            j = homes.index(None)
            raise LinkError(f"{obj.name}: symbol {names[j]} in missing section {sections[j]}")
        if len(set(names)) < len(names) or not defs.keys().isdisjoint(names):
            seen = set(defs)
            name = next(n for n in names if n in seen or seen.add(n))
            raise LinkError(f"duplicate symbol {name!r}")
        defs.update(zip(names, [(ws, offset) for (ws, _), offset in zip(homes, offsets)]))
        def_sections += [s for _, s in homes]
        stypes, sizes, bindings = table.values("stype"), table.col("size"), table.values("binding")
        for j, stype in enumerate(stypes):  # the first function symbol at 0 leads its section
            if stype is SymbolType.FUNC and not offsets[j] and homes[j][0].leader is None:
                homes[j][0].leader = names[j]
        # Assembler temporaries stay out of the symbol table.
        exported += [(name, homes[j][0], sizes[j], stypes[j], bindings[j])
                     for j, name in enumerate(names) if not name.startswith(".L")]

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
        relax(text, TEXT_BASE, defs, stats)
    text_end = assign_addresses(text, TEXT_BASE)

    # ----- non-text placement ------------------------------------------
    rodata = [ws for ws in work if ws.kind in (SectionKind.RODATA, SectionKind.DATA)]
    cursor = assign_addresses(rodata, (text_end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1))

    remap = Remap(work)
    index = {id(ws): s for s, ws in enumerate(work)}
    text_by_name = {ws.section.name: ws for ws in text}
    nonalloc: List[WorkSection] = []
    maps: List[Tuple[WorkSection, WorkSection]] = []  # (map section, its text section)
    for ws in work:
        if ws.kind in _ALLOCATED:
            continue
        if ws.kind == SectionKind.BB_ADDR_MAP:
            linked_text = text_by_name.get(ws.section.link_name)
            if not options.keep_bb_addr_map or linked_text is None:
                continue  # dropped by the linker (§3.4)
            maps.append((ws, linked_text))
        else:
            ws.data = bytes(ws.section.data)
        nonalloc.append(ws)
    # Relaxation moved block boundaries; re-encode the maps from the
    # final section geometry so profile mapping stays exact.
    for (ws, _), data in zip(maps, _reencode_bb_addr_maps([t for _, t in maps], remap, index)):
        ws.data, ws.size = data, len(data)
    cursor = (cursor + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    for ws in nonalloc:
        ws.vaddr = cursor
        cursor += ws.size

    # ----- final addresses, section bytes, relocations -------------------
    addresses = _Addresses(zip(defs, remap.address(
        np.array(def_sections, dtype=np.int64),
        np.fromiter((offset for _, offset in defs.values()), np.int64, len(defs))).tolist()))
    retained: Optional[List[Tuple[int, Relocation]]] = [] if options.emit_relocs else None
    image = bytearray(b"".join(ws.materialize() for ws in text + rodata))
    stats.relocations_applied = apply_relocations(
        remap, [index[id(ws)] for ws in text + rodata], image, addresses, retained)
    image, cursor = memoryview(image), 0
    for ws in text + rodata:
        ws.data = bytes(image[cursor:cursor + ws.size])
        cursor += ws.size

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

    exec_blocks = _resolve_exec_blocks(text, remap, index, addresses)
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


_ALLOCATED = (SectionKind.TEXT, SectionKind.RODATA, SectionKind.DATA)


def without_bb_addr_map(linked: LinkResult, objects: Sequence[ObjectFile],
                        options: LinkOptions) -> LinkResult:
    """What :func:`link` makes of ``objects`` under ``options``, given
    ``linked``, the link of the same objects with their BB address maps
    under the same options but the output name and ``keep_bb_addr_map``.

    The map is non-allocated and nothing refers to it (§3.2), so the
    text, data, symbols and execution model are ``linked``'s: the map
    sections are dropped and the other non-allocated sections re-packed
    from the page-aligned cursor, as :func:`link` places them.  The
    byte counts (and so the peak) are re-derived from ``objects`` and
    the output; the relaxation and relocation counts are ``linked``'s.
    """
    exe = linked.executable
    sections: List[PlacedSection] = []
    cursor = None
    for placed in exe.sections:  # text, data, then non-allocated
        if placed.kind not in _ALLOCATED:
            cursor = placed.vaddr if cursor is None else cursor
            if placed.kind == SectionKind.BB_ADDR_MAP:
                continue
            placed, cursor = replace(placed, vaddr=cursor), cursor + placed.size
        sections.append(placed)
    executable = Executable(
        name=options.output_name, entry=exe.entry, sections=sections,
        symbols=dict(exe.symbols), exec_blocks=exe.exec_blocks,
        retained_relocations=list(exe.retained_relocations),
        features=options.features, hugepages=options.hugepages)
    stats = replace(linked.stats, input_bytes=sum(obj.total_size for obj in objects),
                    output_bytes=executable.total_size)
    stats.peak_memory_bytes = 2 * stats.input_bytes + stats.output_bytes
    return LinkResult(executable=executable, stats=stats)


class _Addresses(dict):
    """Final ``name -> address`` table; a missing name is a link error."""

    def __missing__(self, name: str) -> int:
        raise LinkError(f"undefined symbol {name!r}")


def _reencode_bb_addr_maps(texts: List[WorkSection], remap: Remap,
                           index: Dict[int, int]) -> List[bytes]:
    """Serialize each text section's final block geometry as its address map."""
    led = [ws for ws in texts if ws.leader is not None]
    tables = [ws.section.blocks for ws in led]
    s = np.repeat(np.array([index[id(ws)] for ws in led], dtype=np.int64),
                  [len(table) for table in tables])
    offset, size = stacked(tables, "offset"), stacked(tables, "size")
    starts = remap(s, offset)
    encoded = iter(bbaddrmap.encode_tables([ws.leader for ws in led], tables, starts,
                                           remap(s, offset + size) - starts))
    return [b"" if ws.leader is None else next(encoded) for ws in texts]


def _ints(column) -> np.ndarray:
    """An ``array`` column as an ndarray over the same memory."""
    return np.frombuffer(column, dtype=column.typecode)


_KINDS = tuple(TerminatorKind)  # an enum column stores positions in this order


def _resolve_exec_blocks(text: List[WorkSection], remap: Remap, index: Dict[int, int],
                         addresses: Dict[str, int]) -> Table:
    """The execution model: every input block of ``text`` at its final
    address, as array arithmetic over their block columns at once."""
    text = [ws for ws in text if len(ws.section.blocks)]
    blocks = Table.concat(BlockMeta, [ws.section.blocks for ws in text])
    if not len(blocks):
        return Table(ExecBlock)
    names = blocks.strings.names
    sec = np.repeat(np.array([index[id(ws)] for ws in text], dtype=np.int64),
                    [len(ws.section.blocks) for ws in text])
    final, base, fixup_at = remap.address, remap.base, remap.fixup_at
    rewritten, size_now = remap.rewritten, remap.size_now

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
