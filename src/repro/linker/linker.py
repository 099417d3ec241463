"""The link driver."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.elf import (BlockMeta, ExecBlock, Executable, ObjectFile, PlacedSection, Relocation,
                       SectionKind, SymbolInfo, SymbolType, TerminatorKind, bbaddrmap)
from repro.elf.table import NONE, Strings, Table, stacked
from repro.linker.relax import apply_relocations, assign_addresses, relax
from repro.linker.state import ALLOCATED, LinkError, LinkState

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


def link(objects: Sequence[ObjectFile], options: LinkOptions = LinkOptions()) -> LinkResult:
    """Link ``objects`` into an executable."""
    state = LinkState(objects)
    stats = LinkStats(input_bytes=sum(obj.total_size for obj in objects))
    every, kind = range(len(state.section)), state.kind

    # ----- text layout order ------------------------------------------
    text = [s for s in every if kind[s] == SectionKind.TEXT]
    if options.symbol_order:
        chosen: Dict[int, None] = {}  # ordered, each section once
        for name in options.symbol_order:
            s, offset = state.defs.get(name, (0, None))
            # Stale ordering entries are ignored, like real linkers.
            if offset == 0 and kind[s] == SectionKind.TEXT:
                chosen.setdefault(s)
        text = [*chosen, *(s for s in text if s not in chosen)]

    # ----- relaxation and address assignment ---------------------------
    if options.relax:
        relax(state, text, TEXT_BASE, stats)
    text_end = assign_addresses(state, text, TEXT_BASE)

    # ----- non-text placement ------------------------------------------
    rodata = [s for s in every if kind[s] in (SectionKind.RODATA, SectionKind.DATA)]
    cursor = assign_addresses(state, rodata, (text_end + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1))
    loaded = text + rodata
    image = state.image(loaded)
    state.settle()

    text_by_name = {state.section[s].name: s for s in text}
    nonalloc: List[int] = []
    maps: List[Tuple[int, int]] = []  # (map section, its text section)
    for s in every:
        if kind[s] in ALLOCATED:
            continue
        if kind[s] == SectionKind.BB_ADDR_MAP:
            linked_text = text_by_name.get(state.section[s].link_name)
            if not options.keep_bb_addr_map or linked_text is None:
                continue  # dropped by the linker (§3.4)
            maps.append((s, linked_text))
        else:
            state.data[s] = bytes(state.section[s].data)
        nonalloc.append(s)
    # Relaxation moved block boundaries; re-encode the maps from the
    # final section geometry so profile mapping stays exact.
    for (s, _), data in zip(maps, _reencode_bb_addr_maps(state, [t for _, t in maps])):
        state.data[s], state.size[s] = data, len(data)
    cursor = (cursor + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    for s in nonalloc:
        state.vaddr[s] = cursor
        cursor += state.size[s]

    # ----- final addresses, section bytes, relocations -------------------
    home, offset = np.array([*state.defs.values()], dtype=np.int64).reshape(-1, 2).T
    addresses = dict(zip(state.defs, state.address(home, offset).tolist()))
    retained: Optional[List[Tuple[int, Relocation]]] = [] if options.emit_relocs else None
    stats.relocations_applied = apply_relocations(state, loaded, image, addresses, retained)
    image, cursor = memoryview(image), 0
    for s in loaded:
        state.data[s] = bytes(image[cursor:cursor + state.size[s]])
        cursor += state.size[s]

    # ----- assemble the executable --------------------------------------
    vaddr = state.vaddr.tolist()
    placed_sections = [
        PlacedSection(name=state.section[s].name, kind=kind[s], vaddr=vaddr[s],
                      data=state.data[s], origin=state.origin[s])
        for s in loaded + nonalloc
    ]
    symbols: Dict[str, SymbolInfo] = {}
    for name, s, size, stype, binding in state.exported:
        addr = addresses[name]
        if stype == SymbolType.FUNC and kind[s] == SectionKind.TEXT:
            size = vaddr[s] + state.size[s] - addr  # relaxation shrank the section
        symbols[name] = SymbolInfo(name=name, addr=addr, size=size, stype=stype, binding=binding)

    exec_blocks = _resolve_exec_blocks(state, text, addresses)
    if options.entry_symbol not in addresses:
        raise LinkError(f"undefined symbol {options.entry_symbol!r}")
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
    return LinkResult(executable=executable, stats=stats)


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
        if placed.kind not in ALLOCATED:
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


def _reencode_bb_addr_maps(state: LinkState, texts: List[int]) -> List[bytes]:
    """Serialize the final block geometry of each of sections ``texts`` as its address map."""
    led = [s for s in texts if state.leader[s] is not None]
    tables = [state.section[s].blocks for s in led]
    s = np.repeat(np.array(led, dtype=np.int64), [len(table) for table in tables])
    offset, size = stacked(tables, "offset"), stacked(tables, "size")
    starts = state(s, offset)
    encoded = iter(bbaddrmap.encode_tables([state.leader[s] for s in led], tables, starts,
                                           state(s, offset + size) - starts))
    return [b"" if state.leader[s] is None else next(encoded) for s in texts]


def _ints(column) -> np.ndarray:
    """An ``array`` column as an ndarray over the same memory."""
    return np.frombuffer(column, dtype=column.typecode)


_KINDS = tuple(TerminatorKind)  # an enum column stores positions in this order


def _resolve_exec_blocks(state: LinkState, text: List[int],
                         addresses: Dict[str, int]) -> Table:
    """The execution model: every input block of sections ``text`` at its
    final address, as array arithmetic over their block columns at once."""
    text = [s for s in text if len(state.section[s].blocks)]
    tables = [state.section[s].blocks for s in text]
    blocks = Table.concat(BlockMeta, tables)
    if not len(blocks):
        return Table(ExecBlock)
    names = blocks.strings.names
    sec = np.repeat(np.array(text, dtype=np.int64), [len(table) for table in tables])
    final, base, fixup_at, size_now = state.address, state.base, state.fixup_at, state.size_now
    rewritten = size_now != state.input_size

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
