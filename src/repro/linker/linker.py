"""The link driver."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.elf import (ExecBlock, Executable, ObjectFile, PlacedSection, RetainedRelocation,
                       SectionKind, SymbolInfo, SymbolType, TerminatorKind, bbaddrmap)
from repro.elf.table import NONE, Strings, Table, rows_of
from repro.linker.relax import apply_relocations, assign_addresses, relax
from repro.linker.state import ALLOCATED, LinkError, LinkState

_SECTION_KINDS = tuple(SectionKind)  # an enum column stores positions in this order
_FUNC = tuple(SymbolType).index(SymbolType.FUNC)
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
        nonalloc.append(s)
    contents = {s: state.section[s].data for s in nonalloc}
    # Relaxation moved block boundaries; re-encode the maps from the
    # final section geometry so profile mapping stays exact.
    for (s, _), data in zip(maps, _reencode_bb_addr_maps(state, [t for _, t in maps])):
        contents[s], state.size[s] = data, len(data)
    cursor = (cursor + PAGE_SIZE - 1) & ~(PAGE_SIZE - 1)
    for s in nonalloc:
        state.vaddr[s] = cursor
        cursor += state.size[s]

    # ----- final addresses, relocations ----------------------------------
    names, symbols = state.strings.names, state.symbols
    addr = state.address(state.home, symbols.ints("offset"))
    symbol_addr = np.full(len(names), -1, dtype=np.int64)
    symbol_addr[symbols.ints("name")] = addr
    applied = apply_relocations(state, loaded, image, symbol_addr)
    stats.relocations_applied = len(applied["s"])

    # ----- the executable: each table once, from the link's columns ------
    exec_blocks = _resolve_exec_blocks(state, text, symbol_addr)
    entry = state.strings.ids().get(options.entry_symbol, -1)
    if entry < 0 or symbol_addr[entry] < 0:
        raise LinkError(f"undefined symbol {options.entry_symbol!r}")
    strings = exec_blocks.strings

    def interned(named: Iterable[str]) -> List[int]:
        return [strings.intern(name) for name in named]

    placed, size = loaded + nonalloc, np.array(state.size, dtype=np.int64)
    sections = Table.from_columns(PlacedSection, strings, {
        "name": interned(state.section[s].name for s in placed), "vaddr": state.vaddr[placed],
        "kind": [_SECTION_KINDS.index(kind[s]) for s in placed], "size": size[placed],
        "origin": interned(state.origin[s] for s in placed)})
    # Assembler temporaries stay out of the symbol table.
    temporary = np.array([name.startswith(".L") for name in names], dtype=bool)
    kept = np.flatnonzero(~temporary[symbols.ints("name")])
    home, addr, stype = state.home[kept], addr[kept], symbols.ints("stype")[kept]
    is_text = np.array([k == SectionKind.TEXT for k in kind], dtype=bool)
    symbol_table = Table.from_columns(SymbolInfo, strings, {
        "name": interned(names[i] for i in symbols.ints("name")[kept].tolist()), "addr": addr,
        # Relaxation shrank the section: a function in text runs to its end.
        "size": np.where((stype == _FUNC) & is_text[home], state.vaddr[home] + size[home] - addr,
                         symbols.ints("size")[kept]),
        "stype": stype, "binding": symbols.ints("binding")[kept]})
    retained: Sequence = ()
    if options.emit_relocs:  # those applied to text
        rows = np.flatnonzero(is_text[applied.pop("s")])
        retained = Table.from_columns(RetainedRelocation, strings, {
            **{path: column[rows] for path, column in applied.items()},
            "symbol": interned(names[i] for i in applied["symbol"][rows].tolist())})
    executable = Executable(
        name=options.output_name,
        entry=int(symbol_addr[entry]),
        sections=sections,
        data=b"".join([image, *(contents[s] for s in nonalloc)]),
        symbols=symbol_table,
        exec_blocks=exec_blocks,
        retained_relocations=retained,
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
    kind, vaddr, size = (exe.sections.ints(path) for path in ("kind", "vaddr", "size"))
    kept = kind != _SECTION_KINDS.index(SectionKind.BB_ADDR_MAP)
    nonalloc = ~np.isin(kind, [_SECTION_KINDS.index(k) for k in ALLOCATED])
    if nonalloc.any():  # they follow text and data: re-pack them from where the first is
        packed = nonalloc & kept
        vaddr = np.where(packed, vaddr[nonalloc][0] + np.cumsum(size * packed) - size, vaddr)
    rows = np.flatnonzero(kept)
    sections, data = exe.sections_at(rows)
    executable = replace(exe, name=options.output_name, data=data, sections=Table.from_columns(
        PlacedSection, exe.strings, {**{path: sections.col(path) for path in (
            "name", "kind", "size", "origin")}, "vaddr": vaddr[rows]}),
        features=options.features, hugepages=options.hugepages)
    stats = replace(linked.stats, input_bytes=sum(obj.total_size for obj in objects),
                    output_bytes=executable.total_size)
    stats.peak_memory_bytes = 2 * stats.input_bytes + stats.output_bytes
    return LinkResult(executable=executable, stats=stats)


def _reencode_bb_addr_maps(state: LinkState, texts: List[int]) -> List[bytes]:
    """Serialize the final block geometry of each of sections ``texts`` as its address map."""
    led = [s for s in texts if state.leader[s] is not None]
    rows = [state.rows("blocks", s) for s in led]
    index, s = rows_of(rows), np.repeat(np.array(led, dtype=np.int64), [len(r) for r in rows])
    offset, size = state.blocks.ints("offset")[index], state.blocks.ints("size")[index]
    starts = state(s, offset)
    encoded = iter(bbaddrmap.encode_blocks([state.leader[s] for s in led], state.blocks, rows,
                                           starts, state(s, offset + size) - starts))
    return [b"" if state.leader[s] is None else next(encoded) for s in texts]


_KINDS = tuple(TerminatorKind)  # an enum column stores positions in this order
#: The columns an execution-model block copies from its input block as they are.
_KEPT = ("bb_id", "term.cond_prob", "term.end_instr_size", "term.ijmp_targets",
         "term.ijmp_targets.1", "calls", "calls.size", "calls.indirect_targets",
         "calls.indirect_targets.1", "is_landing_pad")


def _resolve_exec_blocks(state: LinkState, text: List[int], symbol_addr: np.ndarray) -> Table:
    """The execution model: every input block of sections ``text`` at its
    final address, as array arithmetic over their block rows at once."""
    rows = [state.rows("blocks", s) for s in text]
    blocks = state.blocks.take(rows_of(rows))
    if not len(blocks):
        return Table(ExecBlock)
    names = blocks.strings.names
    sec = np.repeat(np.array(text, dtype=np.int64), [len(r) for r in rows])
    final, base, fixup_at, size_now = state.address, state.base, state.fixup_at, state.size_now
    rewritten = size_now != state.input_size

    def resolve(path: str, missing: int = 0) -> np.ndarray:
        """Addresses of the symbols column ``path`` names (``missing`` where none is named)."""
        ids = blocks.ints(path)
        named = ids >= 0
        out = np.full(len(ids), missing, dtype=np.int64)
        out[named] = symbol_addr[ids[named]]
        if (out[named] < 0).any():
            raise LinkError(f"undefined symbol {names[ids[named][out[named] < 0][0]]!r}")
        return out

    offset, size = blocks.ints("offset"), blocks.ints("size")
    kind = blocks.ints("term.kind")
    cond_at = blocks.ints("term.cond_br_offset")
    uncond_at = blocks.ints("term.uncond_br_offset")
    cond_size = blocks.ints("term.cond_br_size")
    uncond_size = blocks.ints("term.uncond_br_size")
    uncond_target = resolve("term.uncond_target", NONE["q"])

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
    used, func = np.unique(blocks.ints("func"), return_inverse=True)
    strings = Strings([names[i] for i in used.tolist()])
    kind_ids = np.array([strings.intern(k.value) for k in _KINDS])
    call_sec = np.repeat(sec, np.diff(blocks.ints("calls")))
    start = final(sec, offset)
    return Table.from_columns(ExecBlock, strings, {
        **{path: blocks.col(path) for path in _KEPT},
        "addr": start,
        "size": final(sec, offset + size) - start,
        "func": func,
        "term.kind": kind_ids[kind],
        "term.cond_target": resolve("term.cond_target"),
        "term.cond_br_addr": final(sec, cond_at),
        "term.cond_br_size": cond_size,
        "term.uncond_target": uncond_target,
        "term.uncond_br_addr": final(sec, uncond_at),
        "term.uncond_br_size": uncond_size,
        "term.end_instr_addr": final(sec, blocks.ints("term.end_instr_offset")),
        "term.ijmp_targets.0": resolve("term.ijmp_targets.0"),
        "calls.addr": final(call_sec, blocks.ints("calls.offset")),
        "calls.target": resolve("calls.callee", NONE["q"]),
        "calls.indirect_targets.0": resolve("calls.indirect_targets.0"),
        "prefetch_targets": blocks.col("prefetches"),
        "prefetch_targets.0": resolve("prefetches.symbol"),
    })
