"""Linker relaxation (§4.2).

After global layout, two rewrites run to a fixed point:

* **fall-through deletion** -- an unconditional jump whose target ends
  up exactly at the jump's own end (the reordered successor became
  adjacent) is removed.  Only section-trailing jumps whose target
  section has byte alignment are eligible, so adjacency survives later
  address shifts.
* **branch shrinking** -- long (rel32) jumps and conditional branches
  whose displacement fits in a signed byte are rewritten to their short
  (rel8) forms, with the relocation retyped to PC8.

Displacements are *not* monotone: with aligned sections a shrink can
grow the padding in front of a later section and push a branch that
already went short back out of rel8 range.  Every pass re-checks each
short branch, and one out of range **grows back** to its rel32 form and
is pinned there (LLD does the same).  A fixup shrinks at most once,
grows back at most once and is deleted at most once, so the loop ends;
it stops at the first pass that rewrites nothing, when every short
branch has been checked against the final addresses.  The PC8 ``OverflowError`` in :func:`apply_relocations`
guards the invariant, never a layout.

One pass is one sweep over the fixups, O(fixups): a section's prefix
sums are brought up to date as the sweep passes each fixup, positions
behind the sweep read them directly and positions ahead of it add the
bytes saved so far in this pass.  Sections other than the one being
swept are always up to date; addresses are re-assigned once per pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.elf import Relocation, RelocType, SectionKind
from repro.elf.table import stacked
from repro.isa import OPCODE_SIZES, Opcode, fits_short, short_form
from repro.linker.worksection import LinkError, Remap, WorkSection

if TYPE_CHECKING:
    from repro.linker.linker import LinkStats

#: The rel8 form of each shrinkable (rel32) branch.
_SHORT = {op: short_form(op) for op in (Opcode.JMP_LONG, Opcode.JCC_LONG)}
#: Far more passes than any layout needs; running out is reported, not hidden.
_MAX_PASSES = 64


def assign_addresses(sections: List[WorkSection], base: int) -> int:
    """Pack sections in order, each at its alignment; returns the end address."""
    cursor = base
    for ws in sections:
        align = ws.alignment
        cursor = (cursor + align - 1) & ~(align - 1)
        ws.vaddr = cursor
        cursor += ws.size
    return cursor


def relax(text_sections: List[WorkSection], base: int,
          defs: Dict[str, Tuple[WorkSection, int]], stats: "LinkStats") -> None:
    """Run relaxation to a fixed point over ``text_sections`` (in layout
    order), counting passes and rewrites into ``stats``.

    ``defs`` maps a symbol name to its defining section and input offset.
    """
    followers = text_sections[1:] + [None]
    for _ in range(_MAX_PASSES):
        assign_addresses(text_sections, base)
        stats.relax_passes += 1
        changed = 0
        for ws, nxt in zip(text_sections, followers):
            if len(ws.offsets):
                changed += _sweep(ws, nxt, defs, stats)
        if not changed:
            return
    raise LinkError(f"relaxation did not converge in {_MAX_PASSES} passes")


def _sweep(ws: WorkSection, nxt: Optional[WorkSection],
           defs: Dict[str, Tuple[WorkSection, int]], stats: "LinkStats") -> int:
    """One pass over one section's fixups, in offset order; returns the
    number of rewrites."""
    offsets, rewritten, prefix, opcodes = ws.offsets, ws.rewritten, ws.prefix, ws.opcodes
    pending = 0  # bytes saved in this section so far in this pass
    changed = 0
    for i, (symbol, deletable) in enumerate(zip(ws.targets, ws.deletable)):
        prefix[i] += pending
        opcode = rewritten.get(i, opcodes[i])
        if opcode is None:
            continue  # deleted
        is_short = i in rewritten
        short = None if i in ws.pinned else _SHORT.get(opcode)
        if short is None and not is_short and not deletable:
            continue  # long for good
        entry = defs.get(symbol)
        if entry is None:
            raise LinkError(f"undefined symbol {symbol!r}")
        tws, at = entry
        target = tws.address(at)
        if tws is ws and at > offsets[i]:
            target -= pending  # ahead of the sweep: prefix not yet refreshed
        size = OPCODE_SIZES[opcode]
        start = ws.vaddr + offsets[i] - prefix[i]
        if (
            deletable
            and target == start + size
            and start + size == ws.vaddr + ws.size
            and _adjacency_stable(nxt, target)
        ):
            pending += ws.rewrite(i, None)
            stats.deleted_jumps += 1
        elif short is not None and fits_short(target - (start + OPCODE_SIZES[short])):
            pending += ws.rewrite(i, short)
            stats.shrunk_branches += 1
        elif is_short and not fits_short(target - (start + size)):
            pending += ws.rewrite(i, opcodes[i])  # negative: it grows
            ws.pinned.add(i)
            stats.shrunk_branches -= 1
        else:
            continue
        changed += 1
    prefix[-1] += pending
    return changed


def _adjacency_stable(nxt: Optional[WorkSection], target: int) -> bool:
    """Deleting a trailing jump is safe only when no alignment padding
    can later reappear between this section's end and the jump target:
    the target must be the start of the immediately-following section
    and that section must be unaligned (alignment 1)."""
    return nxt is not None and nxt.alignment == 1 and target == nxt.vaddr


_RTYPES = tuple(RelocType)  # an enum column stores positions in this order
_PC8, _ABS32 = _RTYPES.index(RelocType.PC8), _RTYPES.index(RelocType.ABS32)
#: Per relocation type (by position): field width and the range of the value it holds.
_WIDTH = np.array([1 if t == RelocType.PC8 else 4 for t in _RTYPES])
_LOW, _HIGH = np.array([{RelocType.PC8: (-(1 << 7), (1 << 7) - 1),
                         RelocType.PC32: (-(1 << 31), (1 << 31) - 1),
                         RelocType.ABS32: (0, (1 << 32) - 1)}[t] for t in _RTYPES]).T


def apply_relocations(remap: Remap, which: Sequence[int], image: bytearray,
                      addresses: Dict[str, int],
                      retained: Optional[List[Tuple[int, Relocation]]] = None) -> int:
    """Patch the relocations of sections ``which`` of ``remap`` into
    ``image``, their current bytes laid end to end, as column arithmetic;
    returns the count applied.

    With ``retained`` given (``--emit-relocs``), each one applied to a
    text section is also recorded there at its final address.
    """
    sections = remap.sections
    s, at, k = remap.pending(which)
    relocs = [sections[w].section.relocations for w in which]
    counts = np.array([len(table) for table in relocs], dtype=np.int64)
    rank = np.zeros(len(sections), dtype=np.int64)
    rank[which] = np.arange(len(which))
    # Input relocation k of a section is row ``rows[section] + k`` of the columns laid end to end.
    inputs = k >= 0
    row = (np.cumsum(counts) - counts)[rank[s[inputs]]] + k[inputs]
    rtype = np.full(len(k), _PC8)
    rtype[inputs] = stacked(relocs, "rtype")[row]
    addend = np.zeros(len(k), dtype=np.int64)
    addend[inputs] = stacked(relocs, "addend")[row]
    resolved = _symbol_addresses(relocs + [ws.section.branch_fixups for ws in sections],
                                 addresses)
    target = np.empty(len(k), dtype=np.int64)
    target[inputs] = resolved[row]
    target[~inputs] = resolved[int(counts.sum()) + remap.first[s[~inputs]] + ~k[~inputs]]

    def symbol(j: int) -> str:
        ws = sections[s[j]]
        return ws.section.relocations[k[j]].symbol if k[j] >= 0 else ws.targets[~k[j]]

    if (target < 0).any():
        raise LinkError(f"undefined symbol {symbol(int(np.argmax(target < 0)))!r}")
    width, field = _WIDTH[rtype], remap.vaddr[s] + at
    value = np.where(rtype == _ABS32, target + addend, target + addend - (field + width))
    bad = (value < _LOW[rtype]) | (value > _HIGH[rtype])
    if bad.any():
        j = int(np.argmax(bad))
        raise OverflowError(f"{_RTYPES[rtype[j]].name} relocation to {symbol(j)} "
                            f"out of range ({value[j]})")
    start = np.zeros(len(sections), dtype=np.int64)
    sizes = np.array([sections[w].size for w in which], dtype=np.int64)
    start[which] = np.cumsum(sizes) - sizes
    view, pos, one = np.frombuffer(image, dtype=np.uint8), start[s] + at, width == 1
    view[pos[one]] = value[one] & 0xFF
    view[pos[~one, None] + np.arange(4)] = (value[~one] & 0xFFFFFFFF).astype("<u4").view(
        np.uint8).reshape(-1, 4)
    if retained is not None:
        retained += [(int(field[j]), Relocation(int(at[j]), _RTYPES[rtype[j]], symbol(j),
                                                int(addend[j])))
                     for j in range(len(k)) if sections[s[j]].kind == SectionKind.TEXT]
    return len(k)


def _symbol_addresses(tables: Sequence, addresses: Dict[str, int]) -> np.ndarray:
    """The address of the symbol each row of ``tables``, laid end to end,
    names in its ``symbol`` column (-1 where none is defined)."""
    tables = [table for table in tables if len(table)]
    starts: Dict[int, int] = {}  # a pool -> where its names' addresses start
    known = [np.zeros(0, dtype=np.int64)]
    for table in tables:
        names = table.strings.names
        if id(table.strings) not in starts:
            starts[id(table.strings)] = sum(map(len, known))
            known.append(np.fromiter((addresses.get(n, -1) for n in names), np.int64, len(names)))
    ids = stacked(tables, "symbol") + np.repeat(
        np.array([starts[id(table.strings)] for table in tables], dtype=np.int64),
        [len(table) for table in tables])
    return np.concatenate(known)[ids]
