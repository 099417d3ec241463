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

Every rewrite strictly shrinks its section and none is ever undone (a
fixup is shrunk at most once and deleted at most once), so the loop ends.
Displacements are *not* monotone: with aligned sections a shrink can
grow the padding in front of a later section and push a branch that
already went short back out of rel8 range.  Nothing here re-checks such
a branch; the PC8 ``OverflowError`` in :func:`apply_relocations` is the
backstop that refuses to emit a truncated displacement.

One pass is one sweep over the fixups, O(fixups): a section's prefix
sums are brought up to date as the sweep passes each fixup, positions
behind the sweep read them directly and positions ahead of it add the
bytes saved so far in this pass.  Sections other than the one being
swept are always up to date; addresses are re-assigned once per pass.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.elf import Relocation, RelocType
from repro.isa import OPCODE_SIZES, Opcode, fits_short, short_form
from repro.linker.worksection import LinkError, WorkSection

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
        saved = 0
        for ws, nxt in zip(text_sections, followers):
            if len(ws.offsets):
                saved += _sweep(ws, nxt, defs, stats)
        if not saved:
            return
    raise LinkError(f"relaxation did not converge in {_MAX_PASSES} passes")


def _sweep(ws: WorkSection, nxt: Optional[WorkSection],
           defs: Dict[str, Tuple[WorkSection, int]], stats: "LinkStats") -> int:
    """One pass over one section's fixups, in offset order; returns bytes saved."""
    offsets, rewritten, prefix, opcodes = ws.offsets, ws.rewritten, ws.prefix, ws.opcodes
    pending = 0  # bytes saved in this section so far in this pass
    for i, (symbol, deletable) in enumerate(zip(ws.targets, ws.deletable)):
        prefix[i] += pending
        opcode = rewritten.get(i, opcodes[i])
        short = _SHORT.get(opcode)
        if short is None and (opcode is None or not deletable):
            continue  # deleted, or already short and here to stay
        entry = defs.get(symbol)
        if entry is None:
            raise LinkError(f"undefined symbol {symbol!r}")
        tws, at = entry
        target = tws.vaddr + tws.remap(at)
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
    prefix[-1] += pending
    return pending


def _adjacency_stable(nxt: Optional[WorkSection], target: int) -> bool:
    """Deleting a trailing jump is safe only when no alignment padding
    can later reappear between this section's end and the jump target:
    the target must be the start of the immediately-following section
    and that section must be unaligned (alignment 1)."""
    return nxt is not None and nxt.alignment == 1 and target == nxt.vaddr


def apply_relocations(ws: WorkSection, data: bytearray, addresses: Dict[str, int],
                      retained: Optional[List[Tuple[int, Relocation]]] = None) -> int:
    """Patch ``ws``'s relocations into ``data``; returns the count applied.

    With ``retained`` given (``--emit-relocs``), each applied relocation
    is also recorded there at its final address.
    """
    relocs = ws.section.relocations
    if not len(relocs) and not ws.rewritten:
        return 0
    rtypes, symbols, addends = relocs.values("rtype"), relocs.values("symbol"), relocs.col("addend")
    pending = ws.pending()
    for offset, k in pending:
        if k >= 0:
            rtype, symbol, addend = rtypes[k], symbols[k], addends[k]
        else:
            rtype, symbol, addend = RelocType.PC8, ws.targets[~k], 0
        target = addresses[symbol] + addend
        if rtype == RelocType.ABS32:
            data[offset : offset + 4] = target.to_bytes(4, "little")
        else:
            width = 1 if rtype == RelocType.PC8 else 4
            disp = target - (ws.vaddr + offset + width)
            if rtype == RelocType.PC8 and not fits_short(disp):
                raise OverflowError(
                    f"PC8 relocation to {symbol} out of range ({disp})"
                )
            data[offset : offset + width] = disp.to_bytes(width, "little", signed=True)
        if retained is not None:
            retained.append((ws.vaddr + offset, Relocation(offset, rtype, symbol, addend)))
    return len(pending)
