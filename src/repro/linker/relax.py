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

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.elf import RelocType
from repro.isa import OPCODE_SIZES, Opcode, fits_short, short_form
from repro.linker.state import WIDTH, LinkError, LinkState

if TYPE_CHECKING:
    from repro.linker.linker import LinkStats

#: The rel8 form of each shrinkable (rel32) branch.
_SHORT = {op: short_form(op) for op in (Opcode.JMP_LONG, Opcode.JCC_LONG)}
#: Far more passes than any layout needs; running out is reported, not hidden.
_MAX_PASSES = 64


def assign_addresses(state: LinkState, which: Sequence[int], base: int) -> int:
    """Pack sections ``which`` in order, each at its alignment; returns the end address."""
    cursor = base
    vaddr, size, alignment = state.vaddr, state.size, state.alignment
    for s in which:
        align = alignment[s]
        cursor = (cursor + align - 1) & ~(align - 1)
        vaddr[s] = cursor
        cursor += size[s]
    return cursor


def relax(state: LinkState, text: List[int], base: int, stats: "LinkStats") -> None:
    """Run relaxation to a fixed point over sections ``text`` (in layout
    order), counting passes and rewrites into ``stats``."""
    followers = text[1:] + [None]
    for _ in range(_MAX_PASSES):
        assign_addresses(state, text, base)
        stats.relax_passes += 1
        changed = 0
        for s, nxt in zip(text, followers):
            changed += _sweep(state, s, nxt, stats)
        if not changed:
            return
    raise LinkError(f"relaxation did not converge in {_MAX_PASSES} passes")


def _sweep(state: LinkState, s: int, nxt: Optional[int], stats: "LinkStats") -> int:
    """One pass over the fixups of section ``s``, in offset order; returns
    the number of rewrites."""
    rewritten, saved, opcodes, pinned = state.rewritten, state.saved, state.opcode, state.pinned
    fixup_at, defs, vaddr, remap = state.fixup_at, state.defs, state.vaddr, state.remap
    base, addr, end = state.base[s], vaddr[s], state.end[s]
    pending = 0  # bytes saved in this section so far in this pass
    changed = 0
    for f in range(state.first[s], end):
        saved[f + s] += pending
        opcode = rewritten.get(f, opcodes[f])
        if opcode is None:
            continue  # deleted
        is_short = f in rewritten
        short = None if f in pinned else _SHORT.get(opcode)
        deletable = state.deletable[f]
        if short is None and not is_short and not deletable:
            continue  # long for good
        entry = defs.get(state.target[f])
        if entry is None:
            raise LinkError(f"undefined symbol {state.target[f]!r}")
        t, at = entry
        target = vaddr[t] + remap(t, at)
        offset = fixup_at[f] - base
        if t == s and at > offset:
            target -= pending  # ahead of the sweep: its sum not yet refreshed
        size = OPCODE_SIZES[opcode]
        start = addr + offset - saved[f + s]
        if (
            deletable
            and target == start + size
            and start + size == addr + state.size[s]
            and _adjacency_stable(state, nxt, target)
        ):
            pending += state.rewrite(s, f, None)
            stats.deleted_jumps += 1
        elif short is not None and fits_short(target - (start + OPCODE_SIZES[short])):
            pending += state.rewrite(s, f, short)
            stats.shrunk_branches += 1
        elif is_short and not fits_short(target - (start + size)):
            pending += state.rewrite(s, f, opcodes[f])  # negative: it grows
            pinned.add(f)
            stats.shrunk_branches -= 1
        else:
            continue
        changed += 1
    saved[end + s] += pending
    return changed


def _adjacency_stable(state: LinkState, nxt: Optional[int], target: int) -> bool:
    """Deleting a trailing jump is safe only when no alignment padding
    can later reappear between this section's end and the jump target:
    the target must be the start of the immediately-following section
    and that section must be unaligned (alignment 1)."""
    return nxt is not None and state.alignment[nxt] == 1 and target == state.vaddr[nxt]


_RTYPES = tuple(RelocType)  # an enum column stores positions in this order
_PC8, _ABS32 = _RTYPES.index(RelocType.PC8), _RTYPES.index(RelocType.ABS32)
#: Per relocation type (by position): the range of the value it holds.
_LOW, _HIGH = np.array([{RelocType.PC8: (-(1 << 7), (1 << 7) - 1),
                         RelocType.PC32: (-(1 << 31), (1 << 31) - 1),
                         RelocType.ABS32: (0, (1 << 32) - 1)}[t] for t in _RTYPES]).T


def apply_relocations(state: LinkState, which: Sequence[int], image: bytearray,
                      symbol_addr: np.ndarray) -> Dict[str, np.ndarray]:
    """Patch the relocations of sections ``which`` into ``image``, their
    current bytes laid end to end, as column arithmetic.  ``symbol_addr``
    is the address of each name of ``state.strings`` (-1 where no symbol
    is defined).

    Returns what was applied, in order, as columns: ``s`` the section,
    ``addr`` the field's final address, ``offset`` its offset in the
    section, ``rtype`` (a position in :class:`RelocType`), ``symbol`` (an
    id in ``state.strings``) and ``addend``.
    """
    s, at, k = state.pending(which)
    relocs, inputs = state.relocations, k >= 0
    rtype = np.full(len(k), _PC8)
    rtype[inputs] = relocs.ints("rtype")[k[inputs]]
    addend = np.zeros(len(k), dtype=np.int64)
    addend[inputs] = relocs.ints("addend")[k[inputs]]
    name = np.empty(len(k), dtype=np.int64)  # the id of the symbol each one names
    name[inputs] = relocs.ints("symbol")[k[inputs]]
    name[~inputs] = state.fixups.ints("symbol")[~k[~inputs]]
    target = symbol_addr[name]

    def symbol(j: int) -> str:
        return state.strings.names[name[j]]

    if (target < 0).any():
        raise LinkError(f"undefined symbol {symbol(int(np.argmax(target < 0)))!r}")
    width, field = WIDTH[rtype], state.vaddr[s] + at
    value = np.where(rtype == _ABS32, target + addend, target + addend - (field + width))
    bad = (value < _LOW[rtype]) | (value > _HIGH[rtype])
    if bad.any():
        j = int(np.argmax(bad))
        raise OverflowError(f"{_RTYPES[rtype[j]].name} relocation to {symbol(j)} "
                            f"out of range ({value[j]})")
    sizes = np.array([state.size[w] for w in which], dtype=np.int64)
    rank = np.zeros(len(state.section), dtype=np.int64)
    rank[which] = np.arange(len(which))
    pos = (np.cumsum(sizes) - sizes)[rank[s]] + at  # where each field sits in ``image``
    view, one = np.frombuffer(image, dtype=np.uint8), width == 1
    view[pos[one]] = value[one] & 0xFF
    view[pos[~one, None] + np.arange(4)] = (value[~one] & 0xFFFFFFFF).astype("<u4").view(
        np.uint8).reshape(-1, 4)
    return {"s": s, "addr": field, "offset": at, "rtype": rtype, "symbol": name, "addend": addend}
