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

Both rewrites only ever contract the image, so displacement magnitudes
are monotonically non-increasing and the loop terminates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.elf import Relocation, RelocType, TerminatorKind
from repro.isa import Opcode, encode_instruction, fits_short, instruction_size, short_form
from repro.linker.worksection import WorkSection

_SHRINKABLE = {Opcode.JMP_LONG, Opcode.JCC_LONG}


@dataclass
class RelaxStats:
    deleted_jumps: int = 0
    shrunk_branches: int = 0
    bytes_saved: int = 0
    passes: int = 0


def assign_addresses(text_sections: List[WorkSection], base: int) -> int:
    """Pack text sections in order; returns the end address."""
    cursor = base
    for ws in text_sections:
        align = ws.alignment
        cursor = (cursor + align - 1) & ~(align - 1)
        ws.vaddr = cursor
        cursor += ws.size
    return cursor


def _delete_jump(ws: WorkSection, fixup) -> None:
    size = instruction_size(fixup.opcode)
    block = ws.block_containing(fixup.offset)
    ws.splice(fixup.offset, size, b"")
    ws.fixups.remove(fixup)
    if block is not None and block.term.uncond_br_offset == fixup.offset:
        term = block.term
        term.uncond_target = None
        term.uncond_br_offset = -1
        term.uncond_br_size = 0
        if term.kind == TerminatorKind.JUMP:
            term.kind = TerminatorKind.FALLTHROUGH


def _shrink_branch(ws: WorkSection, fixup) -> int:
    old_size = instruction_size(fixup.opcode)
    new_opcode = short_form(fixup.opcode)
    new_size = instruction_size(new_opcode)
    block = ws.block_containing(fixup.offset)
    ws.splice(fixup.offset, old_size, encode_instruction(new_opcode, displacement=0))
    ws.relocations.append(
        Relocation(offset=fixup.offset + 1, rtype=RelocType.PC8, symbol=fixup.symbol)
    )
    if block is not None:
        term = block.term
        if term.uncond_br_offset == fixup.offset:
            term.uncond_br_size = new_size
        if term.cond_br_offset == fixup.offset:
            term.cond_br_size = new_size
    fixup.opcode = new_opcode
    return old_size - new_size


def relax(
    text_sections: List[WorkSection],
    base: int,
    resolve: Callable[[str], int],
    max_passes: int = 64,
) -> RelaxStats:
    """Run relaxation to a fixed point over ``text_sections`` (in layout order).

    ``resolve`` maps a symbol name to its current absolute address and
    must reflect the most recent :func:`assign_addresses` call; the
    driver re-assigns addresses between passes.
    """
    stats = RelaxStats()
    next_section: Dict[int, Optional[WorkSection]] = {}
    for i, ws in enumerate(text_sections):
        next_section[id(ws)] = text_sections[i + 1] if i + 1 < len(text_sections) else None

    for _ in range(max_passes):
        assign_addresses(text_sections, base)
        changed = False
        for ws in text_sections:
            for fixup in list(ws.fixups):
                size = instruction_size(fixup.opcode)
                target = resolve(fixup.symbol)
                branch_end = ws.vaddr + fixup.offset + size
                disp = target - branch_end
                if (
                    fixup.deletable
                    and disp == 0
                    and fixup.offset + size == ws.size
                    and _adjacency_stable(ws, next_section[id(ws)], target)
                ):
                    _delete_jump(ws, fixup)
                    stats.deleted_jumps += 1
                    stats.bytes_saved += size
                    changed = True
                    continue
                if fixup.opcode in _SHRINKABLE:
                    short_size = instruction_size(short_form(fixup.opcode))
                    disp_short = target - (ws.vaddr + fixup.offset + short_size)
                    if fits_short(disp_short):
                        saved = _shrink_branch(ws, fixup)
                        stats.shrunk_branches += 1
                        stats.bytes_saved += saved
                        changed = True
        stats.passes += 1
        if not changed:
            break
    assign_addresses(text_sections, base)
    return stats


def _adjacency_stable(ws: WorkSection, nxt: Optional[WorkSection], target: int) -> bool:
    """Deleting a trailing jump is safe only when no alignment padding
    can later reappear between this section's end and the jump target:
    the target must be the start of the immediately-following section
    and that section must be unaligned (alignment 1)."""
    if nxt is None:
        return False
    return nxt.alignment == 1 and target == nxt.vaddr


def apply_relocations(
    sections: List[WorkSection], resolve: Callable[[str], int]
) -> int:
    """Patch every relocation into section bytes; returns count applied."""
    applied = 0
    for ws in sections:
        for reloc in ws.relocations:
            target = resolve(reloc.symbol) + reloc.addend
            if reloc.rtype == RelocType.ABS32:
                value = target
                ws.data[reloc.offset : reloc.offset + 4] = value.to_bytes(4, "little")
            else:
                width = 1 if reloc.rtype == RelocType.PC8 else 4
                pc = ws.vaddr + reloc.offset + width
                disp = target - pc
                if reloc.rtype == RelocType.PC8 and not fits_short(disp):
                    raise OverflowError(
                        f"PC8 relocation to {reloc.symbol} out of range ({disp})"
                    )
                ws.data[reloc.offset : reloc.offset + width] = disp.to_bytes(
                    width, "little", signed=True
                )
            applied += 1
    return applied
