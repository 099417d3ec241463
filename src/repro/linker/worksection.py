"""Per-section link state: a read-only input section plus an offset remap.

The linker never mutates or copies its inputs (they live in the build
cache and must stay byte-stable).  A :class:`WorkSection` refers to its
input :class:`~repro.elf.Section` and records only what relaxation
decided: the new opcode of every rewritten branch fixup and, as prefix
sums over the sorted fixup offsets, the bytes saved before each one.  Every
other offset in the section -- symbols, relocations, blocks, terminator,
call and prefetch offsets -- is derived on demand by :meth:`remap`; the
section's bytes are built once, after the fixed point, by
:meth:`materialize`.  The input's fixups and relocations are read as
table columns; no record is built for them.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.elf import Relocation, RelocType, Section
from repro.isa import BRANCH_OPCODES, OPCODE_SIZES, Opcode, encode_instruction

#: Each branch encoded with displacement 0, as codegen emits it for the
#: linker to patch through a relocation.
_UNPATCHED = {op: encode_instruction(op, displacement=0) for op in BRANCH_OPCODES}


class LinkError(Exception):
    """Raised on unresolved or duplicate symbols and layout errors."""


class WorkSection:
    """One input section during a link.

    ``offsets``, ``opcodes``, ``targets`` and ``deletable`` are the
    columns of the section's branch fixups (offsets validated in order
    and non-overlapping), ``rewritten`` maps a fixup index to the opcode
    relaxation re-encoded it with (``None`` = deleted), ``prefix[k]`` is
    the bytes saved by fixups ``0..k-1`` and ``size`` the current size.
    ``leader`` is the function symbol at offset 0, if any.
    """

    def __init__(self, section: Section, origin: str):
        self.section = section
        self.origin = origin
        self.kind = section.kind
        self.alignment = section.alignment
        self.leader: Optional[str] = None
        self.vaddr = 0
        self.size = len(section.data)
        fixups = section.branch_fixups
        self.offsets: Sequence[int] = fixups.col("offset")
        self.opcodes: List[Opcode] = fixups.values("opcode")
        self.targets: List[str] = fixups.values("symbol")
        self.deletable: Sequence[int] = fixups.col("deletable")
        end = 0
        for offset, opcode in zip(self.offsets, self.opcodes):
            if offset < end:
                raise LinkError(
                    f"{origin}: section {section.name}: branch fixup at offset "
                    f"{offset} is out of order or overlaps its predecessor"
                )
            end = offset + OPCODE_SIZES[opcode]
        if end > self.size:
            raise LinkError(f"{origin}: section {section.name}: fixup past the section end")
        self.prefix = [0] * (len(self.offsets) + 1)
        #: Insertion order is the order branches were first rewritten,
        #: which is the order their PC8 relocations are emitted in.  A
        #: branch grown back to its input form has no entry.
        self.rewritten: Dict[int, Optional[Opcode]] = {}
        #: Fixups grown back out of rel8 range: long for the rest of the link.
        self.pinned: Set[int] = set()
        #: Final bytes, set when the section's content is settled.
        self.data = b""

    def remap(self, p: int) -> int:
        """Current offset of input offset ``p`` (negative values pass through).

        A position moves down by the bytes saved strictly before it, so
        the start of a rewritten branch stays put and its end moves.
        """
        return p - self.prefix[bisect_left(self.offsets, p)]

    def rewrite(self, i: int, opcode: Optional[Opcode]) -> int:
        """Re-encode fixup ``i`` as ``opcode`` (``None`` deletes the branch,
        its input opcode restores the input encoding and relocation).

        Returns the bytes saved (negative for a grow-back).  ``prefix`` is
        not touched: the relaxation sweep that decides rewrites carries
        the running total forward (see :mod:`repro.linker.relax`).
        """
        old = self.rewritten.get(i, self.opcodes[i])
        saved = OPCODE_SIZES[old] - (OPCODE_SIZES[opcode] if opcode else 0)
        if opcode == self.opcodes[i]:
            del self.rewritten[i]
        else:
            self.rewritten[i] = opcode
        self.size -= saved
        return saved

    def materialize(self) -> bytearray:
        """The section's bytes with every rewritten branch re-encoded
        (displacement 0, to be patched through :meth:`relocations`)."""
        data = self.section.data
        if not self.rewritten:
            return bytearray(data)
        pieces = []
        cursor = 0
        for i, opcode in sorted(self.rewritten.items()):
            pieces.append(data[cursor : self.offsets[i]])
            if opcode is not None:
                pieces.append(_UNPATCHED[opcode])
            cursor = self.offsets[i] + OPCODE_SIZES[self.opcodes[i]]
        pieces.append(data[cursor:])
        out = bytearray(b"".join(pieces))
        if len(out) != self.size:
            raise LinkError(f"{self.origin}: section {self.section.name}: relaxed size mismatch")
        return out

    def pending(self) -> List[Tuple[int, int]]:
        """``(current offset, k)`` for everything still to apply: ``k >= 0``
        is the section's ``k``-th relocation, ``k < 0`` the PC8 relocation
        on the displacement byte of fixup ``~k``.

        Input relocations keep their order; one inside a rewritten branch
        is dropped, and every branch that ended up short gets its PC8.
        """
        offsets, rewritten, remap, opcodes = self.offsets, self.rewritten, self.remap, self.opcodes
        ats = self.section.relocations.col("offset")
        if not rewritten:
            return list(zip(ats, range(len(ats))))
        out = []
        for k, at in enumerate(ats):
            i = bisect_right(offsets, at) - 1  # the fixup at or before it
            if i in rewritten and at < offsets[i] + OPCODE_SIZES[opcodes[i]]:
                continue
            out.append((remap(at), k))
        out += [(remap(offsets[i]) + 1, ~i)
                for i, opcode in rewritten.items() if opcode is not None]
        return out

    def relocations(self) -> List[Tuple[int, Relocation]]:
        """:meth:`pending` as ``(current offset, relocation)`` records."""
        relocs = self.section.relocations
        return [
            (at, relocs[k] if k >= 0 else
             Relocation(offset=at, rtype=RelocType.PC8, symbol=self.targets[~k]))
            for at, k in self.pending()
        ]
