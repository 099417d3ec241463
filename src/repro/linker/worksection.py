"""Per-section link state: a read-only input section plus an offset remap.

The linker never mutates or copies its inputs (they live in the build
cache and must stay byte-stable).  A :class:`WorkSection` refers to its
input :class:`~repro.elf.Section` and records only what relaxation
decided: the new opcode of every rewritten branch fixup and, as prefix
sums over the sorted fixup offsets, the bytes saved before each one.
The section's bytes are built once, after the fixed point, by
:meth:`WorkSection.materialize`.  Every other offset -- symbols,
relocations, blocks, terminator, call and prefetch offsets -- is then
derived by :class:`Remap`, for every section of the link at once: the
relaxation sweep is the only caller of the one-offset
:meth:`WorkSection.remap`.  The input's fixups and relocations are read
as table columns; no record is built for them.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.elf import Relocation, RelocType, Section
from repro.elf.table import run_index, stacked
from repro.isa import BRANCH_OPCODES, OPCODE_SIZES, Opcode

#: Each branch encoded with displacement 0, as codegen emits it for the
#: linker to patch through a relocation.
_UNPATCHED = {op: bytes([op]).ljust(OPCODE_SIZES[op], b"\0") for op in BRANCH_OPCODES}
#: Instruction size by position in :class:`Opcode` (an enum column's code).
_SIZE_AT = np.array([OPCODE_SIZES[op] for op in Opcode])


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

    def address(self, p: int) -> int:
        """Current address of input offset ``p``."""
        return self.vaddr + self.remap(p)

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
        (displacement 0, to be patched through its PC8 relocation)."""
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

    def relocations(self) -> List[Tuple[int, Relocation]]:
        """Everything still to apply, as ``(current offset, relocation)``
        in application order (see :meth:`Remap.pending`)."""
        relocs = self.section.relocations
        _, at, k = Remap([self]).pending([0])
        return [(a, relocs[i] if i >= 0 else
                 Relocation(offset=a, rtype=RelocType.PC8, symbol=self.targets[~i]))
                for a, i in zip(at.tolist(), k.tolist())]


class Remap:
    """Input offsets of any number of ``sections`` to current offsets and
    addresses, as one ``searchsorted`` per question.

    Input offset ``p`` of section ``s`` is position ``base[s] + p`` of the
    inputs laid end to end.  The sections' fixups are one sorted array
    of such positions and their prefix sums one array (section ``s``'s
    ``prefix`` from ``first[s] + s``), so remapping a column of offsets
    of many sections reads each once.
    """

    def __init__(self, sections: Sequence[WorkSection]):
        self.sections = sections
        counts = np.array([len(ws.offsets) for ws in sections], dtype=np.int64)
        self.base = np.cumsum([0, *(len(ws.section.data) for ws in sections)])
        self.end = np.cumsum(counts)
        self.first = self.end - counts
        fixups = [ws.section.branch_fixups for ws in sections]
        self.fixup_at = stacked(fixups, "offset") + np.repeat(self.base[:-1], counts)
        self.saved = np.fromiter(chain.from_iterable(ws.prefix for ws in sections), np.int64)
        #: Per fixup: its input size, whether relaxation rewrote it and its size now.
        self.input_size = _SIZE_AT[stacked(fixups, "opcode")]
        self.rewritten = np.zeros(len(self.fixup_at), dtype=bool)
        self.size_now = self.input_size.copy()
        for first, ws in zip(self.first.tolist(), sections):
            for i, opcode in ws.rewritten.items():
                self.rewritten[first + i] = True
                self.size_now[first + i] = OPCODE_SIZES[opcode] if opcode else 0

    @cached_property
    def vaddr(self) -> np.ndarray:
        """The sections' addresses, read on first use: after placement."""
        return np.array([ws.vaddr for ws in self.sections], dtype=np.int64)

    def __call__(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """:meth:`WorkSection.remap` of input offsets ``p`` of sections ``s``."""
        k = np.minimum(np.searchsorted(self.fixup_at, self.base[s] + p), self.end[s])
        return np.where(p >= 0, p - self.saved[k + s], p)

    def address(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Current address of input offsets ``p`` of sections ``s`` (-1 stays -1)."""
        return np.where(p >= 0, self.vaddr[s] + self(s, p), -1)

    def pending(self, which: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Everything still to apply in sections ``which``, as arrays ``(s,
        at, k)`` in application order: section, current offset and ``k
        >= 0`` for its ``k``-th relocation, ``k < 0`` for the PC8
        relocation on the displacement byte of its fixup ``~k``.

        Sections go in ``which`` order.  Input relocations keep their
        order; one inside a rewritten branch is dropped, and every branch
        that ended up short gets its PC8, in the order it was rewritten.
        """
        relocs = [self.sections[w].section.relocations for w in which]
        counts = [len(table) for table in relocs]
        s = np.repeat(np.array(which, dtype=np.int64), counts)
        k = run_index(np.array(counts, dtype=np.int64))
        at = stacked(relocs, "offset")
        if self.rewritten.any():
            # The fixup at or before each relocation: was it rewritten over it?
            i = np.searchsorted(self.fixup_at, self.base[s] + at, "right") - 1
            inside = i >= self.first[s]  # the section has a fixup at or before it
            i = np.maximum(i, 0)
            inside &= self.rewritten[i] & (self.base[s] + at < self.fixup_at[i] + self.input_size[i])
            s, k, at = s[~inside], k[~inside], self(s[~inside], at[~inside])
            short = [(w, i) for w in which for i, opcode in self.sections[w].rewritten.items()
                     if opcode is not None]
            if short:
                s8, i8 = np.array(short, dtype=np.int64).T
                offsets = self.fixup_at[self.first[s8] + i8] - self.base[s8]
                s, k = np.concatenate([s, s8]), np.concatenate([k, ~i8])
                at = np.concatenate([at, self(s8, offsets) + 1])
                rank = np.zeros(len(self.sections), dtype=np.int64)
                rank[which] = np.arange(len(which))
                order = np.argsort(rank[s], kind="stable")
                s, at, k = s[order], at[order], k[order]
        return s, at, k

