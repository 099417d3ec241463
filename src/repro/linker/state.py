"""The link state: a link's sections and branch fixups as columns.

The linker never mutates or copies its inputs (they live in the build
cache and must stay byte-stable): :class:`LinkState` refers to each
input section by number and records only what the link decides.  The
fixups of the whole link are one sorted column of positions in the
inputs laid end to end, so one offset map has two readers: the
relaxation sweep asks it one offset at a time (:meth:`LinkState.remap`,
a ``bisect``), everything after the fixed point a column at a time
(:meth:`LinkState.__call__`, a ``searchsorted``).  Every offset the link
reads is checked against its section once, as a column.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.elf import ObjectFile, RelocType, Section, SectionKind, SymbolBinding, SymbolType
from repro.elf.table import run_index, stacked
from repro.isa import BRANCH_OPCODES, OPCODE_SIZES, Opcode

#: Each branch encoded with displacement 0, as codegen emits it for the
#: linker to patch through a relocation.
_UNPATCHED = {op: bytes([op]).ljust(OPCODE_SIZES[op], b"\0") for op in BRANCH_OPCODES}
_OPCODES = tuple(Opcode)  # an enum column stores positions in this order
#: Instruction size by position in :class:`Opcode`.
_SIZE_AT = np.array([OPCODE_SIZES[op] for op in Opcode])
#: Relocation field width by position in :class:`RelocType`.
WIDTH = np.array([1 if t == RelocType.PC8 else 4 for t in RelocType])
#: The kinds of section that are loaded, and so relocated.
ALLOCATED = (SectionKind.TEXT, SectionKind.RODATA, SectionKind.DATA)


class LinkError(Exception):
    """Raised on unresolved or duplicate symbols and layout errors."""


class LinkState:
    """Every section ``s`` and branch fixup ``f`` of a link, as columns.

    Per section: its input ``section``, the ``origin`` object's name,
    ``kind``, ``alignment``, ``leader`` (the function symbol at offset 0,
    if any), ``vaddr``, current ``size`` and final ``data``; ``base``,
    its position in the inputs laid end to end, and ``first``/``end``,
    the range of its fixups.  Per fixup: its position ``fixup_at``, input
    ``opcode`` and its ``input_size``, ``target`` symbol and ``deletable``
    flag.  ``saved`` holds
    section ``s``'s prefix sums from ``first[s] + s``: ``saved[f + s]`` is
    the bytes saved by the fixups of ``s`` before ``f``.

    Relaxation decides ``rewritten`` (fixup -> the opcode it was
    re-encoded with, ``None`` = deleted) and ``pinned`` (fixups grown
    back out of rel8 range, long for the rest of the link).  ``defs``
    maps a symbol name to ``(s, input offset)``; ``exported`` lists
    ``(name, s, size, type, binding)`` of what reaches the symbol table.

    The sweep indexes the columns one at a time, as lists;
    :meth:`settle` makes arrays of them for the column readers.
    """

    def __init__(self, objects: Sequence[ObjectFile]):
        self.section: List[Section] = []
        self.origin: List[str] = []
        self.leader: List[Optional[str]] = []
        self.defs: Dict[str, Tuple[int, int]] = {}
        self.exported: List[Tuple[str, int, int, SymbolType, SymbolBinding]] = []
        for obj in objects:
            by_name = {section.name: s for s, section in enumerate(obj.sections, len(self.section))}
            self.section += obj.sections
            self.origin += [obj.name] * len(obj.sections)
            self.leader += [None] * len(obj.sections)
            table = obj.symbols
            names, homes, offsets = table.values("name"), table.values("section"), table.col("offset")
            if not by_name.keys() >= set(homes):
                j = next(j for j, home in enumerate(homes) if home not in by_name)
                raise LinkError(f"{obj.name}: symbol {names[j]} in missing section {homes[j]}")
            homes = [by_name[home] for home in homes]
            if len(set(names)) < len(names) or not self.defs.keys().isdisjoint(names):
                seen = set(self.defs)
                name = next(n for n in names if n in seen or seen.add(n))
                raise LinkError(f"duplicate symbol {name!r}")
            self.defs.update(zip(names, zip(homes, offsets)))
            stypes, sizes, bindings = table.values("stype"), table.col("size"), table.values("binding")
            for j, stype in enumerate(stypes):  # the first function symbol at 0 leads its section
                if stype is SymbolType.FUNC and not offsets[j] and self.leader[homes[j]] is None:
                    self.leader[homes[j]] = names[j]
            # Assembler temporaries stay out of the symbol table.
            self.exported += [(name, homes[j], sizes[j], stypes[j], bindings[j])
                              for j, name in enumerate(names) if not name.startswith(".L")]

        n = len(self.section)
        self.kind = [section.kind for section in self.section]
        self.alignment = [section.alignment for section in self.section]
        self.size = [len(section.data) for section in self.section]
        self.vaddr, self.data = [0] * n, [b""] * n
        fixups = [section.branch_fixups for section in self.section]
        counts = np.array([len(table) for table in fixups], dtype=np.int64)
        end = np.cumsum(counts)
        base = np.cumsum([0, *self.size])
        offset, opcode = stacked(fixups, "offset"), stacked(fixups, "opcode")
        self.input_size = _SIZE_AT[opcode]
        self._check_offsets(np.repeat(np.arange(n), counts), offset, end - counts)
        self.base, self.first, self.end = base.tolist(), (end - counts).tolist(), end.tolist()
        self.fixup_at = (offset + np.repeat(base[:-1], counts)).tolist()
        self.opcode = [_OPCODES[i] for i in opcode.tolist()]
        self.target = list(chain.from_iterable(table.values("symbol") for table in fixups))
        self.deletable = stacked(fixups, "deletable").tolist()
        self.saved = [0] * (len(self.fixup_at) + n)
        self.rewritten: Dict[int, Optional[Opcode]] = {}
        self.pinned: Set[int] = set()

    def _check_offsets(self, fixup_s: np.ndarray, offset: np.ndarray, first: np.ndarray) -> None:
        """Every offset the link reads lies inside its section: fixups in
        order and non-overlapping, each relocation it applies and each
        symbol (which may sit at the section's end)."""
        size = np.array(self.size, dtype=np.int64)
        end = offset + self.input_size
        after = np.concatenate(([0], end[:-1]))  # the end of the fixup before, 0 for a first
        after[first[first < len(offset)]] = 0
        self._refuse(offset < after, fixup_s, lambda j: (
            f"branch fixup at offset {offset[j]} is out of order or overlaps its predecessor"))
        self._refuse(end > size[fixup_s], fixup_s, lambda j: "fixup past the section end")
        applied = [s for s, kind in enumerate(self.kind) if kind in ALLOCATED]
        relocs = [self.section[s].relocations for s in applied]
        reloc_s = np.repeat(np.array(applied, dtype=np.int64), [len(table) for table in relocs])
        at = stacked(relocs, "offset")
        self._refuse((at < 0) | (at + WIDTH[stacked(relocs, "rtype")] > size[reloc_s]), reloc_s,
                     lambda j: f"relocation at offset {at[j]} lies outside the section")
        home, where = np.array([*self.defs.values()], dtype=np.int64).reshape(-1, 2).T
        self._refuse((where < 0) | (where > size[home]), home, lambda j: (
            f"symbol {list(self.defs)[j]} at offset {where[j]} lies outside the section"))

    def _refuse(self, bad: np.ndarray, s: np.ndarray, what: Callable[[int], str]) -> None:
        if bad.any():
            j = int(np.argmax(bad))
            raise LinkError(f"{self.origin[s[j]]}: section {self.section[s[j]].name}: {what(j)}")

    def remap(self, s: int, p: int) -> int:
        """Current offset of input offset ``p`` of section ``s`` (negative
        values pass through).

        A position moves down by the bytes saved strictly before it, so
        the start of a rewritten branch stays put and its end moves.
        """
        k = bisect_left(self.fixup_at, self.base[s] + p, self.first[s], self.end[s])
        return p - self.saved[k + s]

    def rewrite(self, s: int, f: int, opcode: Optional[Opcode]) -> int:
        """Re-encode fixup ``f`` of section ``s`` as ``opcode`` (``None``
        deletes the branch, its input opcode restores the input encoding
        and relocation).

        Returns the bytes saved (negative for a grow-back).  ``saved`` is
        not touched: the relaxation sweep that decides rewrites carries
        the running total forward (see :mod:`repro.linker.relax`).
        Insertion order is the order branches were first rewritten, which
        is the order their PC8 relocations are emitted in.
        """
        old = self.rewritten.get(f, self.opcode[f])
        saved = OPCODE_SIZES[old] - (OPCODE_SIZES[opcode] if opcode else 0)
        if opcode == self.opcode[f]:
            del self.rewritten[f]
        else:
            self.rewritten[f] = opcode
        self.size[s] -= saved
        return saved

    def settle(self) -> None:
        """Relaxation and placement are done: make arrays of the columns
        the column readers index, and ``size_now``, each fixup's size now
        (a rewrite always changes it)."""
        self.base, self.first, self.end, self.fixup_at, self.saved, self.vaddr = (
            np.array(column, dtype=np.int64) for column in
            (self.base, self.first, self.end, self.fixup_at, self.saved, self.vaddr))
        self.size_now = self.input_size.copy()
        for f, opcode in self.rewritten.items():
            self.size_now[f] = OPCODE_SIZES[opcode] if opcode else 0

    def __call__(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """:meth:`remap` of input offsets ``p`` of sections ``s``."""
        k = np.clip(np.searchsorted(self.fixup_at, self.base[s] + p), self.first[s], self.end[s])
        return p - self.saved[k + s]

    def address(self, s: np.ndarray, p: np.ndarray) -> np.ndarray:
        """Current address of input offsets ``p`` of sections ``s`` (-1 stays -1)."""
        return np.where(p >= 0, self.vaddr[s] + self(s, p), -1)

    def image(self, which: Sequence[int]) -> bytearray:
        """The current bytes of sections ``which`` laid end to end, every
        rewritten branch re-encoded (displacement 0, to be patched
        through its PC8 relocation).  Like the sweep it reads the
        columns one at a time, so it runs before :meth:`settle`."""
        edits = sorted(self.rewritten.items())
        edited = [f for f, _ in edits]
        pieces = []
        for s in which:
            data, cursor, base = self.section[s].data, 0, self.base[s]
            for f, opcode in edits[bisect_left(edited, self.first[s]):
                                   bisect_left(edited, self.end[s])]:
                pieces.append(data[cursor : self.fixup_at[f] - base])
                if opcode is not None:
                    pieces.append(_UNPATCHED[opcode])
                cursor = self.fixup_at[f] - base + OPCODE_SIZES[self.opcode[f]]
            pieces.append(data[cursor:])
        image = bytearray(b"".join(pieces))
        if len(image) != sum(self.size[s] for s in which):
            raise LinkError("relaxed size mismatch")
        return image

    def pending(self, which: Sequence[int]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Everything still to apply in sections ``which``, as arrays ``(s,
        at, k)`` in application order: section, current offset and ``k
        >= 0`` for its ``k``-th relocation, ``k < 0`` for the PC8
        relocation on the displacement byte of fixup ``~k``.

        Sections go in ``which`` order.  Input relocations keep their
        order; one inside a rewritten branch is dropped, and every branch
        that ended up short gets its PC8, in the order it was rewritten.
        """
        relocs = [self.section[w].relocations for w in which]
        counts = [len(table) for table in relocs]
        s = np.repeat(np.array(which, dtype=np.int64), counts)
        k = run_index(np.array(counts, dtype=np.int64))
        at = stacked(relocs, "offset")
        if self.rewritten:
            # The fixup at or before each relocation: was it rewritten over it?
            i = np.searchsorted(self.fixup_at, self.base[s] + at, "right") - 1
            inside = i >= self.first[s]  # the section has a fixup at or before it
            i = np.maximum(i, 0)
            inside &= (self.size_now[i] != self.input_size[i]) & (
                self.base[s] + at < self.fixup_at[i] + self.input_size[i])
            s, k, at = s[~inside], k[~inside], self(s[~inside], at[~inside])
            rank = np.full(len(self.section), -1, dtype=np.int64)
            rank[which] = np.arange(len(which))
            f8 = np.array([f for f, opcode in self.rewritten.items() if opcode is not None],
                          dtype=np.int64)
            s8 = np.searchsorted(self.end, f8, "right")
            f8, s8 = f8[rank[s8] >= 0], s8[rank[s8] >= 0]
            if len(f8):
                s, k = np.concatenate([s, s8]), np.concatenate([k, ~f8])
                at = np.concatenate([at, self(s8, self.fixup_at[f8] - self.base[s8]) + 1])
                order = np.argsort(rank[s], kind="stable")
                s, at, k = s[order], at[order], k[order]
        return s, at, k
