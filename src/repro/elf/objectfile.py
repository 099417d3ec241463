"""Relocatable object files with content digests.

An object file keeps one table per record kind -- ``symbols``,
``relocations``, ``blocks`` and ``fixups`` -- over one string pool.
The rows of ``relocations``, ``blocks`` and ``fixups`` are grouped by
section in section order: each section owns one contiguous range of
rows in each (see :class:`~repro.elf.Section`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import List

from repro.elf.metadata import BlockMeta, BranchFixup
from repro.elf.sections import Relocation, Restorable, Section, SectionKind, Symbol
from repro.elf.table import Strings, Table

#: The tables whose rows are grouped by section: (field, record).
SECTION_TABLES = (("relocations", Relocation), ("blocks", BlockMeta), ("fixups", BranchFixup))


@dataclass
class ObjectFile(Restorable):
    """One native object file: named sections plus its record tables
    (each takes any iterable of its records and holds a table)."""

    name: str
    sections: List[Section] = field(default_factory=list)
    symbols: Table = field(default_factory=list)  # of Symbol
    relocations: Table = field(default_factory=list)  # of Relocation
    blocks: Table = field(default_factory=list)  # of BlockMeta
    fixups: Table = field(default_factory=list)  # of BranchFixup

    def __post_init__(self) -> None:
        self.symbols = Table.of(Symbol, self.symbols)
        for name, record in SECTION_TABLES:
            table = Table.of(record, getattr(self, name), self.strings)
            setattr(self, name, table)
            rows = [getattr(section, name) for section in self.sections]
            bounds = [0, *(r.stop for r in rows)]  # each section's rows follow the last's
            if [(r.start, r.step) for r in rows] != [(a, 1) for a in bounds[:-1]] or \
                    bounds != sorted(bounds) or bounds[-1] != len(table):
                raise ValueError(f"{self.name}: its sections' {name} rows {rows} "
                                 f"do not tile its {len(table)}")
        names = set()
        for section in self.sections:
            if section.name in names:
                raise ValueError(f"duplicate section {section.name!r} in {self.name}")
            names.add(section.name)

    @property
    def strings(self) -> Strings:
        """The pool every table of the object interns its strings in."""
        return self.symbols.strings

    def sections_of_kind(self, kind: SectionKind) -> List[Section]:
        return [s for s in self.sections if s.kind == kind]

    @property
    def total_size(self) -> int:
        return sum(s.size for s in self.sections)

    def content_digest(self) -> str:
        """SHA-256 over the name, each section's name, kind, bytes and
        relocations, and the symbols: what pins codegen's output
        (``tests/golden/object_digests.json``).  It omits alignment,
        ``link_name``, blocks and fixups, so equal digests do not make
        objects interchangeable, and no cache is keyed by it (a compile
        is keyed by its module's digest and the codegen options)."""
        h = hashlib.sha256()
        h.update(self.name.encode())
        for section in sorted(self.sections, key=lambda s: s.name):
            h.update(b"\x00S")
            h.update(section.name.encode())
            h.update(section.kind.value.encode())
            h.update(bytes(section.data))
            for reloc in self.relocations[section.relocations]:
                h.update(
                    f"R{reloc.offset}:{reloc.rtype.value}:{reloc.symbol}:{reloc.addend}".encode()
                )
        for sym in sorted(self.symbols, key=lambda s: s.name):
            h.update(
                f"Y{sym.name}:{sym.section}:{sym.offset}:{sym.size}:{sym.binding.value}".encode()
            )
        return h.hexdigest()
