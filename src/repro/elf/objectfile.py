"""Relocatable object files with content digests.

Objects are the unit the distributed build cache stores; the digest is
computed over a canonical serialization of everything that affects the
link, so identical compilations hit the cache (§3.1).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.elf.sections import Restorable, Section, SectionKind, Symbol
from repro.elf.table import Table


@dataclass
class ObjectFile(Restorable):
    """One native object file: named sections plus a symbol table
    (``symbols``: any iterable of :class:`Symbol`, held as a table)."""

    name: str
    sections: List[Section] = field(default_factory=list)
    symbols: Table = field(default_factory=list)  # of Symbol

    def __post_init__(self) -> None:
        self.symbols = Table.of(Symbol, self.symbols)
        self._by_name: Dict[str, Section] = {}
        for section in self.sections:
            self._register(section)

    def _register(self, section: Section) -> None:
        if section.name in self._by_name:
            raise ValueError(f"duplicate section {section.name!r} in {self.name}")
        self._by_name[section.name] = section

    def add_section(self, section: Section) -> Section:
        self._register(section)
        self.sections.append(section)
        return section

    def add_symbol(self, symbol: Symbol) -> Symbol:
        self.symbols.append(symbol)
        return symbol

    def section(self, name: str) -> Section:
        return self._by_name[name]

    def find_section(self, name: str) -> Optional[Section]:
        return self._by_name.get(name)

    def sections_of_kind(self, kind: SectionKind) -> List[Section]:
        return [s for s in self.sections if s.kind == kind]

    @property
    def total_size(self) -> int:
        return sum(s.size for s in self.sections)

    def size_of_kind(self, kind: SectionKind) -> int:
        return sum(s.size for s in self.sections if s.kind == kind)

    def content_digest(self) -> str:
        """SHA-256 over a canonical serialization of the object.

        Includes section bytes, relocations and symbols -- everything
        the linker consumes -- so equal digests mean interchangeable
        objects.  This is the key the build cache stores objects under.
        """
        h = hashlib.sha256()
        h.update(self.name.encode())
        for section in sorted(self.sections, key=lambda s: s.name):
            h.update(b"\x00S")
            h.update(section.name.encode())
            h.update(section.kind.value.encode())
            h.update(bytes(section.data))
            for reloc in section.relocations:
                h.update(
                    f"R{reloc.offset}:{reloc.rtype.value}:{reloc.symbol}:{reloc.addend}".encode()
                )
        for sym in sorted(self.symbols, key=lambda s: s.name):
            h.update(
                f"Y{sym.name}:{sym.section}:{sym.offset}:{sym.size}:{sym.binding.value}".encode()
            )
        return h.hexdigest()
