"""Sections, symbols and relocations.

A section is "a contiguous range of bytes ... that the linker operates
on as a single unit" (§4).  Its records -- relocations, and for text
sections the structured metadata (block descriptors and branch fixups)
that the code generator attaches and the linker's relaxation pass
rewrites, see :mod:`repro.elf.metadata` -- are rows of its object
file's tables; a :class:`Section` holds only its range of rows in each.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional


class Restorable:
    """Pickling for the containers that hold tables: the state is the
    dataclass fields alone (derived indexes are rebuilt, never stored),
    and a load goes through ``__post_init__`` like a construction does."""

    def __getstate__(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def __setstate__(self, state: dict) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, state[name])
        self.__post_init__()


class SectionKind(enum.Enum):
    TEXT = "text"
    DATA = "data"
    RODATA = "rodata"
    BB_ADDR_MAP = "bb_addr_map"
    EH_FRAME = "eh_frame"
    DEBUG = "debug"
    RELA = "rela"
    OTHER = "other"


class RelocType(enum.Enum):
    #: 1-byte displacement relative to the end of the displacement field.
    PC8 = "pc8"
    #: 4-byte displacement relative to the end of the displacement field.
    PC32 = "pc32"
    #: 4-byte absolute address (jump tables, metadata references).
    ABS32 = "abs32"


#: Modelled on-disk size of one Elf64_Rela entry.
RELA_ENTRY_SIZE = 24


@dataclass
class Relocation:
    """A fixup the linker must apply to section data.

    ``offset`` addresses the displacement/address field itself (not the
    instruction start).  PC-relative displacements are computed from the
    end of the field, matching the ISA's branch semantics.
    """

    offset: int
    rtype: RelocType
    symbol: str
    addend: int = 0


class SymbolBinding(enum.Enum):
    LOCAL = "local"
    GLOBAL = "global"


class SymbolType(enum.Enum):
    FUNC = "func"
    OBJECT = "object"
    NOTYPE = "notype"


@dataclass
class Symbol:
    """A named offset within a section of an object file."""

    name: str
    section: str
    offset: int
    size: int = 0
    binding: SymbolBinding = SymbolBinding.LOCAL
    stype: SymbolType = SymbolType.NOTYPE


@dataclass(slots=True)
class Section:
    """One named section of an object file.

    ``link_name`` ties a metadata section to the text section it
    describes (like ``sh_link``); the linker uses it to drop BB address
    maps whose text went away and to keep maps adjacent to their code.
    ``relocations``, ``blocks`` and ``fixups`` are the section's rows in
    its object's tables of the same names: each section's ranges follow
    the section's before it (:class:`~repro.elf.ObjectFile` checks).
    """

    name: str
    kind: SectionKind
    data: bytearray = field(default_factory=bytearray)
    alignment: int = 1
    link_name: Optional[str] = None
    relocations: range = range(0)
    blocks: range = range(0)
    fixups: range = range(0)

    @property
    def size(self) -> int:
        return len(self.data)

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)
        if self.alignment < 1 or self.alignment & (self.alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {self.alignment}")
