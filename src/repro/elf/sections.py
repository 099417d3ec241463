"""Sections, symbols and relocations.

A section is "a contiguous range of bytes ... that the linker operates
on as a single unit" (§4).  Text sections additionally carry structured
metadata (block descriptors and branch fixups) that the code generator
attaches and the linker's relaxation pass rewrites; see
:mod:`repro.elf.metadata`.  A section's ``relocations``, ``blocks`` and
``branch_fixups`` are :class:`~repro.elf.table.Table` s of those records.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.elf.metadata import BlockMeta, BranchFixup
from repro.elf.table import Table


class Restorable:
    """Pickling for the containers that hold tables: the state is the
    dataclass fields alone (derived indexes are rebuilt, never stored),
    and a load goes through ``__post_init__`` like a construction does --
    so an entry written when the fields were lists of records comes back
    as tables."""

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

    @property
    def field_size(self) -> int:
        return 1 if self.rtype == RelocType.PC8 else 4


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


@dataclass
class Section(Restorable):
    """One named section of an object file.

    ``link_name`` ties a metadata section to the text section it
    describes (like ``sh_link``); the linker uses it to drop BB address
    maps whose text went away and to keep maps adjacent to their code.
    The three record fields take any iterable of records and hold a
    :class:`~repro.elf.table.Table` of them.
    """

    name: str
    kind: SectionKind
    data: bytearray = field(default_factory=bytearray)
    alignment: int = 1
    relocations: Table = field(default_factory=list)  # of Relocation
    link_name: Optional[str] = None
    # Structured metadata, populated for TEXT sections by the code generator.
    blocks: Table = field(default_factory=list)  # of BlockMeta
    branch_fixups: Table = field(default_factory=list)  # of BranchFixup

    @property
    def size(self) -> int:
        return len(self.data)

    def __post_init__(self) -> None:
        if not isinstance(self.data, bytearray):
            self.data = bytearray(self.data)
        if self.alignment < 1 or self.alignment & (self.alignment - 1):
            raise ValueError(f"alignment must be a power of two, got {self.alignment}")
        self.relocations = Table.of(Relocation, self.relocations)
        self.blocks = Table.of(BlockMeta, self.blocks)
        self.branch_fixups = Table.of(BranchFixup, self.branch_fixups)
