"""Object-file and executable model (ELF-shaped).

Implements the containers the toolchain trades in: relocatable object
files made of sections, symbols and relocations; and linked executables
with placed sections and a symbol table.  Section kinds mirror the ones
the paper's Figure 6 breaks binary size into (``.text``, ``.eh_frame``,
``.llvm_bb_addr_map``, ``.rela``, other).

An object file's ``symbols``, ``relocations``, ``blocks`` and ``fixups``
and an executable's ``sections``, ``symbols``, ``exec_blocks`` and
``retained_relocations`` are :class:`~repro.elf.table.Table` s of the
record dataclasses below, one flat column per field; an object's section
owns a range of rows of each (``obj.blocks[section.blocks]``), and an
executable's section bytes are one buffer (``exe.data``).  Build
them from lists of records and read them as such; codegen, the linker
and the trace replay use the columns and build no record.

The ``bbaddrmap`` module implements the SHT_LLVM_BB_ADDR_MAP-style
metadata encoding (§3.2): per-function basic block offsets, sizes and
flags, varint-encoded, resolved against the symbol table.
"""

from repro.elf.table import Strings, Table
from repro.elf.sections import (
    Relocation,
    RelocType,
    Section,
    SectionKind,
    Symbol,
    SymbolBinding,
    SymbolType,
)
from repro.elf.metadata import (
    BlockMeta,
    BranchFixup,
    CallSite,
    PrefetchSite,
    TerminatorKind,
    TerminatorMeta,
)
from repro.elf.objectfile import ObjectFile
from repro.elf.executable import (ExecBlock, Executable, PlacedSection, RetainedRelocation,
                                  SymbolInfo)
from repro.elf import bbaddrmap

__all__ = [
    "Strings",
    "Table",
    "Relocation",
    "RelocType",
    "Section",
    "SectionKind",
    "Symbol",
    "SymbolBinding",
    "SymbolType",
    "BlockMeta",
    "BranchFixup",
    "CallSite",
    "PrefetchSite",
    "TerminatorKind",
    "TerminatorMeta",
    "ObjectFile",
    "ExecBlock",
    "Executable",
    "PlacedSection",
    "RetainedRelocation",
    "SymbolInfo",
    "bbaddrmap",
]
