"""binutils-``strip`` equivalent.

Production deployment strips symbol tables and debug sections; debug
information lives on separate servers (§5.8).  Propeller-optimized
binaries strip like any other linker output.  BOLT-rewritten binaries
do not: stripping them corrupts the program headers (llvm-project
issue #56738, "Stripping BOLTed binaries may result in misaligned
PT_LOAD"), which §5.8 cites as a deployment blocker.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Tuple

import numpy as np

from repro.elf.executable import Executable
from repro.elf.objectfile import ObjectFile
from repro.elf.sections import SectionKind, SymbolBinding


class StripError(RuntimeError):
    """The binary cannot be safely stripped."""


def strip_executable(exe: Executable) -> Tuple[Executable, int]:
    """Strip local symbols and debug sections; returns (binary, bytes saved).

    Raises :class:`StripError` for rewritten binaries whose extra
    segments strip would misalign.
    """
    if "llvm-bolt" in exe.sections.values("origin"):
        raise StripError(
            f"{exe.name}: rewritten text segments would be misaligned by strip "
            "(cf. llvm-project#56738); binary must ship unstripped"
        )
    sections, data = exe.sections_at(np.flatnonzero(
        exe.sections.ints("kind") != list(SectionKind).index(SectionKind.DEBUG)))
    global_ = exe.symbols.ints("binding") == list(SymbolBinding).index(SymbolBinding.GLOBAL)
    stripped = replace(exe, sections=sections, data=data, retained_relocations=(),
                       symbols=exe.symbols.take(np.flatnonzero(global_)))
    return stripped, exe.total_size - stripped.total_size


def strip_bb_addr_map(obj: ObjectFile) -> ObjectFile:
    """``obj`` without its BB address map: the object codegen emits
    without ``bb_addr_map`` (same ``content_digest()``).  Sections and
    tables are shared, not copied (a map section owns no rows); the
    linker never mutates inputs."""
    return ObjectFile(
        name=obj.name,
        sections=[s for s in obj.sections if s.kind != SectionKind.BB_ADDR_MAP],
        symbols=obj.symbols, relocations=obj.relocations, blocks=obj.blocks, fixups=obj.fixups,
    )
