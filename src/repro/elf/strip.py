"""binutils-``strip`` equivalent.

Production deployment strips symbol tables and debug sections; debug
information lives on separate servers (§5.8).  Propeller-optimized
binaries strip like any other linker output.  BOLT-rewritten binaries
do not: stripping them corrupts the program headers (llvm-project
issue #56738, "Stripping BOLTed binaries may result in misaligned
PT_LOAD"), which §5.8 cites as a deployment blocker.
"""

from __future__ import annotations

from typing import Tuple

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
    if any(s.origin == "llvm-bolt" for s in exe.sections):
        raise StripError(
            f"{exe.name}: rewritten text segments would be misaligned by strip "
            "(cf. llvm-project#56738); binary must ship unstripped"
        )
    before = exe.total_size
    kept_symbols = {
        name: sym
        for name, sym in exe.symbols.items()
        if sym.binding == SymbolBinding.GLOBAL
    }
    kept_sections = [s for s in exe.sections if s.kind != SectionKind.DEBUG]
    stripped = Executable(
        name=exe.name,
        entry=exe.entry,
        sections=kept_sections,
        symbols=kept_symbols,
        exec_blocks=exe.exec_blocks,
        retained_relocations=[],
        features=exe.features,
        hugepages=exe.hugepages,
    )
    return stripped, before - stripped.total_size


def strip_bb_addr_map(obj: ObjectFile) -> ObjectFile:
    """``obj`` without its BB address map: the object codegen emits
    without ``bb_addr_map`` (same ``content_digest()``).  Sections and
    symbols are shared, not copied; the linker never mutates inputs."""
    return ObjectFile(
        name=obj.name,
        sections=[s for s in obj.sections if s.kind != SectionKind.BB_ADDR_MAP],
        symbols=obj.symbols,
    )
