"""Linked executables.

An :class:`Executable` is the linker's output: placed sections with
assigned virtual addresses, a symbol table, optionally retained static
relocations (``--emit-relocs``, which the BOLT baseline requires), and
the resolved *execution model* -- ``exec_blocks``, a
:class:`~repro.elf.table.Table` of one :class:`ExecBlock` per machine
basic block with absolute addresses, in address order -- that the trace
generator walks in place of real hardware.

``features`` carries workload traits that matter to binary rewriting
(restartable sequences, FIPS startup integrity checks, hand-written
assembly); see §5.8 of the paper and :mod:`repro.bolt.failures`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Annotated, Dict, FrozenSet, List, Optional, Tuple

from repro.elf.sections import (
    RELA_ENTRY_SIZE,
    Relocation,
    Restorable,
    SectionKind,
    SymbolBinding,
    SymbolType,
)
from repro.elf.table import Table

#: An absolute address: a 64-bit table column (sizes and ids are 32-bit).
Addr = Annotated[int, "q"]


@dataclass(frozen=True)
class SymbolInfo:
    """A symbol resolved to an absolute address."""

    name: str
    addr: int
    size: int
    stype: SymbolType = SymbolType.NOTYPE
    binding: SymbolBinding = SymbolBinding.LOCAL


@dataclass
class PlacedSection:
    """An input section placed at a virtual address."""

    name: str
    kind: SectionKind
    vaddr: int
    data: bytes
    origin: str = ""

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.vaddr + len(self.data)


@dataclass(frozen=True)
class ResolvedCall:
    """A call site with absolute addresses."""

    addr: Addr
    size: int
    target: Optional[Addr] = None
    indirect_targets: Tuple[Tuple[Addr, float], ...] = ()

    @property
    def return_addr(self) -> int:
        return self.addr + self.size


@dataclass(frozen=True)
class ResolvedTerminator:
    """A block terminator with absolute addresses.

    ``kind`` is the string value of :class:`repro.elf.metadata.TerminatorKind`.
    """

    kind: str
    cond_target: Addr = 0
    cond_prob: float = 0.0
    cond_br_addr: Addr = -1
    cond_br_size: int = 0
    uncond_target: Optional[Addr] = None
    uncond_br_addr: Addr = -1
    uncond_br_size: int = 0
    end_instr_addr: Addr = -1
    end_instr_size: int = 0
    ijmp_targets: Tuple[Tuple[Addr, float], ...] = ()


@dataclass(frozen=True)
class ExecBlock:
    """One machine basic block at its final address."""

    addr: Addr
    size: int
    func: str
    bb_id: int
    term: ResolvedTerminator
    calls: Tuple[ResolvedCall, ...] = ()
    #: Absolute addresses this block software-prefetches (§3.5).
    prefetch_targets: Tuple[Addr, ...] = ()
    is_landing_pad: bool = False

    @property
    def end(self) -> int:
        return self.addr + self.size


@dataclass
class Executable(Restorable):
    """A linked binary.

    ``exec_blocks`` takes any iterable of :class:`ExecBlock` and holds a
    table of them in address order (:meth:`block_at` bisects it).
    """

    name: str
    entry: int
    sections: List[PlacedSection] = field(default_factory=list)
    symbols: Dict[str, SymbolInfo] = field(default_factory=dict)
    exec_blocks: Table = field(default_factory=list)  # of ExecBlock
    retained_relocations: List[Tuple[int, Relocation]] = field(default_factory=list)
    features: FrozenSet[str] = frozenset()
    #: Whether text pages are backed by 2M hugepages at run time.
    hugepages: bool = False

    def __post_init__(self) -> None:
        blocks = Table.of(ExecBlock, self.exec_blocks)
        if any(a > b for a, b in pairwise(blocks.col("addr"))):
            blocks = Table(ExecBlock, sorted(blocks, key=lambda b: b.addr))
        self.exec_blocks = blocks

    def _block_index(self, addr: int) -> int:
        """Row of the block starting at ``addr`` (the last one, should
        empty blocks share it), or -1."""
        addrs = self.exec_blocks.col("addr")
        i = bisect_right(addrs, addr) - 1
        return i if i >= 0 and addrs[i] == addr else -1

    def block_at(self, addr: int) -> ExecBlock:
        i = self._block_index(addr)
        if i < 0:
            raise KeyError(addr)
        return self.exec_blocks[i]

    def has_block_at(self, addr: int) -> bool:
        return self._block_index(addr) >= 0

    def content_digest(self) -> str:
        """SHA-256 over the binary's observable content.

        Covers placed section bytes and addresses plus the symbol
        table -- everything downstream consumers (tracer, hardware
        model, strippers) read; the execution model is derived from
        these, so it does not hash separately.  Equal digests mean
        interchangeable binaries, which is how the pipeline's
        warm-cache-equals-cold invariant is asserted.
        """
        h = hashlib.sha256()
        h.update(f"{self.name}:{self.entry}:{int(self.hugepages)}".encode())
        for feature in sorted(self.features):
            h.update(f"\x00F{feature}".encode())
        for section in sorted(self.sections, key=lambda s: (s.vaddr, s.name)):
            h.update(f"\x00S{section.name}:{section.kind.value}:{section.vaddr}".encode())
            h.update(bytes(section.data))
        for name in sorted(self.symbols):
            sym = self.symbols[name]
            h.update(f"\x00Y{name}:{sym.addr}:{sym.size}:{sym.binding.value}".encode())
        for addr, reloc in sorted(
            self.retained_relocations, key=lambda item: (item[0], item[1].offset)
        ):
            h.update(f"\x00R{addr}:{reloc.offset}:{reloc.rtype.value}:{reloc.symbol}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Section queries

    def sections_of_kind(self, kind: SectionKind) -> List[PlacedSection]:
        return [s for s in self.sections if s.kind == kind]

    def section_bytes(self, kind: SectionKind) -> bytes:
        """Concatenated contents of all sections of ``kind``, in placement order."""
        return b"".join(bytes(s.data) for s in self.sections_of_kind(kind))

    def text_ranges(self) -> List[Tuple[int, int]]:
        """(start, end) address ranges of text, merged per contiguous run."""
        ranges: List[Tuple[int, int]] = []
        for section in sorted(self.sections_of_kind(SectionKind.TEXT), key=lambda s: s.vaddr):
            if ranges and section.vaddr <= ranges[-1][1]:
                ranges[-1] = (ranges[-1][0], max(ranges[-1][1], section.end))
            else:
                ranges.append((section.vaddr, section.end))
        return ranges

    def text_image(self) -> Tuple[int, bytes]:
        """(base address, bytes) of the text segment as one flat image.

        Gaps between text sections (alignment padding, BOLT's separated
        segments) are filled with trap bytes, like a real linker's
        padding.
        """
        texts = sorted(self.sections_of_kind(SectionKind.TEXT), key=lambda s: s.vaddr)
        if not texts:
            return 0, b""
        base = texts[0].vaddr
        end = max(s.end for s in texts)
        image = bytearray(b"\xcc" * (end - base))
        for section in texts:
            image[section.vaddr - base : section.end - base] = section.data
        return base, bytes(image)

    @property
    def text_size(self) -> int:
        return sum(s.size for s in self.sections_of_kind(SectionKind.TEXT))

    def section_sizes(self) -> Dict[str, int]:
        """Size breakdown in the categories of Figure 6."""
        breakdown = {
            "text": 0,
            "eh_frame": 0,
            "bb_addr_map": 0,
            "relocs": len(self.retained_relocations) * RELA_ENTRY_SIZE,
            "other": 0,
        }
        for section in self.sections:
            if section.kind == SectionKind.TEXT:
                breakdown["text"] += section.size
            elif section.kind == SectionKind.EH_FRAME:
                breakdown["eh_frame"] += section.size
            elif section.kind == SectionKind.BB_ADDR_MAP:
                breakdown["bb_addr_map"] += section.size
            elif section.kind == SectionKind.RELA:
                breakdown["relocs"] += section.size
            else:
                breakdown["other"] += section.size
        breakdown["other"] += self._symtab_size()
        return breakdown

    @property
    def total_size(self) -> int:
        return sum(self.section_sizes().values())

    def _symtab_size(self) -> int:
        # Elf64_Sym is 24 bytes; add string table space for names.
        return sum(24 + len(name) + 1 for name in self.symbols)

    # ------------------------------------------------------------------
    # Convenience views used by the optimizers

    def function_symbols(self) -> List[SymbolInfo]:
        """Function symbols sorted by address (BOLT's discovery input)."""
        funcs = [s for s in self.symbols.values() if s.stype == SymbolType.FUNC]
        funcs.sort(key=lambda s: s.addr)
        return funcs
