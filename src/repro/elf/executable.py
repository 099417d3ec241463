"""Linked executables.

An :class:`Executable` is the linker's output, laid out like an object
file: one :class:`~repro.elf.table.Table` per record family over one
string pool.  ``sections`` are :class:`PlacedSection` rows at assigned
virtual addresses, whose bytes are one buffer, ``data``, in row order;
``symbols`` is the symbol table (:meth:`Executable.symbol` looks a name
up); ``retained_relocations`` holds the static relocations applied to
text (``--emit-relocs``, which the BOLT baseline requires); and
``exec_blocks``, the resolved *execution model* -- one
:class:`ExecBlock` per machine basic block with absolute addresses, in
address order -- is what the trace generator walks in place of real
hardware.  The record types are what indexing and iteration return; the
linker and the queries here read and write columns.

``features`` carries workload traits that matter to binary rewriting
(restartable sequences, FIPS startup integrity checks, hand-written
assembly); see §5.8 of the paper and :mod:`repro.bolt.failures`.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import pairwise
from typing import Annotated, Dict, FrozenSet, Optional, Sequence, Tuple

import numpy as np

from repro.elf.sections import (
    RELA_ENTRY_SIZE,
    RelocType,
    Restorable,
    SectionKind,
    SymbolBinding,
    SymbolType,
)
from repro.elf.table import Strings, Table

#: An absolute address: a 64-bit table column (sizes and ids are 32-bit).
Addr = Annotated[int, "q"]


@dataclass(frozen=True)
class SymbolInfo:
    """A symbol resolved to an absolute address."""

    name: str
    addr: Addr
    size: int
    stype: SymbolType = SymbolType.NOTYPE
    binding: SymbolBinding = SymbolBinding.LOCAL


@dataclass(frozen=True)
class PlacedSection:
    """An input section placed at a virtual address (its bytes are the executable's)."""

    name: str
    kind: SectionKind
    vaddr: Addr
    size: int
    origin: str = ""

    @property
    def end(self) -> int:
        return self.vaddr + self.size


@dataclass(frozen=True)
class RetainedRelocation:
    """A relocation applied to text, kept at its final address (``--emit-relocs``)."""

    addr: Addr
    offset: int
    rtype: RelocType
    symbol: str
    addend: int = 0


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


#: Positions of the enums' members, as their table columns store them.
_KIND = {kind: i for i, kind in enumerate(SectionKind)}
_FUNC = list(SymbolType).index(SymbolType.FUNC)


@dataclass
class Executable(Restorable):
    """A linked binary.

    ``sections``, ``symbols``, ``exec_blocks`` and ``retained_relocations``
    each take any iterable of their records and hold a table of them, all
    over one pool (:attr:`strings`, the pool of any given as a table);
    ``data`` is the sections' bytes, laid end to end in row order.
    ``exec_blocks`` is kept in address order (:meth:`block_at` bisects it).
    """

    name: str
    entry: int
    sections: Table = field(default_factory=list)  # of PlacedSection
    data: bytes = b""
    symbols: Table = field(default_factory=list)  # of SymbolInfo
    exec_blocks: Table = field(default_factory=list)  # of ExecBlock
    retained_relocations: Table = field(default_factory=list)  # of RetainedRelocation
    features: FrozenSet[str] = frozenset()
    #: Whether text pages are backed by 2M hugepages at run time.
    hugepages: bool = False

    def __post_init__(self) -> None:
        given = (self.exec_blocks, self.sections, self.symbols, self.retained_relocations)
        # Records given beside a table join its pool.
        strings = next((value.strings for value in given if isinstance(value, Table)), None)
        blocks = Table.of(ExecBlock, self.exec_blocks, strings)
        if any(a > b for a, b in pairwise(blocks.col("addr"))):
            blocks = blocks.take(np.argsort(blocks.ints("addr"), kind="stable"))
        self.exec_blocks = blocks
        for name, record in (("sections", PlacedSection), ("symbols", SymbolInfo),
                             ("retained_relocations", RetainedRelocation)):
            setattr(self, name, Table.of(record, getattr(self, name), self.strings))
        if len(self.data) != sum(self.sections.col("size")):
            raise ValueError(f"{self.name}: {len(self.data)} bytes of data for sections "
                             f"of {sum(self.sections.col('size'))}")

    @property
    def strings(self) -> Strings:
        """The pool every table of the executable interns its strings in."""
        return self.exec_blocks.strings

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

    def content_digest(self) -> str:
        """SHA-256 over the binary's observable content.

        Covers placed section bytes and addresses plus the symbol
        table.  ``exec_blocks`` is not hashed: its layout follows from
        these, but its branch probabilities come from the IR, so an
        action that walks the execution model (LBR sampling) keys the
        program beside this digest.  Equal digests mean the same image,
        which is how the pipeline's warm-cache-equals-cold invariant is
        asserted.
        """
        h = hashlib.sha256()
        h.update(f"{self.name}:{self.entry}:{int(self.hugepages)}".encode())
        for feature in sorted(self.features):
            h.update(f"\x00F{feature}".encode())
        names, kinds, vaddr = map(self.sections.values, ("name", "kind", "vaddr"))
        bounds, view = self._bounds().tolist(), memoryview(self.data)
        for i in sorted(range(len(names)), key=lambda i: (vaddr[i], names[i])):
            h.update(f"\x00S{names[i]}:{kinds[i].value}:{vaddr[i]}".encode())
            h.update(view[bounds[i]:bounds[i + 1]])
        names, addr, size, binding = map(self.symbols.values, ("name", "addr", "size", "binding"))
        for i in sorted(range(len(names)), key=names.__getitem__):
            h.update(f"\x00Y{names[i]}:{addr[i]}:{size[i]}:{binding[i].value}".encode())
        addr, offset, rtype, symbol = map(self.retained_relocations.values,
                                          ("addr", "offset", "rtype", "symbol"))
        for i in sorted(range(len(addr)), key=lambda i: (addr[i], offset[i])):
            h.update(f"\x00R{addr[i]}:{offset[i]}:{rtype[i].value}:{symbol[i]}".encode())
        return h.hexdigest()

    # ------------------------------------------------------------------
    # Section queries

    def _bounds(self) -> np.ndarray:
        """Where each row of ``sections`` starts in ``data``, then ``len(data)``."""
        return np.concatenate(([0], np.cumsum(self.sections.ints("size"))))

    def _rows_of_kind(self, kind: SectionKind) -> np.ndarray:
        return np.flatnonzero(self.sections.ints("kind") == _KIND[kind])

    def sections_at(self, rows: Sequence[int]) -> Tuple[Table, bytes]:
        """Rows ``rows`` of ``sections``, and their bytes laid end to end."""
        bounds, view = self._bounds(), memoryview(self.data)
        return self.sections.take(rows), b"".join(
            [view[bounds[i]:bounds[i + 1]] for i in np.asarray(rows, dtype=np.int64).tolist()])

    def sections_of_kind(self, kind: SectionKind) -> Table:
        return self.sections.take(self._rows_of_kind(kind))

    def section_bytes(self, kind: SectionKind) -> bytes:
        """Concatenated contents of all sections of ``kind``, in placement order."""
        return self.sections_at(self._rows_of_kind(kind))[1]

    def text_image(self) -> Tuple[int, bytes]:
        """(base address, bytes) of the text segment as one flat image.

        Gaps between text sections (alignment padding, BOLT's separated
        segments) are filled with trap bytes, like a real linker's
        padding.
        """
        texts, data = self.sections_at(self._rows_of_kind(SectionKind.TEXT))
        if not len(texts):
            return 0, b""
        start, size = texts.ints("vaddr"), texts.ints("size")
        base, cursor = int(start.min()), 0
        image = bytearray(b"\xcc" * (int((start + size).max()) - base))
        for at, n in zip((start - base).tolist(), size.tolist()):
            image[at:at + n], cursor = data[cursor:cursor + n], cursor + n
        return base, bytes(image)

    @property
    def text_size(self) -> int:
        return int(self.sections.ints("size")[self._rows_of_kind(SectionKind.TEXT)].sum())

    def section_sizes(self) -> Dict[str, int]:
        """Size breakdown in the categories of Figure 6."""
        sums = np.zeros(len(_KIND), dtype=np.int64)
        np.add.at(sums, self.sections.ints("kind"), self.sections.ints("size"))
        by_kind = dict(zip(SectionKind, sums.tolist()))
        breakdown = {key: by_kind.pop(kind) for key, kind in (
            ("text", SectionKind.TEXT), ("eh_frame", SectionKind.EH_FRAME),
            ("bb_addr_map", SectionKind.BB_ADDR_MAP))}
        breakdown["relocs"] = (len(self.retained_relocations) * RELA_ENTRY_SIZE
                               + by_kind.pop(SectionKind.RELA))
        # Plus the symbol table: Elf64_Sym is 24 bytes, and string table space for names.
        breakdown["other"] = sum(by_kind.values()) + sum(
            24 + len(name) + 1 for name in self.symbols.values("name"))
        return breakdown

    @property
    def total_size(self) -> int:
        return sum(self.section_sizes().values())

    # ------------------------------------------------------------------
    # Convenience views used by the optimizers

    def function_symbols(self) -> Table:
        """Function symbols sorted by address (BOLT's discovery input)."""
        rows = np.flatnonzero(self.symbols.ints("stype") == _FUNC)
        return self.symbols.take(rows[np.argsort(self.symbols.ints("addr")[rows], kind="stable")])
