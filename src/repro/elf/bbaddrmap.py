"""Basic Block Address Map codec (SHT_LLVM_BB_ADDR_MAP analogue, §3.2).

Per function, the map records each machine basic block's identifier,
its byte offset from the function start, its size, and a flags byte.
Entries are ULEB128-encoded, like the real section.  The section is not
loaded at run time; its only consumer is Phase 3's whole-program
analysis, which joins it against the executable's symbol table to map
sampled virtual addresses back to machine basic blocks without
disassembly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.elf.metadata import TerminatorKind
from repro.elf.table import rows_of, run_index

#: Flag bit: the block can land exceptions.
FLAG_LANDING_PAD = 0x01
#: Flag bit: the block ends in a return.
FLAG_HAS_RETURN = 0x02
#: Flag bit: the block ends in an indirect jump.
FLAG_HAS_INDIRECT_JUMP = 0x04


#: The terminator's share of the flags byte, by ``TerminatorKind`` column code.
_KIND_FLAGS = np.array([
    {TerminatorKind.RET: FLAG_HAS_RETURN, TerminatorKind.IJMP: FLAG_HAS_INDIRECT_JUMP}.get(kind, 0)
    for kind in TerminatorKind
])


def encode_blocks(funcs: Sequence[str], blocks, rows: Sequence[range], offsets=None,
                  sizes=None) -> List[bytes]:
    """The map of each function ``funcs[i]`` whose blocks are rows
    ``rows[i]`` of the :class:`~repro.elf.BlockMeta` table ``blocks``,
    placed at ``offsets`` with ``sizes``: the rows' own columns when not
    given, else what a link made of them (a value per row, laid end to end)."""
    index = rows_of(rows)

    def column(path: str) -> np.ndarray:
        return blocks.ints(path)[index]

    flags = np.where(column("is_landing_pad") != 0, FLAG_LANDING_PAD, 0) | _KIND_FLAGS[
        column("term.kind")]
    return encode_maps(funcs, [len(r) for r in rows], column("bb_id"),
                       column("offset") if offsets is None else offsets,
                       column("size") if sizes is None else sizes, flags)


def encode_uleb128(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError("uleb128 encodes non-negative integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def decode_uleb128(data: bytes, offset: int) -> Tuple[int, int]:
    """Decode one ULEB128 value; returns (value, next_offset)."""
    result = 0
    shift = 0
    while True:
        if offset >= len(data):
            raise ValueError("truncated uleb128")
        byte = data[offset]
        offset += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, offset
        shift += 7
        if shift > 63:
            raise ValueError("uleb128 too long")


@dataclass(frozen=True)
class BBEntry:
    """One basic block entry in a function's address map."""

    bb_id: int
    offset: int
    size: int
    flags: int = 0

    @property
    def is_landing_pad(self) -> bool:
        return bool(self.flags & FLAG_LANDING_PAD)


@dataclass(frozen=True)
class FunctionMap:
    """The address map of one function."""

    func: str
    entries: Tuple[BBEntry, ...]

    @property
    def num_blocks(self) -> int:
        return len(self.entries)


def encode_maps(funcs: Sequence[str], counts: Sequence[int], bb_ids, offsets, sizes,
                flags) -> List[bytes]:
    """Serialize the maps of ``funcs``, function ``i`` owning the next
    ``counts[i]`` entries of the block columns, in one ULEB128 pass.

    Blocks are contiguous within their section, so per-block offsets
    are not stored: like the real SHT_LLVM_BB_ADDR_MAP, the encoding
    stores the first block's offset once and reconstructs the rest from
    the sizes, keeping the section small (§4.1's overhead concern).
    Per block it stores the (id, size, flags) triple.
    """
    bounds = np.cumsum([0, *counts])
    offsets, sizes = np.asarray(offsets, dtype=np.int64), np.asarray(sizes, dtype=np.int64)
    gaps = np.flatnonzero(offsets[1:] != offsets[:-1] + sizes[:-1]) + 1
    gaps = gaps[~np.isin(gaps, bounds)]  # a function's first block starts where it likes
    if len(gaps):
        i = int(gaps[0])
        raise ValueError(f"{funcs[np.searchsorted(bounds, i, 'right') - 1]}: non-contiguous "
                         f"block at offset {offsets[i]} (expected {offsets[i - 1] + sizes[i - 1]})")
    stream, ends = _uleb128s(np.stack([np.asarray(bb_ids, dtype=np.int64), sizes,
                                       np.asarray(flags, dtype=np.int64)], axis=1).ravel())
    data, at = stream.tobytes(), [0, *ends[2::3].tolist()]  # where each block's triple ends
    out = []
    for func, lo, hi in zip(funcs, bounds[:-1].tolist(), bounds[1:].tolist()):
        name = func.encode()
        head = encode_uleb128(len(name)) + name + encode_uleb128(hi - lo)
        if hi > lo:
            head += encode_uleb128(int(offsets[lo]))
        out.append(head + data[at[lo]:at[hi]])
    return out


def _uleb128s(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ULEB128 encodings of ``values`` laid end to end, and where each ends."""
    if len(values) and values.min() < 0:
        raise ValueError("uleb128 encodes non-negative integers")
    nbytes = np.ones(len(values), dtype=np.int64)
    rest = values >> 7
    while rest.any():
        nbytes += rest > 0
        rest >>= 7
    nth = run_index(nbytes)
    more = nth < np.repeat(nbytes - 1, nbytes)  # a continuation bit on all but the last byte
    return ((np.repeat(values, nbytes) >> 7 * nth) & 0x7F | more * 0x80).astype(np.uint8), \
        np.cumsum(nbytes)


def decode_function_map(data: bytes, offset: int = 0) -> Tuple[FunctionMap, int]:
    """Decode one function's map; returns (map, next_offset)."""
    name_len, offset = decode_uleb128(data, offset)
    if offset + name_len > len(data):
        raise ValueError("truncated function name in bb address map")
    name = data[offset : offset + name_len].decode()
    offset += name_len
    count, offset = decode_uleb128(data, offset)
    entries: List[BBEntry] = []
    if count:
        cursor, offset = decode_uleb128(data, offset)
        for _ in range(count):
            bb_id, offset = decode_uleb128(data, offset)
            size, offset = decode_uleb128(data, offset)
            flags, offset = decode_uleb128(data, offset)
            entries.append(BBEntry(bb_id=bb_id, offset=cursor, size=size, flags=flags))
            cursor += size
    return FunctionMap(func=name, entries=tuple(entries)), offset


def decode_section(data: bytes) -> List[FunctionMap]:
    """Parse a whole ``.llvm_bb_addr_map`` section."""
    maps: List[FunctionMap] = []
    offset = 0
    while offset < len(data):
        fmap, offset = decode_function_map(data, offset)
        maps.append(fmap)
    return maps
