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
from typing import List, Tuple

from repro.elf.metadata import TerminatorKind

#: Flag bit: the block can land exceptions.
FLAG_LANDING_PAD = 0x01
#: Flag bit: the block ends in a return.
FLAG_HAS_RETURN = 0x02
#: Flag bit: the block ends in an indirect jump.
FLAG_HAS_INDIRECT_JUMP = 0x04


#: The terminator's share of the flags byte, by ``TerminatorKind`` column code.
_KIND_FLAGS = [
    {TerminatorKind.RET: FLAG_HAS_RETURN, TerminatorKind.IJMP: FLAG_HAS_INDIRECT_JUMP}.get(kind, 0)
    for kind in TerminatorKind
]


def encode_blocks(func: str, blocks, offsets, sizes) -> bytes:
    """The map of function ``func`` whose blocks are the rows of the
    :class:`~repro.elf.BlockMeta` table ``blocks``, placed at ``offsets``
    with ``sizes`` (the table's own columns, or what a link made of them)."""
    flags = [(FLAG_LANDING_PAD if landing_pad else 0) | _KIND_FLAGS[kind] for landing_pad, kind
             in zip(blocks.col("is_landing_pad"), blocks.col("term.kind"))]
    return encode_function_map(FunctionMap(func=func, entries=tuple(
        map(BBEntry, blocks.col("bb_id"), offsets, sizes, flags))))


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


def encode_function_map(fmap: FunctionMap) -> bytes:
    """Serialize one function's map.

    Blocks are contiguous within their section, so per-block offsets
    are not stored: like the real SHT_LLVM_BB_ADDR_MAP, the encoding
    stores the first block's offset once and reconstructs the rest from
    the sizes, keeping the section small (§4.1's overhead concern).
    Per block it stores the (id, size, flags) triple.
    """
    name = fmap.func.encode()
    out = bytearray()
    out += encode_uleb128(len(name))
    out += name
    out += encode_uleb128(len(fmap.entries))
    if fmap.entries:
        out += encode_uleb128(fmap.entries[0].offset)
        expected = fmap.entries[0].offset
        for entry in fmap.entries:
            if entry.offset != expected:
                raise ValueError(
                    f"{fmap.func}: non-contiguous block at offset {entry.offset} "
                    f"(expected {expected})"
                )
            out += encode_uleb128(entry.bb_id)
            out += encode_uleb128(entry.size)
            out += encode_uleb128(entry.flags)
            expected += entry.size
    return bytes(out)


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


def encode_section(maps: List[FunctionMap]) -> bytes:
    """Serialize a whole ``.llvm_bb_addr_map`` section."""
    out = bytearray()
    for fmap in maps:
        out += encode_function_map(fmap)
    return bytes(out)


def decode_section(data: bytes) -> List[FunctionMap]:
    """Parse a whole ``.llvm_bb_addr_map`` section."""
    maps: List[FunctionMap] = []
    offset = 0
    while offset < len(data):
        fmap, offset = decode_function_map(data, offset)
        maps.append(fmap)
    return maps
