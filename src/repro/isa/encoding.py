"""Instruction encodings for the synthetic ISA.

The ISA is deliberately CISC-shaped: instructions are 1 to 6 bytes long,
the opcode byte determines the total length, and branch displacements
come in a short (rel8) and a long (rel32) form.  Displacements are
measured from the *end* of the branch instruction, like x86.

Opcode byte values are chosen so that common payload bytes can collide
with opcode bytes; a linear-sweep disassembler that walks into embedded
jump-table data will therefore decode garbage or raise, which is the
hazard §2.4 of the paper describes.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class Opcode(enum.IntEnum):
    """Opcode byte values.  The numeric values are part of the binary format."""

    NOP = 0x90
    ALU8 = 0x10       # 2 bytes: opcode + imm8
    ALU16 = 0x11      # 3 bytes: opcode + imm16
    ALU32 = 0x12      # 5 bytes: opcode + imm32
    LOAD = 0x20       # 4 bytes: opcode + mem operand
    STORE = 0x21      # 4 bytes
    LEA = 0x22        # 4 bytes
    MOVRR = 0x23      # 2 bytes: register move
    CMP = 0x24        # 3 bytes
    CALL = 0xE8       # 5 bytes: opcode + rel32
    ICALL = 0xFD      # 2 bytes: indirect call through register
    RET = 0xC3        # 1 byte
    JMP_SHORT = 0xEB  # 2 bytes: opcode + rel8
    JMP_LONG = 0xE9   # 5 bytes: opcode + rel32
    JCC_SHORT = 0x70  # 2 bytes: opcode + rel8
    JCC_LONG = 0x81   # 6 bytes: opcode + cc byte + rel32
    IJMP = 0xFE       # 2 bytes: indirect jump (jump tables)
    TRAP = 0x0B       # 2 bytes: ud2-alike
    PREFETCH = 0x18   # 5 bytes: software code prefetch (prefetcht0-alike)


#: Total instruction size in bytes, keyed by opcode.
OPCODE_SIZES: Dict[Opcode, int] = {
    Opcode.NOP: 1,
    Opcode.ALU8: 2,
    Opcode.ALU16: 3,
    Opcode.ALU32: 5,
    Opcode.LOAD: 4,
    Opcode.STORE: 4,
    Opcode.LEA: 4,
    Opcode.MOVRR: 2,
    Opcode.CMP: 3,
    Opcode.CALL: 5,
    Opcode.ICALL: 2,
    Opcode.RET: 1,
    Opcode.JMP_SHORT: 2,
    Opcode.JMP_LONG: 5,
    Opcode.JCC_SHORT: 2,
    Opcode.JCC_LONG: 6,
    Opcode.IJMP: 2,
    Opcode.TRAP: 2,
    Opcode.PREFETCH: 5,
}

#: Opcodes that transfer control via a relative displacement.
BRANCH_OPCODES = frozenset(
    {Opcode.CALL, Opcode.JMP_SHORT, Opcode.JMP_LONG, Opcode.JCC_SHORT, Opcode.JCC_LONG}
)

#: All opcodes that end sequential execution or redirect it.
CONTROL_FLOW_OPCODES = BRANCH_OPCODES | {Opcode.RET, Opcode.ICALL, Opcode.IJMP, Opcode.TRAP}

_VALID_OPCODE_BYTES = {int(op) for op in Opcode}


class DecodeError(ValueError):
    """Raised when bytes cannot be decoded as an instruction."""

    def __init__(self, offset: int, byte: Optional[int], reason: str):
        self.offset = offset
        self.byte = byte
        super().__init__(f"decode error at offset {offset:#x} (byte={byte}): {reason}")


@dataclass(frozen=True)
class DecodedInstruction:
    """One decoded instruction.

    ``displacement`` is the signed branch displacement relative to the
    end of the instruction, or ``None`` for non-branch instructions.
    """

    opcode: Opcode
    offset: int
    size: int
    displacement: Optional[int] = None

    @property
    def end(self) -> int:
        return self.offset + self.size

    def target(self, base: int = 0) -> int:
        """Absolute target address, given the address of this instruction."""
        if self.displacement is None:
            raise ValueError(f"{self.opcode.name} has no displacement")
        return base + self.end + self.displacement


def instruction_size(opcode: Opcode) -> int:
    """Size in bytes of an instruction with the given opcode."""
    return OPCODE_SIZES[opcode]


def is_branch(opcode: Opcode) -> bool:
    """True for direct, displacement-carrying control transfers."""
    return opcode in BRANCH_OPCODES


def is_call(opcode: Opcode) -> bool:
    return opcode in (Opcode.CALL, Opcode.ICALL)


def is_conditional(opcode: Opcode) -> bool:
    return opcode in (Opcode.JCC_SHORT, Opcode.JCC_LONG)


def is_unconditional_jump(opcode: Opcode) -> bool:
    return opcode in (Opcode.JMP_SHORT, Opcode.JMP_LONG, Opcode.IJMP)


def is_terminator(opcode: Opcode) -> bool:
    """True when sequential execution cannot continue past the instruction."""
    return opcode in (Opcode.RET, Opcode.JMP_SHORT, Opcode.JMP_LONG, Opcode.IJMP, Opcode.TRAP)


def short_form(opcode: Opcode) -> Opcode:
    """The rel8 form of a branch opcode (identity for already-short forms)."""
    return {
        Opcode.JMP_LONG: Opcode.JMP_SHORT,
        Opcode.JCC_LONG: Opcode.JCC_SHORT,
        Opcode.JMP_SHORT: Opcode.JMP_SHORT,
        Opcode.JCC_SHORT: Opcode.JCC_SHORT,
    }[opcode]


def long_form(opcode: Opcode) -> Opcode:
    """The rel32 form of a branch opcode (identity for already-long forms)."""
    return {
        Opcode.JMP_SHORT: Opcode.JMP_LONG,
        Opcode.JCC_SHORT: Opcode.JCC_LONG,
        Opcode.JMP_LONG: Opcode.JMP_LONG,
        Opcode.JCC_LONG: Opcode.JCC_LONG,
        Opcode.CALL: Opcode.CALL,
    }[opcode]


def fits_short(displacement: int) -> bool:
    """Whether a displacement can be encoded in a signed byte."""
    return -128 <= displacement <= 127


def _displacement_slot(opcode: Opcode) -> Optional[Tuple[int, int]]:
    """(byte offset within instruction, width) of the displacement field."""
    if opcode == Opcode.CALL:
        return 1, 4
    if opcode == Opcode.JMP_LONG:
        return 1, 4
    if opcode == Opcode.JCC_LONG:
        return 2, 4
    if opcode == Opcode.JMP_SHORT:
        return 1, 1
    if opcode == Opcode.JCC_SHORT:
        return 1, 1
    return None


def decode_instruction(data: bytes, offset: int = 0) -> DecodedInstruction:
    """Decode the instruction at ``offset``.

    Raises :class:`DecodeError` on an unknown opcode byte or a truncated
    instruction.  This is intentionally strict: a disassembler that runs
    into embedded data must notice.
    """
    if offset >= len(data):
        raise DecodeError(offset, None, "offset past end of data")
    byte = data[offset]
    if byte not in _VALID_OPCODE_BYTES:
        raise DecodeError(offset, byte, "unknown opcode")
    opcode = Opcode(byte)
    size = OPCODE_SIZES[opcode]
    if offset + size > len(data):
        raise DecodeError(offset, byte, "truncated instruction")
    displacement = None
    slot = _displacement_slot(opcode)
    if slot is not None:
        start, width = slot
        raw = data[offset + start : offset + start + width]
        if width == 1:
            displacement = struct.unpack("<b", raw)[0]
        else:
            displacement = struct.unpack("<i", raw)[0]
    return DecodedInstruction(opcode=opcode, offset=offset, size=size, displacement=displacement)


def decode_range(data: bytes, start: int, end: int) -> List[DecodedInstruction]:
    """Linear-sweep decode of ``data[start:end]``.

    Stops cleanly at ``end``; raises :class:`DecodeError` when the sweep
    desynchronizes (lands on a non-opcode byte), which happens when data
    is embedded in code.
    """
    out: List[DecodedInstruction] = []
    offset = start
    while offset < end:
        instr = decode_instruction(data, offset)
        if instr.end > end:
            raise DecodeError(offset, data[offset], "instruction straddles range end")
        out.append(instr)
        offset = instr.end
    return out
