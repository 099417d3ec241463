"""Unit tests for the synthetic ISA encoder/decoder."""

import struct
from typing import Optional

import pytest

from repro.isa import (
    BRANCH_OPCODES,
    OPCODE_SIZES,
    DecodeError,
    Opcode,
    decode_instruction,
    decode_range,
    fits_short,
    instruction_size,
    is_branch,
    is_call,
    is_conditional,
    is_terminator,
    is_unconditional_jump,
    long_form,
    short_form,
)
from repro.isa.encoding import _displacement_slot


def encode_instruction(opcode: Opcode, displacement: Optional[int] = None, payload: bytes = b"") -> bytes:
    """Encode one instruction to bytes: the scalar spec of the ISA's
    encoding, which the product emits as byte templates.

    ``payload`` fills non-displacement operand bytes; it is truncated or
    zero-padded to the instruction's operand width.  Branch opcodes take
    ``displacement`` instead (defaulting to 0, to be patched later by
    the linker through a relocation).
    """
    size = OPCODE_SIZES[opcode]
    buf = bytearray([int(opcode)])
    slot = _displacement_slot(opcode)
    if slot is not None:
        disp = displacement or 0
        start, width = slot
        # JCC_LONG has a condition-code byte between opcode and displacement.
        while len(buf) < start:
            buf.append(payload[len(buf) - 1] if len(buf) - 1 < len(payload) else 0)
        if width == 1:
            if not fits_short(disp):
                raise ValueError(f"displacement {disp} does not fit in rel8")
            buf += struct.pack("<b", disp)
        else:
            buf += struct.pack("<i", disp)
    else:
        if displacement is not None:
            raise ValueError(f"{opcode.name} takes no displacement")
        operand_width = size - 1
        padded = (payload + b"\x00" * operand_width)[:operand_width]
        buf += padded
    if len(buf) != size:
        raise AssertionError(f"encoded {opcode.name} to {len(buf)} bytes, expected {size}")
    return bytes(buf)


class TestEncoding:
    def test_every_opcode_encodes_to_declared_size(self):
        for opcode, size in OPCODE_SIZES.items():
            if opcode in BRANCH_OPCODES:
                data = encode_instruction(opcode, displacement=0)
            else:
                data = encode_instruction(opcode)
            assert len(data) == size

    def test_first_byte_is_opcode(self):
        assert encode_instruction(Opcode.NOP)[0] == 0x90
        assert encode_instruction(Opcode.CALL, displacement=4)[0] == 0xE8

    def test_payload_truncated_and_padded(self):
        data = encode_instruction(Opcode.LOAD, payload=b"\x01")
        assert data == bytes([Opcode.LOAD, 1, 0, 0])
        data = encode_instruction(Opcode.ALU8, payload=b"\xaa\xbb")
        assert data == bytes([Opcode.ALU8, 0xAA])

    def test_branch_rejects_payload_semantics(self):
        with pytest.raises(ValueError):
            encode_instruction(Opcode.NOP, displacement=5)

    def test_short_displacement_range_enforced(self):
        encode_instruction(Opcode.JMP_SHORT, displacement=127)
        encode_instruction(Opcode.JMP_SHORT, displacement=-128)
        with pytest.raises(ValueError):
            encode_instruction(Opcode.JMP_SHORT, displacement=128)

    def test_negative_long_displacement(self):
        data = encode_instruction(Opcode.JMP_LONG, displacement=-70000)
        instr = decode_instruction(data)
        assert instr.displacement == -70000


class TestDecoding:
    def test_roundtrip_all_branches(self):
        for opcode in (Opcode.CALL, Opcode.JMP_LONG, Opcode.JCC_LONG):
            for disp in (-(1 << 20), -1, 0, 1, 1 << 20):
                instr = decode_instruction(encode_instruction(opcode, displacement=disp))
                assert instr.opcode == opcode
                assert instr.displacement == disp

    def test_roundtrip_short_branches(self):
        for opcode in (Opcode.JMP_SHORT, Opcode.JCC_SHORT):
            for disp in (-128, -1, 0, 127):
                instr = decode_instruction(encode_instruction(opcode, displacement=disp))
                assert instr.displacement == disp

    def test_unknown_opcode_raises(self):
        with pytest.raises(DecodeError):
            decode_instruction(b"\x00")

    def test_truncated_instruction_raises(self):
        data = encode_instruction(Opcode.CALL, displacement=0)[:3]
        with pytest.raises(DecodeError):
            decode_instruction(data)

    def test_offset_past_end_raises(self):
        with pytest.raises(DecodeError):
            decode_instruction(b"\x90", offset=1)

    def test_target_computation(self):
        # JMP_LONG at address 100 with displacement 20 targets 125.
        instr = decode_instruction(encode_instruction(Opcode.JMP_LONG, displacement=20))
        assert instr.target(100) == 100 + 5 + 20

    def test_target_on_non_branch_raises(self):
        instr = decode_instruction(encode_instruction(Opcode.NOP))
        with pytest.raises(ValueError):
            instr.target(0)

    def test_decode_range_sequential(self):
        data = (
            encode_instruction(Opcode.NOP)
            + encode_instruction(Opcode.ALU16)
            + encode_instruction(Opcode.RET)
        )
        instrs = decode_range(data, 0, len(data))
        assert [i.opcode for i in instrs] == [Opcode.NOP, Opcode.ALU16, Opcode.RET]
        assert [i.offset for i in instrs] == [0, 1, 4]

    def test_decode_range_desync_raises(self):
        data = encode_instruction(Opcode.NOP) + b"\x00\x00\x00"
        with pytest.raises(DecodeError):
            decode_range(data, 0, len(data))

    def test_decode_range_straddle_raises(self):
        data = encode_instruction(Opcode.CALL, displacement=0)
        with pytest.raises(DecodeError):
            decode_range(data, 0, 3)


class TestPredicates:
    def test_branch_classification(self):
        assert is_branch(Opcode.CALL)
        assert is_branch(Opcode.JCC_SHORT)
        assert not is_branch(Opcode.RET)
        assert not is_branch(Opcode.ICALL)

    def test_call_classification(self):
        assert is_call(Opcode.CALL)
        assert is_call(Opcode.ICALL)
        assert not is_call(Opcode.JMP_LONG)

    def test_conditional(self):
        assert is_conditional(Opcode.JCC_SHORT)
        assert is_conditional(Opcode.JCC_LONG)
        assert not is_conditional(Opcode.JMP_LONG)

    def test_terminator(self):
        for op in (Opcode.RET, Opcode.JMP_SHORT, Opcode.JMP_LONG, Opcode.IJMP, Opcode.TRAP):
            assert is_terminator(op)
        for op in (Opcode.JCC_LONG, Opcode.CALL, Opcode.NOP):
            assert not is_terminator(op)

    def test_unconditional_jump(self):
        assert is_unconditional_jump(Opcode.IJMP)
        assert not is_unconditional_jump(Opcode.JCC_SHORT)

    def test_form_conversion_roundtrip(self):
        assert short_form(Opcode.JMP_LONG) == Opcode.JMP_SHORT
        assert short_form(Opcode.JCC_LONG) == Opcode.JCC_SHORT
        assert long_form(Opcode.JMP_SHORT) == Opcode.JMP_LONG
        assert long_form(Opcode.JCC_SHORT) == Opcode.JCC_LONG
        assert long_form(short_form(Opcode.JMP_LONG)) == Opcode.JMP_LONG

    def test_fits_short(self):
        assert fits_short(0)
        assert fits_short(-128)
        assert fits_short(127)
        assert not fits_short(128)
        assert not fits_short(-129)

    def test_instruction_size_matches_table(self):
        assert instruction_size(Opcode.JCC_LONG) == 6
        assert instruction_size(Opcode.RET) == 1
