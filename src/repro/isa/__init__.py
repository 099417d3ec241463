"""Synthetic instruction set architecture.

A small, variable-length, x86-flavoured ISA.  Machine code in this
reproduction is real bytes with real encodings: branches carry signed
relative displacements in short (1-byte) or long (4-byte) forms, and the
code generator may embed jump-table data directly in text sections.
That makes disassembly a genuine problem -- exactly the property the
paper's argument against disassembly-driven post-link optimizers rests
on -- rather than a stub.
"""

from repro.isa.encoding import (
    Opcode,
    OPCODE_SIZES,
    BRANCH_OPCODES,
    CONTROL_FLOW_OPCODES,
    DecodedInstruction,
    DecodeError,
    decode_instruction,
    decode_range,
    instruction_size,
    is_branch,
    is_call,
    is_conditional,
    is_terminator,
    is_unconditional_jump,
    long_form,
    short_form,
    fits_short,
)

__all__ = [
    "Opcode",
    "OPCODE_SIZES",
    "BRANCH_OPCODES",
    "CONTROL_FLOW_OPCODES",
    "DecodedInstruction",
    "DecodeError",
    "decode_instruction",
    "decode_range",
    "instruction_size",
    "is_branch",
    "is_call",
    "is_conditional",
    "is_terminator",
    "is_unconditional_jump",
    "long_form",
    "short_form",
    "fits_short",
]
