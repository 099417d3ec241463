"""Function discovery and disassembly (§2.4's hard part).

Walks the executable's function symbols, linearly decodes each
function's byte range, and rebuilds a CFG from branch targets.  Two
things make a function *non-simple* (left untouched by the optimizer,
as real BOLT does):

* the decoder desynchronizes -- e.g. it walks into a jump table
  embedded in text (data-in-code);
* an absolute relocation points into the function's range, proving
  embedded data even when the bytes happen to decode.

Every decoded instruction is accounted as an in-memory object; this is
what makes the monolithic approach's peak memory scale with binary
size (Fig. 4/5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis import MemoryMeter
from repro.elf import Executable, RelocType
from repro.isa import (DecodeError, DecodedInstruction, decode_instruction, is_branch, is_call,
                       is_terminator)

#: Modelled in-memory footprint of one lifted instruction (MCInst plus
#: operands and annotations in real BOLT).
INSTR_OBJECT_BYTES = 320
BLOCK_OBJECT_BYTES = 96
FUNCTION_OBJECT_BYTES = 160
_ABS32 = list(RelocType).index(RelocType.ABS32)  # as a table's enum column stores it


@dataclass
class BoltBlock:
    """One reconstructed basic block (an address range)."""

    addr: int
    size: int
    num_instrs: int
    is_entry: bool = False

    @property
    def end(self) -> int:
        return self.addr + self.size


@dataclass
class BoltFunction:
    """One discovered function."""

    name: str
    addr: int
    size: int
    simple: bool = True
    reason: str = ""
    blocks: List[BoltBlock] = field(default_factory=list)
    num_instrs: int = 0

    @property
    def end(self) -> int:
        return self.addr + self.size


@dataclass
class DisassemblyResult:
    functions: List[BoltFunction]
    total_instrs: int
    modelled_bytes: int
    num_simple: int


def disassemble(exe: Executable, meter: Optional[MemoryMeter] = None) -> DisassemblyResult:
    """Discover and disassemble functions.

    Every simple function gets its CFG rebuilt; a non-simple one is
    still *scanned* (discovery requires decoding) but its instruction
    objects are released immediately.
    """
    relocs = exe.retained_relocations
    if not relocs:
        raise ValueError(
            f"{exe.name}: no relocations; BOLT requires a binary linked with --emit-relocs")
    base, image = exe.text_image()
    end_of_text = base + len(image)
    abs_reloc_addrs = sorted(relocs.ints("addr")[relocs.ints("rtype") == _ABS32].tolist())

    func_syms = exe.function_symbols()
    functions: List[BoltFunction] = []
    total_instrs = 0
    modelled = 0
    for i, sym in enumerate(func_syms):
        start = sym.addr
        end = start + sym.size if sym.size else (
            func_syms[i + 1].addr if i + 1 < len(func_syms) else end_of_text
        )
        func = BoltFunction(name=sym.name, addr=start, size=end - start)
        instrs, reason = _decode_function(image, base, start, end)
        func.num_instrs = len(instrs)
        total_instrs += len(instrs)
        if reason:
            func.simple = False
            func.reason = reason
        if _has_embedded_data(abs_reloc_addrs, start, end):
            func.simple = False
            func.reason = func.reason or "embedded jump table (abs relocation in text)"
        cost = len(instrs) * INSTR_OBJECT_BYTES + FUNCTION_OBJECT_BYTES
        if func.simple:
            func.blocks = _build_blocks(instrs, base)
            cost += len(func.blocks) * BLOCK_OBJECT_BYTES
            if meter is not None:
                meter.allocate(cost, "bolt-disasm")
            modelled += cost
        else:
            # Scanned then dropped: transient footprint only.
            if meter is not None:
                with meter.scope(cost, "bolt-scan"):
                    pass
            func.blocks = []
        functions.append(func)
    return DisassemblyResult(
        functions=functions,
        total_instrs=total_instrs,
        modelled_bytes=modelled,
        num_simple=sum(1 for f in functions if f.simple),
    )


def _decode_function(
    image: bytes, base: int, start: int, end: int
) -> Tuple[List[DecodedInstruction], str]:
    """Linear-sweep decode of one function range."""
    instrs: List[DecodedInstruction] = []
    offset = start - base
    stop = end - base
    while offset < stop:
        if image[offset] == 0xCC:  # alignment padding between sections
            offset += 1
            continue
        try:
            instr = decode_instruction(image, offset)
        except DecodeError as exc:
            return instrs, f"decode failure at +{offset - (start - base):#x}: {exc}"
        if instr.end > stop:
            return instrs, "instruction straddles function end"
        instrs.append(instr)
        offset = instr.end
    return instrs, ""


def _has_embedded_data(abs_reloc_addrs: List[int], start: int, end: int) -> bool:
    import bisect

    i = bisect.bisect_left(abs_reloc_addrs, start)
    return i < len(abs_reloc_addrs) and abs_reloc_addrs[i] < end


def _build_blocks(instrs: List[DecodedInstruction], base: int) -> List[BoltBlock]:
    """Split a decoded instruction list into basic blocks.

    Leaders are the function start, every in-range branch target, and
    every instruction following a control-flow instruction.  (Blocks
    only ever *entered* by fall-through merge with their predecessor,
    which is harmless for layout: they move as a unit.)

    Instruction offsets are image offsets; emitted block addresses are
    absolute (``base`` added).
    """
    leaders: Set[int] = set()
    if instrs:
        leaders.add(instrs[0].offset)
    for instr in instrs:
        if is_branch(instr.opcode) and not is_call(instr.opcode):
            target = instr.target(0)
            leaders.add(target)
        if is_terminator(instr.opcode) or (
            is_branch(instr.opcode) and not is_call(instr.opcode)
        ):
            leaders.add(instr.end)

    blocks: List[BoltBlock] = []
    current_start: Optional[int] = None
    current_count = 0
    last_instr: Optional[DecodedInstruction] = None

    def flush(next_offset: int) -> None:
        nonlocal current_start, current_count, last_instr
        if current_start is None:
            return
        blocks.append(BoltBlock(addr=current_start + base, size=next_offset - current_start,
                                num_instrs=current_count, is_entry=not blocks))
        current_start = None
        current_count = 0
        last_instr = None

    for instr in instrs:
        if instr.offset in leaders and current_start is not None:
            flush(instr.offset)
        if current_start is None:
            current_start = instr.offset
        current_count += 1
        last_instr = instr
        if instr.end in leaders:
            flush(instr.end)
    if current_start is not None and last_instr is not None:
        flush(last_instr.end)
    return blocks
