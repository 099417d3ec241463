"""IR-to-machine lowering.

A module lowers in two passes:

* the **plan** pass walks the IR in Python, one block at a time.  It
  picks every instruction's opcode -- and so, from the opcode sizes,
  every offset -- and appends *rows* to the object's tables
  (:meth:`repro.elf.table.Table.append_row`): relocations, fixups,
  block descriptors and symbols, with no record built per instruction
  or per block.  A section owns the rows appended since the section
  before it was added.  Every branch is emitted in long form with a static
  relocation and a :class:`~repro.elf.metadata.BranchFixup`, deferring
  target resolution to the linker (§4.2).  Basic-block label symbols
  use the assembler-temporary ``.L`` prefix; the linker resolves them
  but does not export them to the executable's symbol table.
* the **bytes** pass (:meth:`_Code.image`) builds the module's text in
  one go with NumPy: the opcode bytes and every operand byte are
  scattered into one buffer that the text sections are slices of.

Operand bytes are a deterministic pseudo-random stream, derived from
stable identifiers so recompiling identical IR yields byte-identical
objects (a requirement for content-addressed caching); their values
intentionally collide with opcode bytes, keeping disassembly honest.
Instruction ``idx`` of block ``bb_id`` carries the first ``size - 1``
bytes of the stream seeded with ``crc32(f"{func}:{bb_id}:{idx}")``
(:func:`_stream`).  Branches carry zeros (the linker patches them), and
so does a prefetch.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import ir
from repro.codegen.options import (
    ALIGN_FUNCTION,
    CALLEE_SAVED_REGS,
    BBSectionsMode,
    CodeGenOptions,
)
from repro.elf import (
    ObjectFile,
    RelocType,
    Section,
    SectionKind,
    SymbolBinding,
    SymbolType,
    TerminatorKind,
    bbaddrmap,
)
from repro.elf.table import run_index
from repro.ir import cfg as ir_cfg
from repro.isa import OPCODE_SIZES, Opcode

#: Keyed by the kind's value: hashing an Enum member runs Python code.
_OP_LOWERING: Dict[str, Opcode] = {
    ir.OpKind.NOP.value: Opcode.NOP,
    ir.OpKind.ALU8.value: Opcode.ALU8,
    ir.OpKind.ALU16.value: Opcode.ALU16,
    ir.OpKind.ALU32.value: Opcode.ALU32,
    ir.OpKind.LOAD.value: Opcode.LOAD,
    ir.OpKind.STORE.value: Opcode.STORE,
    ir.OpKind.LEA.value: Opcode.LEA,
    ir.OpKind.MOV.value: Opcode.MOVRR,
    ir.OpKind.CMP.value: Opcode.CMP,
}

#: Instruction size by opcode byte.
_SIZE = np.zeros(256, dtype=np.int64)
_SIZE[list(OPCODE_SIZES)] = list(OPCODE_SIZES.values())

#: Modelled eh_frame sizes (§4.4): one CIE per object, one FDE per
#: contiguous function fragment, plus re-emitted callee-saved-register
#: CFI for every non-primary fragment.
_CIE_BYTES = 24
_FDE_BYTES = 32
_CSR_CFI_BYTES = 8

#: Modelled exception call-site table sizes (§4.5).
_LSDA_HEADER_BYTES = 8
_LSDA_CALLSITE_BYTES = 12

_JUMP_TABLE_ENTRY_BYTES = 4

#: Modelled DWARF sizes (§4.3): a function DIE, one DW_AT_ranges
#: descriptor per contiguous fragment, and per-instruction line info.
_DEBUG_DIE_BYTES = 40
_DEBUG_RANGE_DESCRIPTOR_BYTES = 16
_DEBUG_RANGE_RELOCS = 2
_DEBUG_LINE_BYTES_PER_INSTR = 3


def bb_label(func: str, bb_id: int) -> str:
    """Assembler-temporary label of a basic block."""
    return f".L{func}.__bb{bb_id}"


_MASK = np.uint64(0xFFFFFFFF)
#: ``k`` steps of the operand LCG, ``s -> s * 1103515245 + 12345 (mod
#: 2**32)``, are one affine map ``s -> A[k] * s + C[k]``: grown by
#: doubling (``f^(m+j) = f^j . f^m``) to the longest stream asked for.
_LCG_A = np.ones(1, dtype=np.uint64)
_LCG_C = np.zeros(1, dtype=np.uint64)


def _stream(seeds: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The first ``lengths[i]`` bytes of the stream seeded with
    ``seeds[i]``, for every ``i``, laid end to end.

    Byte ``k`` of a stream is bits 16-23 of the LCG state ``k + 1``
    steps from its seed.  As every step count is one multiply-add of the
    seed, the bytes of all streams are computed at once.
    """
    global _LCG_A, _LCG_C
    while len(_LCG_A) <= int(lengths.max(initial=0)):
        a = _LCG_A[-1] * np.uint64(1103515245) & _MASK
        c = (_LCG_C[-1] * np.uint64(1103515245) + np.uint64(12345)) & _MASK
        _LCG_A, _LCG_C = (np.concatenate([_LCG_A, _LCG_A * a & _MASK]),
                          np.concatenate([_LCG_C, (_LCG_A * c + _LCG_C) & _MASK]))
    steps = run_index(lengths) + 1
    seeds = np.repeat(seeds.astype(np.uint64), lengths)
    return ((_LCG_A[steps] * seeds + _LCG_C[steps]) >> np.uint64(16)).astype(np.uint8)


def _filler(name: str, tag: int, nbytes: int) -> bytearray:
    """Modelled metadata bytes (LSDA, DWARF, eh_frame): the operand stream
    of instruction 0 of pseudo-block ``tag``."""
    seed = zlib.crc32(f"{name}:{tag}:0".encode())
    return bytearray(_stream(np.array([seed]), np.array([nbytes])))


#: The CRC-32 (zlib's) of one byte, as a lookup table.
_CRC = np.arange(256, dtype=np.int64)
for _ in range(8):
    _CRC = np.where(_CRC & 1, (_CRC >> 1) ^ 0xEDB88320, _CRC >> 1)


def _crc_decimal(crcs: np.ndarray, numbers: np.ndarray) -> np.ndarray:
    """``zlib.crc32(b"%d" % n, crc)`` of every ``(crc, n)``: a prefix's
    CRC carried on over each number's digits, one digit column at a time
    (``crc32(a + b) == crc32(b, crc32(a))``)."""
    state, value = crcs ^ 0xFFFFFFFF, np.abs(numbers)
    digits = np.ones(len(value), dtype=np.int64)
    while (value >= 10 ** digits).any():
        digits += value >= 10 ** digits
    text = [np.where(numbers < 0, ord("-"), -1)]  # -1: no character in this column
    text += [np.where(digits > j, ord("0") + value // 10 ** np.maximum(digits - 1 - j, 0) % 10, -1)
             for j in range(int(digits.max(initial=0)))]
    for char in text:
        state = np.where(char >= 0, _CRC[(state ^ char) & 0xFF] ^ (state >> 8), state)
    return state ^ 0xFFFFFFFF


class _Code:
    """A module's text sections, laid end to end, as the plan pass leaves
    them.  A block's body is a *run*: the opcodes of its IR instructions
    from ``at`` on, the ``i``-th keyed ``(crc, i)`` by its block's
    ``"{func}:{bb_id}:"`` prefix CRC.  Any other instruction is a single
    ``(at, opcode, crc)``, keyed ``(crc, -1)`` when ``crc >= 0``.  A
    keyed instruction's operands are its key's stream; the rest are 0."""

    def __init__(self):
        self.size = 0
        self.runs: List[int] = []  # (at, crc, length) of every run, flat
        self.run_ops: List[Opcode] = []
        self.singles: List[int] = []  # (at, opcode, crc) of every single, flat

    def image(self) -> np.ndarray:
        """The bytes pass: one buffer of the module's text."""
        runs = np.array(self.runs, dtype=np.int64).reshape(-1, 3)
        singles = np.array(self.singles, dtype=np.int64).reshape(-1, 3)
        run_ops, counts = np.array(self.run_ops, dtype=np.int64), runs[:, 2]
        ends = np.cumsum(_SIZE[run_ops])  # a run's instructions sit back to back
        starts = np.concatenate([[0], ends])[np.cumsum(counts) - counts]
        at = np.concatenate([np.repeat(runs[:, 0] - starts, counts) + ends - _SIZE[run_ops],
                             singles[:, 0]])
        ops = np.concatenate([run_ops, singles[:, 1]])
        crcs = np.concatenate([np.where(run_ops == Opcode.CALL, -1, np.repeat(runs[:, 1], counts)),
                               singles[:, 2]])
        keyed = crcs >= 0
        idxs = np.concatenate([run_index(counts), np.full(len(singles), -1)])[keyed]
        out = np.zeros(self.size, dtype=np.uint8)
        out[at] = ops
        lengths = _SIZE[ops[keyed]] - 1
        out[np.repeat(at[keyed] + 1, lengths) + run_index(lengths)] = _stream(
            _crc_decimal(crcs[keyed], idxs), lengths)
        return out


class _SectionEmitter:
    """Plans one text section: its size, and its relocation, fixup and
    block rows, appended to ``obj``'s tables.  Its instructions go to
    the module's :class:`_Code` from ``base``."""

    def __init__(self, code: _Code, obj: ObjectFile):
        self.code = code
        self.base = code.size
        self.size = 0
        self.relocate = obj.relocations.append_row
        self.fixup = obj.fixups.append_row
        self.block = obj.blocks.append_row
        self.num_instrs = 0

    def emit(self, opcode: Opcode, crc: int = -1) -> int:
        """Plan one single instruction at the cursor (see :class:`_Code`)."""
        off = self.size
        self.code.singles += (self.base + off, opcode, crc)
        self.size = off + OPCODE_SIZES[opcode]
        self.num_instrs += 1
        return off

    def emit_run(self, block: ir.BasicBlock, crc: int, calls: List[tuple]) -> None:
        """Plan ``block``'s IR instructions as a run at the cursor, a call's
        relocation and :class:`~repro.elf.CallSite` row with it."""
        instrs, lowering = block.instrs, _OP_LOWERING
        run = [lowering[i.kind._value_] if i.__class__ is not ir.Call else
               Opcode.ICALL if i.callee is None else Opcode.CALL for i in instrs]
        self.code.runs += (self.base + self.size, crc, len(run))
        self.code.run_ops += run
        sizes = [OPCODE_SIZES[opcode] for opcode in run]
        if Opcode.CALL in run or Opcode.ICALL in run:
            for instr, opcode, off in zip(instrs, run, accumulate(sizes, initial=self.size)):
                if opcode == Opcode.CALL:
                    self.relocate((off + 1, RelocType.PC32, instr.callee, 0))
                    calls.append((off, OPCODE_SIZES[opcode], instr.callee, ()))
                elif opcode == Opcode.ICALL:
                    calls.append((off, OPCODE_SIZES[opcode], None, tuple(instr.indirect_targets)))
        self.size += sum(sizes)
        self.num_instrs += len(run)

    def emit_branch(self, opcode: Opcode, symbol: str, deletable: bool = False) -> tuple:
        """Emit a long-form jump or Jcc with a relocation and a fixup;
        returns its ``(symbol, offset, size)``."""
        off = self.emit(opcode)
        field_off = off + (2 if opcode == Opcode.JCC_LONG else 1)
        self.relocate((field_off, RelocType.PC32, symbol, 0))
        self.fixup((off, opcode, symbol, deletable))
        return symbol, off, OPCODE_SIZES[opcode]

    def emit_jump_table(self, targets: Sequence[str]) -> None:
        """Embed a jump table (data in code!) at the current offset."""
        for symbol in targets:
            self.relocate((self.size, RelocType.ABS32, symbol, 0))
            self.size += _JUMP_TABLE_ENTRY_BYTES


def _pgo_block_order(function: ir.Function, profile) -> List[int]:
    """Profile-guided top-down local layout (the PGO baseline).

    Greedily follows the hottest unplaced successor so that likely
    edges become fall-throughs, then sinks never-executed blocks to the
    end of the function (intra-section cold sinking).
    """
    edges = profile.edge_counts(function.name)
    counts = profile.block_counts(function.name)
    if not counts:
        return [b.bb_id for b in function.blocks]
    placed: Dict[int, None] = {}  # an ordered set
    current: Optional[int] = function.entry.bb_id
    hot_ids = [b.bb_id for b in function.blocks if counts.get(b.bb_id, 0) > 0]
    while current is not None:
        placed[current] = None
        best, best_count = None, -1.0
        for succ, _prob in ir_cfg.successor_edges(function.block(current)):
            count = edges.get((current, succ), 0.0)
            if succ not in placed and count > best_count:
                best, best_count = succ, count
        if best is not None and best_count > 0:
            current = best
            continue
        # Detached: continue from the hottest unplaced profiled block (the
        # last of equals), else a cold but reachable successor, keeping
        # structural order going.
        current = max((bb_id for bb_id in reversed(hot_ids) if bb_id not in placed),
                      key=counts.__getitem__, default=best)
    # Cold sinking: zero-count blocks last.
    return [*placed, *(b.bb_id for b in function.blocks if b.bb_id not in placed)]


def _section_plan(function: ir.Function,
                  options: CodeGenOptions) -> List[Tuple[str, str, List[int]]]:
    """``(section, leader symbol, block ids)`` of each text section of
    ``function``.  The first is its primary section: named and led by
    the function (global, function-aligned); the rest are local and
    byte-aligned."""
    fn = function.name
    entry_id = function.entry.bb_id
    clusters = options.clusters_for(fn) if options.bb_sections == BBSectionsMode.LIST else None
    if clusters is not None:
        if not clusters or not clusters[0] or clusters[0][0] != entry_id:
            raise ValueError(f"{fn}: first cluster must start with the entry block")
        listed = [bb for cluster in clusters for bb in cluster]
        if len(listed) != len(set(listed)):
            raise ValueError(f"{fn}: block listed in multiple clusters")
        for bb in listed:
            if not function.has_block(bb):
                raise ValueError(f"{fn}: cluster names unknown block {bb}")
        plans = [(f".text.{fn}", fn, list(clusters[0]))] + [
            (f".text.{fn}.{i}", f"{fn}.{i}", list(cluster))
            for i, cluster in enumerate(clusters[1:], start=1)]
        leftover = [b.bb_id for b in function.blocks if b.bb_id not in set(listed)]
        return plans + [(f".text.{fn}.cold", f"{fn}.cold", leftover)] if leftover else plans
    if options.bb_sections == BBSectionsMode.ALL:
        return [(f".text.{fn}", fn, [entry_id])] + [
            (f".text.{fn}.__sec{b.bb_id}", f"{fn}.__bbsec{b.bb_id}", [b.bb_id])
            for b in function.blocks if b.bb_id != entry_id]
    # NONE: a single function section, PGO-ordered when a profile exists.
    if options.ir_profile is not None:
        order = _pgo_block_order(function, options.ir_profile)
    else:
        order = [b.bb_id for b in function.blocks]
    if order[0] != entry_id:
        raise AssertionError(f"{fn}: entry block not first in layout")
    return [(f".text.{fn}", fn, order)]


def _term_row(kind: TerminatorKind, cond=(None, 0.0, -1, 0), uncond=(None, -1, 0),
              end=(-1, 0), ijmp=()) -> tuple:
    """A :class:`~repro.elf.TerminatorMeta` row: ``cond`` is ``(target,
    prob, offset, size)`` of the Jcc, ``uncond`` ``(target, offset,
    size)`` of the jump, ``end`` ``(offset, size)`` of a RET/IJMP/TRAP."""
    return (kind, *cond, *uncond, *end, ijmp)


def _lower_block(
    emitter: _SectionEmitter,
    function: ir.Function,
    block: ir.BasicBlock,
    next_bb: Optional[int],
    rodata: Optional[List[tuple]],
    prefetch_symbols: Sequence[str] = (),
) -> None:
    """Plan ``block`` at the emitter's cursor and append its
    :class:`~repro.elf.BlockMeta` row to the object's block table.  A
    jump table goes to ``rodata``'s relocation rows or, when it is
    ``None`` (hand-written code), into the text."""
    fn = function.name
    start = emitter.size
    crc = zlib.crc32(f"{fn}:{block.bb_id}:".encode())
    calls: List[tuple] = []  # CallSite rows
    prefetches: List[tuple] = []  # PrefetchSite rows
    for symbol in prefetch_symbols:
        off = emitter.emit(Opcode.PREFETCH)
        emitter.relocate((off + 1, RelocType.PC32, symbol, 0))
        prefetches.append((off, symbol))
    emitter.emit_run(block, crc, calls)

    term = block.term
    if isinstance(term, ir.CondBr):
        taken, fallthrough, prob = term.taken, term.fallthrough, term.prob
        if taken == next_bb:
            # Invert the condition so the likely-next block falls through.
            taken, fallthrough, prob = fallthrough, taken, 1.0 - prob
        target, off, size = emitter.emit_branch(Opcode.JCC_LONG, bb_label(fn, taken))
        uncond = (None, -1, 0) if fallthrough == next_bb else emitter.emit_branch(
            Opcode.JMP_LONG, bb_label(fn, fallthrough), deletable=True)
        term_row = _term_row(TerminatorKind.CONDBR, (target, prob, off, size), uncond)
    elif isinstance(term, ir.Jump) and term.target == next_bb:
        term_row = _term_row(TerminatorKind.FALLTHROUGH)
    elif isinstance(term, ir.Jump):
        term_row = _term_row(TerminatorKind.JUMP, uncond=emitter.emit_branch(
            Opcode.JMP_LONG, bb_label(fn, term.target), deletable=True))
    elif isinstance(term, ir.Ret):
        off = emitter.emit(Opcode.RET)
        term_row = _term_row(TerminatorKind.RET, end=(off, OPCODE_SIZES[Opcode.RET]))
    elif isinstance(term, ir.Switch):
        off = emitter.emit(Opcode.IJMP, crc)
        labels = [bb_label(fn, t) for t in term.targets]
        if rodata is None:
            emitter.emit_jump_table(labels)
        else:  # its entries follow the function's tables before
            rodata += [(_JUMP_TABLE_ENTRY_BYTES * k, RelocType.ABS32, label, 0)
                       for k, label in enumerate(labels, len(rodata))]
        term_row = _term_row(TerminatorKind.IJMP, end=(off, OPCODE_SIZES[Opcode.IJMP]),
                             ijmp=list(zip(labels, term.probs)))
    elif isinstance(term, ir.Unreachable):
        off = emitter.emit(Opcode.TRAP, crc)
        term_row = _term_row(TerminatorKind.TRAP, end=(off, OPCODE_SIZES[Opcode.TRAP]))
    else:
        raise TypeError(f"unknown terminator {term!r}")

    emitter.block((block.bb_id, fn, start, emitter.size - start, term_row, calls, prefetches,
                   block.is_landing_pad, 0.0))


@dataclass
class CompiledObject:
    """A compiled module plus compile-cost accounting."""

    obj: ObjectFile
    module_name: str
    num_functions: int = 0
    num_blocks: int = 0
    num_instrs: int = 0
    text_bytes: int = 0


def compile_module(module: ir.Module, options: CodeGenOptions) -> CompiledObject:
    """Lower one IR module to an object file."""
    obj = ObjectFile(name=f"{module.name}.o")
    result = CompiledObject(obj=obj, module_name=module.name)
    code = _Code()
    texts: List[Tuple[Section, int, int]] = []  # every text section and its span of code
    eh_frame_bytes = _CIE_BYTES
    addr_maps: List[Tuple[str, Section]] = []  # (leader, text section)

    for function in module.functions:
        result.num_functions += 1
        result.num_blocks += function.num_blocks
        plans = _section_plan(function, options)
        # The function's jump tables: relocation rows held until its rodata
        # section is added after its text.
        rodata: Optional[List[tuple]] = None if function.hand_written else []
        prefetch_plan: Dict[int, List[str]] = {}
        for bb_id, symbol in options.prefetches_for(function.name):
            prefetch_plan.setdefault(bb_id, []).append(symbol)
        lsda_bytes = 0
        fn_instrs = 0
        for i, (section_name, leader, bb_ids) in enumerate(plans):
            primary = i == 0
            emitter = _SectionEmitter(code, obj)
            # §4.5: a landing-pad block at the very start of a section
            # would have offset zero relative to @LPStart; pad with a nop.
            if function.block(bb_ids[0]).is_landing_pad:
                emitter.emit(Opcode.NOP)
            labels = []
            for pos, bb_id in enumerate(bb_ids):
                next_bb = bb_ids[pos + 1] if pos + 1 < len(bb_ids) else None
                labels.append((bb_label(function.name, bb_id), emitter.size))
                _lower_block(emitter, function, function.block(bb_id), next_bb, rodata,
                             prefetch_plan.get(bb_id, ()))
            code.size += emitter.size
            section = obj.add_section(Section(name=section_name, kind=SectionKind.TEXT,
                                              alignment=ALIGN_FUNCTION if primary else 1))
            texts.append((section, emitter.base, code.size))
            obj.symbols.append_row((leader, section_name, 0, emitter.size, SymbolBinding.GLOBAL
                                    if primary else SymbolBinding.LOCAL, SymbolType.FUNC))
            for name, offset in labels:
                obj.symbols.append_row((name, section_name, offset, 0,
                                        SymbolBinding.LOCAL, SymbolType.NOTYPE))
            result.num_instrs += emitter.num_instrs
            fn_instrs += emitter.num_instrs
            result.text_bytes += emitter.size
            # §4.4: one FDE per fragment; non-primary fragments re-emit
            # callee-saved-register CFI and redefine the CFA.
            eh_frame_bytes += _FDE_BYTES
            if not primary:
                eh_frame_bytes += _CSR_CFI_BYTES * CALLEE_SAVED_REGS
            if function.has_landing_pads():
                calls = obj.blocks.col("calls")  # the offsets column ends at the total
                ncalls = calls[-1] - calls[section.blocks.start]
                if ncalls:
                    lsda_bytes += _LSDA_HEADER_BYTES + _LSDA_CALLSITE_BYTES * ncalls
            if options.bb_addr_map:
                addr_maps.append((leader, section))
        if rodata:
            for row in rodata:
                obj.relocations.append_row(row)
            obj.add_section(Section(
                name=f".rodata.{function.name}", kind=SectionKind.RODATA,
                data=bytearray(_JUMP_TABLE_ENTRY_BYTES * len(rodata)), alignment=4,
            ))
        if lsda_bytes:
            obj.add_section(Section(
                name=f".gcc_except_table.{function.name}", kind=SectionKind.OTHER,
                data=_filler(function.name, -2, lsda_bytes),
            ))
        if options.debug_info:
            # §4.3: ranges are per fragment; the two boundary
            # relocations per descriptor are modelled as bytes here
            # (they are resolved at link time, not retained).
            debug_bytes = (
                _DEBUG_DIE_BYTES
                + len(plans) * (_DEBUG_RANGE_DESCRIPTOR_BYTES + _DEBUG_RANGE_RELOCS * 8)
                + fn_instrs * _DEBUG_LINE_BYTES_PER_INSTR
            )
            obj.add_section(Section(
                name=f".debug_info.{function.name}", kind=SectionKind.DEBUG,
                data=_filler(function.name, -4, debug_bytes),
            ))

    image = code.image()
    for section, start, end in texts:
        section.data = bytearray(image[start:end])
    encoded = bbaddrmap.encode_blocks([leader for leader, _ in addr_maps], obj.blocks,
                                      [text.blocks for _, text in addr_maps])
    for (_, text), data in zip(addr_maps, encoded):
        obj.add_section(Section(
            name=f".llvm_bb_addr_map{text.name[len('.text'):]}" if text.name.startswith(".text")
            else f".llvm_bb_addr_map.{text.name}",
            kind=SectionKind.BB_ADDR_MAP,
            data=bytearray(data),
            link_name=text.name,
        ))
    if eh_frame_bytes > _CIE_BYTES:
        obj.add_section(Section(
            name=".eh_frame", kind=SectionKind.EH_FRAME,
            data=_filler(module.name, -3, eh_frame_bytes),
        ))
    for table in (obj.symbols, obj.relocations, obj.blocks, obj.fixups):
        table.release()
    return result


def compile_action(
    module: ir.Module,
    options: CodeGenOptions,
    fixed_seconds: float,
    seconds_per_instr: float,
) -> Tuple[CompiledObject, float, int]:
    """One backend action: ``(artifact, simulated cost, modelled peak RAM)``.

    This is :func:`compile_module` packaged in the build system's
    action-compute signature.  It must stay pure: everything an action
    produces is derived from its arguments, which is what makes a
    cache replay bit-identical to an execution.
    """
    compiled = compile_module(module, options)
    cost = fixed_seconds + compiled.num_instrs * seconds_per_instr
    return compiled, cost, compile_peak_memory(compiled.obj)


def compile_peak_memory(obj: ObjectFile) -> int:
    """Modelled peak RAM of the backend action that emits ``obj``."""
    return obj.total_size * 3


def compile_program(program: ir.Program, options: CodeGenOptions) -> List[CompiledObject]:
    """Lower every module of a program (convenience for tests/examples)."""
    return [compile_module(module, options) for module in program.modules]
