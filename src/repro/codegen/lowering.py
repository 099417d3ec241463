"""IR-to-machine lowering.

A module lowers in two passes:

* the **plan** pass walks the IR in Python, one block at a time.  It
  picks every instruction's opcode -- and so, from the opcode sizes,
  every offset -- and gathers the object's relocations, fixups, block
  descriptors and symbols as plain tuples (:class:`_Plan`), building
  no record; each table is then built once from its columns.  Every
  branch is emitted in long form with a static
  relocation and a :class:`~repro.elf.metadata.BranchFixup`, deferring
  target resolution to the linker (§4.2).  Basic-block label symbols
  use the assembler-temporary ``.L`` prefix; the linker resolves them
  but does not export them to the executable's symbol table.
* the **bytes** pass (:meth:`_Plan.image`) builds the module's text in
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
    Symbol,
    SymbolBinding,
    SymbolType,
    TerminatorKind,
    bbaddrmap,
)
from repro.elf.objectfile import SECTION_TABLES
from repro.elf.table import NONE, Strings, Table, layout_of, run_index
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

#: Enum members as a table's enum columns store them: positions in
#: definition order (a terminator kind keyed by its value, as above).
_OPCODE_AT = {opcode: i for i, opcode in enumerate(Opcode)}
_KIND_AT = {kind._value_: i for i, kind in enumerate(TerminatorKind)}
_PC32, _ABS32 = map(list(RelocType).index, (RelocType.PC32, RelocType.ABS32))
_GLOBAL, _LOCAL = map(list(SymbolBinding).index, (SymbolBinding.GLOBAL, SymbolBinding.LOCAL))
_FUNC, _NOTYPE = map(list(SymbolType).index, (SymbolType.FUNC, SymbolType.NOTYPE))
_NONE = NONE["i"]  # an Optional[str] column's None

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


class _Plan:
    """One module as the plan pass leaves it: its text sections, laid end
    to end, and its object's records as rows.

    A block's body is a *run*: the opcodes of its IR instructions from
    ``at`` on, the ``i``-th keyed ``(crc, i)`` by its block's
    ``"{func}:{bb_id}:"`` prefix CRC.  Any other instruction is a single
    ``(at, opcode, crc)``, keyed ``(crc, -1)`` when ``crc >= 0``.  A keyed
    instruction's operands are its key's stream; the rest are 0.
    A row is a flat tuple per record, in table order: names are ids in
    ``strings`` (interned in that order), enums positions, and a block's
    ragged fields item counts, their items rows of their own (``ijmp``,
    ``calls``, ``indirect``, ``prefetches``).
    """

    def __init__(self):
        self.base = self.offset = self.instrs = 0  # text before the section, cursor in it
        self.runs: List[int] = []  # (at, crc, length) of every run, flat
        self.run_ops: List[Opcode] = []
        self.singles: List[int] = []  # (at, opcode, crc) of every single, flat
        self.strings = Strings()
        self.intern = self.strings.intern
        self.symbols, self.relocations, self.fixups, self.blocks = [], [], [], []
        self.ijmp, self.calls, self.indirect, self.prefetches = [], [], [], []
        self.sections: List[Section] = []

    def emit(self, opcode: Opcode, crc: int = -1) -> int:
        """Plan one single instruction at the cursor; returns its offset."""
        off = self.offset
        self.singles += (self.base + off, opcode, crc)
        self.offset = off + OPCODE_SIZES[opcode]
        self.instrs += 1
        return off

    def emit_run(self, block: ir.BasicBlock, crc: int, calls: List[tuple]) -> None:
        """Plan ``block``'s IR instructions as a run at the cursor, a call's
        relocation row and ``(offset, size, callee, indirect targets)`` with it."""
        instrs, lowering = block.instrs, _OP_LOWERING
        run = [lowering[i.kind._value_] if i.__class__ is not ir.Call else
               Opcode.ICALL if i.callee is None else Opcode.CALL for i in instrs]
        self.runs += (self.base + self.offset, crc, len(run))
        self.run_ops += run
        sizes = [OPCODE_SIZES[opcode] for opcode in run]
        if Opcode.CALL in run or Opcode.ICALL in run:
            for instr, opcode, off in zip(instrs, run, accumulate(sizes, initial=self.offset)):
                if opcode == Opcode.CALL:
                    callee = self.relocate(off + 1, _PC32, instr.callee)  # interned here
                    calls.append((off, OPCODE_SIZES[opcode], callee, ()))
                elif opcode == Opcode.ICALL:
                    calls.append((off, OPCODE_SIZES[opcode], _NONE, tuple(instr.indirect_targets)))
        self.offset += sum(sizes)
        self.instrs += len(run)

    def emit_branch(self, opcode: Opcode, symbol: str, deletable: bool = False) -> tuple:
        """Emit a long-form jump or Jcc with a relocation and a fixup;
        returns its ``(symbol id, offset, size)``."""
        off = self.emit(opcode)
        target = self.relocate(off + (2 if opcode == Opcode.JCC_LONG else 1), _PC32, symbol)
        self.fixups.append((off, _OPCODE_AT[opcode], target, deletable))
        return target, off, OPCODE_SIZES[opcode]

    def relocate(self, offset: int, rtype: int, symbol: str) -> int:
        """Gather a relocation row; returns ``symbol``'s id."""
        self.relocations.append((offset, rtype, self.intern(symbol), 0))
        return self.relocations[-1][2]

    def section(self, name: str, kind: SectionKind, data: bytes = b"", **fields) -> Section:
        """Add a section that owns every row gathered since the section before it."""
        last = self.sections[-1] if self.sections else Section("", kind)
        self.sections.append(Section(name, kind, bytearray(data), **fields, **{
            table: range(getattr(last, table).stop, len(getattr(self, table)))
            for table in ("relocations", "blocks", "fixups")}))
        return self.sections[-1]

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
        out = np.zeros(self.base + self.offset, dtype=np.uint8)
        out[at] = ops
        lengths = _SIZE[ops[keyed]] - 1
        out[np.repeat(at[keyed] + 1, lengths) + run_index(lengths)] = _stream(
            _crc_decimal(crcs[keyed], idxs), lengths)
        return out

    def tables(self) -> Dict[str, Table]:
        """The object's four tables, each built once from its rows, a column
        level at a time (an offsets column's rows hold item counts)."""
        levels = {"symbols": [self.symbols], "relocations": [self.relocations],
                  "blocks": [self.blocks, self.ijmp, self.calls, self.indirect, self.prefetches],
                  "fixups": [self.fixups]}
        tables = {}
        for name, record in (("symbols", Symbol), *SECTION_TABLES):
            leaves, columns = layout_of(record).leaves, {}
            for level, rows in enumerate(levels[name]):
                paths = [leaf for leaf in leaves if leaf.level == level]
                for leaf, values in zip(paths, zip(*rows) if rows else [()] * len(paths)):
                    columns[leaf.path] = [0, *accumulate(values)] if leaf.delimits else values
            tables[name] = Table.from_columns(record, self.strings, columns)
        return tables


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


def _term(kind: TerminatorKind, cond=(_NONE, 0.0, -1, 0), uncond=(_NONE, -1, 0),
          end=(-1, 0)) -> tuple:
    """A :class:`~repro.elf.TerminatorMeta` row but its jump table: ``cond``
    is the Jcc's ``(target id, prob, offset, size)``, ``uncond`` the jump's
    ``(target id, offset, size)``, ``end`` a RET/IJMP/TRAP's ``(offset, size)``."""
    return (_KIND_AT[kind._value_], *cond, *uncond, *end)


def _lower_block(plan: _Plan, function: ir.Function, block: ir.BasicBlock, next_bb: Optional[int],
                 rodata: Optional[List[tuple]], prefetch_symbols: Sequence[str] = ()) -> None:
    """Plan ``block`` at the cursor and gather its
    :class:`~repro.elf.BlockMeta` row.  A jump table goes to ``rodata``'s
    ``(offset, target)`` entries or, when it is ``None`` (hand-written
    code), into the text."""
    fn = function.name
    start = plan.offset
    crc = zlib.crc32(f"{fn}:{block.bb_id}:".encode())
    calls, ijmp = [], []  # CallSite rows (indirect targets by name), jump table entries
    for symbol in prefetch_symbols:
        off = plan.emit(Opcode.PREFETCH)
        plan.prefetches.append((off, plan.relocate(off + 1, _PC32, symbol)))
    plan.emit_run(block, crc, calls)

    term = block.term
    if isinstance(term, ir.CondBr):
        taken, fallthrough, prob = term.taken, term.fallthrough, term.prob
        if taken == next_bb:
            # Invert the condition so the likely-next block falls through.
            taken, fallthrough, prob = fallthrough, taken, 1.0 - prob
        target, off, size = plan.emit_branch(Opcode.JCC_LONG, bb_label(fn, taken))
        uncond = (_NONE, -1, 0) if fallthrough == next_bb else plan.emit_branch(
            Opcode.JMP_LONG, bb_label(fn, fallthrough), deletable=True)
        term_row = _term(TerminatorKind.CONDBR, (target, prob, off, size), uncond)
    elif isinstance(term, ir.Jump) and term.target == next_bb:
        term_row = _term(TerminatorKind.FALLTHROUGH)
    elif isinstance(term, ir.Jump):
        term_row = _term(TerminatorKind.JUMP, uncond=plan.emit_branch(
            Opcode.JMP_LONG, bb_label(fn, term.target), deletable=True))
    elif isinstance(term, ir.Ret):
        off = plan.emit(Opcode.RET)
        term_row = _term(TerminatorKind.RET, end=(off, OPCODE_SIZES[Opcode.RET]))
    elif isinstance(term, ir.Switch):
        off = plan.emit(Opcode.IJMP, crc)
        labels = [bb_label(fn, t) for t in term.targets]
        for k, label in enumerate(labels, len(rodata or ())):
            if rodata is None:  # the table is data in code
                plan.relocate(plan.offset, _ABS32, label)
                plan.offset += _JUMP_TABLE_ENTRY_BYTES
            else:  # its entries follow the function's tables before
                rodata.append((_JUMP_TABLE_ENTRY_BYTES * k, label))
        term_row = _term(TerminatorKind.IJMP, end=(off, OPCODE_SIZES[Opcode.IJMP]))
        ijmp = list(zip(labels, term.probs))
    elif isinstance(term, ir.Unreachable):
        off = plan.emit(Opcode.TRAP, crc)
        term_row = _term(TerminatorKind.TRAP, end=(off, OPCODE_SIZES[Opcode.TRAP]))
    else:
        raise TypeError(f"unknown terminator {term!r}")

    # A row interns its names in field order: the function's, then the
    # jump table's and indirect calls' targets (the rest came with relocations).
    intern = plan.intern
    plan.blocks.append((block.bb_id, intern(fn), start, plan.offset - start, *term_row, len(ijmp),
                        len(calls), len(prefetch_symbols), block.is_landing_pad, 0.0))
    plan.ijmp += [(intern(label), p) for label, p in ijmp]
    for off, size, callee, targets in calls:
        plan.calls.append((off, size, callee, len(targets)))
        plan.indirect += [(intern(target), p) for target, p in targets]


@dataclass
class CompiledObject:
    """A compiled module plus compile-cost accounting."""

    obj: ObjectFile
    module_name: str
    num_instrs: int = 0


def compile_module(module: ir.Module, options: CodeGenOptions) -> CompiledObject:
    """Lower one IR module to an object file."""
    plan = _Plan()
    texts: List[Tuple[Section, str, int, int]] = []  # every text section, leader, span of code
    eh_frame_bytes = _CIE_BYTES

    for function in module.functions:
        plans = _section_plan(function, options)
        # The function's jump tables: relocation rows held until its rodata
        # section is added after its text.
        rodata: Optional[List[tuple]] = None if function.hand_written else []
        prefetch_plan: Dict[int, List[str]] = {}
        for bb_id, symbol in options.prefetches_for(function.name):
            prefetch_plan.setdefault(bb_id, []).append(symbol)
        lsda_bytes = 0
        instrs = plan.instrs  # before the function
        for i, (section_name, leader, bb_ids) in enumerate(plans):
            primary = i == 0
            calls = len(plan.calls)
            # §4.5: a landing-pad block at the very start of a section
            # would have offset zero relative to @LPStart; pad with a nop.
            if function.block(bb_ids[0]).is_landing_pad:
                plan.emit(Opcode.NOP)
            labels = []
            for bb_id, next_bb in zip(bb_ids, [*bb_ids[1:], None]):
                labels.append((bb_label(function.name, bb_id), plan.offset))
                _lower_block(plan, function, function.block(bb_id), next_bb, rodata,
                             prefetch_plan.get(bb_id, ()))
            section = plan.section(section_name, SectionKind.TEXT,
                                   alignment=ALIGN_FUNCTION if primary else 1)
            texts.append((section, leader, plan.base, plan.base + plan.offset))
            intern = plan.intern
            plan.symbols.append((intern(leader), intern(section_name), 0, plan.offset,
                                 _GLOBAL if primary else _LOCAL, _FUNC))
            plan.symbols += [(intern(name), intern(section_name), offset, 0, _LOCAL, _NOTYPE)
                             for name, offset in labels]
            plan.base, plan.offset = plan.base + plan.offset, 0
            # §4.4: one FDE per fragment; non-primary fragments re-emit
            # callee-saved-register CFI and redefine the CFA.
            eh_frame_bytes += _FDE_BYTES
            if not primary:
                eh_frame_bytes += _CSR_CFI_BYTES * CALLEE_SAVED_REGS
            calls = len(plan.calls) - calls
            if function.has_landing_pads() and calls:
                lsda_bytes += _LSDA_HEADER_BYTES + _LSDA_CALLSITE_BYTES * calls
        if rodata:
            for offset, label in rodata:
                plan.relocate(offset, _ABS32, label)
            plan.section(f".rodata.{function.name}", SectionKind.RODATA,
                         bytes(_JUMP_TABLE_ENTRY_BYTES * len(rodata)), alignment=4)
        if lsda_bytes:
            plan.section(f".gcc_except_table.{function.name}", SectionKind.OTHER,
                         _filler(function.name, -2, lsda_bytes))
        if options.debug_info:
            # §4.3: ranges are per fragment; a descriptor's two boundary
            # relocations are modelled as bytes (resolved at link time).
            debug_bytes = (_DEBUG_DIE_BYTES + (plan.instrs - instrs) * _DEBUG_LINE_BYTES_PER_INSTR
                           + len(plans) * (_DEBUG_RANGE_DESCRIPTOR_BYTES + _DEBUG_RANGE_RELOCS * 8))
            plan.section(f".debug_info.{function.name}", SectionKind.DEBUG,
                         _filler(function.name, -4, debug_bytes))

    image = plan.image()
    for section, _, start, end in texts:
        section.data = bytearray(image[start:end])
    tables = plan.tables()
    if options.bb_addr_map:
        encoded = bbaddrmap.encode_blocks([leader for _, leader, *_ in texts], tables["blocks"],
                                          [text.blocks for text, *_ in texts])
        for (text, *_), data in zip(texts, encoded):  # .text.<name> -> .llvm_bb_addr_map.<name>
            plan.section(f".llvm_bb_addr_map{text.name[len('.text'):]}", SectionKind.BB_ADDR_MAP,
                         data, link_name=text.name)
    if eh_frame_bytes > _CIE_BYTES:
        plan.section(".eh_frame", SectionKind.EH_FRAME, _filler(module.name, -3, eh_frame_bytes))
    return CompiledObject(ObjectFile(f"{module.name}.o", plan.sections, **tables), module.name,
                          plan.instrs)


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
