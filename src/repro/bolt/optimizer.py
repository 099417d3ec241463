"""llvm-bolt equivalent: monolithic optimize-and-rewrite.

Runs the one configuration the paper evaluates (§5, Methodology):
``-lite=0`` (every simple function is processed), with block
splitting and hfsort function reordering always on.

Pipeline: precheck -> (already-disassembled CFGs + aggregated profile)
-> per-function Ext-TSP block reorder and hot/cold split -> hfsort
function reorder -> rewrite into a fresh text segment, keeping the
original ``.text`` (BOLT's layout), patching every moved target through
the retained relocations.

The output executable carries a faithful execution model (exact new
block addresses and sizes, including deleted/inserted fall-through
jumps), so the hardware model can measure BOLT-optimized binaries the
same way it measures Propeller's.  Section *bytes* in the new segment
are filler: nothing downstream disassembles a BOLT output, and
modelling byte-exact rewriting would change no measured quantity.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis import MemoryMeter
from repro.bolt.disasm import BoltBlock, BoltFunction, DisassemblyResult, disassemble
from repro.bolt.failures import rewrite_precheck, startup_features
from repro.bolt.perf2bolt import BoltProfile, Perf2BoltResult, perf2bolt
from repro.core.exttsp import ext_tsp_order
from repro.core.funcorder import hfsort_order
from repro.elf import Executable, PlacedSection, SectionKind, SymbolInfo
from repro.elf.table import Strings, Table, merged
from repro.elf.executable import ExecBlock, ResolvedCall, ResolvedTerminator
from repro.isa import Opcode, instruction_size
from repro.profiles import PerfData

_JMP_SIZE = instruction_size(Opcode.JMP_LONG)

#: Simulated-time rates (seconds per unit).  Disassembly + CFG lifting
#: is the serial bottleneck (§1.1); optimization passes parallelize
#: across Lightning BOLT's threads.
DISASM_SECONDS_PER_INSTR = 1.4e-5
OPT_SECONDS_PER_INSTR = 8e-6
EMIT_SECONDS_PER_BYTE = 2.5e-7
#: Lightning BOLT's parallel optimization threads.
THREADS = 72
#: Alignment of the new text segment.
NEW_SEGMENT_ALIGN = 2 << 20


@dataclass
class BoltStats:
    funcs_total: int = 0
    funcs_simple: int = 0
    funcs_rewritten: int = 0
    input_size: int = 0
    output_size: int = 0
    peak_memory_bytes: int = 0
    runtime_seconds: float = 0.0
    moved_text_bytes: int = 0


@dataclass
class BoltResult:
    executable: Executable
    stats: BoltStats
    profile: BoltProfile


@dataclass
class _Placement:
    block: BoltBlock
    new_addr: int = 0
    new_size: int = 0
    #: "keep" | "drop" | "add" | "none" -- trailing-jump adjustment.
    jump_action: str = "none"


def run_bolt(
    exe: Executable,
    perf: PerfData,
    precomputed: Optional[Perf2BoltResult] = None,
) -> BoltResult:
    """Optimize and rewrite ``exe`` using the LBR profile ``perf``."""
    rewrite_precheck(exe)
    meter = MemoryMeter()
    stats = BoltStats(input_size=exe.total_size)
    # The rewriter maps the whole input binary.
    meter.allocate(exe.total_size, "bolt-input")
    if precomputed is None:
        converted = perf2bolt(exe, perf, meter=meter)
    else:
        converted = precomputed
        meter.allocate(converted.peak_memory_bytes, "bolt-p2b")
    profile = converted.profile
    disassembly = converted.disassembly
    stats.funcs_total = len(disassembly.functions)
    stats.funcs_simple = disassembly.num_simple

    hot_layouts, cold_layouts, func_weights = _plan_layout(disassembly, profile)
    stats.funcs_rewritten = len(hot_layouts)

    executable, moved_bytes = _rewrite(
        exe, hot_layouts, cold_layouts, func_weights, profile, meter
    )
    stats.moved_text_bytes = moved_bytes
    stats.output_size = executable.total_size
    stats.peak_memory_bytes = meter.peak_bytes
    processed_instrs = sum(f.num_instrs for f in disassembly.functions if f.name in hot_layouts)
    stats.runtime_seconds = (
        disassembly.total_instrs * DISASM_SECONDS_PER_INSTR
        + processed_instrs * OPT_SECONDS_PER_INSTR / THREADS
        + stats.output_size * EMIT_SECONDS_PER_BYTE
    )
    return BoltResult(executable=executable, stats=stats, profile=profile)


def _plan_layout(
    disassembly: DisassemblyResult, profile: BoltProfile
) -> Tuple[Dict[str, List[BoltBlock]], Dict[str, List[BoltBlock]], Dict[str, Tuple[int, float]]]:
    """Choose per-function block orders and which functions to rewrite."""
    hot_layouts: Dict[str, List[BoltBlock]] = {}
    cold_layouts: Dict[str, List[BoltBlock]] = {}
    func_weights: Dict[str, Tuple[int, float]] = {}
    for func in disassembly.functions:
        if not func.simple or not func.blocks:
            continue
        fd = profile.functions.get(func.name)
        counts = fd.block_counts if fd is not None else {}
        weight = sum(counts.get(b.addr, 0.0) for b in func.blocks)
        by_addr = {b.addr: b for b in func.blocks}
        hot_ids = [b.addr for b in func.blocks if counts.get(b.addr, 0.0) > 0]
        entry = func.blocks[0].addr
        if entry not in hot_ids:
            hot_ids.insert(0, entry)
        if weight > 0:
            nodes = {a: (by_addr[a].size, counts.get(a, 0.0)) for a in hot_ids}
            edges = [(s, d, w) for (s, d), w in fd.edges.items() if s in nodes and d in nodes]
            order = ext_tsp_order(nodes, edges, entry=entry)
        else:
            order = [entry]
        hot_set = set(order)
        cold = [b for b in func.blocks if b.addr not in hot_set]
        hot_layouts[func.name] = [by_addr[a] for a in order]
        cold_layouts[func.name] = cold
        hot_size = sum(b.size for b in hot_layouts[func.name])
        func_weights[func.name] = (max(1, hot_size), weight)
    return hot_layouts, cold_layouts, func_weights


def _rewrite(
    exe: Executable,
    hot_layouts: Dict[str, List[BoltBlock]],
    cold_layouts: Dict[str, List[BoltBlock]],
    func_weights: Dict[str, Tuple[int, float]],
    profile: BoltProfile,
    meter: MemoryMeter,
) -> Tuple[Executable, int]:
    func_order = hfsort_order(func_weights, [
        (a, b, w) for (a, b), w in profile.call_edges.items()
    ])

    # Group each block with the exec blocks it contains (in address order).
    exec_sorted, exec_addrs = list(exe.exec_blocks), exe.exec_blocks.col("addr")

    def execs_in(block: BoltBlock) -> List[ExecBlock]:
        lo = bisect.bisect_left(exec_addrs, block.addr)
        hi = bisect.bisect_left(exec_addrs, block.end)
        return exec_sorted[lo:hi]

    # ----- place blocks -------------------------------------------------
    align = NEW_SEGMENT_ALIGN
    ends = exe.sections.ints("vaddr") + exe.sections.ints("size")
    old_end = int(ends.max()) if len(ends) else exe.entry
    new_base = (old_end + align - 1) & ~(align - 1)
    layout = [_Placement(block=block) for name in func_order for block in hot_layouts[name]]
    cold_placements = [_Placement(block=block) for name in func_order
                       for block in cold_layouts.get(name, ())]

    hot_end = _assign(layout, new_base, execs_in)
    cold_base = (hot_end + 15) & ~15
    cold_end = _assign(cold_placements, cold_base, execs_in)
    layout.extend(cold_placements)
    moved_bytes = sum(p.new_size for p in layout)
    meter.allocate(moved_bytes, "bolt-output-text")

    # ----- address remapping --------------------------------------------
    ranges = sorted((p.block.addr, p.block.end, p.new_addr) for p in layout)
    starts = [r[0] for r in ranges]

    def remap(addr: int) -> int:
        i = bisect.bisect_right(starts, addr) - 1
        if i >= 0:
            lo, hi, new = ranges[i]
            if addr < hi:
                return new + (addr - lo)
        return addr

    moved: Set[int] = set()
    new_exec: List[ExecBlock] = []
    for placement in layout:
        members = execs_in(placement.block)
        delta = placement.new_addr - placement.block.addr
        for j, eb in enumerate(members):
            moved.add(eb.addr)
            last = placement if j == len(members) - 1 else None
            new_exec.append(_remap_exec_block(eb, remap, delta, last))
    new_exec += [_remap_exec_block(eb, remap) for eb in exec_sorted if eb.addr not in moved]
    new_exec.sort(key=lambda b: b.addr)
    # Defensive geometry pass: superblock boundaries reconstructed from
    # disassembly occasionally disagree with block metadata by one
    # branch slot; clamp any remaining overlap so the execution model
    # stays well-formed.
    for i in range(len(new_exec) - 1):
        cur, nxt = new_exec[i], new_exec[i + 1]
        if cur.addr + cur.size > nxt.addr:
            new_exec[i] = replace(cur, size=max(1, nxt.addr - cur.addr))

    # ----- sections and symbols ------------------------------------------
    # New unwind info for every rewritten fragment (§4.4 applies to BOLT too).
    eh_bytes = sum(
        32 + (56 if cold_layouts.get(name) else 0) for name in hot_layouts
    )
    added = [(name, kind, vaddr, size, fill) for name, kind, vaddr, size, fill in (
        (".text.bolt", SectionKind.TEXT, new_base, hot_end - new_base, b"\x90"),
        (".text.bolt.cold", SectionKind.TEXT, cold_base, cold_end - cold_base, b"\x90"),
        (".eh_frame.bolt", SectionKind.EH_FRAME, cold_end + 4096, eh_bytes, b"\x00")) if size]
    # The new sections' rows over a pool of their own, stacked after the
    # input's in one new pool (the input's ids first, so the input's
    # tables keep theirs).
    pool = Strings()
    rows = [(pool.intern(name), list(SectionKind).index(kind), vaddr, size,
             pool.intern("llvm-bolt")) for name, kind, vaddr, size, _ in added]
    paths = ("name", "kind", "vaddr", "size", "origin")
    new = Table.from_columns(PlacedSection, pool, {path: [row[j] for row in rows]
                                                   for j, path in enumerate(paths)})
    strings, remaps = merged([exe.strings, pool])
    sections = Table.concat(PlacedSection, [exe.sections, new], strings, remaps)
    data = [exe.data, *(fill * size for *_, size, fill in added)]
    symbols = Table.from_columns(SymbolInfo, strings, {
        **{path: exe.symbols.col(path) for path in ("name", "size", "stype", "binding")},
        "addr": [remap(addr) for addr in exe.symbols.col("addr")]})

    code_moved = bool(layout)
    out = Executable(
        name=exe.name + ".bolt",
        entry=remap(exe.entry),
        sections=sections,
        data=b"".join(data),
        symbols=symbols,
        exec_blocks=Table(ExecBlock, new_exec, strings),  # and no relocations: BOLT drops .rela
        features=startup_features(exe, code_moved),
        hugepages=exe.hugepages,
    )
    for category in ("bolt-output-text", "bolt-input", "bolt-disasm", "bolt-p2b"):
        meter.free_category(category)
    return out, moved_bytes


def _assign(placements: List[_Placement], base: int, execs_in) -> int:
    """Assign new addresses and sizes, adding/removing trailing jumps."""
    cursor = base
    for i, placement in enumerate(placements):
        block = placement.block
        if block.is_entry:
            cursor = (cursor + 15) & ~15
        placement.new_addr = cursor
        members = execs_in(block)
        last = members[-1] if members else None
        succ_old, has_jump, jump_size = _fallthrough_info(last, block)
        next_old = placements[i + 1].block.addr if i + 1 < len(placements) else None
        if succ_old is None:
            action = "none"
        elif next_old == succ_old:  # still adjacent: an explicit jump goes
            action = "drop" if has_jump else "none"
        else:  # moved apart: a fall-through needs a jump
            action = "keep" if has_jump else "add"
        placement.jump_action = action
        placement.new_size = block.size + {"drop": -jump_size, "add": _JMP_SIZE}.get(action, 0)
        cursor += placement.new_size
    return cursor


def _fallthrough_info(last: Optional[ExecBlock], block: BoltBlock):
    """(old fall-through successor, explicit jump present?, jump size)."""
    if last is None:
        return None, False, 0
    term = last.term
    if term.kind == "condbr":
        if term.uncond_target is not None:
            return term.uncond_target, True, term.uncond_br_size
        return block.end, False, 0
    if term.kind == "jump":
        return term.uncond_target, True, term.uncond_br_size
    if term.kind == "fallthrough":
        return block.end, False, 0
    return None, False, 0


def _remap_exec_block(eb: ExecBlock, remap, delta: int = 0,
                      last: Optional[_Placement] = None) -> ExecBlock:
    """``eb`` moved by ``delta``, every target remapped; ``last`` is its
    placement when ``eb`` ends it (its trailing jump is adjusted)."""
    term, new_size, kind = eb.term, eb.size, eb.term.kind
    uncond_target, uncond_br_addr, uncond_br_size = (
        term.uncond_target, term.uncond_br_addr, term.uncond_br_size)
    if last is not None:
        new_size = eb.size + last.new_size - last.block.size
        if last.jump_action == "drop":
            uncond_target, uncond_br_addr, uncond_br_size = None, -1, 0
            if kind == "jump":
                kind = "fallthrough"
        elif last.jump_action == "add":
            # An explicit jump materializes at the (new) end of the block.
            succ_old, _has, _size = _fallthrough_info(eb, last.block)
            uncond_target = remap(succ_old)
            uncond_br_addr = eb.addr + delta + new_size - _JMP_SIZE
            uncond_br_size = _JMP_SIZE
            if kind == "fallthrough":
                kind = "jump"
        elif last.jump_action == "keep" and uncond_target is not None:
            uncond_target = remap(uncond_target)
            uncond_br_addr = uncond_br_addr + delta if uncond_br_addr >= 0 else -1
    else:
        if uncond_target is not None:
            uncond_target = remap(uncond_target)
        if uncond_br_addr >= 0:
            uncond_br_addr += delta
    new_term = ResolvedTerminator(
        kind=kind,
        cond_target=remap(term.cond_target) if term.cond_target else 0,
        cond_prob=term.cond_prob,
        cond_br_addr=term.cond_br_addr + delta if term.cond_br_addr >= 0 else -1,
        cond_br_size=term.cond_br_size,
        uncond_target=uncond_target,
        uncond_br_addr=uncond_br_addr,
        uncond_br_size=uncond_br_size,
        end_instr_addr=term.end_instr_addr + delta if term.end_instr_addr >= 0 else -1,
        end_instr_size=term.end_instr_size,
        ijmp_targets=tuple((remap(a), p) for a, p in term.ijmp_targets),
    )
    calls = tuple(
        ResolvedCall(
            addr=c.addr + delta,
            size=c.size,
            target=remap(c.target) if c.target is not None else None,
            indirect_targets=tuple((remap(a), p) for a, p in c.indirect_targets),
        )
        for c in eb.calls
    )
    return ExecBlock(
        addr=eb.addr + delta, size=new_size, func=eb.func, bb_id=eb.bb_id,
        term=new_term, calls=calls,
        prefetch_targets=tuple(remap(t) for t in eb.prefetch_targets),
        is_landing_pad=eb.is_landing_pad,
    )
