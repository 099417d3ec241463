"""IR transformation passes (the "all optimizations enabled" of Phase 1).

Two passes matter to the Propeller story:

* :func:`inline_hot_calls` -- profile-guided inlining.  Inlining *after*
  the instrumented profile was collected is the canonical source of the
  profile staleness §2.4 describes: the inlined copies are new blocks
  the old profile knows nothing about, so the compiler lays them out
  blind, while Propeller's post-link profile sees the final code.
* :func:`eliminate_unreachable_blocks` -- removes blocks no path
  reaches, keeping lowering honest after inlining rewires the CFG.

Passes mutate copies: use :func:`clone_program` first (the pipeline
does this for you).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.ir.cfg import reachable_blocks
from repro.ir.nodes import (
    BasicBlock,
    Call,
    CondBr,
    Function,
    Instr,
    Jump,
    Module,
    Program,
    Ret,
    Switch,
    Unreachable,
)


def clone_function(function: Function) -> Function:
    """Deep-copy a function (instruction lists are rebuilt)."""
    blocks = [
        BasicBlock(
            bb_id=b.bb_id,
            instrs=list(b.instrs),  # Instr/Call are immutable
            term=b.term,            # terminators are immutable
            is_landing_pad=b.is_landing_pad,
        )
        for b in function.blocks
    ]
    out = Function(name=function.name, blocks=blocks)
    out.hand_written = function.hand_written
    return out


def clone_program(program: Program) -> Program:
    """Deep-copy a whole program."""
    return Program(
        name=program.name,
        modules=[
            Module(name=m.name, functions=[clone_function(f) for f in m.functions])
            for m in program.modules
        ],
        entry_function=program.entry_function,
        features=program.features,
    )


def eliminate_unreachable_blocks(function: Function) -> int:
    """Drop blocks unreachable from the entry; returns how many."""
    keep = reachable_blocks(function)
    removed = [b for b in function.blocks if b.bb_id not in keep]
    if removed:
        function.blocks[:] = [b for b in function.blocks if b.bb_id in keep]
        function.reindex()
    return len(removed)


@dataclass
class InlineReport:
    """What the inliner did."""

    sites_considered: int = 0
    sites_inlined: int = 0
    blocks_added: int = 0
    by_function: Dict[str, int] = field(default_factory=dict)


def _shift_term(term, offset: int):
    if isinstance(term, CondBr):
        return CondBr(taken=term.taken + offset, fallthrough=term.fallthrough + offset,
                      prob=term.prob)
    if isinstance(term, Jump):
        return Jump(target=term.target + offset)
    if isinstance(term, Switch):
        return Switch(targets=tuple(t + offset for t in term.targets), probs=term.probs)
    return term  # Ret / Unreachable


def _inline_one(caller: Function, block_index: int, call_index: int,
                callee: Function) -> int:
    """Inline ``callee`` at one call site; returns blocks added.

    The host block splits at the call: its prefix jumps into a renumbered
    copy of the callee, every callee return jumps to the suffix block,
    which keeps the original terminator.
    """
    host = caller.blocks[block_index]
    next_id = max(b.bb_id for b in caller.blocks) + 1
    offset = next_id  # callee block b maps to b + offset
    cont_id = offset + max(b.bb_id for b in callee.blocks) + 1

    new_blocks: List[BasicBlock] = []
    for cb in callee.blocks:
        instrs = list(cb.instrs)
        term = _shift_term(cb.term, offset)
        if isinstance(cb.term, Ret):
            term = Jump(cont_id)
        new_blocks.append(BasicBlock(
            bb_id=cb.bb_id + offset, instrs=instrs, term=term,
            is_landing_pad=cb.is_landing_pad,
        ))
    # Landing pads referenced by the callee's own calls shift too.
    for nb in new_blocks:
        nb.instrs = [
            Call(callee=i.callee, indirect_targets=i.indirect_targets,
                 landing_pad=i.landing_pad + offset)
            if isinstance(i, Call) and i.landing_pad is not None
            else i
            for i in nb.instrs
        ]

    continuation = BasicBlock(
        bb_id=cont_id,
        instrs=host.instrs[call_index + 1:],
        term=host.term,
        is_landing_pad=False,
    )
    host.instrs = host.instrs[:call_index]
    host.term = Jump(callee.entry.bb_id + offset)

    caller.blocks.extend(new_blocks)
    caller.blocks.append(continuation)
    caller.reindex()
    return len(new_blocks) + 1


#: Largest callee (in blocks) :func:`inline_hot_calls` inlines.
MAX_CALLEE_BLOCKS = 8
#: Profile call count a callee must reach to be inlined.
MIN_CALL_COUNT = 10.0
#: Blocks a caller may grow by before inlining into it stops.
MAX_GROWTH_BLOCKS = 200


def inline_hot_calls(program: Program, profile) -> InlineReport:
    """Profile-guided inlining over a (cloned) program.

    Direct calls to callees of at most :data:`MAX_CALLEE_BLOCKS` blocks
    whose profile count clears :data:`MIN_CALL_COUNT` are inlined,
    hottest callees first, until the caller has grown by
    :data:`MAX_GROWTH_BLOCKS`.  ``profile`` is an
    :class:`repro.profiles.IRProfile` (duck-typed:
    ``function_count(name)`` is all that is used).
    """
    report = InlineReport()
    for module in program.modules:
        for caller in module.functions:
            grown = 0
            changed = True
            while changed and grown < MAX_GROWTH_BLOCKS:
                changed = False
                for bi, block in enumerate(caller.blocks):
                    for ci, instr in enumerate(block.instrs):
                        if not isinstance(instr, Call) or instr.callee is None:
                            continue
                        if instr.landing_pad is not None:
                            continue  # invokes keep their unwind edge
                        report.sites_considered += 1
                        callee = program.function(instr.callee)
                        if callee.name == caller.name:
                            continue
                        if callee.num_blocks > MAX_CALLEE_BLOCKS:
                            continue
                        if callee.hand_written or callee.has_landing_pads():
                            continue
                        if profile.function_count(callee.name) < MIN_CALL_COUNT:
                            continue
                        added = _inline_one(caller, bi, ci, callee)
                        report.sites_inlined += 1
                        report.blocks_added += added
                        report.by_function[caller.name] = (
                            report.by_function.get(caller.name, 0) + 1
                        )
                        grown += added
                        changed = True
                        break
                    if changed:
                        break
            if grown:
                eliminate_unreachable_blocks(caller)
    return report
