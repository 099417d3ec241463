"""Stable per-block hashes for stale-profile matching.

A profile collected on *yesterday's* IR must be re-attached to
*today's* CFG, where blocks have been renumbered, split, or cloned by
inlining.  Block ids are useless across that gap; block *content* is
not.  Following the scheme of "Stale Profile Matching" (Ayupov,
Panchenko, Pupyrev) and BOLT's YAML profiles, every block gets content
hashes at two strictness tiers:

* **strict** -- the opcode sequence, direct-call targets, terminator
  kind, landing-pad flag and the successor *shape* (how many
  successors, and whether each one points backward, forward or at the
  block itself).  Two blocks share a strict hash only if they are the
  same code modulo renumbering.
* **loose** -- the opcode multiset and the successor count only.  This
  survives instruction scheduling, condition inversion and terminator
  rewrites, at the price of more collisions; collision groups are
  disambiguated positionally by the matcher.

Hashes deliberately exclude block ids, branch probabilities and
counts: those are exactly the things that drift between releases.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable

from repro.ir import cfg as ir_cfg
from repro.ir.nodes import BasicBlock, Call, Function

__all__ = ["BlockAnchor", "function_anchors"]


def _digest(parts: Iterable[str]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def _opcode_tokens(block: BasicBlock) -> list:
    tokens = []
    for instr in block.instrs:
        if isinstance(instr, Call):
            if instr.callee is not None:
                tokens.append(f"call:{instr.callee}")
            else:
                # Indirect calls hash by arity of the target set, not by
                # the (drifting) probability distribution.
                tokens.append(f"icall:{len(instr.indirect_targets)}")
        else:
            tokens.append(instr.kind.value)
    return tokens


def _successor_shape(block: BasicBlock) -> str:
    """Renumbering-stable successor descriptor: backward/self/forward."""
    shape = []
    for succ in ir_cfg.successor_ids(block):
        if succ < block.bb_id:
            shape.append("b")
        elif succ == block.bb_id:
            shape.append("s")
        else:
            shape.append("f")
    return "".join(shape)


@dataclass(frozen=True)
class BlockAnchor:
    """Content identity of one basic block, at both strictness tiers."""

    strict: str
    loose: str
    #: Layout position within the function at anchor time (tie-breaker
    #: for hash-collision groups; matching is positional inside them).
    pos: int


def block_anchor(block: BasicBlock, pos: int) -> BlockAnchor:
    """Anchor of one block (see the module docstring for the tiers)."""
    tokens = _opcode_tokens(block)
    strict = _digest([
        "strict",
        ",".join(tokens),
        type(block.term).__name__,
        _successor_shape(block),
        "lp" if block.is_landing_pad else "",
    ])
    loose = _digest([
        "loose",
        ",".join(sorted(tokens)),
        str(len(ir_cfg.successor_ids(block))),
    ])
    return BlockAnchor(strict=strict, loose=loose, pos=pos)


def function_anchors(function: Function) -> Dict[int, BlockAnchor]:
    """bb_id -> :class:`BlockAnchor` for every block of ``function``."""
    return {
        block.bb_id: block_anchor(block, pos)
        for pos, block in enumerate(function.blocks)
    }

