"""Stable content digests for IR modules and functions.

The distributed build cache keys compile actions by the digest of their
inputs (§3.1).  The digest covers everything that affects code
generation, so two builds of an unchanged module hit the cache.  The
per-function digest is the CFG identity the incremental engine
(:mod:`repro.incr`) compares across releases to find dirty functions.

Each function has one encoding, :func:`_encode`, and both digests hash
it: a function's digest is the SHA-256 of its bytes, a module's is the
SHA-256 of its name followed by its functions' bytes in order.  One
pass, :func:`module_digests`, gives both.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Tuple

from repro.ir.nodes import Call, CondBr, Function, Instr, Jump, Module, OpKind, Ret, Switch, Unreachable

#: Each computational instruction's encoding, by kind.
_OP_TOKENS = {kind: f"I{kind.value}" for kind in OpKind}


def _encode(function: Function) -> bytes:
    """The one encoding of ``function``: its name, its hand-written
    flag, then each block's id, landing-pad flag, instructions and
    terminator."""
    parts = ["\x00F", function.name, "1" if function.hand_written else "0"]
    for block in function.blocks:
        parts.append(f"\x00B{block.bb_id}:{int(block.is_landing_pad)}")
        for instr in block.instrs:
            if isinstance(instr, Instr):
                parts.append(_OP_TOKENS[instr.kind])
            elif isinstance(instr, Call):
                targets = ";".join(f"{t}={p:.9f}" for t, p in instr.indirect_targets)
                parts.append(f"C{instr.callee}:{targets}:{instr.landing_pad}")
            else:
                raise TypeError(f"unknown instruction {instr!r}")
        term = block.term
        if isinstance(term, CondBr):
            parts.append(f"cb:{term.taken}:{term.fallthrough}:{term.prob:.9f}")
        elif isinstance(term, Jump):
            parts.append(f"j:{term.target}")
        elif isinstance(term, Ret):
            parts.append("r")
        elif isinstance(term, Switch):
            probs = ",".join(f"{p:.9f}" for p in term.probs)
            parts.append(f"sw:{','.join(map(str, term.targets))}:{probs}")
        elif isinstance(term, Unreachable):
            parts.append("u")
        else:
            raise TypeError(f"unknown terminator {term!r}")
    return "".join(parts).encode()


def module_digests(module: Module) -> Tuple[str, Dict[str, str]]:
    """``(module digest, {function name: function digest})``: SHA-256
    of the module's full semantic content, and of each function's slice
    of it (so a function's digest changes iff its slice does), from one
    encoding of each function."""
    h = hashlib.sha256(module.name.encode())
    functions = {}
    for function in module.functions:
        data = _encode(function)
        h.update(data)
        functions[function.name] = hashlib.sha256(data).hexdigest()
    return h.hexdigest(), functions
