"""Structured text-section metadata: block descriptors and branch fixups.

The code generator attaches two kinds of records to every text section
(each kind held as a :class:`~repro.elf.table.Table`, one column per
field below, so these classes are what a row *reads as*):

* :class:`BlockMeta` -- one per machine basic block placed in the
  section, carrying the block's offset, size, call sites and terminator
  shape.  Together with the link-time address assignment these form the
  *execution model* the trace generator walks; they play the role that
  real hardware execution plays in the paper.

* :class:`BranchFixup` -- one per relocation-resolved branch
  instruction, used by the linker's relaxation pass (§4.2) to delete
  fall-through jumps and shrink long branches after layout.

Branch probabilities recorded here are simulation ground truth.  The
optimizers (Propeller's WPA, the BOLT baseline) never read them; they
only see sampled profiles, symbol tables, the BB address map and raw
bytes -- the same inputs the real tools get.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.isa import Opcode


class TerminatorKind(enum.Enum):
    #: Conditional branch; falls through or jumps to ``cond_target``.
    CONDBR = "condbr"
    #: Unconditional direct jump.
    JUMP = "jump"
    #: No terminator instruction: execution continues at the next address.
    FALLTHROUGH = "fallthrough"
    #: Return to caller.
    RET = "ret"
    #: Indirect jump through a jump table.
    IJMP = "ijmp"
    #: Trap / unreachable.
    TRAP = "trap"


@dataclass
class CallSite:
    """A call instruction inside a basic block.

    ``offset`` is the call instruction's offset within the section.
    Direct calls name their callee symbol; indirect calls carry a
    ground-truth target distribution of ``(symbol, probability)`` pairs.
    """

    offset: int
    size: int
    callee: Optional[str] = None
    indirect_targets: Tuple[Tuple[str, float], ...] = ()


@dataclass
class PrefetchSite:
    """A software code-prefetch instruction (§3.5's summary-driven
    post-link prefetch insertion).  ``symbol`` names the code about to
    be needed (typically a callee entry)."""

    offset: int
    symbol: str


@dataclass
class TerminatorMeta:
    """Shape of a block's terminator after lowering.

    For ``CONDBR``: ``cond_br_offset/size`` locate the Jcc instruction,
    ``cond_target`` is the taken-side symbol and ``cond_prob`` its
    ground-truth probability.  The not-taken side either falls through
    (``uncond_target is None``) or runs an explicit unconditional jump
    located by ``uncond_br_offset/size``.

    For ``JUMP``: only the ``uncond_*`` fields are set.  Relaxation may
    delete the jump, flipping the kind to ``FALLTHROUGH``.
    """

    kind: TerminatorKind
    cond_target: Optional[str] = None
    cond_prob: float = 0.0
    cond_br_offset: int = -1
    cond_br_size: int = 0
    uncond_target: Optional[str] = None
    uncond_br_offset: int = -1
    uncond_br_size: int = 0
    #: Offset/size of the RET or IJMP instruction, when applicable.
    end_instr_offset: int = -1
    end_instr_size: int = 0
    #: Ground-truth distribution for IJMP (jump tables).
    ijmp_targets: Tuple[Tuple[str, float], ...] = ()


@dataclass
class BlockMeta:
    """One machine basic block as placed in a section."""

    bb_id: int
    func: str
    offset: int
    size: int
    term: TerminatorMeta
    calls: List[CallSite] = field(default_factory=list)
    prefetches: List[PrefetchSite] = field(default_factory=list)
    is_landing_pad: bool = False
    #: Ground-truth entry frequency relative to function entry (for reports).
    freq: float = 0.0


@dataclass
class BranchFixup:
    """A relocation-resolved branch the relaxation pass may rewrite.

    ``offset`` is the *instruction* offset (the matching relocation
    addresses the displacement field inside it).  ``deletable`` marks
    unconditional jumps that only exist to make a fall-through explicit
    (§4.2); the linker removes them when layout makes the target
    adjacent.
    """

    offset: int
    opcode: Opcode
    symbol: str
    deletable: bool = False
