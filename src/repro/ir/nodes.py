"""IR node definitions."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple, Union


class OpKind(enum.Enum):
    """Computational instruction categories.

    Each category lowers to one synthetic-ISA opcode; the category mix
    of a block therefore determines its byte size.
    """

    NOP = "nop"
    ALU8 = "alu8"
    ALU16 = "alu16"
    ALU32 = "alu32"
    LOAD = "load"
    STORE = "store"
    LEA = "lea"
    MOV = "mov"
    CMP = "cmp"


@dataclass(frozen=True)
class Instr:
    """A straight-line computational instruction."""

    kind: OpKind


@dataclass(frozen=True)
class Call:
    """A call instruction (may occur anywhere inside a block).

    ``callee`` names a function in the same program for direct calls;
    ``None`` makes the call indirect, in which case
    ``indirect_targets`` gives the ground-truth callee distribution.
    ``landing_pad`` names the block (in the enclosing function) where
    exceptions unwinding through this call land.
    """

    callee: Optional[str] = None
    indirect_targets: Tuple[Tuple[str, float], ...] = ()
    landing_pad: Optional[int] = None

    @property
    def is_indirect(self) -> bool:
        return self.callee is None


@dataclass(frozen=True)
class CondBr:
    """Two-way conditional branch; ``prob`` is the taken probability."""

    taken: int
    fallthrough: int
    prob: float


@dataclass(frozen=True)
class Jump:
    """Unconditional branch."""

    target: int


@dataclass(frozen=True)
class Ret:
    """Return to caller."""


@dataclass(frozen=True)
class Switch:
    """Multi-way branch lowered through a jump table."""

    targets: Tuple[int, ...]
    probs: Tuple[float, ...]


@dataclass(frozen=True)
class Unreachable:
    """Trap; control never validly reaches past this."""


Terminator = Union[CondBr, Jump, Ret, Switch, Unreachable]


@dataclass
class BasicBlock:
    """A basic block: instructions, then exactly one terminator."""

    bb_id: int
    instrs: List[Union[Instr, Call]] = field(default_factory=list)
    term: Terminator = field(default_factory=Ret)
    is_landing_pad: bool = False


@dataclass
class Function:
    """A function.  Block 0 is the entry block."""

    name: str
    blocks: List[BasicBlock] = field(default_factory=list)
    #: Marks hand-written-assembly-alike bodies (affects disassemblers).
    hand_written: bool = False

    def __post_init__(self) -> None:
        self._index: Dict[int, BasicBlock] = {b.bb_id: b for b in self.blocks}

    def reindex(self) -> None:
        self._index = {b.bb_id: b for b in self.blocks}

    def block(self, bb_id: int) -> BasicBlock:
        return self._index[bb_id]

    def has_block(self, bb_id: int) -> bool:
        return bb_id in self._index

    @property
    def entry(self) -> BasicBlock:
        return self.blocks[0]

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def has_landing_pads(self) -> bool:
        return any(b.is_landing_pad for b in self.blocks)


@dataclass
class Module:
    """A translation unit: the unit of compilation and caching."""

    name: str
    functions: List[Function] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._index: Dict[str, Function] = {f.name: f for f in self.functions}

    def add_function(self, function: Function) -> Function:
        if function.name in self._index:
            raise ValueError(f"duplicate function {function.name!r} in {self.name}")
        self.functions.append(function)
        self._index[function.name] = function
        return function

    def function(self, name: str) -> Function:
        return self._index[name]

    def has_function(self, name: str) -> bool:
        return name in self._index

    @property
    def num_blocks(self) -> int:
        return sum(f.num_blocks for f in self.functions)


@dataclass
class Program:
    """A whole program: modules plus link-level traits.

    ``features`` carries workload traits relevant to post-link tooling:
    ``"rseq"`` (restartable sequences), ``"fips_integrity"`` (startup
    code-integrity check), ``"huge_binary"`` (stresses rewriters'
    eh_frame handling); see §5.8.
    """

    name: str
    modules: List[Module] = field(default_factory=list)
    entry_function: str = "main"
    features: FrozenSet[str] = frozenset()

    def __post_init__(self) -> None:
        self._func_to_module: Dict[str, Module] = {}
        for module in self.modules:
            for function in module.functions:
                self._register(function.name, module)

    def _register(self, func_name: str, module: Module) -> None:
        if func_name in self._func_to_module:
            raise ValueError(f"function {func_name!r} defined in multiple modules")
        self._func_to_module[func_name] = module

    def module_of(self, func_name: str) -> Module:
        return self._func_to_module[func_name]

    def has_function(self, name: str) -> bool:
        return name in self._func_to_module

    def function(self, name: str) -> Function:
        return self._func_to_module[name].function(name)

    def all_functions(self) -> List[Function]:
        return [f for m in self.modules for f in m.functions]

    @property
    def num_functions(self) -> int:
        return len(self._func_to_module)

    @property
    def num_blocks(self) -> int:
        return sum(m.num_blocks for m in self.modules)
