"""Whole-program workload generator.

Produces a :class:`repro.ir.Program` whose *shape* (function count,
blocks per function, bytes per block, fraction of cold modules) follows
a :class:`~repro.synth.presets.WorkloadPreset`, and whose *behaviour*
(ground-truth branch probabilities, call graph) concentrates execution
in a small set of hot functions reachable from a dispatch loop in
``main`` -- the steady-state server shape of a warehouse-scale
application.

The call graph is a DAG (functions only call higher-indexed functions),
so every invocation terminates with probability one and the trace
generator needs no recursion guard.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.ir import (
    BasicBlock,
    Call,
    CondBr,
    Function,
    Instr,
    Jump,
    Module,
    OpKind,
    Program,
    Ret,
    Switch,
)
from repro.synth.presets import PRESETS, WorkloadPreset

#: Opcode mix for straight-line code: (kind, weight, encoded size).
_OP_MIX: Sequence[Tuple[OpKind, float]] = (
    (OpKind.ALU8, 0.25),
    (OpKind.MOV, 0.15),
    (OpKind.CMP, 0.10),
    (OpKind.LOAD, 0.20),
    (OpKind.STORE, 0.10),
    (OpKind.LEA, 0.08),
    (OpKind.ALU16, 0.07),
    (OpKind.ALU32, 0.05),
)

#: Average encoded bytes of one straight-line instruction under _OP_MIX.
_AVG_INSTR_BYTES = 3.1
#: Average terminator overhead per block, in bytes.
_AVG_TERM_BYTES = 4.0

#: Probability that main's dispatch loop iterates again (keeps traces long).
_DISPATCH_LOOP_PROB = 0.99995

#: Cap on a block's expected executions per function invocation
#: (bounds nested-loop products).
_MAX_BLOCK_FREQ = 64.0
#: Cap on one call site's expected downstream block visits
#: (site frequency x callee work); bounds per-request cost over the DAG.
_MAX_CALL_CONTRIBUTION = 400.0

#: Fewest functions a generated program has, however small ``scale``.
MIN_FUNCS = 16


@dataclass
class _FunctionPlan:
    """Everything decided about a function before its CFG is built."""

    name: str
    module_index: int
    hot: bool
    hot_callees: List[str]
    cold_callees: List[str]
    indirect_targets: List[Tuple[str, float]]
    target_blocks: int
    wants_exceptions: bool
    inline_jumptables: bool


class _FunctionBuilder:
    """Builds one function's CFG from structured regions.

    ``callee_work`` maps already-built callees to their expected block
    visits per invocation; call placement uses it to keep every call
    site's ``frequency x callee work`` under
    :data:`_MAX_CALL_CONTRIBUTION`, so request cost stays bounded over
    arbitrary call-DAG depth (expensive callees end up outside inner
    loops, as in real code).
    """

    def __init__(
        self,
        plan: _FunctionPlan,
        rng: random.Random,
        instrs_per_block: float,
        callee_work: Optional[Dict[str, float]] = None,
    ):
        self._plan = plan
        self._rng = rng
        self._instr_mean = instrs_per_block
        self._callee_work = callee_work or {}
        self._blocks: List[BasicBlock] = []
        self._freq: Dict[int, float] = {}
        self._remaining = plan.target_blocks
        self._call_work = 0.0

    # -- block construction --------------------------------------------

    def _gen_instrs(self) -> List[Instr]:
        rng = self._rng
        count = max(1, int(rng.gauss(self._instr_mean, self._instr_mean * 0.4) + 0.5))
        kinds, weights = zip(*_OP_MIX)
        return [Instr(k) for k in rng.choices(kinds, weights=weights, k=count)]

    def _new_block(self, freq: float) -> BasicBlock:
        block = BasicBlock(bb_id=len(self._blocks), instrs=self._gen_instrs(), term=Ret())
        self._blocks.append(block)
        self._freq[block.bb_id] = freq
        self._remaining -= 1
        return block

    # -- structured regions --------------------------------------------

    def _build_region(self, freq: float) -> Tuple[BasicBlock, BasicBlock]:
        rng = self._rng
        if self._remaining < 3:
            block = self._new_block(freq)
            return block, block
        options = ["straight", "diamond", "loop"]
        weights = [0.25, 0.35, 0.25]
        if self._remaining >= 6:
            options.append("switch")
            weights.append(0.15)
        pattern = rng.choices(options, weights=weights, k=1)[0]
        if pattern == "straight":
            block = self._new_block(freq)
            return block, block
        if pattern == "diamond":
            return self._build_diamond(freq)
        if pattern == "loop":
            return self._build_loop(freq)
        return self._build_switch(freq)

    def _build_diamond(self, freq: float) -> Tuple[BasicBlock, BasicBlock]:
        rng = self._rng
        cond = self._new_block(freq)
        if self._plan.hot:
            # Hot functions have strongly biased branches: the cold arm
            # is error handling that almost never runs.
            p_cold = rng.uniform(0.002, 0.12)
        else:
            p_cold = rng.uniform(0.25, 0.5)
        hot_entry, hot_exit = self._build_chain(freq * (1.0 - p_cold))
        cold_entry, cold_exit = self._build_chain(freq * p_cold, max_regions=1)
        join = self._new_block(freq)
        cond.term = CondBr(taken=cold_entry.bb_id, fallthrough=hot_entry.bb_id, prob=p_cold)
        hot_exit.term = Jump(join.bb_id)
        if rng.random() < 0.3:
            cold_exit.term = Ret()  # early error return
        else:
            cold_exit.term = Jump(join.bb_id)
        return cond, join

    def _build_loop(self, freq: float) -> Tuple[BasicBlock, BasicBlock]:
        rng = self._rng
        iters = rng.choice((4, 8, 16, 32) if self._plan.hot else (2, 4, 8))
        # Bound nested-loop products so one invocation cannot consume an
        # entire trace budget (keeps per-request work ~ thousands of blocks).
        while freq * iters > _MAX_BLOCK_FREQ and iters > 2:
            iters //= 2
        header = self._new_block(freq * iters)
        body_entry, body_exit = self._build_chain(freq * iters)
        exit_block = self._new_block(freq)
        header.term = CondBr(
            taken=exit_block.bb_id, fallthrough=body_entry.bb_id, prob=1.0 / iters
        )
        body_exit.term = Jump(header.bb_id)
        return header, exit_block

    def _build_switch(self, freq: float) -> Tuple[BasicBlock, BasicBlock]:
        rng = self._rng
        head = self._new_block(freq)
        num_arms = rng.randint(3, min(6, max(3, self._remaining - 1)))
        raw = [rng.random() ** 2 + 0.01 for _ in range(num_arms)]
        total = sum(raw)
        probs = tuple(w / total for w in raw)
        arms: List[Tuple[BasicBlock, BasicBlock]] = []
        for p in probs:
            arms.append(self._build_chain(freq * p, max_regions=1))
        join = self._new_block(freq)
        for _, arm_exit in arms:
            arm_exit.term = Jump(join.bb_id)
        head.term = Switch(targets=tuple(e.bb_id for e, _ in arms), probs=probs)
        return head, join

    def _build_chain(self, freq: float, max_regions: int = 3) -> Tuple[BasicBlock, BasicBlock]:
        entry, exit_block = self._build_region(freq)
        regions = 1
        while (
            regions < max_regions
            and self._remaining > 0
            and isinstance(exit_block.term, Ret)
            and self._rng.random() < 0.5
        ):
            nxt_entry, nxt_exit = self._build_region(freq)
            exit_block.term = Jump(nxt_entry.bb_id)
            exit_block = nxt_exit
            regions += 1
        return entry, exit_block

    # -- call sites and exceptions --------------------------------------

    def _site_for(self, work: float, pool: List[BasicBlock]) -> BasicBlock:
        """Hottest block whose frequency keeps the contribution bounded."""
        budget = _MAX_CALL_CONTRIBUTION
        viable = [b for b in pool if self._freq[b.bb_id] * max(work, 1.0) <= budget]
        if viable:
            return self._rng.choice(viable[: max(1, len(viable) // 2)])
        return min(pool, key=lambda b: self._freq[b.bb_id])

    def _insert_call(self, block: BasicBlock, call: Call, work: float) -> None:
        pos = self._rng.randint(0, len(block.instrs))
        block.instrs.insert(pos, call)
        self._call_work += self._freq[block.bb_id] * work

    def _place_calls(self, function: Function) -> None:
        plan = self._plan
        blocks_by_heat = sorted(self._blocks, key=lambda b: self._freq[b.bb_id], reverse=True)
        hot_pool = [b for b in blocks_by_heat if self._freq[b.bb_id] >= 0.5] or blocks_by_heat
        cold_pool = [b for b in blocks_by_heat if self._freq[b.bb_id] < 0.5] or blocks_by_heat
        work = self._callee_work
        for callee in plan.hot_callees:
            block = self._site_for(work.get(callee, 100.0), hot_pool)
            self._insert_call(block, Call(callee=callee), work.get(callee, 100.0))
        for callee in plan.cold_callees:
            block = self._site_for(work.get(callee, 100.0), cold_pool)
            self._insert_call(block, Call(callee=callee), work.get(callee, 100.0))
        if plan.indirect_targets:
            expected = sum(
                prob * work.get(target, 100.0) for target, prob in plan.indirect_targets
            )
            block = self._site_for(expected, hot_pool)
            self._insert_call(
                block,
                Call(callee=None, indirect_targets=tuple(plan.indirect_targets)),
                expected,
            )

    def _attach_landing_pads(self, function: Function) -> None:
        rng = self._rng
        pad = BasicBlock(
            bb_id=len(self._blocks), instrs=self._gen_instrs(), term=Ret(), is_landing_pad=True
        )
        self._blocks.append(pad)
        self._freq[pad.bb_id] = 0.0
        direct_calls = [
            (block, idx)
            for block in self._blocks
            for idx, instr in enumerate(block.instrs)
            if isinstance(instr, Call) and instr.callee is not None
        ]
        rng.shuffle(direct_calls)
        for block, idx in direct_calls[:2]:
            old = block.instrs[idx]
            block.instrs[idx] = Call(
                callee=old.callee,
                indirect_targets=old.indirect_targets,
                landing_pad=pad.bb_id,
            )

    def build(self) -> Tuple[Function, Dict[int, float], float]:
        """Returns (function, block frequencies, expected work/invocation)."""
        entry, exit_block = self._build_chain(1.0, max_regions=6)
        if isinstance(exit_block.term, Ret):
            exit_block.term = Ret()
        function = Function(name=self._plan.name, blocks=self._blocks)
        self._place_calls(function)
        if self._plan.wants_exceptions and any(
            isinstance(i, Call) and i.callee is not None
            for b in self._blocks
            for i in b.instrs
        ):
            self._attach_landing_pads(function)
        if self._plan.inline_jumptables:
            self._ensure_switch()
        function.reindex()
        work = sum(self._freq.values()) + self._call_work
        return function, dict(self._freq), work

    def _ensure_switch(self) -> None:
        """Hand-tuned functions embed jump tables in text; guarantee at
        least one switch exists so the hazard is real."""
        if any(isinstance(b.term, Switch) for b in self._blocks):
            return
        for block in self._blocks:
            if isinstance(block.term, CondBr):
                term = block.term
                block.term = Switch(
                    targets=(term.taken, term.fallthrough),
                    probs=(term.prob, 1.0 - term.prob),
                )
                return


def _build_main(roots: List[Tuple[str, float]], rng: random.Random, instr_mean: float) -> Function:
    """main(): a dispatch loop indirect-calling the hot request handlers."""

    def instrs(n: int) -> List[Instr]:
        kinds, weights = zip(*_OP_MIX)
        return [Instr(k) for k in rng.choices(kinds, weights=weights, k=n)]

    entry = BasicBlock(bb_id=0, instrs=instrs(max(2, int(instr_mean))), term=Jump(1))
    body_instrs: List = instrs(max(1, int(instr_mean / 2)))
    body_instrs.append(Call(callee=None, indirect_targets=tuple(roots)))
    header = BasicBlock(
        bb_id=1,
        instrs=body_instrs,
        term=CondBr(taken=2, fallthrough=1, prob=1.0 - _DISPATCH_LOOP_PROB),
    )
    exit_block = BasicBlock(bb_id=2, instrs=instrs(1), term=Ret())
    return Function(name="main", blocks=[entry, header, exit_block])


def _zipf_weights(count: int, exponent: float = 1.2) -> List[float]:
    """Normalized rank^-exponent weights."""
    raw = [1.0 / (rank ** exponent) for rank in range(1, count + 1)]
    total = sum(raw)
    return [w / total for w in raw]


def generate_workload(
    preset: "WorkloadPreset | str", scale: float = 0.01, seed: int = 0,
) -> Program:
    """Generate a whole program matching ``preset``'s shape at ``scale``.

    ``preset`` is a :class:`WorkloadPreset` or the name of one in
    :data:`~repro.synth.PRESETS`.  The result is deterministic in
    ``(preset, scale, seed)`` and has at least :data:`MIN_FUNCS`
    functions.
    """
    if isinstance(preset, str):
        if preset not in PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; one of {sorted(PRESETS)}")
        preset = PRESETS[preset]
    if scale <= 0:
        raise ValueError("scale must be positive")
    rng = random.Random(f"{preset.name}:{seed}:{scale}")
    nfuncs = max(MIN_FUNCS, int(round(preset.funcs * scale)))
    nmodules = max(2, int(round(nfuncs / preset.funcs_per_module)))

    # Distribute functions over modules (roughly evenly).
    counts = [nfuncs // nmodules] * nmodules
    for i in range(nfuncs % nmodules):
        counts[i] += 1

    # Pick which modules contain hot code.  Module 0 always does (main).
    num_hot_modules = max(1, int(round(nmodules * (1.0 - preset.pct_cold_objects))))
    hot_modules = {0}
    candidates = list(range(1, nmodules))
    rng.shuffle(candidates)
    for idx in candidates[: num_hot_modules - 1]:
        hot_modules.add(idx)

    # Name functions and choose the hot set.  Hot functions live only in
    # hot modules; each hot module holds a few.
    func_names: List[List[str]] = []
    hot_funcs: List[str] = ["main"]
    cold_funcs: List[str] = []
    for mod_idx in range(nmodules):
        names: List[str] = []
        hot_here = 0
        quota = rng.randint(2, 5) if mod_idx in hot_modules else 0
        for fn_idx in range(counts[mod_idx]):
            if mod_idx == 0 and fn_idx == 0:
                names.append("main")
                continue
            name = f"m{mod_idx}_f{fn_idx}"
            names.append(name)
            if mod_idx in hot_modules and hot_here < quota:
                hot_funcs.append(name)
                hot_here += 1
            else:
                cold_funcs.append(name)
        func_names.append(names)

    hot_rank = {name: i for i, name in enumerate(hot_funcs)}
    cold_rank = {name: i for i, name in enumerate(cold_funcs)}

    # Every hot function is a dispatch root with Zipf-distributed heat,
    # so the whole hot set is exercised (callees additionally get heat
    # through the call graph).
    non_main_hot = hot_funcs[1:]
    if not non_main_hot:
        raise ValueError("workload too small: no hot functions besides main")
    root_weights = _zipf_weights(len(non_main_hot), exponent=0.9)
    roots = list(zip(non_main_hot, root_weights))

    instr_mean = max(1.0, (preset.bytes_per_bb - _AVG_TERM_BYTES) / _AVG_INSTR_BYTES)
    bbs_per_func = preset.bbs_per_func

    def plan_function(name: str, mod_idx: int) -> _FunctionPlan:
        hot = name in hot_rank
        if hot and name != "main":
            later_hot = non_main_hot[hot_rank[name] :]  # strictly later ranks
            hot_callees = rng.sample(later_hot, min(len(later_hot), rng.randint(0, 3)))
            cold_callees = (
                rng.sample(cold_funcs, min(len(cold_funcs), rng.randint(0, 2)))
                if cold_funcs
                else []
            )
            indirect: List[Tuple[str, float]] = []
            if later_hot and rng.random() < preset.indirect_call_rate:
                targets = rng.sample(later_hot, min(len(later_hot), rng.randint(2, 4)))
                weights = _zipf_weights(len(targets))
                indirect = list(zip(targets, weights))
            size_mean = bbs_per_func * 2.5  # hot functions skew larger
        else:
            later_cold = cold_funcs[cold_rank.get(name, 0) + 1 :]
            hot_callees = []
            cold_callees = (
                rng.sample(later_cold[:50], min(len(later_cold[:50]), rng.randint(0, 2)))
                if later_cold and rng.random() < 0.5
                else []
            )
            indirect = []
            size_mean = bbs_per_func * 0.9
        # 0.55 compensates the structured-region overshoot (joins/exits)
        # so realized blocks-per-function tracks the preset.
        target_blocks = max(3, min(300, int(rng.lognormvariate(math.log(size_mean * 0.55), 0.5))))
        return _FunctionPlan(
            name=name,
            module_index=mod_idx,
            hot=hot,
            hot_callees=hot_callees,
            cold_callees=cold_callees,
            indirect_targets=indirect,
            target_blocks=target_blocks,
            wants_exceptions=rng.random() < preset.exception_rate,
            inline_jumptables=rng.random() < preset.inline_jumptable_rate,
        )

    # Plan every function in deterministic (module, index) order, then
    # build bodies bottom-up over the call DAG -- cold functions
    # (deepest last ranks first), then hot -- so each builder knows its
    # callees' expected per-invocation work and can bound call-site
    # contributions.  Bodies use per-function RNGs, so the build order
    # does not perturb generation.
    plans: Dict[str, _FunctionPlan] = {}
    for mod_idx in range(nmodules):
        for name in func_names[mod_idx]:
            if name != "main":
                plans[name] = plan_function(name, mod_idx)

    built: Dict[str, Function] = {}
    work: Dict[str, float] = {}
    build_order = list(reversed(cold_funcs)) + list(reversed(non_main_hot))
    for name in build_order:
        plan = plans[name]
        body_rng = random.Random(f"{preset.name}:{seed}:{name}")
        function, _freqs, fn_work = _FunctionBuilder(
            plan, body_rng, instr_mean, callee_work=work
        ).build()
        function.hand_written = plan.inline_jumptables
        built[name] = function
        work[name] = fn_work

    modules: List[Module] = []
    for mod_idx in range(nmodules):
        module = Module(name=f"s_{mod_idx}")
        for name in func_names[mod_idx]:
            if name == "main":
                module.add_function(_build_main(roots, rng, instr_mean))
            else:
                module.add_function(built[name])
        modules.append(module)

    return Program(
        name=preset.name,
        modules=modules,
        entry_function="main",
        features=preset.features,
    )
