"""Cross-cutting property tests on core invariants (hypothesis-driven)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import ir
from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
from repro.core.exttsp import ext_tsp_order, ext_tsp_score
from repro.linker import LinkOptions, link
from repro.profiles import generate_trace


# ----------------------------------------------------------------------
# Random well-formed functions


def _random_function(rng: random.Random, name: str, nblocks: int) -> ir.Function:
    """A random function whose CFG is well-formed by construction."""
    blocks = []
    for i in range(nblocks):
        instrs = [ir.Instr(rng.choice(list(ir.OpKind)))
                  for _ in range(rng.randint(1, 5))]
        later = list(range(i + 1, nblocks))
        if not later:
            term = ir.Ret()
        else:
            kind = rng.random()
            if kind < 0.35 and len(later) >= 2:
                t, f = rng.sample(later, 2)
                term = ir.CondBr(taken=t, fallthrough=f, prob=rng.random())
            elif kind < 0.55 and len(later) >= 2:
                k = rng.randint(2, min(4, len(later)))
                targets = tuple(rng.sample(later, k))
                raw = [rng.random() + 0.05 for _ in targets]
                total = sum(raw)
                term = ir.Switch(targets=targets, probs=tuple(w / total for w in raw))
            elif kind < 0.9:
                term = ir.Jump(rng.choice(later))
            else:
                term = ir.Ret()
        blocks.append(ir.BasicBlock(bb_id=i, instrs=instrs, term=term))
    return ir.Function(name=name, blocks=blocks)


def _random_module(seed: int, nfuncs: int = 3, nblocks: int = 8) -> ir.Module:
    rng = random.Random(seed)
    return ir.Module(
        name=f"m{seed}",
        functions=[_random_function(rng, f"fn{seed}_{i}", rng.randint(2, nblocks))
                   for i in range(nfuncs)],
    )


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_functions_compile_and_link(seed):
    """Any well-formed CFG lowers, links, and yields a coherent exec model."""
    module = _random_module(seed)
    for fn in module.functions:
        ir.verify_function(fn)
    compiled = compile_module(module, CodeGenOptions(bb_addr_map=True))
    entry = module.functions[0].name
    exe = link([compiled.obj], LinkOptions(entry_symbol=entry)).executable
    addrs = {b.addr for b in exe.exec_blocks}
    for block in exe.exec_blocks:
        term = block.term
        if term.kind == "condbr":
            assert term.cond_target in addrs
            if term.uncond_target is None:
                assert block.addr + block.size in addrs
            else:
                assert term.uncond_target in addrs
        elif term.kind == "jump":
            assert term.uncond_target in addrs
        elif term.kind == "fallthrough":
            assert block.addr + block.size in addrs
        elif term.kind == "ijmp":
            assert term.ijmp_targets
            for a, _p in term.ijmp_targets:
                assert a in addrs


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_functions_trace_under_all_section_modes(seed):
    """The trace executes the same block sequence under every sectioning."""
    module = _random_module(seed)
    entry = module.functions[0].name
    sequences = []
    for mode in (BBSectionsMode.NONE, BBSectionsMode.ALL):
        compiled = compile_module(module, CodeGenOptions(bb_sections=mode))
        exe = link([compiled.obj], LinkOptions(entry_symbol=entry)).executable
        trace = generate_trace(exe, max_blocks=300, seed=9)
        mapping = {b.addr: (b.func, b.bb_id) for b in exe.exec_blocks}
        sequences.append([mapping[a] for a in trace.block_addrs])
    assert sequences[0] == sequences[1]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_relaxation_never_grows_text(seed):
    """Relaxed links are never larger than unrelaxed links."""
    module = _random_module(seed)
    entry = module.functions[0].name
    compiled = compile_module(module, CodeGenOptions(bb_sections=BBSectionsMode.ALL))
    relaxed = link([compiled.obj], LinkOptions(entry_symbol=entry, relax=True))
    unrelaxed = link([compiled.obj], LinkOptions(entry_symbol=entry, relax=False))
    assert relaxed.executable.text_size <= unrelaxed.executable.text_size


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=25))
def test_exttsp_score_upper_bound(seed, n):
    """No layout scores above the all-fallthrough upper bound."""
    rng = random.Random(seed)
    nodes = {i: (rng.randint(1, 80), 1.0) for i in range(n)}
    edges = [(rng.randrange(n), rng.randrange(n), rng.random() * 50) for _ in range(2 * n)]
    edges = [(s, d, w) for s, d, w in edges if s != d]
    order = ext_tsp_order(nodes, edges, entry=0)
    sizes = {k: v[0] for k, v in nodes.items()}
    upper = sum(w for _s, _d, w in edges)
    assert ext_tsp_score(order, sizes, edges) <= upper + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_exttsp_beats_or_matches_reversed(seed):
    """The solver's layout scores at least as well as a pessimal one."""
    rng = random.Random(seed)
    n = rng.randint(2, 20)
    nodes = {i: (rng.randint(1, 60), 1.0) for i in range(n)}
    edges = [(i, i + 1, rng.random() * 100) for i in range(n - 1)]
    order = ext_tsp_order(nodes, edges, entry=0)
    sizes = {k: v[0] for k, v in nodes.items()}
    assert ext_tsp_score(order, sizes, edges) >= ext_tsp_score(
        [0] + list(range(n - 1, 0, -1)), sizes, edges
    ) - 1e-9


_BUDGET_EXE = {}


def _budget_exe():
    exe = _BUDGET_EXE.get("exe")
    if exe is None:
        module = _random_module(4242, nfuncs=4, nblocks=10)
        compiled = compile_module(module, CodeGenOptions())
        exe = link([compiled.obj],
                   LinkOptions(entry_symbol=module.functions[0].name)).executable
        _BUDGET_EXE["exe"] = exe
    return exe


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=1_000_000))
def test_trace_budgets_respected(seed):
    exe = _budget_exe()
    trace = generate_trace(exe, max_blocks=500, seed=seed)
    assert trace.num_blocks_executed == 500
    trace2 = generate_trace(exe, max_branches=200, seed=seed, record_blocks=False)
    assert trace2.num_branches == 200
