"""The IR content digests: one encoding per function, encoded once per release.

:mod:`repro.ir.digest` encodes each function once (``_encode``) and
hashes those bytes into both the module digest that keys the module's
compile and the function's own digest.  The oracle below is the
piecewise hasher the encoder replaced, kept as the spec: every digest
must equal it bit for bit, because action keys and ``--state-dir``
snapshots written before must keep replaying and diffing clean.
"""

import hashlib
import shutil
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.incr import IncrState, reoptimize
from repro.ir import Call, CondBr, Function, Instr, Jump, Module, OpKind, Ret, Switch, Unreachable
from repro.ir import digest
from repro.ir.digest import module_digests
from repro.ir.nodes import BasicBlock
from repro.obs.explain import explain_results
from repro.profiles import IRProfile
from repro.synth import PRESETS, generate_workload

GOLDEN = Path(__file__).parent / "golden"


# ----------------------------------------------------------------------
# The oracle: the hasher fed one piece at a time


def _reference_term(term) -> str:
    if isinstance(term, CondBr):
        return f"cb:{term.taken}:{term.fallthrough}:{term.prob:.9f}"
    if isinstance(term, Jump):
        return f"j:{term.target}"
    if isinstance(term, Ret):
        return "r"
    if isinstance(term, Switch):
        targets = ",".join(map(str, term.targets))
        probs = ",".join(f"{p:.9f}" for p in term.probs)
        return f"sw:{targets}:{probs}"
    if isinstance(term, Unreachable):
        return "u"
    raise TypeError(f"unknown terminator {term!r}")


def _reference_update(h, function: Function) -> None:
    h.update(b"\x00F")
    h.update(function.name.encode())
    h.update(b"1" if function.hand_written else b"0")
    for block in function.blocks:
        h.update(f"\x00B{block.bb_id}:{int(block.is_landing_pad)}".encode())
        for instr in block.instrs:
            if isinstance(instr, Call):
                targets = ";".join(f"{t}={p:.9f}" for t, p in instr.indirect_targets)
                h.update(f"C{instr.callee}:{targets}:{instr.landing_pad}".encode())
            elif isinstance(instr, Instr):
                h.update(f"I{instr.kind.value}".encode())
            else:
                raise TypeError(f"unknown instruction {instr!r}")
        h.update(_reference_term(block.term).encode())


def _reference_function_digest(function: Function) -> str:
    h = hashlib.sha256()
    _reference_update(h, function)
    return h.hexdigest()


def _reference_module_digest(module: Module) -> str:
    h = hashlib.sha256()
    h.update(module.name.encode())
    for function in module.functions:
        _reference_update(h, function)
    return h.hexdigest()


def _assert_matches_reference(module: Module) -> None:
    module_hash, functions = module_digests(module)
    assert module_hash == _reference_module_digest(module)
    assert functions == {f.name: _reference_function_digest(f) for f in module.functions}


# ----------------------------------------------------------------------
# IR programs: every node kind, including ones a generator rarely makes

names = st.text(min_size=1, max_size=8)
probs = st.floats(allow_nan=False, allow_infinity=False, min_value=-2.0, max_value=2.0)
ids = st.integers(min_value=0, max_value=40)
calls = st.builds(
    Call,
    callee=st.none() | names,
    indirect_targets=st.lists(st.tuples(names, probs), max_size=3).map(tuple),
    landing_pad=st.none() | ids,
)
instrs = st.lists(st.builds(Instr, st.sampled_from(OpKind)) | calls, max_size=6)
terms = st.one_of(
    st.builds(CondBr, ids, ids, probs),
    st.builds(Jump, ids),
    st.just(Ret()),
    st.lists(st.tuples(ids, probs), max_size=4).map(
        lambda arms: Switch(tuple(t for t, _ in arms), tuple(p for _, p in arms))),
    st.just(Unreachable()),
)
blocks = st.builds(BasicBlock, ids, instrs, terms, st.booleans())


@st.composite
def modules(draw):
    functions = [Function(name, draw(st.lists(blocks, max_size=5)), draw(st.booleans()))
                 for name in draw(st.lists(names, max_size=4, unique=True))]
    return Module(draw(names), functions)


class TestEncoderOracle:
    @settings(max_examples=150, deadline=None)
    @given(modules())
    def test_digests_equal_the_piecewise_hasher(self, module):
        _assert_matches_reference(module)

    @pytest.mark.parametrize("preset, scale", [("mysql", 0.05), ("clang", 0.002),
                                               ("505.mcf", 1.0)])
    def test_presets_digest_as_before(self, preset, scale):
        program = generate_workload(PRESETS[preset], scale=scale, seed=1)
        for module in program.modules:
            _assert_matches_reference(module)

    def test_unknown_nodes_are_type_errors(self):
        with pytest.raises(TypeError, match="instruction"):
            digest._encode(Function("f", [BasicBlock(0, instrs=["nop"])]))
        with pytest.raises(TypeError, match="terminator"):
            digest._encode(Function("f", [BasicBlock(0, term="ret")]))


# ----------------------------------------------------------------------
# Once per release


def _config(**overrides) -> PipelineConfig:
    return PipelineConfig(**{"seed": 3, "lbr_branches": 20_000, "pgo_steps": 10_000,
                             "enforce_ram": False, **overrides})


@pytest.fixture
def encodings(monkeypatch):
    """Function name -> how many times ``_encode`` encoded it."""
    counts: Counter = Counter()
    encode = digest._encode

    def counting(function):
        counts[function.name] += 1
        return encode(function)

    monkeypatch.setattr(digest, "_encode", counting)
    return counts


@pytest.mark.integration
class TestEncodedOnce:
    def test_a_state_dir_release_encodes_each_function_once(self, tmp_path, encodings):
        """``optimize --state-dir``'s release: ``reoptimize()``, then
        ``IncrState.capture`` of its result."""
        program = generate_workload(PRESETS["505.mcf"], scale=0.2, seed=1)
        config = _config(state_dir=str(tmp_path))
        IncrState.capture(PropellerPipeline(program, config).run()).save(tmp_path)
        encodings.clear()
        result = reoptimize(program, tmp_path, config)
        IncrState.capture(result).save(tmp_path)
        assert encodings == Counter(f.name for f in program.all_functions())
        assert result.incremental.dirty == ()

    def test_explain_builds_each_results_evidence_once(self, encodings, monkeypatch):
        program = generate_workload(PRESETS["505.mcf"], scale=0.2, seed=1)
        base, new = (PropellerPipeline(program, _config(seed=seed)).run() for seed in (3, 4))
        built: Counter = Counter()
        profile_digest = IRProfile.function_digest

        def counting(profile, name):
            built[id(profile), name] += 1
            return profile_digest(profile, name)

        monkeypatch.setattr(IRProfile, "function_digest", counting)
        encodings.clear()
        explain_results(base, new, max_blocks=2_000)
        explain_results(base, new, max_blocks=2_000)
        assert not encodings  # the digests that keyed the compiles are reused
        assert built == Counter((id(result.ir_profile), name) for result in (base, new)
                                for name in result.cfg_digests)


def test_a_state_captured_before_diffs_clean(tmp_path):
    """A ``state.json`` written by the piecewise hasher (``505.mcf`` @ 0.2,
    shape seed 1, this file's config) reloads, and the same program
    re-optimized against it changed nothing."""
    shutil.copy(GOLDEN / "incr_state_505mcf.json", tmp_path / "state.json")
    program = generate_workload(PRESETS["505.mcf"], scale=0.2, seed=1)
    result = reoptimize(program, tmp_path, _config())
    summary = result.incremental
    assert (summary.dirty, summary.added, summary.deleted) == ((), (), ())
    assert result.functions == IncrState.load(tmp_path).functions
