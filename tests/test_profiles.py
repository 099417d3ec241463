"""Tests for repro.profiles: hashing, matching, inference, the store,
the retirement of the ``repro.profiling`` alias and the pipeline
wiring."""

import dataclasses
import importlib
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import ir
from repro.profiles import (
    MATCH_MODES,
    IRProfile,
    MatchStats,
    ProfileStore,
    collect_ir_profile,
    match_profile,
    merge_profiles,
)
from repro.profiles.hashing import block_anchor, function_anchors, program_anchors
from repro.synth import PRESETS, generate_workload


@pytest.fixture(scope="module")
def program():
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.3, seed=7)


@pytest.fixture(scope="module")
def profile(program):
    return collect_ir_profile(program, max_steps=20_000, seed=2)


# ----------------------------------------------------------------------
# Retired alias package


def _purge(prefix):
    for name in [m for m in sys.modules if m == prefix or m.startswith(prefix + ".")]:
        del sys.modules[name]


class TestProfilingAliasRetired:
    """``repro.profiling`` had one release of deprecation grace as an
    alias of :mod:`repro.profiles`; it is now gone for good."""

    def test_package_is_gone(self):
        _purge("repro.profiling")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.profiling")

    @pytest.mark.parametrize("sub", ["pgo", "lbr", "trace", "autofdo"])
    def test_submodules_are_gone(self, sub):
        _purge("repro.profiling")
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(f"repro.profiling.{sub}")

    def test_public_package_never_references_it(self):
        """Resolving the entire facade must not (be able to) pull in
        the retired alias."""
        _purge("repro.profiling")
        import repro
        for name in repro.__all__:
            getattr(repro, name)
        assert "repro.profiling" not in sys.modules

    def test_facade_exports(self):
        import repro
        from repro.profiles import ProfileStore as PS, match_profile as mp
        assert repro.ProfileStore is PS
        assert repro.match_profile is mp
        assert repro.IRProfile is IRProfile


# ----------------------------------------------------------------------
# Block anchors (hash tiers)


def _block(bb_id, kinds, term, pos=0):
    return ir.BasicBlock(bb_id=bb_id,
                         instrs=[ir.Instr(k) for k in kinds],
                         term=term)


class TestHashTiers:
    def test_reorder_breaks_strict_not_loose(self):
        kinds = [ir.OpKind.LOAD, ir.OpKind.ALU32, ir.OpKind.STORE]
        a = block_anchor(_block(0, kinds, ir.Ret()), pos=0)
        b = block_anchor(_block(0, list(reversed(kinds)), ir.Ret()), pos=0)
        assert a.strict != b.strict
        assert a.loose == b.loose

    def test_renumbering_preserves_both_tiers(self):
        """Hashes depend on successor *shape*, not successor ids."""
        kinds = [ir.OpKind.LOAD, ir.OpKind.ALU32]
        a = block_anchor(
            _block(1, kinds, ir.CondBr(taken=2, fallthrough=3, prob=0.5)), pos=1)
        b = block_anchor(
            _block(5, kinds, ir.CondBr(taken=9, fallthrough=6, prob=0.9)), pos=1)
        assert a.strict == b.strict
        assert a.loose == b.loose

    def test_terminator_kind_breaks_strict(self):
        kinds = [ir.OpKind.LOAD]
        a = block_anchor(_block(0, kinds, ir.Jump(1)), pos=0)
        b = block_anchor(_block(0, kinds, ir.Ret()), pos=0)
        assert a.strict != b.strict

    def test_function_anchors_cover_all_blocks(self, program):
        fn = program.function(program.entry_function)
        anchors = function_anchors(fn)
        assert set(anchors) == {b.bb_id for b in fn.blocks}
        assert all(a.pos == i for i, (_, a) in enumerate(sorted(
            anchors.items(), key=lambda kv: kv[1].pos)))

    def test_program_anchors_subset(self, program):
        name = program.entry_function
        anchors = program_anchors(program, [name, "no-such-function"])
        assert set(anchors) == {name}


# ----------------------------------------------------------------------
# Matching and count inference


def _diamond_program():
    """entry -> {left, right} -> join; known counts 100/60/40/100."""
    blocks = [
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.LOAD)],
                      term=ir.CondBr(taken=1, fallthrough=2, prob=0.6)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.ALU32)],
                      term=ir.Jump(3)),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.STORE)],
                      term=ir.Jump(3)),
        ir.BasicBlock(bb_id=3, instrs=[ir.Instr(ir.OpKind.NOP)],
                      term=ir.Ret()),
    ]
    fn = ir.Function(name="diamond", blocks=blocks)
    module = ir.Module(name="m", functions=[fn])
    return ir.Program(name="p", modules=[module], entry_function="diamond")


def _diamond_profile(prog, *, drop_block=None, drop_edge=None):
    blocks = {0: 100.0, 1: 60.0, 2: 40.0, 3: 100.0}
    edges = {(0, 1): 60.0, (0, 2): 40.0, (1, 3): 60.0, (2, 3): 40.0}
    if drop_block is not None:
        blocks[drop_block] = 0.0
    if drop_edge is not None:
        edges[drop_edge] = 0.0
    p = IRProfile(blocks={"diamond": blocks}, edges={"diamond": edges},
                  call_counts={"diamond": 1.0})
    p.anchors = {"diamond": function_anchors(prog.function("diamond"))}
    p.source_entries = 8
    p.dropped_entries = (drop_block is not None) + (drop_edge is not None)
    return p


class TestMatching:
    def test_mode_validation(self, program, profile):
        with pytest.raises(ValueError, match="unknown matching mode"):
            match_profile(profile, program, mode="bogus")

    def test_off_is_passthrough(self, program, profile):
        out, stats = match_profile(profile, program, mode="off")
        assert out is profile
        assert stats.mode == "off"
        assert stats.recovered_match_rate == stats.stale_match_rate

    def test_undrifted_is_identity(self, program, profile):
        out, stats = match_profile(profile, program, mode="loose")
        assert out is not profile
        assert out.digest() == profile.digest()
        assert stats.blocks_inferred == 0
        assert stats.edges_inferred == 0
        assert stats.unmatched == 0

    def test_input_profile_never_mutated(self, program, profile):
        before = profile.copy()
        drifted = profile.apply_drift(0.4, seed=3)
        digest = drifted.digest()
        match_profile(drifted, program, mode="loose")
        assert drifted.digest() == digest
        assert profile.blocks == before.blocks
        assert profile.edges == before.edges

    def test_recovers_dropout_block_by_inflow(self):
        prog = _diamond_program()
        stale = _diamond_profile(prog, drop_block=1)
        out, stats = match_profile(stale, prog, mode="strict")
        assert out.blocks["diamond"][1] == pytest.approx(60.0)
        assert stats.blocks_inferred == 1
        assert stats.recovered_match_rate > stats.stale_match_rate

    def test_recovers_dropout_edge_from_residual(self):
        prog = _diamond_program()
        stale = _diamond_profile(prog, drop_edge=(1, 3))
        out, stats = match_profile(stale, prog, mode="strict")
        assert out.edges["diamond"][(1, 3)] == pytest.approx(60.0)
        assert stats.edges_inferred == 1

    def test_measured_counts_are_read_only(self):
        """Inference fills zeros; it never adjusts a nonzero count."""
        prog = _diamond_program()
        stale = _diamond_profile(prog, drop_block=1, drop_edge=(1, 3))
        out, _ = match_profile(stale, prog, mode="loose")
        for bb in (0, 2, 3):
            assert out.blocks["diamond"][bb] == stale.blocks["diamond"][bb]
        for edge in ((0, 1), (0, 2), (2, 3)):
            assert out.edges["diamond"][edge] == stale.edges["diamond"][edge]

    def test_vanished_function_counts_unmatched(self, program, profile):
        stale = profile.copy()
        stale.blocks["__gone__"] = {0: 5.0}
        stale.edges["__gone__"] = {(0, 1): 5.0}
        out, stats = match_profile(stale, program, mode="loose")
        assert "__gone__" not in out.blocks
        assert stats.unmatched >= 2

    def test_loose_mode_rescues_reordered_block(self):
        """A block whose instructions were rescheduled (strict hash
        broken, loose intact) keeps its count only in loose mode."""
        prog = _diamond_program()
        stale = _diamond_profile(prog)
        # Re-anchor block 1 as if the profiled CFG had its instructions
        # in a different order: perturb the strict tier only.
        old = stale.anchors["diamond"][1]
        stale.anchors["diamond"][1] = type(old)(
            strict="0" * 16, loose=old.loose, pos=old.pos)
        _, strict_stats = match_profile(stale, prog, mode="strict")
        _, loose_stats = match_profile(stale, prog, mode="loose")
        assert loose_stats.matched_loose >= 1
        assert loose_stats.matched_exact == strict_stats.matched_exact
        # Strict falls back to the positional tier for that block.
        assert strict_stats.matched_positional >= 1

    def test_stats_as_dict_and_gauges(self, program, profile):
        _, stats = match_profile(profile.apply_drift(0.3, seed=1), program)
        d = stats.as_dict()
        assert d["mode"] == "loose"
        assert set(d) == {f.name for f in dataclasses.fields(MatchStats)}
        gauges = stats.as_gauges()
        assert gauges["profile.blocks_matched_exact"] == stats.matched_exact
        assert gauges["profile.recovered_match_rate"] == stats.recovered_match_rate
        assert all(k.startswith("profile.") for k in gauges)


# ----------------------------------------------------------------------
# Property tests (hypothesis)


class TestMatchingProperties:
    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.05, max_value=0.7),
           st.integers(min_value=0, max_value=1000))
    def test_recovered_rate_monotone(self, program, profile, drift, seed):
        """Recovered match rate >= the stale rate at every drift level."""
        stale = profile.apply_drift(drift, seed=seed)
        _, stats = match_profile(stale, program, mode="loose")
        assert stats.recovered_match_rate >= stats.stale_match_rate - 1e-12
        assert stats.stale_match_rate == pytest.approx(stale.match_rate)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=0.0, max_value=0.7),
           st.integers(min_value=0, max_value=1000),
           st.sampled_from(["strict", "loose"]))
    def test_matching_is_deterministic(self, program, profile, drift, seed, mode):
        stale = profile.apply_drift(drift, seed=seed)
        out1, stats1 = match_profile(stale, program, mode=mode)
        out2, stats2 = match_profile(stale, program, mode=mode)
        assert out1.digest() == out2.digest()
        assert stats1 == stats2

    @settings(max_examples=5, deadline=None)
    @given(st.integers(min_value=0, max_value=1000))
    def test_drift_zero_perfect_recovery(self, program, profile, seed):
        """drift=0 is a perfect-recovery identity: output == input."""
        stale = profile.apply_drift(0.0, seed=seed)
        out, stats = match_profile(stale, program, mode="loose")
        assert out.blocks == stale.blocks
        assert out.edges == stale.edges
        assert out.call_counts == stale.call_counts
        assert stats.recovered_match_rate == pytest.approx(1.0)


# ----------------------------------------------------------------------
# apply_drift contract (satellite: non-mutating, documented copy)


class TestApplyDrift:
    def test_input_is_unchanged(self, profile):
        digest = profile.digest()
        snapshot = profile.copy()
        profile.apply_drift(0.5, seed=9)
        assert profile.digest() == digest
        assert profile.blocks == snapshot.blocks
        assert profile.edges == snapshot.edges
        assert profile.call_counts == snapshot.call_counts

    def test_returns_new_object_even_at_zero(self, profile):
        out = profile.apply_drift(0.0)
        assert out is not profile
        assert out.blocks == profile.blocks

    def test_drifted_profile_keeps_anchors(self, program, profile):
        out = profile.apply_drift(0.3, seed=4)
        assert out.anchors == profile.anchors


# ----------------------------------------------------------------------
# ProfileStore


def _tiny_profile(scale):
    return IRProfile(blocks={"f": {0: 10.0 * scale, 1: 2.0 * scale}},
                     edges={"f": {(0, 1): 2.0 * scale}},
                     call_counts={"f": 1.0 * scale})


class TestProfileStore:
    def test_add_assigns_sequential_epochs(self):
        store = ProfileStore()
        assert store.add(_tiny_profile(1)) == 0
        assert store.add(_tiny_profile(2)) == 1
        assert store.add(_tiny_profile(3), epoch=5) == 5
        assert store.epochs == [0, 1, 5]
        assert len(store) == 3

    def test_epochs_must_not_go_backwards(self):
        store = ProfileStore()
        store.add(_tiny_profile(1), epoch=3)
        with pytest.raises(ValueError, match="older than"):
            store.add(_tiny_profile(2), epoch=2)

    def test_latest_and_empty_errors(self):
        store = ProfileStore()
        with pytest.raises(ValueError):
            store.latest()
        with pytest.raises(ValueError):
            store.merge()
        p = _tiny_profile(1)
        store.add(p)
        assert store.latest() is p

    def test_merge_decay_weights(self):
        store = ProfileStore(decay=0.5)
        store.add(_tiny_profile(1))  # weight 0.25
        store.add(_tiny_profile(1))  # weight 0.5
        store.add(_tiny_profile(1))  # weight 1
        merged = store.merge()
        assert merged.blocks["f"][0] == pytest.approx(10.0 * 1.75)
        assert merged.call_counts["f"] == pytest.approx(1.75)

    def test_merge_honors_epoch_gaps(self):
        store = ProfileStore(decay=0.5)
        store.add(_tiny_profile(1), epoch=0)
        store.add(_tiny_profile(1), epoch=3)  # gap of 3 -> 0.5**3
        merged = store.merge()
        assert merged.blocks["f"][0] == pytest.approx(10.0 * 1.125)

    def test_merge_explicit_list(self):
        merged = merge_profiles([_tiny_profile(1), _tiny_profile(2)], decay=0.5)
        assert merged.blocks["f"][0] == pytest.approx(10.0 * 0.5 + 20.0)

    def test_decay_validation(self):
        with pytest.raises(ValueError, match="decay"):
            ProfileStore(decay=0.0)
        with pytest.raises(ValueError, match="decay"):
            merge_profiles([_tiny_profile(1)], decay=1.5)
        with pytest.raises(ValueError):
            merge_profiles([])

    def test_merge_keeps_newest_anchors(self, program):
        old = collect_ir_profile(program, max_steps=2_000, seed=1)
        new = collect_ir_profile(program, max_steps=2_000, seed=2)
        merged = merge_profiles([old, new])
        assert merged.anchors == new.anchors

    def test_merged_provenance_rederived(self):
        """An entry is dropped only if every epoch lost it."""
        a = _tiny_profile(1)
        a.blocks["f"][1] = 0.0
        b = _tiny_profile(1)
        b.blocks["f"][0] = 0.0
        merged = merge_profiles([a, b])
        assert merged.dropped_entries == 0
        a.blocks["f"][1] = 0.0
        b.blocks["f"][1] = 0.0
        merged = merge_profiles([a, b])
        assert merged.dropped_entries == 1
        assert merged.match_rate < 1.0


# ----------------------------------------------------------------------
# Pipeline wiring


class TestPipelineWiring:
    @pytest.fixture(scope="class")
    def configs(self):
        from repro.core.pipeline import PipelineConfig
        base = dict(pgo_steps=8_000, lbr_branches=20_000, lbr_period=31,
                    pgo_drift=0.4, workers=8, enforce_ram=False, seed=3)
        return (PipelineConfig(stale_matching="off", **base),
                PipelineConfig(stale_matching="loose", **base))

    @pytest.fixture(scope="class")
    def results(self, tiny_program, configs):
        from repro.core.pipeline import PropellerPipeline
        return tuple(PropellerPipeline(tiny_program, c).run() for c in configs)

    def test_off_mode_has_no_recovery(self, results):
        off, _ = results
        assert off.match_stats is None
        assert off.recovered_profile is None
        assert off.report().profile_recovery == {}

    def test_loose_mode_reports_recovery(self, results):
        _, loose = results
        assert loose.match_stats is not None
        assert loose.recovered_profile is not None
        report = loose.report()
        rec = report.profile_recovery
        assert rec["mode"] == "loose"
        assert rec["recovered_match_rate"] >= rec["stale_match_rate"]
        assert report.gauges["profile.recovered_match_rate"] == pytest.approx(
            rec["recovered_match_rate"])
        assert "stale matching (loose)" in loose.summary()

    def test_report_json_roundtrip_keeps_recovery(self, results):
        from repro.obs.report import PipelineReport
        _, loose = results
        report = loose.report()
        back = PipelineReport.from_json(json.loads(json.dumps(report.to_json())))
        assert back.profile_recovery == dict(report.profile_recovery)

    def test_metadata_binary_identical_across_modes(self, results):
        """Recovery must not perturb the profiled binary: the trace,
        WPA directives and cold-module cache entries stay bit-identical
        so off/loose differ only in Phase 4's layout inputs."""
        off, loose = results
        assert (off.metadata.executable.content_digest()
                == loose.metadata.executable.content_digest())

    def test_invalid_mode_rejected(self, tiny_program):
        from repro.core.phases import match_stale
        from repro.core.pipeline import PipelineConfig, PropellerPipeline
        with pytest.raises(ValueError, match="stale_matching"):
            PipelineConfig(stale_matching="fuzzy")
        with pytest.raises(ValueError, match="unknown matching mode"):
            match_stale(PropellerPipeline(tiny_program, PipelineConfig()),
                        IRProfile(), "fuzzy")

    def test_cli_flag_wired(self):
        from repro.tools.cli import PIPELINE_FLAG_FIELDS, build_parser
        assert PIPELINE_FLAG_FIELDS["stale_matching"] == "stale_matching"
        parser = build_parser()
        args = parser.parse_args(
            ["optimize", "prog.json", "--stale-matching", "loose"])
        assert args.stale_matching == "loose"
        with pytest.raises(SystemExit):
            parser.parse_args(["optimize", "prog.json", "--stale-matching", "x"])

    def test_match_modes_exported(self):
        assert MATCH_MODES == ("off", "strict", "loose")


@pytest.mark.integration
class TestLooseBeatsOff:
    """Stale matching's claim, on the ``drift*:off`` / ``drift*:loose``
    bench rows' configuration: at every swept drift, ``loose`` recovers
    a strictly higher match rate *and* a strictly better layout.
    (``search`` has a warm tier below WPA's hot set; the small SPEC
    presets do not, so matching has nothing to win there.)"""

    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        from repro.core.pipeline import PipelineConfig, PropellerPipeline
        program = generate_workload(PRESETS["search"], scale=0.006, seed=3)
        # One store for all four runs: a mode only changes Phase 4, and
        # a store changes how fast a result comes, never what it is.
        store = str(tmp_path_factory.mktemp("drift-store"))
        out = {}
        for drift in (0.3, 0.5):
            for mode in ("off", "loose"):
                report = PropellerPipeline(program, PipelineConfig(
                    seed=3, lbr_branches=40_000, pgo_steps=20_000, workers=72,
                    enforce_ram=False, pgo_drift=drift, stale_matching=mode,
                    cache_dir=store)).run().report(include_frontend=True)
                rate = (report.profile_recovery["recovered_match_rate"]
                        if mode == "loose" else report.gauges["pgo.match_rate"])
                out[drift, mode] = rate, report.frontend_improvement
        return out

    @pytest.mark.parametrize("drift", (0.3, 0.5))
    def test_on_match_rate_and_cycles(self, sweep, drift):
        (off_rate, off_gain), (loose_rate, loose_gain) = (
            sweep[drift, "off"], sweep[drift, "loose"])
        assert loose_rate > off_rate
        assert loose_gain > off_gain
