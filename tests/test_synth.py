"""Tests for the workload generator and presets (Table 2 shapes)."""

import pytest

from repro.ir import Call, verify_program
from repro.ir.digest import module_digests
from repro.synth import ALL_PRESETS, PRESETS, SPEC_PRESETS, WSC_PRESETS, generate_workload
from repro.synth.generator import MIN_FUNCS


class TestPresets:
    def test_table2_benchmarks_present(self):
        for name in ("clang", "mysql", "spanner", "search", "superroot", "bigtable"):
            assert name in PRESETS

    def test_spec_suite_has_eight_benchmarks(self):
        # 520.omnetpp is excluded: it fails to build with clang (§5.4).
        assert len(SPEC_PRESETS) == 8
        assert not any("omnetpp" in p.name for p in SPEC_PRESETS)

    def test_wsc_failure_features(self):
        assert "rseq" in PRESETS["spanner"].features
        assert "fips_integrity" in PRESETS["bigtable"].features
        assert "huge_binary" in PRESETS["superroot"].features
        assert not PRESETS["search"].features

    def test_search_uses_hugepages(self):
        assert PRESETS["search"].hugepages
        assert not PRESETS["clang"].hugepages

    def test_derived_ratios(self):
        clang = PRESETS["clang"]
        assert clang.bbs_per_func == pytest.approx(2_100_000 / 160_000)
        assert 20 < clang.bytes_per_bb < 50


class TestGenerator:
    def test_deterministic(self):
        a = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=4)
        b = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=4)
        assert a.num_blocks == b.num_blocks
        assert [m.name for m in a.modules] == [m.name for m in b.modules]
        for ma, mb in zip(a.modules, b.modules):
            for fa, fb in zip(ma.functions, mb.functions):
                assert fa.name == fb.name
                assert fa.num_blocks == fb.num_blocks

    def test_seed_changes_output(self):
        a = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=4)
        b = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=5)
        assert a.num_blocks != b.num_blocks

    def test_verifies(self):
        for preset in ("505.mcf", "531.deepsjeng", "541.leela"):
            program = generate_workload(PRESETS[preset], scale=0.8, seed=1)
            verify_program(program)

    def test_entry_is_main(self):
        program = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=0)
        assert program.entry_function == "main"
        assert program.has_function("main")

    def test_function_count_tracks_scale(self):
        small = generate_workload(PRESETS["clang"], scale=0.001, seed=0)
        large = generate_workload(PRESETS["clang"], scale=0.002, seed=0)
        assert large.num_functions == pytest.approx(2 * small.num_functions, rel=0.1)

    def test_blocks_per_function_tracks_preset(self):
        program = generate_workload(PRESETS["clang"], scale=0.004, seed=2)
        realized = program.num_blocks / program.num_functions
        target = PRESETS["clang"].bbs_per_func
        assert 0.5 * target < realized < 2.2 * target

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_workload(PRESETS["clang"], scale=0)

    def test_preset_by_name(self):
        by_name = generate_workload("505.mcf", scale=1.0, seed=4)
        by_preset = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=4)
        assert ([module_digests(m)[0] for m in by_name.modules]
                == [module_digests(m)[0] for m in by_preset.modules])

    def test_unknown_preset_name_rejected(self):
        with pytest.raises(ValueError, match="unknown preset 'mysqld'.*'mysql'"):
            generate_workload("mysqld")

    def test_features_propagate(self):
        program = generate_workload(PRESETS["spanner"], scale=0.0005, seed=0)
        assert "rseq" in program.features

    def test_call_graph_is_acyclic(self):
        program = generate_workload(PRESETS["505.mcf"], scale=1.0, seed=3)
        graph = {}
        for fn in program.all_functions():
            callees = set()
            for block in fn.blocks:
                for instr in block.instrs:
                    if isinstance(instr, Call):
                        if instr.callee:
                            callees.add(instr.callee)
                        for target, _ in instr.indirect_targets:
                            callees.add(target)
            graph[fn.name] = callees
        state = {}

        def visit(node):
            if state.get(node) == 1:
                raise AssertionError(f"call cycle through {node}")
            if state.get(node) == 2:
                return
            state[node] = 1
            for succ in graph.get(node, ()):
                visit(succ)
            state[node] = 2

        for name in graph:
            visit(name)

    def test_hot_module_fraction_tracks_pct_cold(self):
        program = generate_workload(PRESETS["mysql"], scale=0.003, seed=1)
        # Modules whose functions include a dispatch-reachable hot
        # function: approximated via indirect targets of main.
        main = program.function("main")
        roots = set()
        for block in main.blocks:
            for instr in block.instrs:
                if isinstance(instr, Call):
                    roots.update(t for t, _ in instr.indirect_targets)
        hot_modules = {program.module_of(r).name for r in roots}
        frac = len(hot_modules) / len(program.modules)
        assert frac <= (1.0 - PRESETS["mysql"].pct_cold_objects) + 0.1

    def test_every_preset_generates(self):
        sizes = []
        for preset in ALL_PRESETS:
            program = generate_workload(preset, scale=0.0003, seed=0)
            sizes.append(program.num_functions)
            verify_program(program)
        assert min(sizes) == MIN_FUNCS  # the small presets sit on the floor

    def test_landing_pads_generated_for_exception_heavy_presets(self):
        program = generate_workload(PRESETS["523.xalancbmk"], scale=0.2, seed=1)
        pads = sum(
            1 for fn in program.all_functions() for b in fn.blocks if b.is_landing_pad
        )
        assert pads > 0

    def test_hand_written_functions_for_jumptable_presets(self):
        program = generate_workload(PRESETS["spanner"], scale=0.001, seed=1)
        assert any(fn.hand_written for fn in program.all_functions())
