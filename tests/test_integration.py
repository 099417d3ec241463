"""End-to-end shape tests: the paper's headline claims on one workload.

These run the complete system -- generator, PGO baseline, metadata
build, LBR profiling, WPA, relink, BOLT, hardware model -- and assert
the *relative* results the paper reports, not absolute numbers.
"""

import pytest

from repro.core.pipeline import PipelineConfig
from repro.core.wpa import WPAOptions, analyze
from repro.profiles import generate_trace
from repro.synth import PRESETS
from tests.paper.world import make_world

pytestmark = [pytest.mark.slow, pytest.mark.integration]


@pytest.fixture(scope="module")
def world():
    """The paper suite's world builder on a smaller clang (same
    binaries and trace budget this module has always asserted on)."""
    config = PipelineConfig(
        lbr_branches=300_000, lbr_period=31, pgo_steps=120_000,
        workers=72, enforce_ram=False,
    )
    built = make_world(PRESETS["clang"], 0.004, config, perf_blocks=250_000)
    assert built.bolt is not None, built.bolt_error
    return built


@pytest.fixture(scope="module")
def counters(world):
    return {name: world.counters(name) for name in ("base", "prop", "bolt")}


class TestPerformanceShape:
    def test_propeller_beats_baseline(self, counters):
        assert counters["prop"].cycles < counters["base"].cycles

    def test_bolt_beats_baseline(self, counters):
        assert counters["bolt"].cycles < counters["base"].cycles

    def test_improvements_in_paper_band(self, counters):
        """Table 3: gains between ~1% and ~10% over PGO+ThinLTO."""
        for name in ("prop", "bolt"):
            gain = counters["base"].cycles / counters[name].cycles - 1
            assert 0.0 < gain < 0.25, f"{name}: {gain:.3f}"

    def test_itlb_misses_drop_sharply(self, counters):
        """Fig 8: iTLB misses drop by double-digit percentages."""
        for name in ("prop", "bolt"):
            assert counters[name].itlb_miss < 0.88 * counters["base"].itlb_miss

    def test_icache_misses_do_not_regress(self, counters):
        for name in ("prop", "bolt"):
            assert counters[name].l1i_miss <= 1.02 * counters["base"].l1i_miss


class TestMemoryShape:
    def test_wpa_memory_far_below_perf2bolt(self, world):
        """Fig 4: Propeller's profile conversion is several times cheaper."""
        wpa_peak = world.result.wpa_result.stats.peak_memory_bytes
        assert wpa_peak * 3 < world.perf2bolt_result.peak_memory_bytes

    def test_relink_memory_close_to_baseline_link(self, world):
        """Fig 5: relink memory ~ baseline link memory."""
        base_mem = world.result.baseline.link_stats.peak_memory_bytes
        prop_mem = world.result.optimized.link_stats.peak_memory_bytes
        assert prop_mem < 1.25 * base_mem

    def test_bolt_memory_exceeds_link(self, world):
        assert (world.bolt.stats.peak_memory_bytes
                > world.result.baseline.link_stats.peak_memory_bytes)


class TestSizeShape:
    def test_size_bands(self, world):
        """Fig 6: PM +7-9%, PO ~+1%, BM +20-60%, BO +30%+."""
        result, bm, bolt = world.result, world.bolt_metadata, world.bolt
        base = result.baseline.executable.total_size
        assert 1.03 < result.metadata.executable.total_size / base < 1.15
        assert result.optimized.executable.total_size / base < 1.05
        assert 1.15 < bm.executable.total_size / base < 1.8
        assert bolt.stats.output_size / base > 1.3


class TestBuildTimeShape:
    def test_relink_faster_than_full_build(self, world):
        """Fig 9 (warehouse side): Phase 4 reuses cached cold objects, so
        backend time is below the full build's."""
        assert (
            world.result.optimized.backends.cpu_seconds
            < world.result.baseline.backends.cpu_seconds
        )

    def test_cache_hit_dominates_cold_modules(self, world):
        assert world.result.optimized.cold_cache_hits > 0


class TestInterprocedural:
    def test_interproc_layout_links_and_runs(self, world):
        """§4.7: inter-procedural layout produces a working binary."""
        pipe, result = world.pipeline, world.result
        wpa = analyze(
            result.metadata.executable, result.perf, WPAOptions(interproc=True)
        )
        outcome = pipe.relink(result.ir_profile, wpa)
        trace = generate_trace(outcome.executable, max_blocks=50_000, seed=5)
        assert trace.num_blocks_executed == 50_000
        # Multi-cluster functions exist (a function split across >2 sections).
        assert any(len(clusters) > 1 for clusters in wpa.clusters.values())
