"""Property tests for the execution-layer determinism contract.

Over generated workloads and seeds: a warm persistent cache changes
nothing except the recorded phase wall-clock.  These run full
pipelines, so the whole module lives in the slow tier; the fixed-seed
smoke version in ``test_runtime.py`` covers tier 1.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.synth import PRESETS, generate_workload

pytestmark = pytest.mark.slow

_presets = st.sampled_from(["531.deepsjeng", "505.mcf", "557.xz"])
_seeds = st.integers(min_value=0, max_value=2**16)


def _run(program, seed, cache_dir=None):
    config = PipelineConfig(
        seed=seed, lbr_branches=30_000, lbr_period=31, pgo_steps=15_000,
        workers=72, enforce_ram=False,
        cache_dir=str(cache_dir) if cache_dir else None,
    )
    return PropellerPipeline(program, config).run()


class TestDeterminismProperties:
    @settings(max_examples=5, deadline=None)
    @given(preset=_presets, seed=_seeds)
    def test_warm_cache_only_changes_wall_clock(self, preset, seed, tmp_path_factory):
        cache = tmp_path_factory.mktemp("action-cache")
        program = generate_workload(PRESETS[preset], scale=0.2, seed=seed)
        cold = _run(program, seed, cache_dir=cache)
        warm = _run(program, seed, cache_dir=cache)
        assert cold.digest() == warm.digest()
        assert warm.wpa_result.symbol_order == cold.wpa_result.symbol_order
        assert sum(warm.phase_seconds.values()) < sum(cold.phase_seconds.values())
