"""Appendix experiment: the effect of build caching on relink latency.

The artifact appendix demonstrates Propeller's cached relink on a
single machine.  This bench relinks the same workload against a warm
cache (cold objects replayed) and a cold cache (everything recompiled)
and compares simulated wall time; the warm relink must approach the
link-only floor.
"""

import pytest

from repro.analysis import Table
from repro.buildsys import BuildSystem
from repro.core.pipeline import PropellerPipeline

pytestmark = pytest.mark.slow


def test_ablation_cache_reuse(world_factory):
    world = world_factory("clang")
    warm = world.result.optimized

    # Cold cache: fresh build system, same directives.
    pipe = PropellerPipeline(
        world.result.program, world.result.config,
        buildsys=BuildSystem(workers=world.result.config.workers, enforce_ram=False),
    )
    cold = pipe.relink(world.result.ir_profile, world.result.wpa_result)

    table = Table(
        ["Cache", "backends wall (s)", "link (s)", "total (s)", "cache hits"],
        title="Appendix: relink latency, warm vs cold cache (clang)",
    )
    for label, outcome in (("warm", warm), ("cold", cold)):
        table.add_row(
            label, f"{outcome.backends.wall_seconds:.2f}",
            f"{outcome.link_seconds:.2f}", f"{outcome.wall_seconds:.2f}",
            outcome.backends.cache_hits,
        )
    print()
    print(table)

    assert warm.backends.cache_hits > 0
    assert cold.backends.cache_hits == 0
    assert warm.wall_seconds <= cold.wall_seconds
    assert warm.backends.cpu_seconds < cold.backends.cpu_seconds
