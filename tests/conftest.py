"""Shared fixtures: small deterministic workloads and built artifacts.

Session-scoped so the expensive compile/link/profile work happens once
per test run.

Environment shielding: a developer's exported ``$REPRO_CACHE_DIR``
would give every pipeline under test a shared persistent cache --
warm replays across tests would flip the exact-asserted ``cache.*``
counters and ``store.*`` accounting, and a *stale* user cache could
even replay artifacts from an older code version.  The autouse fixture
below removes the variable for the whole session (it is restored on
exit).  Deliberately **removed, not redirected** to a session tmpdir: a
shared tmpdir would still warm later tests from earlier ones, which is
exactly the cross-test coupling being shielded against.  Tests that
want persistence opt in explicitly with ``monkeypatch.setenv`` or
``PipelineConfig(cache_dir=...)``, both of which layer cleanly on top.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.codegen import CodeGenOptions, compile_program
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.linker import LinkOptions, link
from repro.runtime.cache import CACHE_DIR_ENV
from repro.synth import PRESETS, generate_workload


@pytest.fixture(scope="session", autouse=True)
def _shield_cache_env():
    """Session-wide removal of ``$REPRO_CACHE_DIR`` (see module docstring)."""
    saved = os.environ.pop(CACHE_DIR_ENV, None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ[CACHE_DIR_ENV] = saved


@pytest.fixture(autouse=True)
def _assert_cache_env_shielded(request, _shield_cache_env):
    """Every test starts unshadowed by a stray user cache.

    ``monkeypatch.setenv`` inside a test still works (monkeypatch
    unwinds before this check re-runs for the next test); what this
    catches is a test *leaking* the variable to its successors.
    """
    assert CACHE_DIR_ENV not in os.environ, (
        f"{CACHE_DIR_ENV} leaked into {request.node.nodeid}; a prior test "
        "set it without monkeypatch and broke cache-counter isolation"
    )
    yield


@pytest.fixture(scope="session")
def small_program():
    """A small but structurally complete workload (mcf-shaped)."""
    return generate_workload(PRESETS["505.mcf"], scale=1.0, seed=11)


@pytest.fixture(scope="session")
def tiny_program():
    """The smallest workload that still has hot and cold modules."""
    return generate_workload(PRESETS["531.deepsjeng"], scale=0.3, seed=7)


@pytest.fixture(scope="session")
def small_objects(small_program):
    return compile_program(small_program, CodeGenOptions(bb_addr_map=True))


@pytest.fixture(scope="session")
def small_executable(small_objects):
    result = link([c.obj for c in small_objects], LinkOptions(keep_bb_addr_map=True))
    return result.executable


@pytest.fixture(scope="session")
def pipeline_config():
    return PipelineConfig(
        lbr_branches=120_000,
        lbr_period=31,
        pgo_steps=60_000,
        workers=72,
        enforce_ram=False,
    )


@pytest.fixture(scope="session")
def pipeline_result(small_program, pipeline_config):
    return PropellerPipeline(small_program, pipeline_config).run()


def encode_bb_addr_maps(maps) -> bytes:
    """The ``.llvm_bb_addr_map`` section bytes of ``maps`` (a sequence
    of :class:`repro.elf.bbaddrmap.FunctionMap`), in order, built with
    the product's one encoder, ``encode_maps``."""
    from repro.elf.bbaddrmap import encode_maps

    entries = [e for fmap in maps for e in fmap.entries]
    return b"".join(encode_maps(
        [fmap.func for fmap in maps], [len(fmap.entries) for fmap in maps],
        *([getattr(e, name) for e in entries]
          for name in ("bb_id", "offset", "size", "flags"))))


def section_named(obj, name):
    """The section of ``obj`` called ``name``, or ``None`` (an object file
    keeps its sections as a list, and no index of them by name)."""
    return next((section for section in obj.sections if section.name == name), None)


def sample_records(perf):
    """Each sample of ``perf`` as a tuple of ``(src, dst)`` records,
    oldest first: the inverse of :func:`perf_from_samples`."""
    return [tuple(zip(src.tolist(), dst.tolist())) for src, dst in perf.windows()]


def perf_from_samples(samples, period=0):
    """A ``PerfData`` of ``samples``, each a list of (src, dst) records."""
    from repro.profiles import PerfData

    records = [r for s in samples for r in s]
    return PerfData([s for s, _ in records], [d for _, d in records],
                    np.cumsum([0] + [len(s) for s in samples]), period)


@pytest.fixture
def parent_layout_perf():
    """A ``PerfData`` whose pickled state is the tuple-per-record layout
    (a tuple of records per sample) the class had before it held columns."""
    from repro.profiles import PerfData

    old = PerfData.__new__(PerfData)
    old.__dict__.update(samples=[((0x401000, 0x401020),)],
                        period=31, binary_name="metadata.out")
    return old
