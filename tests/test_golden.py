"""Golden-file regression tests for the layout-critical encodings.

These pin the exact ExtTSP cluster order and the exact BB-address-map
byte encoding produced for one fixed-seed synthetic program, every
object of both codegen batches and each of its tables, a degraded run's
report and the bench suite's scorecard.  Unlike the shape tests, any change to the layout
algorithm, the metadata encoding or a tracked metric -- intended or
not, better or worse -- shows up here as a reviewable diff.

To regenerate after an intended change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest -m "" tests/test_golden.py

and commit the updated files under ``tests/golden/``.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import textwrap
from array import array
from pathlib import Path

import pytest

from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.elf import SectionKind
from repro.elf.table import layout_of
from repro.obs import bench_json, run_suite
from repro.synth import PRESETS, generate_workload

GOLDEN_DIR = Path(__file__).parent / "golden"
REGEN = bool(os.environ.get("REPRO_REGEN_GOLDEN", "").strip())

#: Everything below is pinned to this exact workload and configuration;
#: changing either is a golden-file regeneration, not a test fix.
SEED = 7
PRESET = "531.deepsjeng"
SCALE = 0.3


@pytest.fixture(scope="module")
def golden_pipeline():
    program = generate_workload(PRESETS[PRESET], scale=SCALE, seed=SEED)
    config = PipelineConfig(
        seed=SEED, lbr_branches=60_000, lbr_period=31, pgo_steps=30_000,
        workers=72, enforce_ram=False,
    )
    return PropellerPipeline(program, config).run()


def _check(name: str, produced: str) -> None:
    path = GOLDEN_DIR / name
    if REGEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(produced)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with REPRO_REGEN_GOLDEN=1 to create it"
    )
    expected = path.read_text()
    assert produced == expected, (
        f"{name} drifted from the golden file; if the change is intended, "
        f"regenerate with REPRO_REGEN_GOLDEN=1 and review the diff"
    )


class TestGolden:
    def test_exttsp_cluster_order(self, golden_pipeline):
        """The per-function cluster orders WPA computed via ExtTSP."""
        clusters = golden_pipeline.wpa_result.clusters
        lines = [
            f"{fn} " + "|".join(",".join(map(str, c)) for c in clusters[fn])
            for fn in sorted(clusters)
        ]
        _check("exttsp_clusters.txt", "\n".join(lines) + "\n")

    def test_symbol_order(self, golden_pipeline):
        """The global symbol order fed to the relink."""
        order = golden_pipeline.wpa_result.symbol_order
        _check("symbol_order.txt", "\n".join(order) + "\n")

    def test_bbaddrmap_encoding(self, golden_pipeline):
        """The exact bytes of the metadata binary's BB address map."""
        raw = golden_pipeline.metadata.executable.section_bytes(SectionKind.BB_ADDR_MAP)
        assert raw, "metadata binary lost its BB address map section"
        _check("bbaddrmap.hex", "\n".join(textwrap.wrap(raw.hex(), 64)) + "\n")


#: The benchmark's programs, small: ``(preset, scale)`` at shape and profile seed 1.
OBJECT_CASES = (("mysql", 0.003), ("clang", 0.002), ("505.mcf", 0.2))


@pytest.fixture(scope="module")
def object_batches():
    """``{"preset@scale": {batch: objects}}``: every object the metadata
    build and Phase 4 compile, for each of ``OBJECT_CASES``."""
    batches = {}
    for preset, scale in OBJECT_CASES:
        program = generate_workload(PRESETS[preset], scale=scale, seed=1)
        result = PropellerPipeline(program, PipelineConfig(
            seed=1, lbr_branches=20_000, pgo_steps=10_000, enforce_ram=False)).run()
        batches[f"{preset}@{scale}"] = {
            batch: getattr(result, batch).objects for batch in ("metadata", "optimized")}
    return batches


def _table_digest(table) -> str:
    """SHA-256 over a table's pool names, in order, and every column's
    bytes (little-endian), in layout order."""
    h = hashlib.sha256(json.dumps(table.strings.names).encode())
    for leaf in layout_of(table.record).leaves:
        column = array(leaf.code, table.col(leaf.path))
        if sys.byteorder == "big":
            column.byteswap()
        h.update(f"\0{leaf.path}:{len(column)}:".encode())
        h.update(column.tobytes())
    return h.hexdigest()


class TestObjectDigests:
    def test_every_object_of_both_codegen_batches(self, object_batches):
        """``content_digest()`` of every object of both codegen batches: a
        lowering change that moves one byte, relocation or symbol of any
        object shows up here.  It omits blocks and fixups (see its
        docstring); :meth:`test_every_table_of_every_object` pins those."""
        digests = {case: {batch: {obj.name: obj.content_digest() for obj in objects}
                          for batch, objects in batches.items()}
                   for case, batches in object_batches.items()}
        _check("object_digests.json", json.dumps(digests, indent=1, sort_keys=True) + "\n")

    def test_every_table_of_every_object(self, object_batches):
        """One digest per table of every object of both codegen batches:
        a moved row, a changed column or a name interned in another order
        in any of ``symbols``, ``relocations``, ``blocks`` or ``fixups``
        shows up here."""
        digests = {case: {batch: {obj.name: {name: _table_digest(getattr(obj, name)) for name in
                                             ("symbols", "relocations", "blocks", "fixups")}
                                  for obj in objects}
                          for batch, objects in batches.items()}
                   for case, batches in object_batches.items()}
        _check("object_tables.json", json.dumps(digests, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def degraded_pipeline():
    """The golden workload with hardware-profile collection starved."""
    program = generate_workload(PRESETS[PRESET], scale=SCALE, seed=SEED)
    config = PipelineConfig(
        seed=SEED, lbr_branches=60_000, lbr_period=31, pgo_steps=30_000,
        workers=72, enforce_ram=False,
        fault_plan="fail=1,only=profile-lbr,seed=7",
    )
    return PropellerPipeline(program, config).run()


class TestDegradedReportGolden:
    """Pins the exact JSON a degraded run reports (schema v1, additive).

    This is the contract downstream dashboards parse: the ``degraded``
    flag, its reasons, the ``faults.*``/``retry.*`` counters and the
    fallback build accounting.  Any drift -- a renamed counter, a
    reason string change, a field that stopped serializing -- shows up
    here as a reviewable diff, exactly like the layout goldens above.
    """

    def test_degraded_report_json(self, degraded_pipeline):
        report = degraded_pipeline.report()
        assert report.degraded, "fixture no longer degrades; golden is stale"
        _check("degraded_report.json",
               json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n")


@pytest.mark.slow
class TestBenchGolden:
    """The bench suite's 16 rows, every metric exact: the scorecard is
    the text ``python -m repro.tools bench --out`` writes (~100 s)."""

    def test_bench_smoke(self):
        _check("bench_smoke.json", bench_json(run_suite()))
