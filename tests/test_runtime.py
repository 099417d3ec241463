"""Tests for the execution layer: batches + the persistent action cache.

The invariant under test throughout is the determinism contract: a
warm persistent cache may change how fast a result is produced, never
what is produced.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.buildsys import BuildSystem
from repro.buildsys.build import ActionCache, ResourceLimitExceeded, _CacheEntry
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.runtime import (
    CACHE_DIR_ENV,
    PersistentActionStore,
    resolve_cache_dir,
)


def _compute_pair(a, b):
    """Batch compute fn: (value, cost_seconds, peak_memory)."""
    return a + b, float(a), b


class TestPersistentStore:
    def test_roundtrip(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        key = "ab" * 32
        assert store.load(key) is None
        store.store(key, {"answer": 42})
        assert key in store
        assert store.load(key) == {"answer": 42}
        assert len(store) == 1

    def test_rejects_non_digest_keys(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        with pytest.raises(ValueError):
            store.store("../escape", 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        key = "cd" * 32
        store.store(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None

    def test_clear(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        store.store("ef" * 32, 1)
        store.clear()
        assert len(store) == 0

    def test_resolve_cache_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


class TestActionCacheWithDisk:
    def test_disk_hit_survives_new_cache(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        first = ActionCache(store=store)
        first.store("11" * 32, _CacheEntry(value="artifact", cost_seconds=2.0, peak_memory=10))
        # A brand-new in-memory cache over the same store sees the entry.
        second = ActionCache(store=store)
        entry = second.lookup("11" * 32)
        assert entry is not None and entry.value == "artifact"
        assert second.stats.hits == 1 and second.stats.disk_hits == 1

    def test_evict_all_clears_disk(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        cache = ActionCache(store=store)
        cache.store("22" * 32, _CacheEntry(value=1, cost_seconds=1.0, peak_memory=0))
        cache.evict_all()
        assert ActionCache(store=store).lookup("22" * 32) is None


class TestRunBatch:
    def _items(self, n):
        return [([f"k{i}"], _compute_pair, (i, i + 1)) for i in range(n)]

    def test_batch_equals_run_action_one_by_one(self):
        batched = BuildSystem(workers=4, enforce_ram=False)
        single = BuildSystem(workers=4, enforce_ram=False)
        # Half the keys are already cached on both sides.
        for bs in (batched, single):
            bs.run_batch("t", self._items(8)[::2])
        got_b = batched.run_batch("t", self._items(8))
        got_s = [single.run_action("t", key_parts, lambda fn=fn, args=args: fn(*args))
                 for key_parts, fn, args in self._items(8)]
        assert got_b == got_s
        assert [r.value for r in got_b] == [2 * i + 1 for i in range(8)]
        assert [r.cache_hit for r in got_b] == [True, False] * 4
        assert [r.cost_seconds for r in got_b[1::2]] == [1.0, 3.0, 5.0, 7.0]
        assert batched.cache._entries == single.cache._entries
        assert (batched.stats.hits, batched.stats.misses) == (
            single.stats.hits, single.stats.misses) == (4, 8)

    def test_run_batch_takes_no_executor(self):
        bs = BuildSystem(workers=4, enforce_ram=False)
        with pytest.raises(TypeError):
            bs.run_batch("t", self._items(2), executor=None)

    def test_second_batch_hits(self):
        bs = BuildSystem(workers=4, enforce_ram=False)
        bs.run_batch("t", self._items(4))
        again = bs.run_batch("t", self._items(4))
        assert all(r.cache_hit for r in again)

    def test_ram_limit_enforced(self):
        bs = BuildSystem(workers=4, ram_limit=5, enforce_ram=True)
        with pytest.raises(ResourceLimitExceeded):
            bs.run_batch("t", [(["big"], _compute_pair, (1, 10))])


@pytest.fixture(scope="module")
def micro_program():
    """Smallest workload that still has several modules and hot functions."""
    from repro.synth import PRESETS, generate_workload

    return generate_workload(PRESETS["531.deepsjeng"], scale=0.15, seed=7)


class TestPipelineDeterminism:
    """Tier-1 smoke of the acceptance invariants (micro workload)."""

    def _config(self, **kw):
        return PipelineConfig(
            seed=7, lbr_branches=24_000, lbr_period=31, pgo_steps=10_000,
            workers=72, enforce_ram=False, **kw,
        )

    def test_warm_cache_same_digest_less_simulated_time(self, micro_program, tmp_path):
        cfg = self._config(cache_dir=str(tmp_path))
        cold = PropellerPipeline(micro_program, cfg).run()
        warm = PropellerPipeline(micro_program, cfg).run()
        assert cold.digest() == warm.digest()
        # Only the recorded wall-clock may change -- and it must drop.
        assert sum(warm.phase_seconds.values()) < sum(cold.phase_seconds.values())
        # Every artifact of the warm run was replayed from disk.
        assert warm.optimized.backends.cache_hits > 0
        # Exactly: each action the cold run executed is one disk replay,
        # and the warm run executes none.
        assert cold.counters.count("cache.misses") > 0
        assert (warm.counters.count("cache.disk_hits")
                == cold.counters.count("cache.misses"))
        assert warm.counters.count("cache.misses") == 0

    def test_parent_layout_perf_entry_is_quarantined_and_recomputed(
            self, micro_program, tmp_path, parent_layout_perf):
        """A stored profile in the tuple-per-record layout is refused when
        it unpickles -- quarantined as ``unpicklable`` and recomputed --
        never replayed half-loaded."""
        from dataclasses import replace

        from repro.profiles import PerfData
        from repro.runtime.cache import write_envelope

        cfg = self._config(cache_dir=str(tmp_path))
        cold = PropellerPipeline(micro_program, cfg).run()
        store = PersistentActionStore(tmp_path)
        (key,) = [p.stem for p in tmp_path.glob("??/*.pkl")
                  if isinstance(getattr(store.load(p.stem), "value", None), PerfData)]
        write_envelope(store._path(key), replace(store.load(key), value=parent_layout_perf))
        warm = PropellerPipeline(micro_program, cfg).run()
        assert warm.counters.count("store.quarantined") == 1
        assert [p.suffix for p in (tmp_path / "quarantine").iterdir()] == [".unpicklable"]
        assert warm.perf.digest() == cold.perf.digest()
        assert warm.digest() == cold.digest()

    def test_cache_dir_env_var(self, micro_program, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        pipe = PropellerPipeline(micro_program, self._config())
        store = pipe.buildsys.cache.persistent_store
        assert store is not None and store.root == tmp_path


def test_cache_entry_pickles():
    entry = _CacheEntry(value=(1, "x"), cost_seconds=0.5, peak_memory=7)
    assert pickle.loads(pickle.dumps(entry)) == entry


# ----------------------------------------------------------------------
# Poisoning defense: every malformed on-disk entry is a quarantined
# miss, never a crash and never a replayed artifact.

class TestStoreQuarantine:
    KEY = "ab" * 32

    def _store_with(self, tmp_path, value):
        store = PersistentActionStore(tmp_path)
        store.store(self.KEY, value)
        return store, store._path(self.KEY)

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, list(range(100)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        assert store.load(self.KEY) is None
        assert store.quarantined == 1
        assert self.KEY not in store  # moved aside, not replayable

    def test_header_only_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, "x")
        from repro.runtime.cache import _MAGIC

        path.write_bytes(_MAGIC)  # magic with no digest/payload
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_flipped_payload_bit_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, b"artifact bytes")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_legacy_format_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, 1)
        # A pre-envelope (v1-era) entry: a bare pickle.
        path.write_bytes(pickle.dumps({"old": "format"}))
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_verified_but_unpicklable_is_quarantined_miss(self, tmp_path):
        import hashlib

        from repro.runtime.cache import _MAGIC

        store = PersistentActionStore(tmp_path)
        path = store._path(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = b"this is not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(_MAGIC + digest + b"\n" + payload)
        assert store.load(self.KEY) is None
        assert store.quarantined == 1

    def test_quarantined_file_is_kept_for_inspection(self, tmp_path):
        store, path = self._store_with(tmp_path, 42)
        path.write_bytes(b"garbage")
        store.load(self.KEY)
        moved = list((store.root / "quarantine").iterdir())
        assert len(moved) == 1
        assert moved[0].name.startswith(path.name)

    def test_quarantine_excluded_from_len_and_clear(self, tmp_path):
        store, path = self._store_with(tmp_path, 42)
        path.write_bytes(b"garbage")
        store.load(self.KEY)
        assert len(store) == 0
        store.clear()  # must not touch the quarantine directory
        assert list((store.root / "quarantine").iterdir())

    def test_recompute_overwrites_after_quarantine(self, tmp_path):
        store, path = self._store_with(tmp_path, "old")
        path.write_bytes(b"garbage")
        assert store.load(self.KEY) is None
        store.store(self.KEY, "recomputed")
        assert store.load(self.KEY) == "recomputed"

    def test_quarantine_counter_emitted(self, tmp_path):
        from repro.obs import Counters

        counters = Counters()
        store = PersistentActionStore(tmp_path, counters=counters)
        store.store(self.KEY, 1)
        store._path(self.KEY).write_bytes(b"garbage")
        store.load(self.KEY)
        assert counters.count("store.quarantined") == 1


# ----------------------------------------------------------------------
# One envelope codec: the store names why bytes are not replayable, and
# the on-disk format is the parent commit's.

def _sealed(payload: bytes) -> bytes:
    import hashlib

    from repro.runtime.cache import _MAGIC

    return _MAGIC + hashlib.sha256(payload).hexdigest().encode("ascii") + b"\n" + payload


#: corruption kind -> (valid envelope bytes -> bad bytes, quarantine suffix);
#: the kinds are TestStoreQuarantine's.
_CORRUPTIONS = {
    "truncated-payload": (lambda data: data[:-5], "digest"),
    "header-only": (lambda data: data[:len(b"repro-store-v2\n")], "truncated"),
    "flipped-payload-bit": (lambda data: data[:-1] + bytes([data[-1] ^ 0x01]), "digest"),
    "legacy-bare-pickle": (lambda data: pickle.dumps({"old": "format"}), "format"),
    "garbage": (lambda data: b"garbage", "format"),
    "verified-but-unpicklable": (lambda data: _sealed(b"this is not a pickle"), "unpicklable"),
}


class TestOneEnvelopeCodec:
    KEY = "ab" * 32

    @pytest.mark.parametrize("kind", sorted(_CORRUPTIONS))
    def test_same_bytes_same_verdict(self, tmp_path, kind):
        corrupt, reason = _CORRUPTIONS[kind]
        store = PersistentActionStore(tmp_path / "store")
        store.store(self.KEY, list(range(100)))
        path = store._path(self.KEY)
        bad = corrupt(path.read_bytes())

        path.write_bytes(bad)
        assert store.load(self.KEY) is None
        assert store.quarantined == 1
        moved = [f.name for f in (store.root / "quarantine").iterdir()]
        assert moved == [f"{path.name}.{reason}"]

    def test_store_and_envelope_write_the_same_bytes(self, tmp_path):
        from repro.runtime.cache import write_envelope

        store = PersistentActionStore(tmp_path / "store")
        store.store(self.KEY, {"a": 1})
        write_envelope(tmp_path / "value.artifact", {"a": 1})
        assert store._path(self.KEY).read_bytes() == \
            (tmp_path / "value.artifact").read_bytes() == _sealed(pickle.dumps(
                {"a": 1}, protocol=pickle.HIGHEST_PROTOCOL))
        assert store.load(self.KEY) == {"a": 1}

    def test_parent_written_entry_still_loads(self, tmp_path):
        """``tests/golden/store_entry_v2.pkl`` was written by the commit
        before the codec was unified, by ``run_action("codegen",
        ["golden-module-digest", "metadata"], ...)``: today's key hasher
        must name it and today's reader must replay it."""
        from pathlib import Path

        from repro.buildsys import action_key

        key = action_key("codegen", "golden-module-digest", "metadata")
        assert key == "9a10c882e479b3afa212391404f55a3de61c22c59e84ce138c3b877f9dfd5895"
        bs = BuildSystem(cache_dir=tmp_path)
        store = bs.cache.persistent_store
        path = store._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            (Path(__file__).parent / "golden" / "store_entry_v2.pkl").read_bytes())
        result = bs.run_action("codegen", ["golden-module-digest", "metadata"],
                               lambda: pytest.fail("recomputed a stored action"))
        assert result.cache_hit and result.value == ("object-bytes", 7)
        assert result.peak_memory == 4096
        assert (store.quarantined, bs.stats.disk_hits) == (0, 1)


def _golden_module():
    """The two-function module ``tests/golden/store_object_v2.pkl`` was
    compiled from: every terminator kind but trap, a direct and an
    indirect call, a jump table, a prefetch."""
    from repro import ir

    f = ir.Function(name="f", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU8), ir.Call(callee="g")],
                      term=ir.CondBr(taken=2, fallthrough=1, prob=0.2)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.LOAD),
                                       ir.Call(indirect_targets=(("g", 0.75), ("f", 0.25)))],
                      term=ir.Jump(3)),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.MOV)],
                      term=ir.Switch(targets=(1, 3), probs=(0.4, 0.6))),
        ir.BasicBlock(bb_id=3, instrs=[ir.Instr(ir.OpKind.CMP)], term=ir.Ret()),
    ])
    g = ir.Function(name="g", blocks=[
        ir.BasicBlock(bb_id=0, instrs=[ir.Instr(ir.OpKind.ALU32)],
                      term=ir.CondBr(taken=1, fallthrough=2, prob=0.5)),
        ir.BasicBlock(bb_id=1, instrs=[ir.Instr(ir.OpKind.NOP)], term=ir.Jump(2)),
        ir.BasicBlock(bb_id=2, instrs=[ir.Instr(ir.OpKind.STORE)], term=ir.Ret()),
    ])
    return ir.Module(name="golden", functions=[f, g])


_KEY = "cd" * 32


def _read(data: bytes):
    """``PersistentActionStore.load`` of ``data`` stored as one entry of
    a fresh store: ``(value, quarantined)``."""
    with tempfile.TemporaryDirectory() as tmp:
        store = PersistentActionStore(tmp)
        path = store._path(_KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        value = store.load(_KEY)
        assert path.exists() == (store.quarantined == 0)
        return value, store.quarantined


_VALUES = st.recursive(st.none() | st.integers() | st.text(max_size=8),
                       lambda inner: st.lists(inner, max_size=4), max_leaves=8)


class TestReadEnvelopeFuzz:
    """Whatever the bytes, the store's ``load`` returns the sealed value,
    or quarantines the entry and reports a miss -- it never raises."""

    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=120) | _VALUES.map(lambda v: _sealed(
        pickle.dumps(v))[:-1]) | st.binary(max_size=60).map(_sealed))
    def test_arbitrary_bytes(self, data):
        value, quarantined = _read(data)
        assert value is None or not quarantined

    @settings(max_examples=100, deadline=None)
    @given(_VALUES, st.data())
    def test_truncations_and_single_byte_flips(self, value, data):
        sealed = _sealed(pickle.dumps(value))
        assert _read(sealed) == (value, 0)
        cut = data.draw(st.integers(0, len(sealed) - 1))
        assert _read(sealed[:cut]) == (None, 1)
        at = data.draw(st.integers(0, len(sealed) - 1))
        flip = data.draw(st.integers(1, 255))
        flipped = sealed[:at] + bytes([sealed[at] ^ flip]) + sealed[at + 1:]
        assert _read(flipped) == (None, 1)

    def test_unreadable_paths_are_misses(self, tmp_path):
        store = PersistentActionStore(tmp_path)
        assert store.load(_KEY) is None
        store._path(_KEY).mkdir(parents=True)
        assert store.load(_KEY) is None
        assert (store.loads, store.quarantined) == (0, 0)


class TestRecordTablesInTheStore:
    """A store entry holds tables, costs its bytes to load, and one
    written when the same fields were lists of records still replays."""

    def test_parent_written_object_and_link_entries_replay_as_tables(self, tmp_path):
        """``tests/golden/store_object_v2.pkl`` holds the two store
        entries -- ``run_action("codegen", ...)`` of :func:`_golden_module`
        and the ``link`` of its object -- as the commit before the record
        tables wrote them: lists of records, ``_by_name`` and
        ``_blocks_by_addr`` pickled along."""
        from pathlib import Path

        from repro.codegen import CodeGenOptions, compile_module
        from repro.elf.table import Table
        from repro.linker import LinkOptions, link

        entries = pickle.loads(
            (Path(__file__).parent / "golden" / "store_object_v2.pkl").read_bytes())
        assert all(b"_blocks_by_addr" in e or b"_by_name" in e for e in entries.values())
        bs = BuildSystem(cache_dir=tmp_path)
        store = bs.cache.persistent_store
        for key, sealed in entries.items():
            store._path(key).parent.mkdir(parents=True, exist_ok=True)
            store._path(key).write_bytes(sealed)

        def recompute():
            pytest.fail("recomputed a stored action")

        compiled = bs.run_action("codegen", ["golden-object-digest", "metadata"], recompute)
        linked = bs.run_action("link", ["golden-link-inputs", "emit-relocs"], recompute)
        assert {compiled.key, linked.key} == set(entries)
        assert (store.quarantined, bs.stats.disk_hits) == (0, 2)

        fresh = compile_module(_golden_module(), CodeGenOptions(
            bb_addr_map=True, prefetches={"f": [(1, "g")]})).obj
        relinked = link([fresh], LinkOptions(entry_symbol="f", emit_relocs=True)).executable
        obj, exe = compiled.value.obj, linked.value.executable
        assert obj.content_digest() == fresh.content_digest() == (
            "49d5fcc2f642f6d5e7ef8abcc10914f0308cc844c849b796db77fec53a3edad0")
        assert exe.content_digest() == relinked.content_digest() == (
            "b506bd2695942a34bff3b32b87af0144f9c393912294ed779b032bb84c8ff32a")
        # Tables in every field, holding the records a fresh build holds.
        assert type(obj.symbols) is type(exe.exec_blocks) is Table
        assert obj.symbols == fresh.symbols and exe.exec_blocks == relinked.exec_blocks
        for section, twin in zip(obj.sections, fresh.sections):
            for field in ("blocks", "branch_fixups", "relocations"):
                assert type(getattr(section, field)) is Table
                assert getattr(section, field) == getattr(twin, field)
        assert any(len(s.blocks) and len(s.branch_fixups) for s in obj.sections)
        # The derived indexes the entry carried are rebuilt or gone, not adopted.
        assert "_blocks_by_addr" not in vars(exe) and obj.section(".text.f") is obj.sections[0]
        assert link([obj], LinkOptions(entry_symbol="f", emit_relocs=True)
                    ).executable.content_digest() == exe.content_digest()

    def test_loading_an_entry_creates_objects_per_section_not_per_block(self):
        import gc

        from repro import ir
        from repro.codegen import CodeGenOptions, compile_module
        from repro.linker import LinkOptions, link
        from repro.runtime.cache import _unseal
        from tests.test_linker import _chain_module

        def entries(nblocks):
            functions = [_chain_module(fname=f"f{i}", nblocks=nblocks).functions[0]
                         for i in range(8)]
            compiled = compile_module(ir.Module(name="m", functions=functions),
                                      CodeGenOptions(bb_addr_map=True))
            linked = link([compiled.obj], LinkOptions(entry_symbol="f0"))
            return [_CacheEntry(compiled, 1.0, 1), _CacheEntry(linked, 1.0, 1)]

        def objects_created_by_loading(entry):
            sealed = _sealed(pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL))
            gc.collect()
            gc.disable()
            try:
                before = len(gc.get_objects())
                value, reason = _unseal(sealed)
                created = len(gc.get_objects()) - before
            finally:
                gc.enable()
            assert reason is None
            return created, value

        small = [objects_created_by_loading(e) for e in entries(nblocks=4)]
        large = [objects_created_by_loading(e) for e in entries(nblocks=80)]
        assert large[0][1].value.num_blocks == 8 * 80 >= 500
        assert len(large[1][1].value.executable.exec_blocks) == 8 * 80
        sections = len(large[0][1].value.obj.sections)
        for (few, _), (many, _) in zip(small, large):
            # Twenty times the blocks, the same objects: columns, not records.
            assert many == few
            assert many < 60 * sections

    def test_a_warm_run_materialises_no_block_record(self, tiny_program, tmp_path, monkeypatch):
        from repro.elf import BlockMeta

        cfg = PipelineConfig(lbr_branches=20_000, pgo_steps=10_000, enforce_ram=False,
                             cache_dir=str(tmp_path / "cache"))
        cold = PropellerPipeline(tiny_program, cfg)
        first = cold.run()
        built = []
        init = BlockMeta.__init__
        monkeypatch.setattr(BlockMeta, "__init__",
                            lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
        warm = PropellerPipeline(tiny_program, cfg)
        second = warm.run()
        assert second.digest() == first.digest()
        assert built == []
        assert warm.buildsys.stats.disk_hits == cold.buildsys.stats.misses > 0
        assert warm.buildsys.stats.misses == 0
        assert warm.buildsys.cache.persistent_store.quarantined == 0
