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
from repro.buildsys.build import ResourceLimitExceeded, _CacheEntry
from repro.core.pipeline import PipelineConfig, PropellerPipeline
from repro.obs import Counters
from repro.runtime import (
    CACHE_DIR_ENV,
    PersistentActionStore,
    resolve_cache_dir,
)


def _compute_pair(a, b):
    """Batch compute fn: (value, cost_seconds, peak_memory)."""
    return a + b, float(a), b


def _quarantined(store: PersistentActionStore) -> int:
    return store.counters.count("store.quarantined")


class TestPersistentStore:
    def test_roundtrip(self, tmp_path):
        store = PersistentActionStore(tmp_path, Counters())
        key = "ab" * 32
        assert store.load(key) is None
        store.store(key, {"answer": 42})
        assert store._path(key).exists()
        assert store.load(key) == {"answer": 42}
        assert list(tmp_path.glob("??/*.pkl")) == [store._path(key)]
        # The store counts integrity events only; its owner counts traffic.
        assert store.counters.snapshot()["counters"] == {}

    def test_rejects_non_digest_keys(self, tmp_path):
        store = PersistentActionStore(tmp_path, Counters())
        with pytest.raises(ValueError):
            store.store("../escape", 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        store = PersistentActionStore(tmp_path, Counters())
        key = "cd" * 32
        store.store(key, [1, 2, 3])
        path = store._path(key)
        path.write_bytes(b"not a pickle")
        assert store.load(key) is None

    def test_resolve_cache_dir_precedence(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(None) is None
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "env"))
        assert resolve_cache_dir(None) == tmp_path / "env"
        assert resolve_cache_dir(tmp_path / "explicit") == tmp_path / "explicit"


class TestActionCacheWithDisk:
    def test_disk_hit_survives_new_cache(self, tmp_path):
        BuildSystem(cache_dir=tmp_path).run_action(
            "t", ["k"], lambda: ("artifact", 2.0, 10))
        # A brand-new build system over the same store sees the entry.
        second = BuildSystem(cache_dir=tmp_path)
        result = second.run_action("t", ["k"], lambda: pytest.fail("recomputed"))
        assert result.cache_hit and result.value == "artifact"
        assert second._entries[result.key] == _CacheEntry("artifact", 2.0, 10)
        count = second.counters.count
        assert count("cache.hits") == 1 and count("cache.disk_hits") == 1


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
        assert batched._entries == single._entries
        assert [(bs.counters.count("cache.hits"), bs.counters.count("cache.misses"))
                for bs in (batched, single)] == [(4, 8), (4, 8)]

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
        store = PersistentActionStore(tmp_path, Counters())
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
        store = pipe.buildsys.store
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
        store = PersistentActionStore(tmp_path, Counters())
        store.store(self.KEY, value)
        return store, store._path(self.KEY)

    def test_truncated_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, list(range(100)))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 5])
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1
        assert not path.exists()  # moved aside, not replayable

    def test_header_only_entry_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, "x")
        from repro.runtime.cache import _MAGIC

        path.write_bytes(_MAGIC)  # magic with no digest/payload
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1

    def test_flipped_payload_bit_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, b"artifact bytes")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0x01
        path.write_bytes(bytes(data))
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1

    def test_legacy_format_is_quarantined_miss(self, tmp_path):
        store, path = self._store_with(tmp_path, 1)
        # A pre-envelope (v1-era) entry: a bare pickle.
        path.write_bytes(pickle.dumps({"old": "format"}))
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1

    def test_verified_but_unpicklable_is_quarantined_miss(self, tmp_path):
        import hashlib

        from repro.runtime.cache import _MAGIC

        store = PersistentActionStore(tmp_path, Counters())
        path = store._path(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = b"this is not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        path.write_bytes(_MAGIC + digest + b"\n" + payload)
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1

    def test_quarantined_file_is_kept_for_inspection(self, tmp_path):
        store, path = self._store_with(tmp_path, 42)
        path.write_bytes(b"garbage")
        store.load(self.KEY)
        moved = list((store.root / "quarantine").iterdir())
        assert len(moved) == 1
        assert moved[0].name.startswith(path.name)

    def test_recompute_overwrites_after_quarantine(self, tmp_path):
        store, path = self._store_with(tmp_path, "old")
        path.write_bytes(b"garbage")
        assert store.load(self.KEY) is None
        store.store(self.KEY, "recomputed")
        assert store.load(self.KEY) == "recomputed"

    def test_quarantine_counter_emitted(self, tmp_path):
        from repro.obs import Counters

        counters = Counters()
        store = PersistentActionStore(tmp_path, counters)
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
        store = PersistentActionStore(tmp_path / "store", Counters())
        store.store(self.KEY, list(range(100)))
        path = store._path(self.KEY)
        bad = corrupt(path.read_bytes())

        path.write_bytes(bad)
        assert store.load(self.KEY) is None
        assert _quarantined(store) == 1
        moved = [f.name for f in (store.root / "quarantine").iterdir()]
        assert moved == [f"{path.name}.{reason}"]

    def test_store_and_envelope_write_the_same_bytes(self, tmp_path):
        from repro.runtime.cache import write_envelope

        store = PersistentActionStore(tmp_path / "store", Counters())
        store.store(self.KEY, {"a": 1})
        write_envelope(tmp_path / "value.artifact", {"a": 1})
        assert store._path(self.KEY).read_bytes() == \
            (tmp_path / "value.artifact").read_bytes() == _sealed(pickle.dumps(
                {"a": 1}, protocol=pickle.HIGHEST_PROTOCOL))
        assert store.load(self.KEY) == {"a": 1}

    def test_parent_written_entry_is_quarantined_and_recomputed(self, tmp_path):
        """``tests/golden/store_entry_v2.pkl`` was written under the
        ``repro-store-v2`` envelope by ``run_action("codegen",
        ["golden-module-digest", "metadata"], ...)``: today's key hasher
        still names it, and today's reader refuses it as another format --
        a quarantined miss, recomputed, never adopted."""
        from pathlib import Path

        from repro.buildsys import action_key

        key = action_key("codegen", "golden-module-digest", "metadata")
        assert key == "9a10c882e479b3afa212391404f55a3de61c22c59e84ce138c3b877f9dfd5895"
        bs = BuildSystem(cache_dir=tmp_path)
        store = bs.store
        path = store._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(
            (Path(__file__).parent / "golden" / "store_entry_v2.pkl").read_bytes())
        result = bs.run_action("codegen", ["golden-module-digest", "metadata"],
                               lambda: (("recomputed", 8), 1.0, 2048))
        assert not result.cache_hit and result.value == ("recomputed", 8)
        assert result.peak_memory == 2048
        assert (_quarantined(store), bs.counters.count("cache.disk_hits")) == (1, 0)
        assert [f.name for f in (store.root / "quarantine").iterdir()] == [f"{path.name}.format"]
        assert store.load(key).value == ("recomputed", 8)


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
        store = PersistentActionStore(tmp, Counters())
        path = store._path(_KEY)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        value = store.load(_KEY)
        assert path.exists() == (_quarantined(store) == 0)
        return value, _quarantined(store)


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
        store = PersistentActionStore(tmp_path, Counters())
        assert store.load(_KEY) is None
        store._path(_KEY).mkdir(parents=True)
        assert store.load(_KEY) is None
        assert store.counters.snapshot()["counters"] == {}


class TestRecordTablesInTheStore:
    """A store entry holds one table per record kind per object, costs
    its bytes to load, and one written in an older layout is refused."""

    def test_parent_object_and_link_entries_are_recomputed(self, tmp_path):
        """``tests/golden/store_object_v2.pkl`` holds the two store
        entries -- ``run_action("codegen", ...)`` of :func:`_golden_module`
        and the ``link`` of its object -- as an older layout wrote them:
        lists of records per section, under the ``repro-store-v2``
        envelope.  Both are quarantined misses, recomputed and never
        adopted, and what is recomputed is the object and executable
        pinned here."""
        from pathlib import Path

        from repro.codegen import CodeGenOptions, compile_module
        from repro.elf.table import Table
        from repro.linker import LinkOptions, link

        entries = pickle.loads(
            (Path(__file__).parent / "golden" / "store_object_v2.pkl").read_bytes())
        assert all(e.startswith(b"repro-store-v2\n") for e in entries.values())
        bs = BuildSystem(cache_dir=tmp_path)
        store = bs.store
        for key, sealed in entries.items():
            store._path(key).parent.mkdir(parents=True, exist_ok=True)
            store._path(key).write_bytes(sealed)

        options = CodeGenOptions(bb_addr_map=True, prefetches={"f": [(1, "g")]})
        compiled = bs.run_action("codegen", ["golden-object-digest", "metadata"],
                                 lambda: (compile_module(_golden_module(), options), 1.0, 1))
        linked = bs.run_action("link", ["golden-link-inputs", "emit-relocs"], lambda: (
            link([compiled.value.obj], LinkOptions(entry_symbol="f", emit_relocs=True)), 1.0, 1))
        assert {compiled.key, linked.key} == set(entries)
        assert not compiled.cache_hit and not linked.cache_hit
        assert (_quarantined(store), bs.counters.count("cache.disk_hits")) == (2, 0)
        assert sorted(f.suffix for f in (store.root / "quarantine").iterdir()) == [".format"] * 2

        obj, exe = compiled.value.obj, linked.value.executable
        assert obj.content_digest() == (
            "49d5fcc2f642f6d5e7ef8abcc10914f0308cc844c849b796db77fec53a3edad0")
        assert exe.content_digest() == (
            "b506bd2695942a34bff3b32b87af0144f9c393912294ed779b032bb84c8ff32a")
        # The recomputed entries replay: tables per record kind, rows by section.
        again = BuildSystem(cache_dir=tmp_path)

        def recompute():
            pytest.fail("recomputed a stored action")

        replayed = again.run_action("codegen", ["golden-object-digest", "metadata"], recompute)
        relinked = again.run_action("link", ["golden-link-inputs", "emit-relocs"], recompute)
        copy = replayed.value.obj
        assert type(copy.blocks) is type(relinked.value.executable.exec_blocks) is Table
        assert copy.content_digest() == obj.content_digest()
        assert [copy.blocks[s.blocks] for s in copy.sections] == [
            obj.blocks[s.blocks] for s in obj.sections]
        assert relinked.value.executable.exec_blocks == exe.exec_blocks

    def test_loading_an_entry_creates_objects_per_section_not_per_block(self):
        """One table per record kind over one pool, for an object file and
        an executable alike: loading a linked entry creates a constant
        number of objects, whatever its sections, symbols and blocks;
        loading a compiled one adds one per section (the slotted
        section) -- nothing per block, nor per table of a section."""
        import enum
        import gc
        import types
        from collections import Counter

        from repro import ir
        from repro.codegen import BBSectionsMode, CodeGenOptions, compile_module
        from repro.linker import LinkOptions, link
        from repro.runtime.cache import _unseal
        from tests.test_linker import _chain_module

        def entries(nblocks, mode):
            functions = [_chain_module(fname=f"f{i}", nblocks=nblocks).functions[0]
                         for i in range(8)]
            compiled = compile_module(ir.Module(name="m", functions=functions),
                                      CodeGenOptions(bb_addr_map=True, bb_sections=mode))
            linked = link([compiled.obj], LinkOptions(entry_symbol="f0"))
            return [_CacheEntry(compiled, 1.0, 1), _CacheEntry(linked, 1.0, 1)]

        def held(root) -> Counter:
            """What ``root`` reaches, by type name (not through classes,
            functions or enum members)."""
            seen, todo, out = {id(root)}, [root], Counter()
            while todo:
                value = todo.pop()
                out[type(value).__name__] += 1
                for ref in gc.get_referents(value):
                    if id(ref) not in seen and not isinstance(
                            ref, (type, types.ModuleType, types.FunctionType, enum.Enum)):
                        seen.add(id(ref))
                        todo.append(ref)
            return out

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

        for mode in (BBSectionsMode.NONE, BBSectionsMode.ALL):
            beyond = set()  # objects created less one per object section, per entry
            for nblocks in (4, 80):
                compiled, linked = (objects_created_by_loading(e) for e in entries(nblocks, mode))
                obj, exe = compiled[1].value.obj, linked[1].value.executable
                assert len(exe.exec_blocks) == len(obj.blocks) == 8 * nblocks
                kinds = held(obj)
                assert (kinds["Table"], kinds["Strings"]) == (4, 1)
                beyond.add((compiled[0] - len(obj.sections), linked[0]))
            # Twenty times the blocks -- and under ALL the sections -- and
            # the same objects beside the sections.
            ((codegen, linking),) = beyond
            assert codegen < 64 and linking < 64
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
        assert (warm.counters.count("cache.disk_hits")
                == cold.counters.count("cache.misses") > 0)
        assert warm.counters.count("cache.misses") == 0
        assert warm.counters.count("store.quarantined") == 0
