"""Content-addressed action execution: the distributed build's cache.

The paper's build environment (§2.1) executes every compiler and linker
invocation as an *action* on a remote worker pool, keyed by the content
digest of its inputs.  Two properties of that system carry the whole
scalability argument:

* **Action caching.**  An action whose key was seen before is never
  re-executed; its outputs are fetched from the content-addressed store
  at a small fixed cost (:data:`CACHE_HIT_SECONDS`).  Phase 4's cheap
  relink (Fig. 9, Table 5) is exactly this: cold objects replay their
  Phase-2 action, only hot modules pay for a real backend run.
* **Per-action resource limits.**  Remote workers are multi-tenant, so
  each action must fit a fixed RAM budget (12 GB in the paper, §3.5).
  Propeller's per-module actions fit; a monolithic BOLT-style
  whole-binary rewrite does not and is rejected
  (:class:`ResourceLimitExceeded`) -- it can only run on a dedicated
  workstation outside the trusted build environment (§5.8).

Costs are simulated seconds supplied by each action's ``compute``
callable; nothing here consults the real clock.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.faults import FaultPlan, RetriesExhausted
from repro.obs import Counters
from repro.runtime import PersistentActionStore

#: Simulated cost of replaying a cached action: fetching the stored
#: outputs from the content-addressed store instead of re-executing.
#: Small relative to any real backend run (compare the pipeline's
#: ``CODEGEN_FIXED_SECONDS``), which is what makes warm relinks cheap.
CACHE_HIT_SECONDS = 0.05


def digest_parts(parts: Iterable[str]) -> str:
    """SHA-256 over ``parts``, each length-prefixed before hashing so
    the digest is injective over part *boundaries*:
    ``digest_parts(["a", "b"]) != digest_parts(["ab"])``.

    The one hasher behind :func:`action_key` and every option
    signature that feeds a key.
    """
    h = hashlib.sha256()
    for part in parts:
        data = str(part).encode("utf-8")
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def action_key(kind: str, *parts: str) -> str:
    """Stable content-addressed key for an action.

    The ``kind`` (mnemonic: which tool runs -- ``codegen``, ``link``,
    ``llvm-bolt``) is part of the key, so two tools reading the same
    inputs never collide:
    ``action_key("k", "a", "b") != action_key("k", "ab")``.
    """
    return digest_parts((kind, *parts))


class ResourceLimitExceeded(Exception):
    """A remote action's modelled peak memory exceeds the worker budget.

    Carries the sizes so callers (and Table 5 / §5.8 narratives) can
    report how far over budget the action was.
    """

    def __init__(self, kind: str, needed: int, limit: int):
        self.kind = kind
        self.needed = needed
        self.limit = limit
        super().__init__(
            f"action '{kind}' needs {needed} bytes of RAM but remote "
            f"workers are limited to {limit} bytes per action"
        )


@dataclass(frozen=True)
class ActionResult:
    """One executed (or replayed) action, as seen by the caller."""

    #: The action's output artifact (e.g. a ``CompiledObject``).
    value: Any
    #: Simulated seconds this execution cost -- the real compute cost
    #: on a miss, :data:`CACHE_HIT_SECONDS` on a hit.
    cost_seconds: float
    #: Modelled peak RAM of the action that produced the artifact.
    peak_memory: int
    #: Whether the result was replayed from the action cache.
    cache_hit: bool
    #: The content-addressed key (see :func:`action_key`).
    key: str


@dataclass(frozen=True)
class _CacheEntry:
    value: Any
    cost_seconds: float
    peak_memory: int


class BuildSystem:
    """The distributed build: action cache + worker pool + resource policy.

    Completed actions are kept in a content-addressed cache: a dict in
    process memory and, with ``cache_dir``, a
    :class:`~repro.runtime.PersistentActionStore` beneath it.  A key
    missing from memory is then looked up on disk, and every stored
    entry is also written through to disk, so later *processes* replay
    this run's actions the way later *phases* replay earlier ones.
    Disk hits are digest-verified by the store: an unreadable,
    truncated or poisoned entry is quarantined and degrades to a miss,
    so cache poisoning can cost a recompute but never changes an
    artifact.  Every lookup is counted once, on :attr:`counters`
    (``cache.hits`` / ``cache.misses`` / ``cache.disk_hits``), and so is
    the action store's traffic (``store.loads`` / ``store.stores``).

    :param workers: size of the remote worker pool the makespan model
        divides work across.  72 models the paper's workstation
        comparison point; production pools are effectively unbounded
        (the pipeline defaults to 1000).
    :param ram_limit: per-action RAM budget on remote workers (the
        paper's environment enforces 12 GB, §3.5).
    :param enforce_ram: when False, model a dedicated workstation with
        no per-action budget (how the paper runs BOLT at all, §5.8).
    :param cache_dir: when given, back the action cache with a
        persistent on-disk store rooted there, so a later process with
        identical action inputs replays this run's outputs.  ``None``
        (the default) keeps the cache in-memory only.
    :param fault_plan: when given, executed actions are subject to the
        plan's deterministic failure/timeout schedule (see
        :mod:`repro.faults`): faulted attempts are retried with
        exponential backoff up to the fixed retry budget, the
        wasted simulated time lands on the action's ``cost_seconds``,
        and an action whose whole budget faults raises
        :class:`~repro.faults.RetriesExhausted`.  Artifacts and cache
        state are plan-invariant by construction -- the compute runs
        once and the cache stores the clean cost.
    """

    def __init__(
        self,
        workers: int = 72,
        ram_limit: int = 12 << 30,
        enforce_ram: bool = True,
        cache_dir: "Optional[str | os.PathLike]" = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.ram_limit = ram_limit
        self.enforce_ram = enforce_ram
        self.counters = Counters()
        self.fault_plan = fault_plan
        self._entries: Dict[str, _CacheEntry] = {}
        self.store = (
            PersistentActionStore(cache_dir, self.counters)
            if cache_dir is not None else None
        )

    def run_action(
        self,
        kind: str,
        key_parts: Iterable[str],
        compute: Callable[[], Tuple[Any, float, int]],
        remote: bool = True,
    ) -> ActionResult:
        """Execute one action through the cache.

        ``compute`` returns ``(value, cost_seconds, peak_memory)`` and
        runs only on a cache miss.  Remote actions (the default) are
        subject to the per-action RAM budget; ``remote=False`` models a
        step pinned to the submitting machine (e.g. the final link on
        a beefy dedicated host), which bypasses it.
        """
        items = [(key_parts, compute, ())]
        keys, entries = self._lookup(kind, items)
        return self._run(kind, items, keys, entries, remote)[0]

    def run_batch(
        self,
        kind: str,
        items: "Sequence[Tuple[Sequence[str], Callable[..., Tuple[Any, float, int]], tuple]]",
    ) -> List[ActionResult]:
        """Execute a batch of independent same-kind actions through the
        cache.

        Each item is ``(key_parts, fn, args)`` where ``fn(*args)``
        returns the usual ``(value, cost_seconds, peak_memory)`` triple
        and must be pure.  A batch runs remotely, under the per-action
        RAM budget.  Every key is looked up before any miss is
        computed, and results are returned in item order: a batch of
        distinct keys equals the same items through :meth:`run_action`
        one by one (values, costs, keys, cache state), plus the
        ``executor.*`` batch counters.
        """
        keys, entries = self._lookup(kind, items)
        # Counted between lookup and compute, so a batch that goes on
        # to raise (RAM rejection, exhausted retries) is still counted.
        misses = entries.count(None)
        self.counters.incr("executor.batches")
        self.counters.incr("executor.batch_tasks", len(items))
        self.counters.incr("executor.batch_misses", misses)
        self.counters.max_gauge("executor.max_queue_depth", misses)
        return self._run(kind, items, keys, entries, remote=True)

    def _lookup(self, kind: str, items) -> "Tuple[List[str], List[Optional[_CacheEntry]]]":
        """Keys and cached entries (``None`` = miss) of ``items``, looked
        up serially in item order: memory first, then the disk store."""
        keys = [action_key(kind, *key_parts) for key_parts, _fn, _args in items]
        entries: List[Optional[_CacheEntry]] = []
        for key in keys:
            entry = self._entries.get(key)
            if entry is None and self.store is not None:
                disk = self.store.load(key)
                if disk is not None:
                    self.counters.incr("store.loads")
                if isinstance(disk, _CacheEntry):
                    self._entries[key] = disk
                    self.counters.incr("cache.disk_hits")
                    entry = disk
            self.counters.incr("cache.misses" if entry is None else "cache.hits")
            entries.append(entry)
        return keys, entries

    def _run(self, kind: str, items, keys: List[str],
             entries: "List[Optional[_CacheEntry]]",
             remote: bool) -> List[ActionResult]:
        """The miss path, written once: compute every looked-up miss,
        then in item order check the RAM budget, charge faults and
        store -- and wrap every item, hit or executed, as an
        :class:`ActionResult`.
        """
        miss_idx = [i for i, entry in enumerate(entries) if entry is None]
        computed = [fn(*args) for (_key_parts, fn, args), entry in zip(items, entries)
                    if entry is None]
        charged: Dict[int, float] = {}
        for i, (value, cost_seconds, peak_memory) in zip(miss_idx, computed):
            if remote and self.enforce_ram and peak_memory > self.ram_limit:
                self.counters.incr("ram.rejections")
                raise ResourceLimitExceeded(kind, needed=peak_memory, limit=self.ram_limit)
            # Faults inflate the executed cost; the cache stores the
            # clean cost so a warm replay of a once-faulted action is
            # unaffected.  Charges are drawn per action *digest*, never
            # per schedule slot.  Cache hits never come here: faults
            # model remote *execution*, and the disk store's own digest
            # verification covers the fetch-integrity side.
            charged[i] = cost_seconds
            if self.fault_plan is not None:
                ledger = self.fault_plan.charge(kind, keys[i], cost_seconds, self.counters)
                if not ledger.ok:
                    raise RetriesExhausted(kind=kind, key=keys[i],
                                           attempts=ledger.attempts,
                                           events=ledger.events)
                charged[i] = ledger.seconds
            entries[i] = _CacheEntry(
                value=value, cost_seconds=cost_seconds, peak_memory=peak_memory
            )
            self._entries[keys[i]] = entries[i]
            if self.store is not None:
                self.store.store(keys[i], entries[i])
                self.counters.incr("store.stores")
        return [
            ActionResult(
                value=entry.value,
                cost_seconds=charged.get(i, CACHE_HIT_SECONDS),
                peak_memory=entry.peak_memory,
                cache_hit=i not in charged,
                key=keys[i],
            )
            for i, entry in enumerate(entries)
        ]

    def schedule(self, actions: "Iterable[ActionResult]") -> "PhaseReport":
        """Makespan of one build phase over this system's worker pool.

        See :func:`repro.buildsys.scheduler.schedule_phase`.
        """
        from repro.buildsys.scheduler import schedule_phase

        return schedule_phase(actions, workers=self.workers, counters=self.counters)
