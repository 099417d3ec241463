"""Digest-keyed on-disk store of action outputs.

The simulator's :class:`repro.buildsys.ActionCache` models the paper's
remote content-addressed store, but only in memory: every new process
starts cold and pays full (real) compute for every backend action.
This store is the persistence layer beneath it.  Entries are pickles
keyed by the action's content digest, fanned into 256 two-hex-digit
subdirectories, written atomically (temp file + rename) so concurrent
runs sharing a cache directory never observe torn entries.

Keys are produced by :func:`repro.buildsys.action_key` and therefore
already cover *all* inputs of an action -- module digest, option
signature, profile digest -- so a stored artifact can be replayed by
any later run with identical inputs, and only such a run.

**Poisoning defense.**  The *key* names an action's inputs; nothing
about it proves the stored *payload* is the output that action really
produced.  A half-written file on a non-atomic filesystem, bit rot, or
a corrupted transfer into a shared cache directory would otherwise be
replayed as truth into every later build.  Entries are therefore
stored in a self-verifying envelope -- a header carrying the SHA-256
of the pickled payload -- and every load re-verifies it.  An entry
that fails verification (or predates the envelope format) is
*quarantined*: moved aside under ``quarantine/`` for inspection,
counted (``store.quarantined``), and reported as a miss so the action
simply recomputes and overwrites it.  A poisoned cache can cost time;
it can never change what gets built.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Optional, Tuple

#: Environment variable naming the default persistent cache directory.
#: When set, pipelines (and the benchmark harness) replay cold actions
#: from disk across process boundaries; when unset, caching stays
#: in-memory only, exactly as before.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

_PICKLE_PROTOCOL = pickle.HIGHEST_PROTOCOL

#: On-disk envelope magic.  Bumping it invalidates (quarantines) every
#: existing entry -- which is the correct behaviour for format drift.
_MAGIC = b"repro-store-v4\n"
_DIGEST_HEX_LEN = 64

#: Subdirectory (outside the ``??/`` shard namespace) where entries
#: that failed verification are moved for post-mortem inspection.
QUARANTINE_DIR = "quarantine"


def resolve_cache_dir(explicit: "Optional[str | os.PathLike]" = None) -> Optional[Path]:
    """Explicit setting first, then :data:`CACHE_DIR_ENV`, else None."""
    if explicit:
        return Path(explicit)
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    return Path(env) if env else None


def write_envelope(path: "str | os.PathLike", value: Any) -> None:
    """Atomically pickle ``value`` to ``path`` in the self-verifying
    envelope format: magic, SHA-256 of the payload, newline, payload.

    The one writer of the format: :meth:`PersistentActionStore.store`
    seals its entries through it.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
    digest = hashlib.sha256(payload).hexdigest().encode("ascii")
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".env")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(_MAGIC)
            handle.write(digest)
            handle.write(b"\n")
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _unseal(data: bytes) -> "Tuple[Any, Optional[str]]":
    """``(value, None)`` for a verified envelope, else ``(None, reason)``.

    The one reader of the format.  The reason says *why* the bytes are
    not replayable -- ``format`` (foreign or pre-envelope file),
    ``truncated`` (header cut short), ``digest`` (payload does not
    match its header) or ``unpicklable`` (verified, but the pickle does
    not parse: format drift between versions).  All four are poisoning
    as far as correctness is concerned; what happens next is the
    caller's policy.
    """
    if not data.startswith(_MAGIC):
        return None, "format"
    header_end = len(_MAGIC) + _DIGEST_HEX_LEN
    if len(data) < header_end + 1 or data[header_end:header_end + 1] != b"\n":
        return None, "truncated"
    expected = data[len(_MAGIC):header_end]
    payload = data[header_end + 1:]
    if hashlib.sha256(payload).hexdigest().encode("ascii") != expected:
        return None, "digest"
    try:
        return pickle.loads(payload), None
    except Exception:
        return None, "unpicklable"


def _bump(owner: Any, tally: str, counter: str) -> None:
    """Count one event once: on ``owner.<tally>`` and, when the owner
    was given a metrics sink, on its ``counter``."""
    setattr(owner, tally, getattr(owner, tally) + 1)
    if owner.counters is not None:
        owner.counters.incr(counter)


class FunctionSolveCache:
    """Memoized per-function layout solves, keyed by content signature.

    The unit of work the incremental engine (:mod:`repro.incr`) reuses
    across releases is one Ext-TSP solve: the layout of one function's
    hot blocks.  Entries are keyed by
    :func:`repro.core.exttsp.solve_signature` -- a digest over the
    *exact* solver inputs (node sizes/weights in iteration order, edge
    list, entry, scoring params), themselves derived from the
    function's CFG digest, its profile counts and the codegen'd block
    sizes -- so a replayed solution is bit-identical to a fresh solve
    by construction, and a function whose CFG, profile or sizes changed
    in any way can never alias a stale entry.

    Two tiers: a per-process dict, and (when ``root`` is given) an
    on-disk :class:`PersistentActionStore` beside the action store, so
    a later release's run replays the previous release's solves.
    Hit/miss accounting lands on the optional ``counters`` sink as
    ``incr.solve_hits`` / ``incr.solve_misses``, in lookup order, so
    the numbers are deterministic.
    """

    def __init__(self, root: "Optional[str | os.PathLike]" = None,
                 counters: Any = None):
        self._memory: dict = {}
        self._store = (
            PersistentActionStore(root, counters=counters)
            if root is not None else None
        )
        self.counters = counters
        self.hits = 0
        self.misses = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def reuse_rate(self) -> float:
        """Fraction of lookups replayed; 1.0 when nothing was looked up
        (a full action-cache replay never reaches the solver at all)."""
        return self.hits / self.lookups if self.lookups else 1.0

    def get(self, key: str) -> Optional[list]:
        """The memoized node order for ``key``, or None (a counted miss)."""
        order = self._memory.get(key)
        if order is None and self._store is not None:
            order = self._store.load(key)
            if order is not None:
                self._memory[key] = order
        if order is None:
            _bump(self, "misses", "incr.solve_misses")
            return None
        _bump(self, "hits", "incr.solve_hits")
        return list(order)

    def put(self, key: str, order: list) -> None:
        order = list(order)
        self._memory[key] = order
        if self._store is not None:
            self._store.store(key, order)

    def __len__(self) -> int:
        return len(self._memory)


class PersistentActionStore:
    """Content-addressed pickle store under one root directory."""

    def __init__(self, root: "str | os.PathLike", counters: Any = None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.loads = 0
        self.stores = 0
        #: Entries that failed digest verification and were moved aside.
        self.quarantined = 0
        # Optional metrics sink (the repro.obs.Counters contract); held
        # duck-typed so this module stays importable without any other
        # part of the package.
        self.counters = counters

    def _path(self, key: str) -> Path:
        if len(key) < 3 or not all(c in "0123456789abcdef" for c in key):
            raise ValueError(f"not a content digest key: {key!r}")
        return self.root / key[:2] / f"{key}.pkl"

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside (never replayed again) and count it."""
        target_dir = self.root / QUARANTINE_DIR
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, target_dir / f"{path.name}.{reason}")
        except OSError:
            # Last resort: an unremovable poisoned entry must still
            # never be replayed, so drop it.
            try:
                path.unlink()
            except OSError:
                pass
        _bump(self, "quarantined", "store.quarantined")

    def load(self, key: str) -> Optional[Any]:
        """The stored entry, or None when absent or not verifiable.

        A corrupt, truncated or half-written entry is indistinguishable
        from a miss to the caller: the action simply re-executes and
        overwrites it.  Unlike a plain miss, though, the bad file is
        quarantined (under its :func:`_unseal` reason) and counted,
        because a poisoned shared cache is an operational event someone
        should be able to see.
        """
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None
        entry, reason = _unseal(data)
        if reason is not None:
            self._quarantine(path, reason)
            if reason == "unpicklable" and self.counters is not None:
                self.counters.incr("store.load_errors")
            return None
        _bump(self, "loads", "store.loads")
        return entry

    def store(self, key: str, entry: Any) -> None:
        write_envelope(self._path(key), entry)
        _bump(self, "stores", "store.stores")

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("??/*.pkl"))

    def clear(self) -> None:
        for path in self.root.glob("??/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
