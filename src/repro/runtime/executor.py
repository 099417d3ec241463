"""Order-preserving process-pool execution of pure tasks.

The executor exists to make the *hot path* of the reproduction --
per-module backend runs and per-function layout -- actually parallel on
real cores, without perturbing any simulated quantity.  The invariant
that makes this safe is determinism: every task submitted here must be
a pure function of picklable arguments, and results are always consumed
in submission order, never completion order.  A pipeline run with
``jobs=8`` therefore produces bit-identical artifacts to ``jobs=1``.

Pools are created lazily and shared per job count for the life of the
process (a pytest session creates exactly one), and torn down at
interpreter exit.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

R = TypeVar("R")

#: Below this many tasks a pool is never engaged: pickling and dispatch
#: overhead would exceed the win for trivial batches.
MIN_PARALLEL_TASKS = 2


class ParallelExecutor:
    """A reusable process pool with a deterministic ``map``.

    :param jobs: exact number of worker processes.  ``jobs <= 1`` never
        forks: every task runs inline in the calling process, which is
        both the fallback on single-core machines and the reference
        behaviour parallel runs must reproduce bit-for-bit.
    :param max_retries: bounded retry budget per task for *real*
        execution failures -- a worker process OOM-killed mid-batch, a
        transient exception from a flaky task.  Because every task is
        required to be pure, re-running one is always safe; because the
        budget is bounded, a deterministic bug still surfaces (the last
        failure propagates) instead of looping.  Retries happen inline
        in the submitting process, the deterministic reference path, so
        a retried batch returns exactly what a clean run would.
    """

    def __init__(self, jobs: int = 1, max_retries: int = 2):
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.jobs = jobs
        self.max_retries = max_retries
        self._pool: Optional[ProcessPoolExecutor] = None
        # Optional metrics sink (the repro.obs.Counters contract), held
        # duck-typed so this module keeps its no-repro-imports promise.
        # All names are under "pool.": they describe real-machine
        # execution and legitimately differ between jobs=1 and jobs=N.
        self.counters = None

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    def _invoke(self, fn: Callable[..., R], args: tuple) -> R:
        """One task inline, with the bounded retry budget applied."""
        for attempt in range(self.max_retries + 1):
            try:
                return fn(*args)
            except Exception:
                if attempt == self.max_retries:
                    raise
                if self.counters is not None:
                    self.counters.incr("pool.retries")
        raise AssertionError("unreachable")  # pragma: no cover

    def map(self, fn: Callable[..., R], arg_tuples: Sequence[tuple]) -> List[R]:
        """Apply ``fn(*args)`` to every tuple, results in input order.

        ``fn`` must be a module-level (picklable) callable; each
        argument tuple must pickle.  Falls back to inline execution for
        serial executors and batches too small to amortize dispatch.

        Degradation path: if the pooled batch raises -- a task
        exception or a broken pool -- the whole batch is recomputed
        inline through the retry budget.  Tasks are pure, so the
        recompute returns the same values a clean pooled run would;
        a failure that survives the budget propagates.
        """
        items = list(arg_tuples)
        if self.counters is not None:
            self.counters.incr("pool.map_calls")
            self.counters.incr("pool.tasks", len(items))
            self.counters.gauge("pool.jobs", self.jobs)
        if not self.parallel or len(items) < MIN_PARALLEL_TASKS:
            return [self._invoke(fn, args) for args in items]
        pool = self._ensure_pool()
        chunksize = max(1, len(items) // (self.jobs * 4))
        try:
            return list(pool.map(_apply, ((fn, args) for args in items),
                                 chunksize=chunksize))
        except Exception:
            if self.max_retries < 1:
                raise
            # The pool may be unusable (BrokenProcessPool) -- drop it so
            # a later map starts fresh -- and fall back to the serial
            # reference path for this batch.
            if self.counters is not None:
                self.counters.incr("pool.batch_fallbacks")
            self.close()
            return [self._invoke(fn, args) for args in items]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _apply(packed):
    fn, args = packed
    return fn(*args)


_SHARED: Dict[int, ParallelExecutor] = {}


def shared_executor(jobs: int) -> ParallelExecutor:
    """Process-wide executor for ``jobs`` workers (lazily pooled).

    Pipelines come and go (every test builds several); forking a fresh
    pool for each would dominate small runs.  Executors returned here
    live until interpreter exit and must not be ``close()``-d by
    callers.
    """
    executor = _SHARED.get(jobs)
    if executor is None:
        executor = ParallelExecutor(jobs)
        _SHARED[jobs] = executor
    return executor


@atexit.register
def _shutdown_shared() -> None:
    for executor in _SHARED.values():
        executor.close()
    _SHARED.clear()
