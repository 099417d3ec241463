"""Real-machine execution layer for the simulated toolchain.

Everything under :mod:`repro.buildsys` models the *paper's* build
environment in simulated seconds; this package is about the seconds the
reproduction itself burns.  It provides the persistent store and the
solve cache, the two mechanisms that make repeated pipeline runs cheap
on real hardware:

* :class:`PersistentActionStore` -- a content-addressed on-disk store
  of completed action outputs (digest-keyed pickles), the real
  counterpart of the simulator's remote action cache: a second pipeline
  run replays cold modules from disk exactly as ``repro.buildsys``
  models remote replays.
* :class:`FunctionSolveCache` -- per-function Ext-TSP solutions keyed
  by the exact solver inputs, so a later release replays the layouts
  of functions that did not change.

Both count on the ``Counters`` they are given and keep no tally of
their own.  They are deliberately dependency-free (stdlib only; the
counters are duck-typed) and import nothing from the rest of ``repro``,
so any layer may use them.
"""

from repro.runtime.cache import (
    CACHE_DIR_ENV,
    FunctionSolveCache,
    PersistentActionStore,
    resolve_cache_dir,
)

__all__ = [
    "CACHE_DIR_ENV",
    "FunctionSolveCache",
    "PersistentActionStore",
    "resolve_cache_dir",
]
