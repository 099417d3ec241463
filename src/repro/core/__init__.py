"""Propeller core: the paper's contribution.

* :mod:`repro.core.exttsp` -- the Ext-TSP basic-block ordering
  algorithm (Newell & Pupyrev), used for intra-function layout and,
  optionally, whole-program inter-procedural layout (§4.7), with the
  logarithmic-time most-profitable-merge retrieval the paper added to
  make it scale.
* :mod:`repro.core.funcorder` -- call-graph-driven hot function
  ordering (C3/hfsort style) for the global layout.
* :mod:`repro.core.wpa` -- Phase 3: mapping LBR samples to machine
  basic blocks through the BB address map, building the dynamic CFG
  without disassembly, forming basic-block clusters (function
  splitting) and emitting the ``cc_prof``/``ld_prof`` directives.
* :mod:`repro.core.phases` -- the pipeline's phases, one function
  each: the phase body, taking the pipeline and the values it reads.
* :mod:`repro.core.pipeline` -- configuration, result types and the
  driver whose ``run()`` calls the phases in order, end to end on the
  distributed build system, and handles a phase that degrades.

Submodules load lazily (PEP 562): ``import repro.core.exttsp`` pulls in
only the layout algorithm, not the pipeline's linker/profiling stack.
"""

__all__ = ["bbsections", "exttsp", "funcorder", "phases", "pipeline",
           "prefetch", "wpa"]


def __getattr__(name):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"repro.core.{name}")
    globals()[name] = module
    return module


def __dir__():
    return sorted(set(globals()) | set(__all__))
