"""Propeller reproduction: a profile-guided, relinking optimizer.

This package reproduces the system described in "Propeller: A Profile
Guided, Relinking Optimizer for Warehouse-Scale Applications" (ASPLOS
2023) as a pure-Python simulation.  It contains a complete synthetic
toolchain -- ISA, compiler IR, code generator, linker, distributed build
system, hardware profiler and a micro-architectural frontend model --
plus the paper's contribution built on top of it: basic block sections,
the Ext-TSP layout algorithm, whole-program analysis and the four-phase
relinking pipeline.  A disassembly-driven baseline optimizer modelled on
BOLT is included for comparison.

Quickstart::

    import repro

    program = repro.generate_workload(repro.PRESETS["clang"], scale=0.01, seed=1)
    result = repro.optimize(program, repro.PipelineConfig(seed=1))
    print(result.summary())

The names below form the stable public facade; everything else should be
imported from its subpackage (``repro.core``, ``repro.buildsys``, ...).
Facade attributes resolve lazily (PEP 562), so ``import repro`` -- and
imports of individual subpackages -- never drag in the whole toolchain.
"""

from repro._version import __version__

#: Facade name -> (defining module, attribute).  Resolved on first access.
_FACADE = {
    "optimize": ("repro.core.pipeline", "optimize"),
    "PipelineConfig": ("repro.core.pipeline", "PipelineConfig"),
    "PipelineResult": ("repro.core.pipeline", "PipelineResult"),
    "PropellerPipeline": ("repro.core.pipeline", "PropellerPipeline"),
    "generate_workload": ("repro.synth", "generate_workload"),
    "PRESETS": ("repro.synth", "PRESETS"),
    "BuildSystem": ("repro.buildsys", "BuildSystem"),
    "PersistentActionStore": ("repro.runtime", "PersistentActionStore"),
    "Tracer": ("repro.obs", "Tracer"),
    "Counters": ("repro.obs", "Counters"),
    "PipelineReport": ("repro.obs", "PipelineReport"),
    "IRProfile": ("repro.profiles", "IRProfile"),
    "match_profile": ("repro.profiles", "match_profile"),
    "FaultPlan": ("repro.faults", "FaultPlan"),
    "reoptimize": ("repro.incr", "reoptimize"),
    "IncrState": ("repro.incr", "IncrState"),
    "EditScript": ("repro.synth", "EditScript"),
    "ExplainReport": ("repro.obs", "ExplainReport"),
    "explain_results": ("repro.obs", "explain_results"),
}

__all__ = ["__version__", *sorted(_FACADE)]


def __getattr__(name):
    try:
        module_name, attr = _FACADE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    value = getattr(importlib.import_module(module_name), attr)
    globals()[name] = value  # cache: subsequent access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_FACADE))
