"""The public API surface: facade exports and import isolation.

The package promises (a) a stable top-level facade -- ``from repro
import optimize`` just works -- and (b) lazy loading, so importing one
subsystem never drags in the rest of the toolchain.  Isolation is
checked in subprocesses because imports are process-global.
"""

import subprocess
import sys

import pytest

SUBPACKAGES = [
    "repro.analysis",
    "repro.bolt",
    "repro.buildsys",
    "repro.codegen",
    "repro.core",
    "repro.elf",
    "repro.faults",
    "repro.hwmodel",
    "repro.incr",
    "repro.ir",
    "repro.isa",
    "repro.linker",
    "repro.obs",
    "repro.profiles",
    "repro.synth",
    "repro.tools",
]


def _run(code: str) -> None:
    subprocess.run([sys.executable, "-c", code], check=True)


class TestImportIsolation:
    @pytest.mark.parametrize("pkg", SUBPACKAGES)
    def test_subpackage_imports_standalone(self, pkg):
        _run(f"import {pkg}")

    def test_core_algorithms_skip_pipeline_stack(self):
        """`import repro.core.exttsp` must not load linker/profiling/obs."""
        _run(
            "import repro.core.exttsp, repro.core.bbsections, sys\n"
            "for bad in ('repro.linker', 'repro.profiles',\n"
            "            'repro.core.pipeline', 'repro.buildsys', 'repro.obs'):\n"
            "    assert bad not in sys.modules, bad\n"
        )

    def test_obs_imports_standalone(self):
        """The observability layer must not drag in the toolchain."""
        _run(
            "import repro.obs, sys\n"
            "for bad in ('repro.core', 'repro.linker', 'repro.profiles',\n"
            "            'repro.buildsys', 'repro.runtime', 'repro.analysis'):\n"
            "    assert bad not in sys.modules, bad\n"
        )

    def test_faults_imports_standalone(self):
        """Fault plans are stdlib-only: usable without the toolchain."""
        _run(
            "import repro.faults, sys\n"
            "for bad in ('repro.core', 'repro.linker', 'repro.profiles',\n"
            "            'repro.buildsys', 'repro.runtime', 'repro.obs'):\n"
            "    assert bad not in sys.modules, bad\n"
        )

    def test_top_level_import_is_lazy(self):
        _run(
            "import repro, sys\n"
            "assert 'repro.core' not in sys.modules\n"
            "assert 'repro.linker' not in sys.modules\n"
        )

    def test_docstring_quickstart_runs(self):
        """The quickstart in repro's own docstring must work verbatim-ish."""
        _run(
            "import repro\n"
            "program = repro.generate_workload(\n"
            "    repro.PRESETS['531.deepsjeng'], scale=0.2, seed=3)\n"
            "result = repro.optimize(\n"
            "    program,\n"
            "    repro.PipelineConfig(lbr_branches=20_000, pgo_steps=10_000,\n"
            "                         enforce_ram=False, seed=3))\n"
            "assert result.summary()\n"
        )

    def test_a_release_starts_no_process_pool(self):
        """Every action runs inline: a whole ``optimize()`` plus its
        scorecard never imports the pool machinery."""
        _run(
            "import repro, sys\n"
            "program = repro.generate_workload(\n"
            "    repro.PRESETS['531.deepsjeng'], scale=0.2, seed=3)\n"
            "result = repro.optimize(\n"
            "    program,\n"
            "    repro.PipelineConfig(lbr_branches=20_000, pgo_steps=10_000,\n"
            "                         enforce_ram=False))\n"
            "assert result.frontend_counters(max_blocks=5_000)\n"
            "for bad in ('concurrent.futures', 'multiprocessing'):\n"
            "    assert bad not in sys.modules, bad\n"
        )


class TestFacade:
    def test_all_is_explicit_and_resolvable(self):
        import repro

        assert "optimize" in repro.__all__
        assert "BuildSystem" in repro.__all__
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_facade_resolves_to_real_objects(self):
        import repro
        from repro.buildsys import BuildSystem
        from repro.core.pipeline import PipelineConfig, PipelineResult, optimize
        from repro.synth import PRESETS, generate_workload

        assert repro.optimize is optimize
        assert repro.PipelineConfig is PipelineConfig
        assert repro.PipelineResult is PipelineResult
        assert repro.BuildSystem is BuildSystem
        assert repro.PRESETS is PRESETS
        assert repro.generate_workload is generate_workload

    def test_facade_exports_incremental_api(self):
        import repro
        from repro.incr import IncrState, reoptimize
        from repro.synth import EditScript

        assert repro.reoptimize is reoptimize
        assert repro.IncrState is IncrState
        assert repro.EditScript is EditScript

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_symbol
        with pytest.raises(AttributeError):
            repro.ParallelExecutor
        with pytest.raises(ImportError):
            from repro.runtime import ParallelExecutor  # noqa: F401

    def test_dir_lists_facade(self):
        import repro

        listing = dir(repro)
        for name in repro.__all__:
            assert name in listing

    def test_core_lazy_getattr(self):
        import repro.core

        assert repro.core.exttsp.__name__ == "repro.core.exttsp"
        with pytest.raises(AttributeError):
            repro.core.no_such_module
