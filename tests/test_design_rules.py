"""The repository's design rules, each stated once and run in tier 1.

Every row of :data:`RULES` is one rule: a regex that must match no line
in its paths, searched line by line as ``grep -rnE`` would (a directory
means every file under it), less the hits its ``exclude`` regex allows.
Checks that are not a line search (a deleted file, a type hint, the
shape of one method) put a function of the paths in the regex's place.
A broken rule prints each offending ``path:line: text``, the row's
message and why the rule exists.

grep's basic and fixed-string patterns are written as the equivalent
Python regex: a literal ``(`` or ``.`` is escaped.
"""

from __future__ import annotations

import ast
import re
import typing
from functools import lru_cache
from pathlib import Path
from typing import Callable, List, NamedTuple, Tuple, Union

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = "src/repro"

ONE_PATH = "No second execution path"
CALLER = "Nothing without a caller"
PROFILES = "Profiles stay columnar"
EXTTSP = "Ext-TSP scores lazily"
COLUMNAR = "Codegen and link stay columnar"

#: Why each rule exists (printed when it breaks).
WHY = {
    ONE_PATH: (
        "One way to run a release: the process pool, the stage-graph engine "
        "(run() calls the phases in order), the permutable stage order, the "
        "stage context, its import-time validator and the second (baseline) "
        "compile of every module are deleted, not bypassed.  One way to score "
        "one: a bench row is a flattened PipelineReport, with no hand-built "
        "scenario body beside it, and one scorecard replay always charges each "
        "function."),
    CALLER: (
        "The console aliases, the stage graph's DOT render, the unprinted "
        "report tables, the never-set option fields, the test-only accessors "
        "and encoders, the Table edits, partial execution (a stopped run "
        "resumes through the action store), the bench classifier (the "
        "scorecard is a golden checked with ==), the build service's "
        "wrappers and tally copies (BuildSystem owns its cache, every count "
        "lives on Counters, FaultPlan.charge is the fault ledger, a plan's "
        "one text form is its spec), the pre-run dirty plan (a release is "
        "diffed once, after its run, by incr.state.diff_functions), an "
        "object file's name index and section-at-a-time growth, the "
        "multi-epoch profile store, whole-program anchors and cluster spec, "
        "an executable's symbol name index, and the piecewise IR hasher and "
        "second builds of a release's function evidence (each function is "
        "encoded once, and PipelineResult.functions is built from the "
        "digests that keyed its compiles), and the options only tests set "
        "(a fault plan's retry policy and its corrupt/slow kinds, BOLT's "
        "options, the DSB switch, the tracing config flag beside "
        "PropellerPipeline(tracer=), the report's one-counter accessor, the "
        "tracer's name lookup and clock readers) stay deleted.  Every "
        "parameter with a default is set by some call outside tests, or is "
        "allowlisted with its reason."),
    PROFILES: (
        "An LBR profile is columns: no scalar draw per walker decision, no "
        "Python object per sample outside the view in profiles/lbr.py and no "
        "whole-run array of a projected stream.  The PGO run steps over "
        "interned ids and counts in ints.  One way from a sampled address to "
        "a block: the map decodes to columns, and WPA, AutoFDO and perf2bolt "
        "share core/wpa.py's public BlockIndex and build_dcfg."),
    EXTTSP: (
        "Ext-TSP scores a merge only when it can win: a candidate is pushed "
        "with a bound on its gain and scored when that bound tops the heap.  "
        "Eager scoring is back if the push calls a scorer, or if anything "
        "but the pop of a bound calls one."),
    COLUMNAR: (
        "A cold build costs its columns: codegen builds a module's bytes in "
        "one pass instead of encoding an instruction at a time, the linker "
        "keeps one link state of section and fixup columns and remaps "
        "offsets a column at a time (only the relaxation sweep asks one "
        "offset at a time), base.out is derived from metadata.out, not "
        "relinked, and a table is built once, from columns."),
}


@lru_cache(maxsize=None)
def _lines(path: str) -> Tuple[str, ...]:
    return tuple((ROOT / path).read_text(encoding="utf-8", errors="replace").splitlines())


@lru_cache(maxsize=None)
def _files(path: str) -> Tuple[str, ...]:
    full = ROOT / path
    if not full.is_dir():
        return (path,)
    return tuple(sorted(p.relative_to(ROOT).as_posix() for p in full.rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts))


def _grep(regex: str, paths) -> List[str]:
    pattern = re.compile(regex)
    return [f"{file}:{n}: {line.strip()}"
            for path in paths for file in _files(path)
            for n, line in enumerate(_lines(file), start=1) if pattern.search(line)]


def _exists(paths) -> List[str]:
    """``test ! -e``: each path that exists is a hit."""
    return [f"{path}: exists" for path in paths if (ROOT / path).exists()]


def _section_holds_no_table(paths) -> List[str]:
    from repro.elf import Section, Table

    return [f"repro.elf.Section.{name}: {hint}"
            for name, hint in typing.get_type_hints(Section).items() if hint is Table]


def _executable_families_are_tables(paths) -> List[str]:
    from repro.elf import Executable, Table

    hints = typing.get_type_hints(Executable)
    return [f"repro.elf.Executable.{name}: {hints[name]}"
            for name in ("sections", "symbols", "retained_relocations")
            if hints[name] is not Table]


def _fault_kinds_are_fail_and_timeout(paths) -> List[str]:
    from repro.faults import FAULT_KINDS

    return [] if FAULT_KINDS == ("fail", "timeout") else [f"FAULT_KINDS == {FAULT_KINDS}"]


def _pipeline_config_has_no_trace(paths) -> List[str]:
    import dataclasses

    from repro.core.pipeline import PipelineConfig

    return [f"repro.core.pipeline.PipelineConfig.{f.name}"
            for f in dataclasses.fields(PipelineConfig) if f.name == "trace"]


def _scored_on_push(paths) -> List[str]:
    """The lines of ``ExtTSP._push_candidate`` that name a scorer."""
    (path,) = paths
    lines = _lines(path)
    (push,) = [node for cls in ast.parse("\n".join(lines)).body
               if isinstance(cls, ast.ClassDef) and cls.name == "ExtTSP"
               for node in cls.body
               if isinstance(node, ast.FunctionDef) and node.name == "_push_candidate"]
    scorer = re.compile(r"_best_merge|_totals")
    return [f"{path}:{n}: {lines[n - 1].strip()}"
            for n in range(push.lineno, push.end_lineno + 1) if scorer.search(lines[n - 1])]


def _scored_once(paths) -> List[str]:
    """Each scorer is called from exactly one line (the pop of a bound)."""
    hits = []
    for call in (r"self\._best_merge\(", r"self\._totals\("):
        lines = _grep(call, paths)
        if len(lines) != 1:
            hits.append(f"{len(lines)} lines match {call}: {lines}")
    return hits


#: Where a call sets a parameter: every tree but ``tests/``.
CALLERS = ("src", "bench", "scripts", "examples")

#: Parameters with a default that only tests set, each kept for a
#: reason: ``(path, qualname, parameter) -> why``.
TEST_ONLY_PARAMETERS = {
    ("src/repro/obs/tracer.py", "Tracer.__init__", "real_clock"):
        "tests substitute a fake clock",
    ("src/repro/tools/cli.py", "main", "argv"): "tests drive the CLI in-process",
    ("src/repro/core/exttsp.py", "ext_tsp_score", "params"):
        "the reference objective tests score layouts with",
    ("src/repro/obs/explain.py", "explain_results", "base_tracer"):
        "README's in-process explain API; the CLI sets it through --base-trace",
    ("src/repro/obs/explain.py", "explain_results", "new_tracer"):
        "README's in-process explain API; the CLI sets it through --new-trace",
    ("src/repro/obs/explain.py", "explain_results", "top_k"):
        "README's in-process explain API; the CLI sets it through --top-k",
    ("src/repro/obs/explain.py", "explain_results", "max_blocks"):
        "README's in-process explain API; the bench sets it through "
        "frontend_counters(max_blocks=)",
    ("src/repro/incr/__init__.py", "reoptimize", "config"):
        "README calls it with a config, and README is not scanned",
}


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for decorator in cls.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "attr", getattr(target, "id", None)) == "dataclass":
            return True
    return False


def _defs(tree: ast.AST):
    """``(def, qualname, called as)`` for every function, method and
    nested function, and each ``__init__`` of a class that is not a
    dataclass (called as the class).  Other dunders are skipped."""
    out = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + child.name
                if child.name == "__init__":
                    if cls is not None and not _is_dataclass(cls):
                        out.append((child, qualname, cls.name))
                elif not (child.name.startswith("__") and child.name.endswith("__")):
                    out.append((child, qualname, child.name))
                visit(child, qualname + ".", None)
            else:
                visit(child, prefix, cls)

    visit(tree, "", None)
    return out


def _sets(call: ast.Call, positional: List[str], param: str) -> bool:
    """Whether ``call`` passes ``param``: by keyword, at its position,
    or through ``*``/``**``."""
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return param in positional[i:]
        if positional[i:i + 1] == [param]:
            return True
    return False


def defaulted_parameters() -> Tuple[Tuple[str, int, str, str, bool], ...]:
    """``(path, line, qualname, parameter, set outside tests)`` for every
    parameter with a default of every ``def`` under ``src/repro``.  A
    call names the function (or, for ``__init__``, the class) as a bare
    name or an attribute; calls are read from :data:`CALLERS`."""
    calls = {}
    for top in CALLERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "attr", getattr(node.func, "id", None))
                    calls.setdefault(name, []).append(node)
    rows = []
    for path in sorted((ROOT / SRC).rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        for fn, qualname, called_as in _defs(ast.parse(path.read_text(encoding="utf-8"))):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            if positional[:1] in (["self"], ["cls"]):
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for param in defaulted:
                used = any(_sets(call, positional, param) for call in calls.get(called_as, ()))
                rows.append((rel, fn.lineno, qualname, param, used))
    return tuple(rows)


def _parameters_only_tests_set(paths) -> List[str]:
    """Each defaulted parameter no call outside ``tests/`` sets, less the
    allowlist; and each allowlist row that no longer names one."""
    unset = {(path, qualname, param): f"{path}:{line} {qualname}({param})"
             for path, line, qualname, param, used in defaulted_parameters() if not used}
    return ([hit for key, hit in unset.items() if key not in TEST_ONLY_PARAMETERS]
            + [f"stale allowlist row {key}" for key in TEST_ONLY_PARAMETERS
               if key not in unset])


class Rule(NamedTuple):
    rule: str
    #: The regex no line may match, or a check of ``paths`` returning hits.
    regex: Union[str, Callable[[Tuple[str, ...]], List[str]]]
    paths: Tuple[str, ...]
    message: str
    #: Hits (``path:line: text``) matching this regex are allowed.
    exclude: str = ""

    def violations(self) -> List[str]:
        if callable(self.regex):
            return self.regex(self.paths)
        return [hit for hit in _grep(self.regex, self.paths)
                if not (self.exclude and re.search(self.exclude, hit))]


RULES = [
    Rule(ONE_PATH,
         r'ParallelExecutor|shared_executor|executor=|_topo_sort|_validate_order|PLAN_DIRTY'
         r'|StageExecution|class Fallback|seeds=|degrades=|incremental_state|_load_bench'
         r'|class SuiteSpec|config\.incremental|"--incremental"|class StageContext'
         r'|run_standalone|def validate\(|duplicate-producer|baseline_options|BASELINE_BUILD'
         r'|tag="pgo"|_pipeline_scenario|_drift_sweep_scenario|_faults_scenario'
         r'|_incr_scenario|_explain_scenario|class BenchContext|TRACE_BLOCKS',
         (SRC,), "a deleted execution alternative is back"),
    Rule(ONE_PATH,
         r'class StageGraph|class Stage\b|class Artifact\b|ArtifactSet|StageRecord'
         r'|StageGraphError|STAGE_GRAPH_SCHEMA_VERSION|def describe\(',
         (SRC,), "the stage-graph engine is back; run() calls the phases in order"),
    Rule(ONE_PATH, _exists, ("src/repro/runtime/executor.py", "src/repro/core/stages.py"),
         "the process pool or the stage-graph module is back"),
    Rule(CALLER,
         r'def to_dot|def bench_main|def explain_main|def stages_main|metrics_table'
         r'|counters_table|frontend_table|text_base|page_size|align_function'
         r'|callee_saved_regs|layout_params|hot_function_min_fraction|taken_branch_count'
         r'|pct_hot_objects|MutableSequence',
         (SRC,), "a surface with no caller is back"),
    Rule(CALLER,
         r'ArtifactSet\.load|def load\(cls, directory|MANIFEST_FILENAME|stop_after'
         r'|resume_from|artifacts_out|read_envelope|encode_section|encode_function_map'
         r'|def encode_instruction',
         (SRC,), "partial execution or a test-only encoder is back"),
    Rule(CALLER, r'repro-(bench|explain|stages)', ("pyproject.toml",),
         "a console alias is back; the one spelling is python -m repro.tools"),
    Rule(CALLER, _exists, ("src/repro/obs/baseline.py",),
         "the bench classifier's module is back"),
    Rule(CALLER,
         r'REPRO_REGEN_BASELINE|PERTURBATIONS|comparison_table|deterministic_fingerprint'
         r'|"--(compare|perturb)"',
         (SRC,), "a second bench gate is back; bench_smoke.json is a golden "
                 "(REPRO_REGEN_GOLDEN=1)"),
    Rule(CALLER, r'class (ActionCache|CacheStats|FaultClock)\b|def _bump\b|faulted_actions'
                 r'|def evict_all\b',
         (SRC,), "a build-service wrapper or a second copy of a tally is back; "
                 "count on Counters"),
    Rule(CALLER, r'def (to_json|from_json|to_spec)\b', ("src/repro/faults",),
         "a second fault-plan format is back; the spec string is the one form"),
    Rule(CALLER, _exists, ("src/repro/faults/clock.py",), "the fault clock's module is back"),
    Rule(CALLER, r'def plan_dirty\b|class DirtyPlan\b', (SRC,),
         "the pre-run dirty plan is back; diff once, after the run"),
    Rule(CALLER, _exists, ("src/repro/incr/planner.py",), "the dirty planner's module is back"),
    Rule(CALLER, r'collect_pgo_profile', ("src/repro/core/phases.py",),
         "a phase collects the PGO profile outside run()"),
    Rule(CALLER, r'_by_name|def (section|find_section|add_section|add_symbol)\b',
         ("src/repro/elf",),
         "an object file keeps a name index or grows a section at a time again"),
    Rule(CALLER, r'ProfileStore|merge_profiles|program_anchors|ClusterSpec', (SRC,),
         "the profile store, whole-program anchors or the cluster spec is back; "
         "none had a caller"),
    Rule(CALLER, _exists, ("src/repro/profiles/store.py",), "the profile store's module is back"),
    Rule(CALLER, r'def (function_states|_update_function|_term_repr)\(', (SRC,),
         "a second encoding of a function or a second build of a release's "
         "evidence is back; read PipelineResult.functions"),
    Rule(CALLER, r'def symbol\(|_symbol_rows', ("src/repro/elf/executable.py",),
         "an executable's symbol name index is back; read the name column"),
    Rule(CALLER, r'def (has_block_at|text_ranges|frontend_improvement|from_dict|add_block'
                 r'|num_calls|field_size)\b',
         (SRC,), "a test-only accessor is back"),
    Rule(PROFILES, r'_mix_to_unit\(', (SRC,),
         "the walker draws one scalar hash per decision again"),
    # ("lbr.samples" is a gauge name, not an attribute.)
    Rule(PROFILES, r'\.samples\b|LBRSample', (SRC,), "a per-sample object is back",
         exclude=r'"lbr\.samples"'),
    # A projected stream is read a slice or a window at a time.
    Rule(PROFILES, r'np\.asarray\(trace\.branch_', (SRC,),
         "a whole-run copy of a projected branch stream"),
    Rule(PROFILES, r'compiled\.get\(\(|\.get\([a-z_]+, 0\.0\) \+ 1', ("src/repro/profiles/pgo.py",),
         "the PGO run looks up a tuple key or adds to a float count per step"),
    # The scalar loops both interpreters replaced are test oracles only.
    Rule(PROFILES, r'def (walk|collect_ir_profile)_reference', (SRC,),
         "an interpreter's reference loop is in src/"),
    Rule(PROFILES, r'class (BBEntry|FunctionMap|_BlockRef|_BlockIndex|_AddressMapIndex)\b'
                   r'|def decode_function_map',
         (SRC,), "a per-block map record or a second address index is back"),
    Rule(PROFILES, r'from repro\.core\.wpa import .*\b_', (SRC,),
         "a private name of core/wpa.py is imported outside core/",
         exclude=r'^src/repro/core/'),
    Rule(EXTTSP, _scored_on_push, ("src/repro/core/exttsp.py",),
         "a merge candidate is scored when it is pushed"),
    Rule(EXTTSP, _scored_once, ("src/repro/core/exttsp.py",),
         "a merge candidate is scored outside the pop of its bound"),
    Rule(COLUMNAR, r'encode_instruction', (SRC,),
         "an instruction is encoded one at a time again"),
    Rule(COLUMNAR, r'class WorkSection|id\(ws\)|meter=', ("src/repro/linker",),
         "a per-section link object, an id() map or a link meter is back"),
    Rule(COLUMNAR, r'\.remap\(', (SRC,),
         "a one-offset remap outside linker/state.py and linker/relax.py",
         exclude=r'^src/repro/linker/(state|relax)\.py:'),
    Rule(COLUMNAR, r'strip_map=', ("src/repro/core",),
         "base.out is relinked instead of derived from metadata.out"),
    # A section is its bytes plus row ranges: the tables are its object's.
    Rule(COLUMNAR, _section_holds_no_table, (), "a Section field is a Table again"),
    # An executable is tables too, and the link hands over its columns.
    Rule(COLUMNAR, _executable_families_are_tables, (),
         "an Executable record family is not a Table"),
    Rule(COLUMNAR, r'(PlacedSection|SymbolInfo)\(', (SRC,),
         "a placed section or resolved symbol is built as an object again"),
    # A table is built once, from columns: nothing appends rows to one.
    Rule(COLUMNAR, r'append_row|put_row|put_record|_writers|\.release\(\)', (SRC,),
         "a table is grown a row at a time again"),
    # Appended after every other row, so that no existing id moves.
    Rule(CALLER, r'corrupt_rate|slow_rate|slow_factor|max_attempts|backoff_base'
                 r'|backoff_multiplier|backoff_jitter|timeout_seconds'
                 r'|"(corrupt|slow|slow_factor|attempts|backoff|backoff_mult|jitter|timeout_s)":',
         ("src/repro/faults",),
         "a fault-plan field or spec key only tests set is back; the retry "
         "policy is constants"),
    Rule(CALLER, _fault_kinds_are_fail_and_timeout, (),
         "an injected corrupt or slow kind is back; a fault is a fail or a timeout"),
    Rule(CALLER, r'class BoltOptions\b', (SRC,),
         "BOLT's options are back; it runs the paper's one configuration"),
    Rule(CALLER, r'simulate_dsb', (SRC,), "the frontend model's DSB switch is back"),
    Rule(CALLER, _pipeline_config_has_no_trace, (),
         "PipelineConfig.trace is back; pass PropellerPipeline(tracer=Tracer())"),
    Rule(CALLER, r'def frontend_counter\(', (SRC,),
         "the report's one-counter accessor is back; read report.frontend"),
    Rule(CALLER, _parameters_only_tests_set, (),
         "a parameter only tests set (or none) is back; make it a constant, or "
         "allowlist it in TEST_ONLY_PARAMETERS with its reason"),
    # The AST row cannot see a switch that production calls set both ways.
    Rule(ONE_PATH, r'\bby_function\b', ("src/repro/hwmodel", "src/repro/core/pipeline.py"),
         "the scorecard's attribution switch is back; per_function is always filled"),
    Rule(CALLER, r'set_sim_duration|def find\b|_find_index|\bsim_now\b|def depth\b'
                 r'|\bdepth = 0|\benabled = ',
         ("src/repro/obs/tracer.py",),
         "a test-only tracer accessor is back; read tracer.spans"),
]


def _ids(rules) -> List[str]:
    seen = {}
    out = []
    for rule in rules:
        slug = re.sub(r"[^a-z]+", "-", rule.rule.lower()).strip("-")
        seen[slug] = seen.get(slug, 0) + 1
        out.append(f"{slug}-{seen[slug]}")
    return out


@pytest.mark.parametrize("rule", RULES, ids=_ids(RULES))
def test_design_rule(rule):
    hits = rule.violations()
    assert not hits, "\n".join([*hits, rule.message, f"{rule.rule}: {WHY[rule.rule]}"])

