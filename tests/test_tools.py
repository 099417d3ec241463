"""Tests for file formats and the CLI."""

import argparse
import json
import struct
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.ir import verify_program
from repro.ir.digest import module_digests
from repro.synth import PRESETS, generate_workload
from repro.tools import (
    load_perf_data,
    load_program,
    program_from_json,
    program_to_json,
    save_perf_data,
    save_program,
)
from repro.tools.cli import PIPELINE_FLAG_FIELDS, build_parser, main
from tests.conftest import perf_from_samples, sample_records


class TestProgramJSON:
    def test_roundtrip_preserves_digests(self, small_program):
        rebuilt = program_from_json(program_to_json(small_program))
        verify_program(rebuilt)
        assert rebuilt.name == small_program.name
        assert rebuilt.entry_function == small_program.entry_function
        assert rebuilt.features == small_program.features
        for a, b in zip(small_program.modules, rebuilt.modules):
            assert module_digests(a)[0] == module_digests(b)[0]

    def test_file_roundtrip(self, tmp_path, tiny_program):
        path = tmp_path / "prog.json"
        save_program(tiny_program, path)
        rebuilt = load_program(path)
        assert rebuilt.num_blocks == tiny_program.num_blocks

    def test_json_is_plain_data(self, tiny_program):
        json.dumps(program_to_json(tiny_program))  # must not raise

    def test_bad_format_rejected(self):
        with pytest.raises(ValueError, match="not a repro program"):
            program_from_json({"format": "other"})

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError, match="version"):
            program_from_json({"format": "repro-program", "version": 99})


_GOLDEN_LBR = Path(__file__).parent / "golden" / "perf_v1.lbr"
_GOLDEN_LBR_DIGEST = "b1d2fc12ef0114ef7db8029831098a72a76e198e1498fdac6cca0973df2f5695"


def _lbr_bytes(count, body=b""):
    """A version-1 ``.lbr`` header declaring ``count`` samples, then ``body``."""
    return b"RLBR" + struct.pack("<HII", 1, 31, count) + body


#: name -> (file content, what the error says); each was a traceback out
#: of ``repro.tools wpa`` while the reader trusted its input.
_MALFORMED_LBR = {
    "short-header": (b"RLBR\x01\x00\x1f", "truncated header"),
    "not-an-lbr-file": (b'{"format": "repro-program"}', "bad magic"),
    "record-cut-short": (_lbr_bytes(1, struct.pack("<HQ", 2, 0x401000)), "cut short"),
    "samples-past-the-end": (_lbr_bytes(3, struct.pack("<HQQ", 1, 0x401000, 0x401020)),
                             "counts 3 samples"),
    "trailing-bytes": (_lbr_bytes(0, b"\x00"), "trailing bytes"),
}


class TestPerfFormat:
    def _perf(self, samples):
        return perf_from_samples(samples, period=31)

    def test_roundtrip(self, tmp_path):
        perf = self._perf([[(0x400000, 0x400010)], [(0x400020, 0x400000), (1, 2)]])
        path = tmp_path / "p.lbr"
        save_perf_data(perf, path)
        loaded = load_perf_data(path)
        assert loaded.period == 31
        assert sample_records(loaded) == sample_records(perf)

    def test_empty_profile(self, tmp_path):
        path = tmp_path / "e.lbr"
        save_perf_data(self._perf([]), path)
        assert load_perf_data(path).num_samples == 0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lbr"
        path.write_bytes(b"NOPE" + b"\x00" * 10)
        with pytest.raises(ValueError, match="magic"):
            load_perf_data(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        perf = self._perf([[(1, 2)]])
        path = tmp_path / "t.lbr"
        save_perf_data(perf, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_perf_data(path)

    def test_golden_file_loads_and_rewrites_byte_for_byte(self, tmp_path):
        """``tests/golden/perf_v1.lbr`` was written by the one-tuple-per-record
        ``PerfData``: 600 taken branches sampled with period 13, so its first
        two samples hold 13 and 26 records."""
        perf = load_perf_data(_GOLDEN_LBR)
        assert (perf.period, perf.num_samples, perf.num_records) == (13, 46, 1447)
        assert perf.digest() == _GOLDEN_LBR_DIGEST
        path = tmp_path / "again.lbr"
        save_perf_data(perf, path)
        assert path.read_bytes() == _GOLDEN_LBR.read_bytes()

    @pytest.mark.parametrize("name", sorted(_MALFORMED_LBR))
    def test_malformed_file_is_a_value_error_naming_it(self, tmp_path, name):
        data, problem = _MALFORMED_LBR[name]
        path = tmp_path / f"{name}.lbr"
        path.write_bytes(data)
        with pytest.raises(ValueError, match=problem) as info:
            load_perf_data(path)
        assert str(path) in str(info.value)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.lists(
                st.tuples(st.integers(min_value=0, max_value=2**64 - 1),
                          st.integers(min_value=0, max_value=2**64 - 1)),
                max_size=32,
            ),
            max_size=10,
        )
    )
    def test_roundtrip_property(self, samples):
        import tempfile
        from pathlib import Path

        perf = self._perf(samples)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.lbr"
            save_perf_data(perf, path)
            loaded = load_perf_data(path)
            save_perf_data(loaded, Path(tmp) / "again.lbr")
            assert (Path(tmp) / "again.lbr").read_bytes() == path.read_bytes()
        assert [list(s) for s in sample_records(loaded)] == [list(s) for s in samples]


class TestCLI:
    def test_presets(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "clang" in out and "505.mcf" in out

    def test_generate_unknown_preset(self, tmp_path, capsys):
        assert main(["generate", "--preset", "nope", "-o", str(tmp_path / "x.json")]) == 2

    def test_generate_and_optimize(self, tmp_path, capsys):
        prog = tmp_path / "p.json"
        assert main(["generate", "--preset", "531.deepsjeng", "--scale", "0.3",
                     "--seed", "7", "-o", str(prog)]) == 0
        report = tmp_path / "report.txt"
        assert main(["optimize", str(prog), "--report", str(report),
                     "--lbr-branches", "40000", "--pgo-steps", "20000"]) == 0
        assert "propeller phase 4" in report.read_text()

    def test_profile_and_wpa(self, tmp_path):
        prog = tmp_path / "p.json"
        main(["generate", "--preset", "531.deepsjeng", "--scale", "0.3",
              "--seed", "7", "-o", str(prog)])
        lbr = tmp_path / "p.lbr"
        assert main(["profile", str(prog), "-o", str(lbr),
                     "--lbr-branches", "40000", "--pgo-steps", "20000"]) == 0
        cc = tmp_path / "cc.txt"
        ld = tmp_path / "ld.txt"
        assert main(["wpa", str(prog), str(lbr), "--cc-prof", str(cc),
                     "--ld-prof", str(ld), "--pgo-steps", "20000"]) == 0
        from repro.core.bbsections import parse_cc_prof, parse_ld_prof

        clusters = parse_cc_prof(cc.read_text())
        assert clusters
        assert parse_ld_prof(ld.read_text())

    def test_profile_honors_lbr_period(self, tmp_path):
        prog = tmp_path / "p.json"
        main(["generate", "--preset", "531.deepsjeng", "--scale", "0.3",
              "--seed", "7", "-o", str(prog)])
        lbr = tmp_path / "p.lbr"
        assert main(["profile", str(prog), "-o", str(lbr),
                     "--lbr-branches", "40000", "--pgo-steps", "20000",
                     "--lbr-period", "53"]) == 0
        assert load_perf_data(lbr).period == 53

    def test_optimize_emits_trace_and_metrics(self, tmp_path):
        prog = tmp_path / "p.json"
        main(["generate", "--preset", "531.deepsjeng", "--scale", "0.3",
              "--seed", "7", "-o", str(prog)])
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        assert main(["optimize", str(prog),
                     "--lbr-branches", "40000", "--pgo-steps", "20000",
                     "--trace-out", str(trace_path),
                     "--metrics-out", str(metrics_path)]) == 0

        trace = json.loads(trace_path.read_text())
        events = trace["traceEvents"]
        assert any(e.get("ph") == "M" for e in events)
        phase_names = {e["name"] for e in events
                       if e.get("ph") == "X" and e.get("cat") == "phase"}
        assert phase_names == {"phase:baseline", "phase:metadata-build",
                               "phase:profile", "phase:wpa", "phase:relink"}

        from repro.obs import METRICS_SCHEMA_VERSION, PipelineReport

        payload = json.loads(metrics_path.read_text())
        assert payload["schema_version"] == METRICS_SCHEMA_VERSION
        report = PipelineReport.from_json(payload)
        assert report.counters.get("cache.hits", 0) + report.counters["cache.misses"] > 0
        assert 0.0 <= report.gauges["pgo.match_rate"] <= 1.0
        assert all(p.peak_memory_bytes >= 0 for p in report.phases)


class TestCompare:
    ARGS = ["--lbr-branches", "40000", "--pgo-steps", "20000", "--blocks", "5000"]

    @pytest.fixture
    def prog(self, tmp_path):
        path = tmp_path / "p.json"
        main(["generate", "--preset", "531.deepsjeng", "--scale", "0.3",
              "--seed", "7", "-o", str(path)])
        return str(path)

    def test_three_binaries_one_walk(self, prog, capsys, monkeypatch):
        import repro.hwmodel.frontend as frontend

        walks = []
        walk = frontend.walk
        monkeypatch.setattr(frontend, "walk",
                            lambda *a, **kw: walks.append(1) or walk(*a, **kw))
        assert main(["compare", prog, *self.ARGS]) == 0
        out = capsys.readouterr().out
        assert all(label in out for label in ("baseline", "propeller", "bolt"))
        assert len(walks) == 1

    def test_rewritten_block_set_is_a_message_not_a_traceback(
            self, prog, capsys, monkeypatch):
        """A BOLT binary that cannot replay the baseline's walk is scored
        on a walk of its own, and the run says so."""
        import io
        import logging
        from dataclasses import replace

        import repro.bolt

        run_bolt = repro.bolt.run_bolt

        def renaming_bolt(exe, perf):
            result = run_bolt(exe, perf)
            renamed = [replace(b, bb_id=b.bb_id + 1000) for b in result.executable.exec_blocks]
            return replace(result, executable=replace(result.executable, exec_blocks=renamed))

        monkeypatch.setattr(repro.bolt, "run_bolt", renaming_bolt)
        progress = io.StringIO()
        listener = logging.StreamHandler(progress)
        logging.getLogger("repro").addHandler(listener)
        try:
            assert main(["compare", prog, *self.ARGS]) == 0
        finally:
            logging.getLogger("repro").removeHandler(listener)
        assert "bolt" in capsys.readouterr().out
        assert "cannot replay the baseline's walk" in progress.getvalue()


class TestBadConfigFlags:
    """A flag value ``PipelineConfig`` rejects is a one-line error naming
    the field and exit status 2 -- from every subcommand that builds a
    config, before any work starts."""

    BAD = [("--lbr-period", "0", "lbr_period"),
           ("--workers", "0", "workers"),
           ("--lbr-branches", "-5", "lbr_branches")]

    @pytest.fixture(scope="class")
    def prog(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("badcfg") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return str(path)

    @pytest.mark.parametrize("flag,value,field", BAD)
    def test_optimize_exits_2_without_a_traceback(self, prog, flag, value, field):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools", "optimize", prog, flag, value],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and field in done.stderr
        assert done.stdout == ""

    def test_every_config_building_subcommand(self, prog, tmp_path):
        lbr = str(tmp_path / "p.lbr")
        for argv in (["profile", prog, "-o", lbr],
                     ["wpa", prog, lbr],
                     ["optimize", prog],
                     ["compare", prog]):
            assert main([*argv, "--pgo-steps", "-1"]) == 2, argv[0]


class TestBadProfileFile:
    """``wpa PROGRAM PERF`` with a profile it cannot read is one stderr
    line naming the file and exit status 2, never a traceback."""

    @pytest.fixture(scope="class")
    def prog(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("badlbr") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return str(path)

    @pytest.mark.parametrize("name", ["missing", *sorted(_MALFORMED_LBR)])
    def test_exits_2_without_a_traceback(self, prog, tmp_path, name):
        import os
        import subprocess
        import sys

        perf = tmp_path / f"{name}.lbr"
        if name != "missing":
            perf.write_bytes(_MALFORMED_LBR[name][0])
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools", "wpa", prog, str(perf),
             "--cc-prof", str(tmp_path / "cc.txt"), "--ld-prof", str(tmp_path / "ld.txt")],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and str(perf) in done.stderr
        assert done.stdout == ""
        assert not (tmp_path / "cc.txt").exists()


def _run_cli(*argv):
    import os
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    return subprocess.run([sys.executable, "-m", "repro.tools", *argv],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def _entry_block(data):
    """The first block of ``data``'s entry function: the PGO run's first step."""
    return next(fn["blocks"][0] for module in data["modules"] for fn in module["functions"]
                if fn["name"] == data["entry"])


#: Edits that leave a program's JSON well-formed but the program invalid.
_INVALID_PROGRAMS = {
    "undefined-callee": lambda data: _entry_block(data)["instrs"].append(
        {"call": "no_such_function", "indirect": []}),
    "undefined-indirect-target": lambda data: _entry_block(data)["instrs"].append(
        {"call": None, "indirect": [["no_such_function", 1.0]]}),
    "missing-block": lambda data: _entry_block(data).update(
        term={"kind": "jump", "target": 99999}),
    "undefined-entry": lambda data: data.update(entry="no_such_function"),
    "zero-target-switch": lambda data: _entry_block(data).update(
        term={"kind": "switch", "targets": [], "probs": []}),
}


class TestBadProgramFile:
    """Every subcommand that reads a ``PROGRAM`` file turns a missing,
    malformed or invalid one into one stderr line naming it and exit
    status 2."""

    @pytest.fixture(scope="class")
    def program_json(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("valid") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return path.read_text()

    @pytest.mark.parametrize("content", [None, "not json", *_INVALID_PROGRAMS],
                             ids=["missing", "not-json", *_INVALID_PROGRAMS])
    @pytest.mark.parametrize("command", [
        ["profile", "{prog}", "-o", "{out}.lbr"],
        ["wpa", "{prog}", "{out}.lbr"],
        ["optimize", "{prog}"],
        ["compare", "{prog}"],
        ["edit", "{prog}", "-o", "{out}.json"],
    ], ids=lambda argv: argv[0])
    def test_exits_2_without_a_traceback(self, tmp_path, command, content, program_json):
        prog = tmp_path / "w.json"
        if content in _INVALID_PROGRAMS:
            data = json.loads(program_json)
            _INVALID_PROGRAMS[content](data)
            prog.write_text(json.dumps(data))
        elif content is not None:
            prog.write_text(content)
        done = _run_cli(*(arg.format(prog=prog, out=tmp_path / "out")
                          for arg in command))
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1 and str(prog) in done.stderr
        assert done.stdout == ""
        assert list(tmp_path.iterdir()) == ([] if content is None else [prog])

    @pytest.mark.parametrize("content", [
        "[1, 2]", "{}", '{"format": "repro-program", "version": 1}'])
    def test_wrong_shape_is_a_value_error_naming_the_file(self, tmp_path,
                                                          content):
        prog = tmp_path / "w.json"
        prog.write_text(content)
        with pytest.raises(ValueError) as info:
            load_program(prog)
        assert str(prog) in str(info.value)


class TestBadFaultPlan:
    """A ``--fault-plan`` that does not resolve -- an out-of-range or
    non-numeric value, an unknown or removed key, an ``only=`` kind no
    action has, or the path of a file (whatever it holds: a plan has one format, the
    spec string, and a path is not ``key=value``) -- is one stderr line
    and exit status 2, before any work starts."""

    @pytest.fixture(scope="class")
    def prog(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("badplan") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return str(path)

    @pytest.mark.parametrize("spec, file_content", [
        ("fail=2", None),
        ("bogus=1", None),
        ("fail=x", None),
        ("fail=1,only=profile-pgx", None),
        (None, '{"fail_rate": "x"}'),
        (None, "[1, 2]"),
        (None, "{not json"),
        ("fail=0.1,attempts=3", None),
    ], ids=["rate-out-of-range", "unknown-key", "not-a-number",
            "unknown-only-kind", "mistyped-field", "not-an-object", "not-json",
            "removed-key"])
    def test_exits_2_without_a_traceback(self, prog, tmp_path, spec,
                                         file_content):
        if file_content is not None:
            spec = str(tmp_path / "plan.json")
            Path(spec).write_text(file_content)
        done = _run_cli("optimize", prog, "--fault-plan", spec)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""


class TestBadFlagValues:
    """A flag value a command cannot use is one stderr line and exit
    status 2, before any work starts -- never a traceback, and never a
    silent no-op."""

    @pytest.fixture(scope="class")
    def prog(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("badflag") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["generate", "--preset", "505.mcf", "--scale", "0", "-o", "{out}"],
        ["generate", "--preset", "505.mcf", "--scale", "-1", "-o", "{out}"],
        ["compare", "{prog}", "--hw-scale", "0", "--lbr-branches", "20000",
         "--pgo-steps", "10000"],
        ["compare", "{prog}", "--blocks", "-5", "--lbr-branches", "20000",
         "--pgo-steps", "10000"],
        ["edit", "{prog}", "-o", "{out}", "--kinds", "bogus"],
        ["edit", "{prog}", "-o", "{out}", "--edits", "100000"],
        ["edit", "{prog}", "-o", "{out}", "--edits", "-1"],
    ], ids=["scale-0", "scale-negative", "hw-scale-0", "blocks-negative",
            "unknown-edit-kind", "too-many-edits", "negative-edits"])
    def test_exits_2_with_one_line(self, prog, tmp_path, capsys, argv):
        out = tmp_path / "out.json"
        argv = [arg.format(prog=prog, out=out) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.out == ""
        assert not out.exists()


class TestUnwritableOutput:
    """An output path the command could not write -- its directory is
    missing, or it is a directory -- is one stderr line and exit status
    2, checked before the command does any work or writes anything."""

    @pytest.mark.parametrize("argv", [
        ["generate", "--preset", "505.mcf", "-o", "{bad}"],
        ["profile", "w.json", "-o", "{bad}"],
        ["edit", "w.json", "-o", "{bad}"],
        ["optimize", "w.json", "--metrics-out", "{bad}"],
        ["optimize", "w.json", "--trace-out", "{bad}"],
        ["bench", "--out", "{bad}"],
        ["explain", "a.json", "b.json", "--json", "{bad}"],
        ["explain", "a.json", "b.json", "--markdown", "{bad}"],
    ], ids=lambda argv: f"{argv[0]}{argv[-2]}")
    @pytest.mark.parametrize("bad", ["missing/dir/x.json", "."],
                             ids=["missing-dir", "a-directory"])
    def test_exits_2_before_any_work(self, tmp_path, monkeypatch, capsys,
                                     argv, bad):
        import repro.tools.cli as cli

        def no_work(args):
            raise AssertionError(f"{args.command} ran")

        for name in dir(cli):
            if name.startswith("cmd_"):
                monkeypatch.setattr(cli, name, no_work)
        monkeypatch.chdir(tmp_path)
        assert main([arg.format(bad=bad) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert captured.err.startswith("cannot write ")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


class TestRetriesExhausted:
    """A fault plan that exhausts a product build's retry budget is a
    run that could not finish: one stderr line, exit status 1, no
    traceback and no output file."""

    @pytest.fixture(scope="class")
    def prog(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("exhausted") / "w.json"
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", str(path)])
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["optimize", "{prog}", "--report", "{out}", "--metrics-out", "{out}.json"],
        ["profile", "{prog}", "-o", "{out}"],
    ], ids=lambda argv: argv[0])
    def test_exits_1_with_one_line(self, prog, tmp_path, capsys, argv):
        out = tmp_path / "out"
        argv = [arg.format(prog=prog, out=out) for arg in argv]
        assert main([*argv, "--fault-plan", "fail=1.0", "--lbr-branches",
                     "20000", "--pgo-steps", "10000"]) == 1
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        assert "faulted on all" in captured.err
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []


def _as_v1(text: str) -> str:
    """A snapshot in the schema-1 layout: every function also carried
    its total instrumented block count."""
    data = json.loads(text)
    data["schema_version"] = 1
    for entry in data["functions"].values():
        entry["total_count"] = 1.0
    return json.dumps(data)


class TestBadStateDirectory:
    """A ``--state-dir`` whose snapshot cannot seed this run is one
    stderr line and exit status 2, never a traceback."""

    ARGS = ["--lbr-branches", "20000", "--pgo-steps", "10000"]

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("badstate")
        prog = str(root / "w.json")
        main(["generate", "--preset", "505.mcf", "--scale", "0.2", "-o", prog])
        assert main(["optimize", prog, *self.ARGS,
                     "--state-dir", str(root / "st")]) == 0
        return prog, root / "st"

    @pytest.mark.parametrize("damage, extra", [
        (lambda text: text[:len(text) // 2], []),
        (lambda text: "[1,2]", []),
        (lambda text: text.replace('"cfg_digest"', '"cfg"'), []),
        (lambda text: "{}", []),
        (lambda text: text, ["--seed", "9"]),
        (lambda text: _as_v1(text), []),
    ], ids=["truncated", "list", "bad-function", "empty-object", "other-seed",
            "schema-v1"])
    def test_exits_2_without_a_traceback(self, saved, tmp_path, damage, extra):
        import os
        import shutil
        import subprocess
        import sys
        from pathlib import Path

        prog, state_dir = saved
        bad = tmp_path / "st"
        shutil.copytree(state_dir, bad)
        snapshot = bad / "state.json"
        snapshot.write_text(damage(snapshot.read_text()))
        src = str(Path(__file__).resolve().parent.parent / "src")
        done = subprocess.run(
            [sys.executable, "-m", "repro.tools", "optimize", prog,
             *self.ARGS, *extra, "--state-dir", str(bad)],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert "Traceback" not in done.stderr
        assert done.stderr.count("\n") == 1
        assert done.stdout == ""


class TestCLIAPIDiscipline:
    def test_stages_command_is_gone(self, capsys):
        """``run()`` calls the phases in order; there is no stage graph
        to print, so ``stages`` is an unknown command."""
        for argv in (["stages"], ["stages", "--help"]):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2
            assert "stages" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--resume-from", "--stop-after", "--artifacts-out"])
    def test_partial_execution_flags_are_gone(self, flag, capsys):
        """A stopped run resumes through ``--cache-dir``; the flags of
        the deleted partial execution are argparse errors."""
        with pytest.raises(SystemExit) as exit_:
            main(["optimize", "w.json", flag, "wpa"])
        assert exit_.value.code == 2
        assert flag in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, capsys):
        assert len(PIPELINE_FLAG_FIELDS) == 10
        assert "jobs" not in PIPELINE_FLAG_FIELDS
        with pytest.raises(SystemExit):
            main(["optimize", "--help"])
        assert "--jobs" not in capsys.readouterr().out

    def test_defaults_match_pipeline_config(self):
        """CLI defaults come from PipelineConfig -- provably identical."""
        from repro.core.pipeline import PipelineConfig

        config = PipelineConfig()
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        for cmd in ("profile", "wpa", "optimize", "compare"):
            cmd_parser = sub.choices[cmd]
            for dest, field in PIPELINE_FLAG_FIELDS.items():
                assert cmd_parser.get_default(dest) == getattr(config, field), (
                    f"{cmd} --{dest.replace('_', '-')} default diverges from "
                    f"PipelineConfig.{field}"
                )

    def test_cli_calls_no_private_pipeline_methods(self):
        """The CLI and the examples must use only the public pipeline
        API -- no ``pipe._foo(...)`` calls, no retired names."""
        import inspect
        import re
        from pathlib import Path

        import repro.tools.cli as cli

        sources = {"repro/tools/cli.py": inspect.getsource(cli)}
        examples_dir = Path(__file__).resolve().parent.parent / "examples"
        for path in sorted(examples_dir.glob("*.py")):
            sources[f"examples/{path.name}"] = path.read_text()

        for label, source in sources.items():
            private_calls = re.findall(r"\b(?:pipe|pipeline)\._\w+", source)
            assert not private_calls, f"{label}: {private_calls}"
            retired = re.findall(r"repro\.profiling|\b_link_options\b", source)
            assert not retired, f"{label}: {retired}"
