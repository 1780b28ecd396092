"""Command-line harness: describe tables, suite runs, reports, exit codes.

Exit code contract: 0 pass, 1 verification failure, 2 usage error, 3
output I/O failure, 4 internal error.  JSON reports must be byte-identical
for identical (algebra, seed, samples) configurations.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ucz import ALGEBRA_DESCRIPTORS, cli, kostant, liealg
from ucz.cli import main
from ucz.errors import (
    ConstructionError,
    DecompositionError,
    DimensionError,
    DomainError,
    PoleError,
)
from ucz.suites import SUITE_NAMES, SuiteReport

A1_DESCRIBE = """\
algebra A1: dim n = 3, rank l = 1, positive roots = 1
principal triple:
  e = e1
  h = h1
  f = f1
slice degrees: (2,)
orbit table:
  I           dim  stab  divisor
  {}            2     4      yes
  {1}           3     3
"""


def test_describe_a1_exact(capsys):
    assert main(["describe", "A1"]) == 0
    assert capsys.readouterr().out == A1_DESCRIBE


def test_describe_a2_key_lines(capsys):
    assert main(["describe", "A2"]) == 0
    out = capsys.readouterr().out
    assert "algebra A2: dim n = 8, rank l = 2, positive roots = 3" in out
    assert "h = 2*h1 + 2*h2" in out
    assert "slice degrees: (2, 3)" in out
    assert "{1,2}         8     8" in out


def test_describe_g2_key_lines(capsys):
    assert main(["describe", "G2"]) == 0
    out = capsys.readouterr().out
    assert "algebra G2: dim n = 14, rank l = 2, positive roots = 6" in out
    assert "h = 6*h1 + 10*h2" in out
    assert "slice degrees: (2, 6)" in out


def test_verify_small_run_passes(capsys):
    code = main(["verify", "A1", "--samples", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out
    assert "wall time" in out


def test_verify_single_suite(capsys):
    code = main(["verify", "A2", "--suite", "kostant", "--samples", "5", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "kostant" in out
    assert "moment" not in out


def test_unknown_algebra_is_a_usage_error(capsys):
    assert main(["describe", "E8"]) == 2
    assert main(["verify", "Q1", "--samples", "1"]) == 2
    err = capsys.readouterr().err
    assert "unsupported algebra" in err
    # a superscript two is a Unicode digit that int() refuses
    assert main(["describe", "A²"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "unsupported algebra 'A²'" in captured.err


def test_unknown_suite_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "A1", "--suite", "nope"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert "invalid choice" in err


def test_main_builds_its_parser_once(capsys, monkeypatch):
    # `main` run in process, as the benchmark does, reuses one parser, also
    # after a call that the parser refused
    used = []
    parse = argparse.ArgumentParser.parse_args

    def record(self, *args, **kwargs):
        used.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", record)
    assert main(["describe", "A1"]) == 0
    with pytest.raises(SystemExit):
        main(["verify", "A1", "--suite", "nope"])
    assert main(["verify", "A1", "--samples", "1", "--format", "json"]) == 0
    capsys.readouterr()
    assert len(used) == 3 and used[0] is used[1] is used[2] is cli.build_parser()


@pytest.mark.parametrize(
    "seed, message",
    [
        pytest.param("pi", "seed must be an integer", id="pi"),
        pytest.param("4_2", "seed must be an integer", id="underscore"),
        pytest.param("0x_2a", "seed must be an integer", id="prefixed-underscore"),
        pytest.param("+42", "seed must be an integer", id="plus"),
        pytest.param("\u0664\u0662", "seed must be an integer", id="arabic-indic"),
        pytest.param("-1", "seed must lie in 0..18446744073709551615", id="-1"),
        pytest.param("18446744073709551616", "seed must lie in 0..18446744073709551615", id="2^64"),
    ],
)
def test_bad_seed_is_a_usage_error(capsys, monkeypatch, seed, message):
    assert main(["verify", "A1", "--seed", seed, "--samples", "1"]) == 2
    monkeypatch.setenv("UCZ_SEED", seed)
    assert main(["verify", "A1", "--samples", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"{message}, got {seed!r}"] * 2


def test_largest_seed_runs(capsys):
    assert main(["verify", "A1", "--seed", "18446744073709551615", "--samples", "1"]) == 0
    assert "seed 18446744073709551615" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "report"])
@pytest.mark.parametrize("samples", ["0", "-5"])
def test_samples_below_one_is_a_usage_error(capsys, command, samples):
    assert main([command, "A1", "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"--samples must be at least 1, got {samples}\n"


def test_json_report_schema(capsys):
    code = main(["report", "A1", "--samples", "3", "--seed", "7"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra"] == "A1"
    assert doc["seed"] == 7
    names = [s["name"] for s in doc["suites"]]
    assert names == ["kostant", "moment", "wonderful", "logsympl", "reduction"]
    for suite in doc["suites"]:
        assert suite["passed"] == suite["total"]
        for check in suite["details"]:
            assert set(check) == {"name", "passed", "total", "detail"}


def test_json_report_is_deterministic(capsys):
    main(["report", "A1", "--samples", "4", "--seed", "11"])
    first = capsys.readouterr().out
    main(["report", "A1", "--samples", "4", "--seed", "11"])
    second = capsys.readouterr().out
    assert first == second
    main(["report", "A1", "--samples", "4", "--seed", "12"])
    assert capsys.readouterr().out != first


def test_report_writes_a_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["report", "A1", "--samples", "3", "--seed", "7", "-o", str(target)])
    assert code == 0
    on_disk = target.read_text(encoding="utf-8")
    main(["report", "A1", "--samples", "3", "--seed", "7"])
    assert on_disk == capsys.readouterr().out


def test_unwritable_report_path_is_an_io_error(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["report", "A1", "--samples", "3", "-o", str(target)])
    assert code == 3
    assert "cannot write report" in capsys.readouterr().err


class _FullStdout:
    """A standard output on a full device: either each write fails, or (as
    with a buffered stream) writes are kept and every flush fails."""

    def __init__(self, fails_on, fd):
        self.fails_on, self.fd = fails_on, fd

    def _fail(self, step):
        if step == self.fails_on:
            raise OSError(28, "No space left on device")

    def write(self, text):
        self._fail("write")

    def flush(self):
        self._fail("flush")

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("fails_on", ["write", "flush"])
@pytest.mark.parametrize("command", ["verify", "report", "describe"])
def test_unwritable_stdout_is_an_io_error(tmp_path, capsys, monkeypatch, command, fails_on):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _FullStdout(fails_on, fd))
        args = [command, "A1"] + (["--samples", "1"] if command != "describe" else [])
        assert main(args) == cli.IO_ERROR == 3
        assert capsys.readouterr().err == "cannot write report: [Errno 28] No space left on device\n"
        # a stdout that still cannot flush is pointed at devnull, so the
        # interpreter's flush at exit cannot fail on the kept bytes again
        devnull = os.stat(os.devnull)
        points_at_devnull = os.path.samestat(os.fstat(fd), devnull)
        assert points_at_devnull == (fails_on == "flush")
    finally:
        os.close(fd)


@pytest.mark.parametrize("command", ["verify", "report"])
def test_a_failed_check_exits_1(tmp_path, capsys, monkeypatch, command):
    def failing_suites(L, names, seed, samples):
        report = SuiteReport("kostant", L.descriptor)
        report.add("section", 2, 3, "one sample missed")
        return [report]

    monkeypatch.setattr(cli, "run_suites", failing_suites)
    assert main([command, "A1", "--samples", "3", "--format", "json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert (doc["suites"][0]["passed"], doc["suites"][0]["total"]) == (2, 3)
    if command == "report":
        # the report is still written to the file when a check fails
        target = tmp_path / "report.json"
        assert main([command, "A1", "--samples", "3", "-o", str(target)]) == 1
        assert json.loads(target.read_text(encoding="utf-8")) == doc


def test_a_broken_construction_exits_1_through_the_suites(capsys, monkeypatch):
    # the section checks nothing of its own: with doubled pivots its points
    # miss the prescribed invariants, a failed check rather than an internal error
    real = kostant.slice_pivots
    monkeypatch.setattr(kostant, "slice_pivots", lambda ks: tuple(2 * c for c in real(ks)))
    assert main(["verify", "A2", "--suite", "kostant", "--samples", "2"]) == 1
    captured = capsys.readouterr()
    assert "    slice roundtrip: 0/2" in captured.out
    assert captured.err == ""


def test_seed_falls_back_to_environment(capsys, monkeypatch):
    monkeypatch.setenv("UCZ_SEED", "99")
    main(["report", "A1", "--samples", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["seed"] == 99
    monkeypatch.delenv("UCZ_SEED")
    main(["report", "A1", "--samples", "3"])
    default = capsys.readouterr().out
    assert json.loads(default)["seed"] == 42
    # a decimal seed may carry leading zeros; a prefixed one reads in its base;
    # surrounding whitespace is stripped, as the algebra parser strips it
    for text in ("042", "0x2A", "42\n"):
        monkeypatch.setenv("UCZ_SEED", text)
        assert main(["report", "A1", "--samples", "3"]) == 0
        assert capsys.readouterr().out == default


def test_seed_flag_beats_environment(capsys, monkeypatch):
    monkeypatch.setenv("UCZ_SEED", "99")
    main(["report", "A1", "--samples", "3", "--seed", "5"])
    assert json.loads(capsys.readouterr().out)["seed"] == 5
    main(["report", "A1", "--samples", "3", "--seed", "42"])
    expected = capsys.readouterr().out
    for text in ("042", "0x2A", " 42 "):
        assert main(["report", "A1", "--samples", "3", "--seed", text]) == 0
        assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "error", [ConstructionError, DecompositionError, DomainError, DimensionError, PoleError]
)
@pytest.mark.parametrize("command", ["verify", "report"])
def test_library_error_is_an_internal_error(capsys, monkeypatch, command, error):
    def broken_suites(*args):
        raise error("no preimage")

    monkeypatch.setattr(cli, "run_suites", broken_suites)
    assert main([command, "A1", "--samples", "1"]) == cli.INTERNAL_ERROR == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"internal error: {error.__name__}: no preimage\n"


def test_a_broken_generator_is_a_construction_error(capsys, monkeypatch):
    # G2's e1 with a 3 in place of its 2 has no integral extraspecial
    # brackets: the library raises ConstructionError, and the CLI exits 4
    m, simple_e, simple_f = liealg._GENERATORS["G2"]
    e1 = tuple((r, c, 3 if (r, c) == (2, 3) else v) for r, c, v in simple_e[0])
    monkeypatch.setitem(liealg._GENERATORS, "G2", (m, [e1, *simple_e[1:]], simple_f))
    liealg._catalogue_algebra.cache_clear()
    try:
        with pytest.raises(ConstructionError):
            liealg.LieAlgebra("G2")._table
        assert main(["verify", "G2", "--samples", "1"]) == cli.INTERNAL_ERROR == 4
    finally:
        liealg._catalogue_algebra.cache_clear()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: ConstructionError: ")
    assert len(captured.err.splitlines()) == 1


def test_other_exceptions_still_propagate(monkeypatch):
    def broken_suites(*args):
        raise RuntimeError("a bug, not a library error")

    monkeypatch.setattr(cli, "run_suites", broken_suites)
    with pytest.raises(RuntimeError):
        main(["verify", "A1", "--samples", "1"])


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "ucz", "describe", "A1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == A1_DESCRIBE


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
@pytest.mark.parametrize("command", [["describe", "A1"], ["verify", "A1", "--samples", "1"]])
def test_python_dash_m_on_a_full_stdout_exits_3(command):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("PYTHONUNBUFFERED", None)  # buffered, so the failing flush keeps its bytes
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "ucz", *command],
            env=env,
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
        )
    assert done.returncode == 3, done.stderr
    assert done.stderr == "cannot write report: [Errno 28] No space left on device\n"


# sha256 of `ucz verify <alg> --samples 3 --seed 11 --format json`.  A change
# to the arithmetic under the suites must leave these reports byte-identical;
# a change that adds checks to a report re-records its hash and says why in
# CHANGES.md.
VERIFY_JSON_SHA256 = {
    "A1": "b053000c33b9cba6f247911cba7370e3d79a2118bcc34c140709b8a11aa53f63",
    "A2": "23664ca9ce2a17c3bbf97a8e19701320085cfc96d8badee7d157e14eaa9cf4ad",
    "A3": "d211c45c90bb8ed21b2b458574e8c6d1420d646f35e7ec26985324b856da8092",
    "B2": "74845fd6fe9015d71523e9926290dc420f6b7af4cf7b642cf9e5288e50a1e255",
    "G2": "9991431bfc7f4389bf0648147d92219bfd13986007ae077c0d4d64f988673be7",
}


@pytest.mark.parametrize("descriptor", sorted(VERIFY_JSON_SHA256))
def test_verify_json_is_pinned(capsys, descriptor):
    code = main(["verify", descriptor, "--samples", "3", "--seed", "11", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == VERIFY_JSON_SHA256[descriptor]


@pytest.mark.parametrize("descriptor", ALGEBRA_DESCRIPTORS)
def test_verify_runs_every_check_on_every_algebra(capsys, descriptor):
    # no suite or check passes vacuously, with a total of 0, and none is skipped
    assert main(["verify", descriptor, "--samples", "1", "--seed", "5", "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert [s["name"] for s in report["suites"]] == list(SUITE_NAMES)
    for suite in report["suites"]:
        assert suite["total"] > 0
        for check in suite["details"]:
            assert check["total"] > 0 and check["name"] != "skipped"
