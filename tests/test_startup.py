"""The start-up path: which commands import scipy's assignment solver and its
sparse matching, when the CLI's parser is built, and that repeated `main`
calls in one process answer as fresh processes do.

Each case runs in a fresh interpreter (``sys.executable -c`` or ``-m``),
since the test process itself has long since imported scipy and built the
parser. Nothing here is timed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import arcurv
from arcurv import dump_edge_list, gen_complete, gen_paley
from arcurv.cli import EXIT_INPUT, EXIT_OK, build_parser, main

SOLVER = "scipy.optimize"
SPARSE, MATCHER = "scipy.sparse", "scipy.sparse.csgraph"
SRC = str(Path(arcurv.__file__).resolve().parents[1])

# Runs cli.main on argv, then prints its exit code, stdout, stderr and
# whether scipy.optimize was imported, as one JSON line.
_MAIN = """
import contextlib, io, json, sys
from arcurv.cli import main
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), err.getvalue(), %r in sys.modules]))
""" % SOLVER


def _run(*args: str) -> subprocess.CompletedProcess:
    """A fresh ``sys.executable`` on ``args`` that imports arcurv from this tree."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


def _fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    done = _run("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    return done


def _fresh_main(*argv: str) -> tuple[int, str, str, bool]:
    return tuple(json.loads(_fresh(_MAIN, *argv).stdout))


@pytest.fixture(scope="module")
def paley13_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "paley13.txt"
    path.write_text(dump_edge_list(gen_paley(13)))
    return str(path)


@pytest.fixture(scope="module")
def k5_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "k5.txt"
    path.write_text(dump_edge_list(gen_complete(5)))
    return str(path)


def test_import_leaves_the_solver_out():
    done = _fresh(f"import sys, arcurv.cli; print({SOLVER!r} in sys.modules)")
    assert done.stdout == "False\n"


def test_import_leaves_scipy_sparse_out():
    done = _fresh(f"import sys, arcurv.cli; print({SPARSE!r} in sys.modules)")
    assert done.stdout == "False\n"


# Runs cli.main on argv with stdout discarded, then prints its exit code and
# whether scipy's sparse matching was imported.
_MATCHER = """
import contextlib, io, sys
from arcurv.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, %r in sys.modules)
""" % MATCHER


@pytest.mark.parametrize("argv, imported", [
    (["curvature", "{file}", "--all"], False),  # assignments, but no matching
    (["curvature", "{file}", "--all", "--p", "1/2"], False),
    (["search", "10", "3", "0", "1"], False),
    (["verify", "{file}"], True),  # the witness's Konig rounds match
])
def test_only_a_matching_imports_the_sparse_matcher(paley13_file, argv, imported):
    argv = [a.format(file=paley13_file) for a in argv]
    assert _fresh(_MATCHER, *argv).stdout == f"{EXIT_OK} {imported}\n"


# Counts the argparse parsers built by importing arcurv.cli, then by a first
# and a second main call (the parser and one subparser per command).
_PARSERS = """
import argparse, contextlib, io, json
built = []
init = argparse.ArgumentParser.__init__

def counting_init(self, *args, **kwargs):
    built.append(self)
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counting_init
import arcurv.cli
counts = [len(built)]
for _ in range(2):
    with contextlib.redirect_stdout(io.StringIO()):
        arcurv.cli.main(["search", "5", "2", "0", "1"])
    counts.append(len(built))
print(json.dumps(counts))
"""


def test_import_builds_no_parser_and_main_builds_it_once():
    imported, first, second = json.loads(_fresh(_PARSERS).stdout)
    assert imported == 0
    (subcommands,) = [a.choices for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert first == second == 1 + len(subcommands)


def test_repeated_main_calls_answer_as_fresh_processes(tmp_path, paley13_file, capsys,
                                                       monkeypatch):
    # One parser serves every call: a JSON call must not leave text calls in
    # JSON, and an argparse error or a refused input must not leave state
    # behind for the next call.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    huge = tmp_path / "huge.txt"
    huge.write_text("3000000 0\n")
    sequence = [
        ["--format", "json", "params", paley13_file],
        ["params", paley13_file],
        ["search", "5", "x", "0", "1"],
        ["--size-cap", "10", "verify", str(huge)],
        ["curvature", paley13_file, "--all", "--p", "1/2"],
    ]
    for argv, expected_code in zip(sequence, [EXIT_OK, EXIT_OK, EXIT_INPUT, EXIT_INPUT, EXIT_OK]):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = _run("-m", "arcurv.cli", *argv)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        assert code == expected_code
    assert fresh.stdout.count("\n") == 39  # (13,6,2,3): one line per edge


@pytest.mark.parametrize("argv", [
    ["search", "5", "2", "0", "1"],
    ["gen", "paley", "13"],
    ["params", "{file}"],
    ["diameter", "{file}"],
    ["spectrum", "{file}"],
    ["curvature", "{file}", "--edge", "0", "2", "--p", "1/2"],
    ["curvature", "{k5}", "--all"],  # B(x) = B(y) on every edge: nothing to solve
])
def test_commands_without_an_assignment_never_import_the_solver(paley13_file, k5_file, argv):
    argv = [a.format(file=paley13_file, k5=k5_file) for a in argv]
    code, out, err, loaded = _fresh_main(*argv)
    assert (code, err, loaded) == (EXIT_OK, "", False)
    assert out


@pytest.mark.parametrize("name, text", [("missing.txt", None), ("path4.txt", "4 3\n0 1\n1 2\n2 3\n")])
def test_input_error_exits_before_the_solver(tmp_path, name, text):
    # A missing file, and a path that is not amply regular.
    path = tmp_path / name
    if text is not None:
        path.write_text(text)
    code, out, err, loaded = _fresh_main("verify", str(path))
    assert (code, out, loaded) == (EXIT_INPUT, "", False)
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["curvature", "{file}", "--all"],
    ["verify", "{file}"],
])
def test_first_solve_imports_the_solver_and_output_is_unchanged(paley13_file, capsys, argv):
    argv = [a.format(file=paley13_file) for a in argv]
    code, out, err, loaded = _fresh_main(*argv)
    assert loaded
    assert main(argv) == code == EXIT_OK
    captured = capsys.readouterr()
    assert (out, err) == (captured.out, captured.err)


_SEAM = """
import sys
import arcurv.curvature as curvature
from arcurv import gen_paley, lly_curvature

g = gen_paley(13)
lazy = curvature.linear_sum_assignment
calls = []

def stand_in(cost):
    calls.append(cost.shape)
    return lazy(cost)  # the deferred import runs here, with the stand-in in place

curvature.linear_sum_assignment = stand_in
kappa = lly_curvature(g, 0, 1)
assert calls == [(3, 3)], calls
assert curvature.linear_sum_assignment is stand_in, "the deferred import replaced the stand-in"
assert %(solver)r in sys.modules
assert lly_curvature(g, 0, 1) == kappa and calls == [(3, 3)], "g's kept value was solved again"

# g keeps its value, so each later call takes a fresh graph to reach the solver
curvature.linear_sum_assignment = lazy
assert lly_curvature(gen_paley(13), 0, 1) == kappa
from scipy.optimize import linear_sum_assignment
assert curvature.linear_sum_assignment is linear_sum_assignment
assert lly_curvature(gen_paley(13), 0, 1) == kappa and calls == [(3, 3)]
print(kappa)
""" % {"solver": SOLVER}


def test_a_stand_in_set_before_the_first_solve_is_kept():
    # Paley(13) is (13,6,2,3): edge 0 1 lies in 2 triangles, so one
    # B(0) - B(1) -> B(1) - B(0) problem on 3 + 3 vertices, kappa 2/3.
    assert _fresh(_SEAM).stdout == "2/3\n"
