"""Golden outputs: `verify`, `hgraph`, `curvature --all` and `search` stay byte-identical.

Each file under ``tests/golden/`` is the CLI's stdout for one case;
``MANIFEST.json`` holds each case's argv, exit code and stderr. The inputs
are written from the in-repo generators, and the CLI runs in their
directory, so the file name that `verify` prints as the graph id is fixed.
Regenerate the files only for an intended output change, with
``PYTHONPATH=src python tests/test_golden.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from arcurv import (
    dump_edge_list, gen_clebsch, gen_cocktail, gen_complete, gen_hamming, gen_hypercube, gen_paley,
    gen_product, gen_shrikhande,
)
from arcurv.cli import main
from arcurv.report import report_to_dict, verify_graph

GOLDEN = Path(__file__).resolve().parent / "golden"

GRAPHS = {
    "h23": lambda: gen_hamming(2, 3),
    "cocktail3": lambda: gen_cocktail(3),
    "paley13": lambda: gen_paley(13),
    "shrikhande": gen_shrikhande,
    "h33": lambda: gen_hamming(3, 3),
    "cocktail8": lambda: gen_cocktail(8),
    "paley29": lambda: gen_paley(29),
    "q3": lambda: gen_hypercube(3),
    "clebsch-k2": lambda: gen_product(gen_clebsch(), gen_complete(2)),
}

ALL_KINDS = (
    "verify.txt", "verify.json", "verify.csv", "hgraph.txt", "hgraph.json",
    "curvature.json", "curvature-p1_2.json", "curvature-p0.json", "curvature-pknee.json",
)
# The larger graphs pin only the outputs that rest on the exact LLY transport.
# H(2,3) (d = 4) also pins CSV at p = 1/10, inside (0, 1/(d+1)), where kappa_p
# is interpolated between the idleness-0 and the LLY assignments.
KINDS = {
    "h23": ALL_KINDS + ("curvature-p1_10.csv",),
    "h33": ("verify.txt", "verify.json"),
    "cocktail8": ("verify.txt", "verify.json"),
    "paley29": ("verify.txt", "verify.json", "curvature.json"),
    # Q3 (8,3,0,2) is the one golden graph with alpha = 0: no witness, but the dense
    # certificate (2*2 - 0 >= d + 1), and zones at girth 4 in both passes.
    "q3": ("verify.txt", "verify.json", "verify.csv", "curvature.json", "curvature-p0.json"),
    # Clebsch x K2 (32,6,0,2) is not distance-regular: the one golden on the Bareiss route.
    "clebsch-k2": ("verify.txt", "verify.json"),
}

# `search` tuples (n, d, alpha, beta): seven hits, among them the Petersen
# graph (10,3,0,1), then three exhausted tuples and the infeasible (8,5,2,4).
SEARCHES = (
    ("10", "3", "0", "1"), ("8", "3", "0", "2"), ("6", "4", "2", "4"),
    ("9", "6", "3", "6"), ("9", "4", "1", "2"), ("10", "8", "6", "8"),
    ("4", "3", "2", "none"),
    ("10", "3", "0", "2"), ("9", "4", "2", "2"), ("10", "6", "3", "3"),
    ("8", "5", "2", "4"),
)

# Floating-point eigenvalues from numpy's eigvalsh in the verify JSON, shown
# but never asserted on, compared within this tolerance so that the test holds
# across LAPACK builds. The spectral verdicts rest on the exact certificates,
# which are compared byte for byte.
FLOAT_KEYS = ("sigma_second", "lambda_one")
FLOAT_TOL = 1e-12


def _cases() -> dict[str, list[str]]:
    cases = {}
    for name, make in GRAPHS.items():
        path = f"{name}.txt"
        g = make()
        u, v = (str(i) for i in g.edges()[0])
        knee = f"1/{g.regular_degree() + 1}"
        argvs = {
            "verify.txt": ["verify", path],
            "verify.json": ["--format", "json", "verify", path],
            "verify.csv": ["--format", "csv", "verify", path],
            "hgraph.txt": ["hgraph", path, "--edge", u, v],
            "hgraph.json": ["--format", "json", "hgraph", path, "--edge", u, v],
            "curvature.json": ["--format", "json", "curvature", path, "--all"],
            "curvature-p1_2.json": [
                "--format", "json", "curvature", path, "--all", "--p", "1/2",
            ],
            "curvature-p0.json": [
                "--format", "json", "curvature", path, "--all", "--p", "0",
            ],
            # p = 1/(d+1), where the idleness function of a regular edge bends
            "curvature-pknee.json": [
                "--format", "json", "curvature", path, "--all", "--p", knee,
            ],
            "curvature-p1_10.csv": [
                "--format", "csv", "curvature", path, "--all", "--p", "1/10",
            ],
        }
        for kind in KINDS.get(name, ALL_KINDS):
            cases[f"{name}-{kind}"] = argvs[kind]
    for params in SEARCHES:
        cases[f"search-{'-'.join(params)}.txt"] = ["search", *params]
    return cases


def _write_inputs(directory: Path) -> None:
    for name, make in GRAPHS.items():
        (directory / f"{name}.txt").write_text(dump_edge_list(make()))


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _float_tokens(text: str) -> dict[str, str]:
    tokens = {}
    for key in FLOAT_KEYS:
        found = re.findall(rf'"{key}": ([^,}}]+)', text)
        assert len(found) == 1, f"{key} appears {len(found)} times"
        tokens[key] = found[0]
    return tokens


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden-inputs")
    _write_inputs(directory)
    return directory


@pytest.mark.parametrize("case", sorted(_cases()))
def test_golden_output(case, inputs, monkeypatch):
    expected = json.loads((GOLDEN / "MANIFEST.json").read_text())[case]
    argv = _cases()[case]
    assert expected["argv"] == argv
    monkeypatch.chdir(inputs)
    code, out, err = _run(argv)
    assert (code, err) == (expected["exit"], expected["stderr"])
    golden = (GOLDEN / case).read_text()
    if case.endswith("-verify.json"):
        got, want = _float_tokens(out), _float_tokens(golden)
        for key in FLOAT_KEYS:
            assert abs(float(got[key]) - float(want[key])) <= FLOAT_TOL, key
            out = out.replace(f'"{key}": {got[key]}', f'"{key}": {want[key]}')
    assert out == golden


def _plain(value):
    """A report field as JSON data, encoded afresh at every occurrence: the field-by-field
    encoding, with Fractions as "p/q" and tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


@pytest.mark.parametrize("name", ["paley29", "cocktail8"])
def test_shared_checks_are_encoded_once_into_the_same_json(name):
    report = verify_graph(GRAPHS[name](), graph_id=f"{name}.txt")
    encoded = report_to_dict(report)
    assert json.dumps(encoded, sort_keys=True) == json.dumps(_plain(report), sort_keys=True)
    # every edge of these graphs has one curvature value, so one checks tuple, one list
    tuples = {id(row.checks) for row in report.edges}
    lists = {id(row["checks"]) for row in encoded["edges"]}
    assert len(tuples) == len(lists) == 1 and len(report.edges) > 1

    GOLDEN.mkdir(exist_ok=True)
    manifest = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write_inputs(Path(tmp))
        os.chdir(tmp)
        try:
            for case, argv in sorted(_cases().items()):
                code, out, err = _run(argv)
                (GOLDEN / case).write_text(out)
                manifest[case] = {"argv": argv, "exit": code, "stderr": err}
        finally:
            os.chdir(cwd)
    (GOLDEN / "MANIFEST.json").write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
