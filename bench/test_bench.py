"""Tests of the benchmark itself: its oracles reject corrupted outputs, a
failing op is counted, and the tracer reproduces known call counts."""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import arcurv.cli as cli  # noqa: E402
from arcurv import generators  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# Paley(13) is (13,6,2,3): witness regime, curvature by the transport oracle.
PALEY13 = workloads.GraphSpec(lambda g: g.gen_paley(13), (13, 6, 2, 3), None,
                              oracles.srg_sigma2(6, 2, 3), 2)


def _call(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


@pytest.fixture
def paley13(tmp_path):
    return workloads._write_input("paley13", PALEY13, generators, random.Random(5), tmp_path)


def test_verify_oracle_rejects_perturbed_kappa_and_flipped_verdict(paley13):
    op = workloads._verify_op("paley13", PALEY13, paley13)
    rc, out = _call(op.argv)
    assert op.check(out, rc, op.expected) is None

    data = json.loads(out)
    data["edges"][3]["kappa"] = str(Fraction(data["edges"][3]["kappa"]) + Fraction(1, 1000))
    assert "curvature" in op.check(json.dumps(data), rc, op.expected)

    data = json.loads(out)
    data["overall_pass"] = False
    assert "PASS" in op.check(json.dumps(data), rc, op.expected)

    data = json.loads(out)
    data["witness"]["chain_bound_pass"] -= 1
    assert "witness" in op.check(json.dumps(data), rc, op.expected)
    assert "exit code" in op.check(out, 1, op.expected)


def test_curvature_oracle_rejects_perturbed_kappa(paley13):
    ops = workloads._curvature_ops("paley13", PALEY13, paley13)
    assert [op.expected["p"] for op in ops] == [0, Fraction(1, 7), Fraction(1, 2)]
    for op in ops:
        rc, out = _call(op.argv)
        assert op.check(out, rc, op.expected) is None
        rows = json.loads(out)
        rows[0]["kappa"] = str(Fraction(rows[0]["kappa"]) - Fraction(1, 7))
        assert op.check(json.dumps(rows), rc, op.expected) is not None

    half = ops[2]
    rc, out = _call(half.argv)
    wrong_lly = dict.fromkeys(half.expected["lly"], Fraction(1))
    assert "kappa_LLY" in half.check(out, rc, {**half.expected, "lly": wrong_lly})


def test_search_oracle_rejects_wrong_result():
    rc, out = _call(["--format", "json", "search", "5", "2", "0", "1"])
    assert oracles.check_search(out, rc, {"params": (5, 2, 0, 1)}) is None
    assert oracles.check_search(out, rc, {"params": None}) is not None
    assert oracles.check_search(out, rc, {"params": (5, 2, 0, 2)}) is not None
    assert oracles.check_search("none\n", 0, {"params": (5, 2, 0, 1)}) is not None
    assert oracles.check_search("none\n", 0, {"params": None}) is None


def _search_op(args, params):
    return workloads.Op(f"search {args}", ("--format", "json", "search", *args),
                        oracles.check_search, {"params": params})


def test_run_with_failing_op_reports_nonzero_failed_frac(tmp_path, monkeypatch, capsys):
    ops = [
        _search_op(("5", "2", "0", "1"), (5, 2, 0, 1)),
        _search_op(("5", "2", "0", "1"), None),  # wrong answer expected: fails the oracle
        workloads.Op("verify missing file", ("--format", "json", "verify", str(tmp_path / "nope")),
                     oracles.check_verify, {}),  # exit code 2
    ]
    monkeypatch.setattr(workloads, "build_ops", lambda *a: ops)
    monkeypatch.setattr(run, "setup_samples", lambda count: [0.5] * count)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    assert run.main(["--workload", "search-exhaustive", "--seed", "0", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is False
    assert result["attempted"] == 3 * run.MIN_PASSES
    assert result["failed"] == 2 * run.MIN_PASSES
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert result["metrics"]["pass_rel"]["value"] > 0
    frac_line = next(line for line in lines if line.startswith("failed_ops_frac"))
    assert float(frac_line.split()[1]) == pytest.approx(2 / 3)


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch, capsys):
    ops = [_search_op(("5", "2", "0", "1"), (5, 2, 0, 1)), _search_op(("6", "2", "0", "2"), None)]
    monkeypatch.setattr(workloads, "build_ops", lambda *a: ops)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", "search-exhaustive", "--seed", "0", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is True and result["attempted"] == 4
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["cli.ops"]["value"] == 2
    assert result["metrics"]["search.leaves"]["value"] > 0


def test_op_that_raises_is_a_failed_op(monkeypatch):
    def boom(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "search_amply", boom)
    result = run.run_op(cli, _search_op(("5", "2", "0", "1"), (5, 2, 0, 1)))
    assert "RuntimeError" in result["error"]


def test_tracer_reproduces_call_counts_and_restores_functions(paley13, monkeypatch):
    monkeypatch.setitem(spans.TRACED, "gone.function", ("arcurv.curvature", "no_such_function"))
    original_main = cli.main
    tracer = spans.Tracer()
    assert any("no_such_function" in note for note in tracer.notes)
    op = workloads._verify_op("paley13", PALEY13, paley13)
    tracer.install()
    try:
        result = run.run_op(cli, op, tracer)
    finally:
        tracer.uninstall()
    assert result["error"] is None
    assert cli.main is original_main
    values = run.layer_values(tracer.spans, *result["spans"], [op])
    assert values["cli.ops"] == 1
    assert values["curvature.lly_per_edge"] == 2
    assert values["matching.konig_per_witness_edge"] == 2
    assert values["spectral.spectrum_calls"] == 2
    assert values["search.leaves"] == 0
    assert 0 < values["cli.self_s"] < values["cli.main_s"]


def test_relative_time_uses_units_around_each_op_and_per_op_medians():
    # Reference runs of 10 ms units before and 30 ms units after: the op's unit is 20 ms.
    unit = run._unit({"units": 2, "wall": 0.02, "cpu": 0.02}, {"units": 1, "wall": 0.03, "cpu": 0.03})
    assert unit["wall"] == pytest.approx(0.02)
    assert run._unit(None, {"units": 4, "wall": 0.04, "cpu": 0.08})["cpu"] == pytest.approx(0.02)
    # One slow op in one pass moves only that op's median.
    rel = [[1.0, 10.0], [9.0, 10.0], [1.0, 10.0]]
    passes = [{"ops": [{"rel_wall": a}, {"rel_wall": b}]} for a, b in rel]
    assert run.op_median_sum(passes, "rel_wall") == 11.0


def test_build_ops_is_determined_by_seed(tmp_path):
    def build(seed, sub):
        (tmp_path / sub).mkdir()
        ops = workloads.build_ops("verify-large-n", seed, generators, tmp_path / sub)
        return [op.label for op in ops], [Path(op.argv[-1]).read_text() for op in ops]

    assert build(7, "a") == build(7, "b")
    assert build(7, "a2")[1] != build(8, "c")[1]


def test_benchmark_json_matches_emitted_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    # verify-large-n runs from the command line but is left out of the
    # file's workloads, to keep the full set of runs within its time limit.
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"verify-large-n"}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _, _) in run.PER_LAYER.items()
    }
