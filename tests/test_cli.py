import io
import json
import time

import pytest

from arcurv import (dump_edge_list, gen_clebsch, gen_cocktail, gen_complete, gen_cycle, gen_hamming,
                    gen_paley, gen_product, load_edge_list)
from arcurv.cli import EXIT_ASSERTION, EXIT_INPUT, EXIT_OK, main
from arcurv.curvature import CurvatureError
from arcurv.graph import GraphError
from arcurv.matching import MatchingError
from arcurv.report import ReportError
from arcurv.spectral import SpectralError
from arcurv.witness import WitnessError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("0 0\n")
    return str(path)


@pytest.fixture
def h23_file(tmp_path):
    path = tmp_path / "h23.txt"
    path.write_text(dump_edge_list(gen_hamming(2, 3)))
    return str(path)


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(dump_edge_list(gen_complete(5)))
    return str(path)


@pytest.fixture
def path4_file(tmp_path):
    path = tmp_path / "path4.txt"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(path)


class TestGen:
    def test_emits_loadable_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen", "hamming", "2", "3")
        assert code == EXIT_OK
        assert load_edge_list(out) == gen_hamming(2, 3)

    def test_unknown_family(self, capsys):
        code, out, err = run(capsys, "gen", "moebius")
        assert (code, out, err) == (EXIT_INPUT, "", "error: unknown family 'moebius'\n")

    def test_wrong_arity(self, capsys):
        code, out, err = run(capsys, "gen", "paley")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: family 'paley' takes 1 argument(s), got 0\n"

    def test_hypercube_dimension_error_names_hypercube(self, capsys):
        code, out, err = run(capsys, "gen", "hypercube", "0")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: gen_hypercube requires k >= 1, got 0\n"

    def test_invalid_paley_modulus(self, capsys):
        code, _, err = run(capsys, "gen", "paley", "12")
        assert code == EXIT_INPUT and err.startswith("error:")

    def test_size_cap_flag(self, capsys):
        code, _, err = run(capsys, "--size-cap", "10", "gen", "hamming", "2", "4")
        assert code == EXIT_INPUT and "cap" in err

    @pytest.mark.parametrize("family, args", [
        ("complete", ["11"]), ("cycle", ["11"]), ("cocktail", ["6"]),
        ("paley", ["13"]), ("shrikhande", []),
    ])
    def test_size_cap_applies_to_every_family(self, capsys, family, args):
        code, out, err = run(capsys, "--size-cap", "10", "gen", family, *args)
        assert (code, out) == (EXIT_INPUT, "")
        assert "exceeding cap 10" in err

    def test_edge_bound_refuses_a_dense_family_under_the_size_cap(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "gen", "complete", "100000")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: K_100000 has 4999950000 edges, exceeding the edge bound 1000000\n"
        assert time.perf_counter() - start < 1

    def test_negative_size_cap_rejected(self, capsys):
        code, out, err = run(capsys, "--size-cap", "-1", "gen", "complete", "4")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: --size-cap must be nonnegative, got -1\n"

    def test_non_integer_argument(self, capsys):
        code, out, err = run(capsys, "gen", "paley", "x")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: expected an integer argument, got 'x'\n"

    def test_clebsch(self, capsys):
        code, out, _ = run(capsys, "gen", "clebsch")
        assert code == EXIT_OK and load_edge_list(out) == gen_clebsch()

    def test_product_of_two_files(self, capsys, tmp_path):
        a, b = tmp_path / "c4.txt", tmp_path / "clebsch.txt"
        a.write_text(dump_edge_list(gen_cycle(4)))
        b.write_text(dump_edge_list(gen_clebsch()))
        code, out, _ = run(capsys, "gen", "product", str(a), str(b))
        assert code == EXIT_OK and load_edge_list(out) == gen_product(gen_cycle(4), gen_clebsch())

    def test_product_checks_the_size_cap_before_building_a_factor(self, capsys, tmp_path,
                                                                  monkeypatch):
        a = tmp_path / "clebsch.txt"
        a.write_text(dump_edge_list(gen_clebsch()))

        def no_build(text):
            raise AssertionError("a factor was built past the size cap")

        monkeypatch.setattr("arcurv.cli.load_edge_list", no_build)
        code, out, err = run(capsys, "--size-cap", "255", "gen", "product", str(a), str(a))
        assert (code, out, err) == (EXIT_INPUT, "", "error: graph size 256 exceeds size cap 255\n")

    def test_product_checks_the_edge_bound(self, capsys, tmp_path, monkeypatch):
        a = tmp_path / "clebsch.txt"
        a.write_text(dump_edge_list(gen_clebsch()))
        monkeypatch.setattr("arcurv.generators.EDGE_BOUND", 1279)  # 40 * 16 * 2 = 1280 edges
        code, out, err = run(capsys, "gen", "product", str(a), str(a))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == ("error: the product of a 16-vertex and a 16-vertex graph has 1280 edges, "
                       "exceeding the edge bound 1279\n")

    def test_product_of_a_missing_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "gen", "product", str(tmp_path / "nope.txt"), "-")
        assert (code, out) == (EXIT_INPUT, "") and "No such file" in err


class TestParams:
    def test_text(self, capsys, h23_file):
        code, out, _ = run(capsys, "params", h23_file)
        assert code == EXIT_OK and out.strip() == "(9,4,1,2)"

    def test_json(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "json", "params", h23_file)
        assert code == EXIT_OK
        assert json.loads(out) == {"n": 9, "d": 4, "alpha": 1, "beta": 2, "girth": 3}

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(dump_edge_list(gen_cocktail(3))))
        code, out, _ = run(capsys, "params", "-")
        assert code == EXIT_OK and out.strip() == "(6,4,2,4)"

    def test_violation_exit_code(self, capsys, tmp_path):
        path = tmp_path / "path.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        code, out, _ = run(capsys, "params", str(path))
        assert code == EXIT_INPUT and "violation" in out

    def test_an_alpha_violation_outranks_an_earlier_beta_violation(self, capsys, tmp_path):
        # the distance-2 pair (0, 3) breaks beta (2 common neighbours, not 1) before the
        # edge (0, 6) breaks alpha; the alpha violation is the one reported
        path = tmp_path / "cubic8.txt"
        path.write_text("8 12\n0 1\n0 6\n0 7\n1 3\n1 7\n2 4\n2 5\n2 7\n3 4\n3 6\n4 5\n5 6\n")
        code, out, err = run(capsys, "params", str(path))
        assert (code, out, err) == (
            EXIT_INPUT, "violation: alpha at pair (0, 6) (found 0, expected 1)\n", "")

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "params", "/nonexistent/graph.txt")
        assert code == EXIT_INPUT and err.startswith("error:")


class TestCurvature:
    def test_single_edge(self, capsys, h23_file):
        code, out, _ = run(capsys, "curvature", h23_file, "--edge", "0", "1")
        assert code == EXIT_OK and out.strip() == "0 1 3/4"

    def test_all_csv(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "csv", "curvature", h23_file, "--all")
        lines = out.strip().splitlines()
        assert code == EXIT_OK
        assert lines[0] == "u,v,kappa"
        assert len(lines) == 1 + gen_hamming(2, 3).num_edges()
        assert all(line.endswith(",3/4") for line in lines[1:])

    def test_all_json(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "json", "curvature", h23_file, "--all")
        rows = json.loads(out)
        assert code == EXIT_OK
        assert {r["kappa"] for r in rows} == {"3/4"}

    def test_idleness_flag(self, capsys, h23_file):
        code, out, _ = run(capsys, "curvature", h23_file, "--edge", "0", "1", "--p", "1")
        assert code == EXIT_OK and out.strip() == "0 1 0"

    @pytest.mark.parametrize("p", ["1/0", "abc"])
    def test_bad_idleness(self, capsys, h23_file, p):
        code, out, err = run(capsys, "curvature", h23_file, "--edge", "0", "1", "--p", p)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["1e10000000", "1e-10000000", "1e1001", "0." + "0" * 1000 + "1"],
                             ids=["1e10000000", "1e-10000000", "1e1001", "1002-digits"])
    def test_idleness_past_the_parse_bound_is_refused_unparsed(self, capsys, k5_file, p):
        # Fraction would first expand the exponent into a ten-million-digit integer (seconds)
        start = time.perf_counter()
        code, out, err = run(capsys, "curvature", k5_file, "--all", f"--p={p}")
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_INPUT, "")
        assert err == (f"error: idleness {p} has more than 1000 digits "
                       "or an exponent of magnitude over 1000\n")

    @pytest.mark.parametrize("p, kappa", [("0", "3/4"), ("1/2", "5/8"), ("0.25", "15/16"),
                                          ("1e-3", "601/800"), ("1e-1000", None)])
    def test_idleness_within_the_parse_bound(self, capsys, k5_file, p, kappa):
        code, out, err = run(capsys, "curvature", k5_file, "--all", f"--p={p}")
        assert (code, err) == (EXIT_OK, "")
        kappas = {line.split()[2] for line in out.splitlines()}
        assert len(out.splitlines()) == 10 and len(kappas) == 1
        assert kappa is None or kappas == {kappa}

    def test_idleness_above_one_is_named_in_full(self, capsys, k5_file):
        code, out, err = run(capsys, "curvature", k5_file, "--all", "--p=1e999")
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: idleness 1" + "0" * 999 + " outside [0, 1]\n"

    def test_idleness_on_a_non_adjacent_pair_of_an_irregular_graph(self, capsys, path4_file):
        # the min-cost flow: W(mu_0, mu_3) = 2 at p = 1/2 and d(0, 3) = 3
        code, out, _ = run(capsys, "curvature", path4_file, "--edge", "0", "3", "--p", "1/2")
        assert (code, out) == (EXIT_OK, "0 3 1/3\n")

    def test_requires_edge_or_all(self, capsys, h23_file):
        code, out, err = run(capsys, "curvature", h23_file)
        assert (code, out, err) == (EXIT_INPUT, "", "error: pass --all or --edge u v\n")

    def test_non_edge(self, capsys, h23_file):
        code, _, err = run(capsys, "curvature", h23_file, "--edge", "0", "4")
        assert code == EXIT_INPUT and err.startswith("error:")

    @pytest.mark.parametrize("edge", [("0", "1"), ("99", "0")])
    def test_all_with_edge_rejected(self, capsys, h23_file, edge):
        code, out, err = run(capsys, "curvature", h23_file, "--all", "--edge", *edge)
        assert code == EXIT_INPUT and out == ""
        assert err == "error: pass --all or --edge u v, not both\n"

    @pytest.mark.parametrize("idleness", [(), ("--p", "0"), ("--p", "1/2")])
    def test_all_on_empty_graph_is_an_input_error(self, capsys, empty_file, idleness):
        # the reason params and verify give, not "requires a regular graph" or no rows
        for command in (("curvature", empty_file, "--all", *idleness), ("params", empty_file)):
            code, out, err = run(capsys, *command)
            assert (code, out, err) == (EXIT_INPUT, "", "error: empty graph\n")

    @pytest.mark.parametrize("header", ["1 0", "3 0"])
    @pytest.mark.parametrize("idleness", ["0", "1/2", "1"])
    def test_all_with_idleness_on_edgeless_graph_is_an_input_error(self, capsys, tmp_path,
                                                                     header, idleness):
        path = tmp_path / "edgeless.txt"
        path.write_text(header + "\n")
        code, out, err = run(capsys, "curvature", str(path), "--all", "--p", idleness)
        assert (code, out, err) == (EXIT_INPUT, "", "error: graph has no edges\n")
        # an invalid idleness is still named first
        code, _, err = run(capsys, "curvature", str(path), "--all", "--p", "3/2")
        assert (code, err) == (EXIT_INPUT, "error: idleness 3/2 outside [0, 1]\n")


class TestVerify:
    def test_h23_passes(self, capsys, h23_file):
        code, out, _ = run(capsys, "verify", h23_file)
        assert code == EXIT_OK
        assert "PASS" in out

    def test_csv(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "csv", "verify", h23_file)
        lines = out.strip().splitlines()
        assert code == EXIT_OK and lines[0] == "u,v,kappa,passed"

    def test_paley13(self, capsys, tmp_path):
        path = tmp_path / "paley13.txt"
        path.write_text(dump_edge_list(gen_paley(13)))
        code, out, _ = run(capsys, "verify", str(path))
        assert code == EXIT_OK and "PASS" in out

    def test_an_uncertified_curvature_is_refused(self, capsys, tmp_path, monkeypatch):
        # A solver that returns the dearest assignment: the first edge's
        # certificate fails, and no value is kept or reported.
        from scipy.optimize import linear_sum_assignment

        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment",
                            lambda cost: linear_sum_assignment(-cost))
        path = tmp_path / "paley13.txt"
        path.write_text(dump_edge_list(gen_paley(13)))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err.startswith("error: edge (0, 1): assignment is not optimal")


class TestHgraph:
    def test_text(self, capsys, h23_file):
        code, out, _ = run(capsys, "hgraph", h23_file, "--edge", "0", "1")
        assert code == EXIT_OK
        assert "pi0 cost: 2/5" in out
        assert "kappa lower bound: 3/4" in out

    def test_json(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "json", "hgraph", h23_file, "--edge", "0", "1")
        payload = json.loads(out)
        assert code == EXIT_OK
        assert payload["regular"] is True and payload["degree"] == 1
        assert set(payload["edge_classes"]) == {str(i) for i in range(1, 9)}
        assert payload["pi0_cost"] == "2/5"

    def test_girth4_input_rejected(self, capsys, tmp_path):
        from arcurv import gen_hypercube

        path = tmp_path / "q3.txt"
        path.write_text(dump_edge_list(gen_hypercube(3)))
        code, _, err = run(capsys, "hgraph", str(path), "--edge", "0", "1")
        assert code == EXIT_INPUT and err.startswith("error:")

    def test_non_amply_regular_input_names_the_violation(self, capsys, path4_file):
        # hgraph words the violation as verify does
        violation = "not-regular violation at pair (0, 1) (found 2, expected 1)"
        code, out, err = run(capsys, "hgraph", path4_file, "--edge", "0", "1")
        assert (code, out, err) == (EXIT_INPUT, "", f"error: graph is not amply regular: {violation}\n")
        code, out, err = run(capsys, "verify", path4_file)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: not amply regular: {violation}\n")


@pytest.mark.parametrize("command", ["curvature", "hgraph"])
@pytest.mark.parametrize("edge", [("99", "0"), ("-1", "2")])
def test_edge_out_of_range(capsys, h23_file, command, edge):
    code, out, err = run(capsys, command, h23_file, "--edge", *edge)
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: --edge vertex {edge[0]} out of range")


@pytest.mark.parametrize(
    "fmt, command, rest",
    [
        ("csv", "hgraph", ("--edge", "0", "1")),
        ("csv", "params", ()),
        ("csv", "spectrum", ()),
        ("csv", "diameter", ()),
        ("json", "diameter", ()),
    ],
)
def test_unrendered_format_rejected(capsys, h23_file, fmt, command, rest):
    renders = "text" if command == "diameter" else "text, json"
    code, out, err = run(capsys, "--format", fmt, command, h23_file, *rest)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: {command} does not render --format {fmt}; it renders {renders}\n"


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
@pytest.mark.parametrize("command", ["gen", "curvature", "verify", "search"])
def test_every_format_is_rendered_by_gen_curvature_verify_and_search(capsys, h23_file, fmt,
                                                                     command):
    argv = {"gen": ("gen", "hamming", "2", "3"), "curvature": ("curvature", h23_file, "--all"),
            "verify": ("verify", h23_file), "search": ("search", "5", "2", "0", "1")}[command]
    code, out, err = run(capsys, "--format", fmt, *argv)
    assert (code, err) == (EXIT_OK, "") and out


def test_the_format_is_refused_before_the_size_cap(capsys, h23_file):
    code, out, err = run(capsys, "--size-cap", "-1", "--format", "csv", "diameter", h23_file)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == "error: diameter does not render --format csv; it renders text\n"


def test_every_arcurv_error_is_a_value_error():
    # main's one `except (ValueError, OSError)` clause reports each of them
    for error in (GraphError, CurvatureError, MatchingError, WitnessError, SpectralError,
                  ReportError):
        assert issubclass(error, ValueError), error


class TestSpectrumDiameterSearch:
    def test_spectrum_text(self, capsys, h23_file):
        code, out, _ = run(capsys, "spectrum", h23_file)
        values = [float(line) for line in out.splitlines() if not line.startswith("#")]
        assert code == EXIT_OK
        assert abs(values[-1] - 4.0) < 1e-8 and abs(values[-2] - 1.0) < 1e-8

    def test_spectrum_json(self, capsys, h23_file):
        code, out, _ = run(capsys, "--format", "json", "spectrum", h23_file)
        payload = json.loads(out)
        assert code == EXIT_OK and len(payload["eigenvalues"]) == 9

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_spectrum_of_empty_graph_is_an_input_error(self, capsys, empty_file, fmt):
        code, out, err = run(capsys, "--format", fmt, "spectrum", empty_file)
        assert (code, out, err) == (EXIT_INPUT, "", "error: empty graph\n")

    def test_spectrum_cap(self, capsys, tmp_path, monkeypatch):
        def no_solve(matrix):
            raise AssertionError("eigensolver started past the spectrum cap")

        monkeypatch.setattr("arcurv.spectral.eigvalsh", no_solve)
        path = tmp_path / "c4097.txt"
        path.write_text(dump_edge_list(gen_cycle(4097)))
        code, _, err = run(capsys, "spectrum", str(path))
        assert code == EXIT_INPUT and "cap" in err

    def test_verify_checks_spectrum_cap_before_edge_work(self, capsys, tmp_path, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("verify started edge work past the spectrum cap")

        monkeypatch.setattr("arcurv.report.curvature_all_edges", no_work)
        monkeypatch.setattr("arcurv.report.detect_amply_params", no_work)
        path = tmp_path / "c4097.txt"
        path.write_text(dump_edge_list(gen_cycle(4097)))
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: graph size 4097 exceeds spectrum cap 4096\n"

    def test_verify_honours_size_cap(self, capsys, tmp_path):
        path = tmp_path / "h33.txt"
        path.write_text(dump_edge_list(gen_hamming(3, 3)))
        code, out, err = run(capsys, "--size-cap", "10", "verify", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: graph size 27 exceeds spectrum cap 10\n"
        code, _, _ = run(capsys, "--size-cap", "27", "verify", str(path))
        assert code == EXIT_OK

    @pytest.mark.parametrize("command", ["verify", "spectrum"])
    def test_size_cap_is_checked_before_the_graph_is_built(self, capsys, tmp_path, monkeypatch,
                                                           command):
        def no_build(text):
            raise AssertionError("graph built past the spectrum cap")

        path = tmp_path / "huge.txt"
        path.write_text("3000000 0")
        start = time.perf_counter()
        code, out, err = run(capsys, "--size-cap", "10", command, str(path))
        assert time.perf_counter() - start < 0.5
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: graph size 3000000 exceeds spectrum cap 10\n"
        monkeypatch.setattr("arcurv.cli.load_edge_list", no_build)
        assert run(capsys, "--size-cap", "10", command, str(path))[0] == EXIT_INPUT

    def test_diameter(self, capsys, h23_file):
        code, out, _ = run(capsys, "diameter", h23_file)
        assert code == EXIT_OK and out.strip() == "2"

    def test_diameter_of_empty_graph_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("0 0\n")
        code, out, err = run(capsys, "diameter", str(path))
        assert (code, out) == (EXIT_INPUT, "")
        assert err == "error: diameter undefined for the empty graph\n"

    def test_search_finds_cube_parameters(self, capsys):
        code, out, _ = run(capsys, "search", "8", "3", "0", "2")
        assert code == EXIT_OK
        from arcurv import detect_amply_params

        g = load_edge_list(out)
        p = detect_amply_params(g)
        assert (p.n, p.d, p.alpha, p.beta) == (8, 3, 0, 2)

    def test_search_none(self, capsys):
        code, out, err = run(capsys, "search", "5", "3", "0", "2")
        assert code == EXIT_OK and out.strip() == "none"
        assert err == "none: n*d = 15 is odd, so no 3-regular graph on 5 vertices exists\n"

    @pytest.mark.parametrize(
        "params, reason",
        [
            (("8", "5", "2", "4"), "the triangle count n*d*alpha/6 = 80/6 is not an integer"),
            (("6", "3", "1", "2"), "d*alpha = 3 is odd"),
        ],
    )
    def test_search_infeasible_reason(self, capsys, params, reason):
        code, out, err = run(capsys, "search", *params)
        assert code == EXIT_OK and out == "none\n"
        assert err.startswith(f"none: {reason}")

    def test_search_exhausted_without_reason(self, capsys):
        code, out, err = run(capsys, "search", "6", "3", "0", "2")
        assert code == EXIT_OK and out == "none\n" and err == ""

    @pytest.mark.parametrize(
        "params",
        [("-1", "2", "0", "1"), ("5", "-1", "0", "1"), ("5", "2", "-1", "1"), ("5", "2", "0", "-1")],
    )
    def test_search_negative_parameter(self, capsys, params):
        code, out, err = run(capsys, "search", *params)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: search parameters must be nonnegative")

    @pytest.mark.parametrize("beta", ["foo", "1.5", "None"])
    def test_search_malformed_beta_is_an_argument_error(self, capsys, beta):
        with pytest.raises(SystemExit) as exc:
            main(["search", "5", "2", "0", beta])
        captured = capsys.readouterr()
        assert exc.value.code == EXIT_INPUT and captured.out == ""
        assert captured.err.endswith(
            f"error: argument beta: expected an integer, 'none' or '-', got '{beta}'\n"
        )

    def test_search_beta_none(self, capsys):
        code, out, _ = run(capsys, "search", "4", "3", "2", "none")
        assert code == EXIT_OK
        g = load_edge_list(out)
        assert g.num_edges() == 6  # K4

    def test_search_beta_dash_is_none(self, capsys):
        assert run(capsys, "search", "4", "3", "2", "-") == run(capsys, "search", "4", "3", "2", "none")


# Every command that reads a graph file, but verify and spectrum, and the
# error each gives on a graph of two vertices joined by an edge plus isolated ones.
DISCONNECTED_ERRORS = {
    ("params",): "detect_amply_params requires a connected graph",
    ("curvature", "--all"): "curvature_all_edges requires a connected graph",
    ("curvature", "--edge", "0", "1"): "operation requires a regular graph",
    ("diameter",): "diameter undefined for disconnected graph",
    ("hgraph", "--edge", "0", "1"): "detect_amply_params requires a connected graph",
}


class TestSizeCapOnEveryCommand:
    """A header past the cap exits 2, naming the cap, before the graph is built."""

    @pytest.mark.parametrize("command", sorted(DISCONNECTED_ERRORS))
    def test_default_cap_refuses_a_huge_header(self, capsys, tmp_path, monkeypatch, command):
        def no_build(text):
            raise AssertionError("graph built past the size cap")

        path = tmp_path / "huge.txt"
        path.write_text("1000000 1\n0 1\n")
        cmd, *rest = command
        for cap in ([], ["--size-cap", "0"]):  # 0 is the default cap
            start = time.perf_counter()
            code, out, err = run(capsys, *cap, cmd, str(path), *rest)
            assert time.perf_counter() - start < 0.5
            assert (code, out, err) == (
                EXIT_INPUT, "", "error: graph size 1000000 exceeds size cap 100000\n")
        monkeypatch.setattr("arcurv.cli.load_edge_list", no_build)
        assert run(capsys, cmd, str(path), *rest)[0] == EXIT_INPUT

    @pytest.mark.parametrize("command", sorted(DISCONNECTED_ERRORS))
    def test_size_cap_replaces_the_default(self, capsys, tmp_path, command):
        path = tmp_path / "sparse.txt"
        path.write_text("1000 1\n0 1\n")
        cmd, *rest = command
        code, out, err = run(capsys, "--size-cap", "999", cmd, str(path), *rest)
        assert (code, out, err) == (EXIT_INPUT, "", "error: graph size 1000 exceeds size cap 999\n")
        code, out, err = run(capsys, "--size-cap", "1000", cmd, str(path), *rest)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {DISCONNECTED_ERRORS[command]}\n")

    def test_raised_cap_builds_the_huge_header(self, capsys, tmp_path):
        path = tmp_path / "huge.txt"
        path.write_text("1000000 1\n0 1\n")
        code, out, err = run(capsys, "--size-cap", "2000000", "params", str(path))
        assert (code, out, err) == (
            EXIT_INPUT, "", "error: detect_amply_params requires a connected graph\n")


def test_gen_params_pipe(capsys, monkeypatch):
    code, out, _ = run(capsys, "gen", "shrikhande")
    assert code == EXIT_OK
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "params", "-")
    assert code == EXIT_OK and out.strip() == "(16,6,2,2)"
