"""Acceptance suite: one timed pass/fail line per criterion (run with -s to see them)."""

import functools
import time
from fractions import Fraction

import numpy as np

from arcurv import (
    adjacency_spectrum,
    certify_assignments,
    curvature_all_edges,
    detect_amply_params,
    gen_cocktail,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_shrikhande,
    lambda1,
    lly_curvature,
    mu_p,
    ollivier_kappa_p,
    search_amply,
    second_largest,
    wasserstein,
)
import arcurv.report as report_module
from arcurv.matching import konig_decomposition
from arcurv.report import verify_graph
from arcurv.witness import prop_3_1_certificate, witness_batches

from conftest import brute_regular_wasserstein, is_perfect, random_connected_regular_graph
from reference_witness import dense_bipartite

SPECTRAL_TOL = 1e-9


def criterion(num, desc, limit):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {num}: {desc}")
                raise
            elapsed = time.monotonic() - t0
            assert elapsed < limit, f"criterion {num} took {elapsed:.2f}s (limit {limit}s)"
            print(f"PASS criterion {num}: {desc} ({elapsed:.2f}s)")
        return wrapper
    return deco


def _all_kappa(g):
    return curvature_all_edges(g)


@criterion(1, "kappa 1/3 on all Shrikhande edges, 2/3 on all 4x4-rook edges", 5.0)
def test_criterion_01_shrikhande_vs_rook():
    sh = _all_kappa(gen_shrikhande())
    assert len(sh.rows) == 48
    assert sh.kappa_min == sh.kappa_max == Fraction(1, 3)
    rook = _all_kappa(gen_hamming(2, 4))
    assert len(rook.rows) == 48
    assert rook.kappa_min == rook.kappa_max == Fraction(2, 3)


@criterion(2, "kappa 2/d on every hypercube edge, k in {3,4,5}", 5.0)
def test_criterion_02_hypercubes():
    for k in (3, 4, 5):
        table = _all_kappa(gen_hypercube(k))
        assert table.kappa_min == table.kappa_max == Fraction(2, k)


@criterion(3, "kappa 3/d on every edge of H(2,3) and H(3,3)", 30.0)
def test_criterion_03_alpha_one():
    for p, q, want in ((2, 3, Fraction(3, 4)), (3, 3, Fraction(1, 2))):
        table = _all_kappa(gen_hamming(p, q))
        assert table.kappa_min == table.kappa_max == want


def _triangle_count_integral(n, d, alpha):
    """Necessary integrality conditions for a d-regular graph on n vertices
    whose adjacent pairs all have alpha common neighbours.

    Edges: n*d/2. Each neighbourhood induces an alpha-regular graph on d
    vertices, so d*alpha is even, and there are n*d*alpha/6 triangles.
    """
    return (n * d) % 2 == 0 and (d * alpha) % 2 == 0 and (n * d * alpha) % 6 == 0


@criterion(
    4,
    "dense-matching certificate kappa=(2+alpha)/d on Q3, cocktail(3), cocktail(4) "
    "and searched (6,4,2,4), (9,6,3,6); (8,5,2,4) proven absent",
    10.0,
)
def test_criterion_04_dense_certificates():
    cases = [
        (gen_hypercube(3), Fraction(2, 3)),
        (gen_cocktail(3), Fraction(1)),
        (gen_cocktail(4), Fraction(1)),
    ]
    for g, want in cases:
        params = detect_amply_params(g)
        edges = g.edges()
        kappas = [lly_curvature(g, x, y) for x, y in edges]
        assert set(kappas) == {want} and want == Fraction(2 + params.alpha, params.d)
        for (x, y), matching in zip(edges, prop_3_1_certificate(g, edges, kappas, params)):
            assert is_perfect(matching, dense_bipartite(g, x, y))
    # no (8,5,2,4) graph exists: it would have 8*5*2/6 = 40/3 triangles
    assert not _triangle_count_integral(8, 5, 2)
    assert search_amply(8, 5, 2, 4) is None, (
        "no (8,5,2,4) amply regular graph can exist: "
        "its triangle count 8*5*2/6 is not an integer"
    )
    # searched graphs in the dense regime 2*beta - alpha >= d + 1:
    # the octahedron K_{2x2x2} and K_{3x3}
    for n, d, alpha, beta in ((6, 4, 2, 4), (9, 6, 3, 6)):
        assert _triangle_count_integral(n, d, alpha)
        found = search_amply(n, d, alpha, beta)
        assert found is not None, f"search found no ({n},{d},{alpha},{beta}) graph"
        params = detect_amply_params(found)
        assert (params.n, params.d, params.alpha, params.beta) == (n, d, alpha, beta)
        edges = found.edges()
        brute = [Fraction(d + 1, d) * (1 - brute_regular_wasserstein(found, x, y)) for x, y in edges]
        assert set(brute) == {Fraction(2 + alpha, d)}
        for (x, y), matching in zip(edges, prop_3_1_certificate(found, edges, brute, params)):
            assert is_perfect(matching, dense_bipartite(found, x, y))


@criterion(5, "full matching-witness pipeline on every edge of paley13/octahedron/cocktail(4)", 10.0)
def test_criterion_05_witness_pipeline():
    for g in (gen_paley(13), gen_cocktail(3), gen_cocktail(4)):
        params = detect_amply_params(g)
        d, beta = params.d, params.beta
        batches = list(witness_batches(g, g.edges(), params))
        views = [batch.edge(i) for batch in batches for i in range(len(batch.edges))]
        assert [(w.h.x, w.h.y) for w in views] == g.edges()
        for w in views:
            h = w.h
            assert w.irregular is None and h.beta == beta
            assert w.classes == konig_decomposition(h.b) and len(w.classes) == beta - 1
            assert all(is_perfect(m, h.b) for m in w.classes)
            assert w.walk_error is None and len(w.class_records) == beta - 1
            for chains in w.class_records:  # a perfect class walks to a bijection
                assert sorted(c.w0 for c in chains) == sorted(h.ny)
                assert all(r.ok for r in chains)
            cert = w.certificate
            assert cert.pi0_cost <= Fraction(d - 2, d + 1)
            assert cert.kappa_lb >= Fraction(3, d)


@criterion(6, "diameter bounds: H(2,3)=2 (sharp), H(3,3)=3<=4, Shrikhande=2<=6", 5.0)
def test_criterion_06_diameters():
    h23 = gen_hamming(2, 3)
    assert h23.diameter() == 2 == (2 * 4) // 3
    assert gen_hamming(3, 3).diameter() == 3 <= 4
    assert gen_shrikhande().diameter() == 2 <= 6


@criterion(7, "spectral equalities sigma=d-q and lambda1 >= min kappa everywhere", 30.0)
def test_criterion_07_spectral():
    for p in (2, 3):
        g = gen_hamming(p, 3)
        assert abs(second_largest(g) - (2 * p - 3)) < SPECTRAL_TOL
    for p in (3, 4):
        g = gen_hamming(p, 2)
        assert abs(second_largest(g) - (p - 2)) < SPECTRAL_TOL
    verified = [
        gen_shrikhande(), gen_hamming(2, 4), gen_hypercube(3), gen_hypercube(4),
        gen_hypercube(5), gen_hamming(2, 3), gen_hamming(3, 3), gen_cocktail(3),
        gen_cocktail(4), gen_paley(13), gen_paley(17),
    ]
    for g in verified:
        assert lambda1(g) >= float(_all_kappa(g).kappa_min) - SPECTRAL_TOL


@criterion(8, "flow and assignment transport solvers agree on every edge everywhere", 60.0)
def test_criterion_08_oracle_equivalence():
    fixed = [
        gen_shrikhande(), gen_hamming(2, 4), gen_hypercube(3), gen_hypercube(4),
        gen_hypercube(5), gen_hamming(2, 3), gen_hamming(3, 3), gen_cocktail(3),
        gen_cocktail(4), gen_paley(13),
    ]
    randoms = [random_connected_regular_graph(seed, max_n=16) for seed in range(200)]
    for g in fixed + randoms:
        d = g.regular_degree()
        p = Fraction(1, d + 1)
        for x, y in g.edges():
            flow_value = wasserstein(g, mu_p(g, x, p), mu_p(g, y, p))
            bx, by = ((v,) + g.neighbors(v) for v in (x, y))
            costs, _ = certify_assignments(g, np.array([bx + by]), [(x, y)])
            assert flow_value == Fraction(int(costs[0]), d + 1)


@criterion(9, "kappa_p = (1-p) kappa at both segment endpoints on every edge, by the flow", 10.0)
def test_criterion_09_linearity():
    for g in (gen_hamming(2, 3), gen_shrikhande(), gen_cocktail(3)):
        d = g.regular_degree()
        for x, y in g.edges():
            kappa = lly_curvature(g, x, y)
            for p in (Fraction(1, d + 1), Fraction(d, d + 1)):
                assert ollivier_kappa_p(g, x, y, p) == (1 - p) * kappa
                # ollivier_kappa_p rests on this linearity; the flow does not
                assert 1 - wasserstein(g, mu_p(g, x, p), mu_p(g, y, p)) == (1 - p) * kappa


@criterion(10, "conference graphs: kappa >= 3/(2 gamma) on every edge", 10.0)
def test_criterion_10_conference_bound():
    for q in (13, 17):
        g = gen_paley(q)
        gamma = (q - 1) // 4
        table = _all_kappa(g)
        assert table.kappa_min >= Fraction(3, 2 * gamma)
        conjectured = Fraction(1, 2) + Fraction(1, 2 * gamma)
        # reported for comparison only, deliberately not asserted
        print(
            f"  paley({q}): kappa_min={table.kappa_min} "
            f"conjectured={conjectured} match={table.kappa_min == conjectured}"
        )


def test_verify_sharp_spectral_bounds_rest_on_exact_certificates():
    # sigma_2 = d - 2 = 5 on Q7 and d - 3 = 5 on H(4,3): both bounds hold with
    # equality, and Lichnerowicz gives the same t = d(1 - kappa_min) = 5.
    for g, kappa_min, multiplicity in ((gen_hypercube(7), Fraction(2, 7), 7),
                                       (gen_hamming(4, 3), Fraction(3, 8), 8)):
        report = verify_graph(g, graph_id="g")
        assert report.overall_pass
        s = report.spectral
        assert (s.bound, s.kappa_min) == (5, kappa_min)
        assert s.bound_passed and s.lichnerowicz_passed and s.passed
        (cert,) = s.certificates
        assert (cert.t, cert.psd, cert.zero_pivots, cert.failure) == (5, True, multiplicity, None)


def test_verify_builds_each_curvature_values_checks_once(monkeypatch):
    # every Paley edge has kappa = 1/2 + 1/(2 gamma), so paley13 builds one tuple, shared
    calls, build = [], report_module._edge_checks

    def recording(kappa, params):
        calls.append(kappa)
        return build(kappa, params)

    monkeypatch.setattr(report_module, "_edge_checks", recording)
    report = verify_graph(gen_paley(13), graph_id="g")
    assert calls == [Fraction(2, 3)]
    assert all(row.checks is report.edges[0].checks for row in report.edges)
