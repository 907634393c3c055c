import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from arcurv import (
    Graph,
    IntersectionArray,
    NotDistanceRegular,
    PsdFailure,
    SpectralError,
    adjacency_spectrum,
    detect_amply_params,
    distance_regular,
    dump_edge_list,
    gen_clebsch,
    gen_cocktail,
    gen_complete,
    gen_cycle,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_product,
    gen_shrikhande,
    lambda1,
    second_largest,
    sigma2_at_most,
    sigma2_bareiss,
    sigma2_sturm,
    verify_graph,
)
from arcurv.cli import EXIT_INPUT, main
from arcurv.report import _spectral_row

from conftest import random_connected_regular_graph, relabelled, srg_eigenvalues, to_networkx

TOL = 1e-9


class TestAdjacencySpectrum:
    def test_k4(self):
        spec = adjacency_spectrum(gen_complete(4))
        assert np.allclose(spec.eigenvalues, [-1.0, -1.0, -1.0, 3.0], atol=TOL)

    def test_cycle_closed_form(self):
        n = 7
        spec = adjacency_spectrum(gen_cycle(n))
        expected = sorted(2 * math.cos(2 * math.pi * k / n) for k in range(n))
        assert np.allclose(spec.eigenvalues, expected, atol=1e-8)

    def test_h23_strongly_regular(self):
        r, s, d = srg_eigenvalues(9, 4, 1, 2)
        spec = adjacency_spectrum(gen_hamming(2, 3))
        vals = sorted(set(round(e, 6) for e in spec.eigenvalues))
        assert vals == sorted({round(v, 6) for v in (r, s, d)})
        assert abs(max(spec.eigenvalues) - 4.0) < TOL

    def test_shrikhande_strongly_regular(self):
        r, s, _ = srg_eigenvalues(16, 6, 2, 2)
        spec = adjacency_spectrum(gen_shrikhande())
        assert abs(spec.eigenvalues[-2] - r) < 1e-8
        assert abs(spec.eigenvalues[0] - s) < 1e-8

    def test_paley_conference_spectrum(self):
        # conference graph on q vertices: (-1 +/- sqrt(q)) / 2
        q = 13
        spec = adjacency_spectrum(gen_paley(q))
        r = (-1 + math.sqrt(q)) / 2
        assert abs(spec.eigenvalues[-2] - r) < 1e-8

    def test_size_cap(self):
        with pytest.raises(SpectralError, match="cap"):
            adjacency_spectrum(gen_cycle(10), cap=5)

    def test_relabeling_invariance(self):
        g = gen_hamming(2, 3)
        rng = random.Random(3)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, sorted(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g.edges()
        ))
        a = adjacency_spectrum(g).eigenvalues
        b = adjacency_spectrum(relabeled).eigenvalues
        assert np.allclose(a, b, atol=1e-8)


class TestSecondLargest:
    def test_hamming_family(self):
        # H(p, q) second-largest adjacency eigenvalue is d - q
        for p, q in ((2, 3), (3, 2), (2, 4)):
            g = gen_hamming(p, q)
            d = g.regular_degree()
            assert abs(second_largest(g) - (d - q)) < 1e-8

    def test_shrikhande(self):
        assert abs(second_largest(gen_shrikhande()) - 2.0) < 1e-8

    def test_complete(self):
        assert abs(second_largest(gen_complete(6)) - (-1.0)) < TOL

    def test_rejects_irregular(self):
        with pytest.raises(SpectralError):
            second_largest(Graph(3, [(0, 1), (1, 2)]))

    def test_rejects_disconnected(self):
        with pytest.raises(SpectralError):
            second_largest(Graph(4, [(0, 1), (2, 3)]))


class TestLambda1:
    def test_h23(self):
        assert abs(lambda1(gen_hamming(2, 3)) - 0.75) < 1e-8

    def test_q3(self):
        # normalized gap of the k-cube is 2/k
        assert abs(lambda1(gen_hypercube(3)) - 2.0 / 3.0) < 1e-8

    def test_complete(self):
        n = 5
        assert abs(lambda1(gen_complete(n)) - n / (n - 1)) < 1e-8

    def test_positive_on_connected_regular(self):
        for g in (gen_paley(13), gen_shrikhande(), gen_cycle(9)):
            assert lambda1(g) > 0

    def test_random_graphs_match_numpy(self):
        for seed in range(10):
            g = random_connected_regular_graph(seed, max_n=12)
            d = g.regular_degree()
            a = nx.to_numpy_array(to_networkx(g))
            sigma = np.sort(np.linalg.eigvalsh(a))[-2]
            assert abs(lambda1(g) - (1 - sigma / d)) < 1e-8


def test_spectrum_residual_reported():
    spec = adjacency_spectrum(gen_shrikhande())
    assert spec.residual < 1e-10 * spec.n


def test_spectrum_residual_is_the_trace_residual():
    g = gen_paley(13)
    spec = adjacency_spectrum(g)
    eigs = np.array(spec.eigenvalues)
    expected = max(abs(eigs.sum()), abs(eigs @ eigs - 2 * g.num_edges()))
    assert spec.residual == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("fault, message", [
    (lambda e: e + 1e-6, "sum drifted"),  # trace 0 broken
    (lambda e: e * (1 + 1e-6), "square sum drifted"),  # trace 0 kept, trace(A^2) broken
])
def test_spectrum_drift_is_rejected(monkeypatch, fault, message):
    monkeypatch.setattr("arcurv.spectral.eigvalsh", lambda m: fault(np.linalg.eigvalsh(m)))
    with pytest.raises(SpectralError, match=message):
        adjacency_spectrum(gen_paley(13))


# Sharp cases: (graph, t = sigma_2, multiplicity of sigma_2).
SHARP = {
    "H(2,3)": (lambda: gen_hamming(2, 3), 1, 4),
    "H(3,3)": (lambda: gen_hamming(3, 3), 3, 6),
    "H(4,3)": (lambda: gen_hamming(4, 3), 5, 8),
    "Q7": (lambda: gen_hypercube(7), 5, 7),
    "cocktail(8)": (lambda: gen_cocktail(8), 0, 8),
}


class TestSigma2AtMost:
    """The Bareiss route, called directly: C5 and every SHARP graph are distance-regular, so
    `sigma2_at_most` would take the Sturm route on them."""

    @pytest.mark.parametrize("name", sorted(SHARP))
    def test_zero_pivots_are_the_multiplicity_of_t(self, name):
        make, t, multiplicity = SHARP[name]
        cert = sigma2_bareiss(make(), Fraction(t))
        assert (cert.t, cert.psd, cert.zero_pivots, cert.failure) == (t, True, multiplicity, None)

    @pytest.mark.parametrize("name", sorted(SHARP))
    def test_just_below_a_sharp_bound_is_not_psd(self, name):
        make, t, _ = SHARP[name]
        cert = sigma2_bareiss(make(), t - Fraction(1, 100))
        assert not cert.psd
        assert cert.failure is not None and cert.failure.kind == "negative-pivot"

    def test_strict_bound_has_no_zero_pivots(self):
        cert = sigma2_bareiss(gen_paley(13), Fraction(2))
        assert cert.psd and cert.zero_pivots == 0

    def test_zero_pivot_with_nonzero_row(self):
        # C5 at t = -3/4: the scaled diagonal n*p + (d+1)*q - p is 0, while
        # each neighbor entry is (d+1)*q - p - n*q = -5.
        cert = sigma2_bareiss(gen_cycle(5), Fraction(-3, 4))
        assert not cert.psd
        assert cert.failure == PsdFailure(0, "zero-pivot-nonzero-row")

    def test_agrees_with_eigvalsh_around_sigma2(self):
        for seed in range(20):
            g = random_connected_regular_graph(seed, max_n=14)
            sigma = np.sort(np.linalg.eigvalsh(nx.to_numpy_array(to_networkx(g))))[-2]
            mid = round(sigma * 1000)
            above = sigma2_bareiss(g, Fraction(mid + 1, 1000))
            below = sigma2_bareiss(g, Fraction(mid - 1, 1000))
            assert above.psd and above.zero_pivots == 0, seed
            assert not below.psd, seed

    def test_preconditions(self):
        with pytest.raises(SpectralError, match="regular"):
            sigma2_bareiss(Graph(3, [(0, 1), (1, 2)]), Fraction(1))
        with pytest.raises(SpectralError, match="connected"):
            sigma2_bareiss(Graph(4, [(0, 1), (2, 3)]), Fraction(1))


class TestSpectralRow:
    def test_one_certificate_when_the_smaller_t_holds(self):
        g = gen_paley(29)  # bound d - 3 = 11, Lichnerowicz t = 14 (1 - 4/7) = 6
        row = _spectral_row(g, detect_amply_params(g), Fraction(4, 7), distance_regular(g))
        assert [(c.t, c.psd) for c in row.certificates] == [(6, True)]
        assert row.bound_passed and row.lichnerowicz_passed and row.passed

    def test_larger_t_is_tested_after_the_smaller_fails(self):
        # An overstated kappa_min moves the Lichnerowicz t to 3/2, below
        # sigma_2 = 3 = d - 3 of H(3,3), so the bound needs its own test.
        g = gen_hamming(3, 3)
        row = _spectral_row(g, detect_amply_params(g), Fraction(3, 4), distance_regular(g))
        assert [(c.t, c.psd) for c in row.certificates] == [(Fraction(3, 2), False), (3, True)]
        assert row.bound_passed and not row.lichnerowicz_passed and not row.passed

    def test_lichnerowicz_alone_without_a_bound(self):
        g = gen_cycle(7)  # (7,2,0,1): beta = 1, so no sigma_2 bound applies
        row = _spectral_row(g, detect_amply_params(g), Fraction(0), distance_regular(g))
        assert row.bound is None and row.bound_passed is None
        assert [(c.t, c.psd, c.zero_pivots) for c in row.certificates] == [(2, True, 0)]


def reference_intersection(g: Graph):
    """Brute-force distance-regularity over networkx distances: the array, or the first
    (u, v, i), u then v ascending, whose counts differ from the first pair at distance i."""
    dist = dict(nx.all_pairs_shortest_path_length(to_networkx(g)))
    first: dict[int, tuple[int, int]] = {}
    for u in range(g.n):
        for v in range(g.n):
            i = dist[u][v]
            counts = tuple(sum(dist[u][w] == i + s for w in g.neighbors(v)) for s in (-1, 1))
            if first.setdefault(i, counts) != counts:
                return (u, v, i)
    diameter = max(first)
    return (tuple(first[i][1] for i in range(diameter)),
            tuple(first[i][0] for i in range(1, diameter + 1)))


def as_reference(structure):
    if isinstance(structure, IntersectionArray):
        return (structure.b, structure.c)
    return (structure.u, structure.v, structure.i)


def clebsch_k2() -> Graph:
    return gen_product(gen_clebsch(), gen_complete(2))


def c4_clebsch() -> Graph:
    return gen_product(gen_cycle(4), gen_clebsch())


# Every ladder graph up to 128 vertices, distance-regular and beyond the witness regime too.
LADDER = {
    "H(3,3)": lambda: gen_hamming(3, 3),
    "cocktail(8)": lambda: gen_cocktail(8),
    "paley29": lambda: gen_paley(29),
    "paley37": lambda: gen_paley(37),
    "H(4,3)": lambda: gen_hamming(4, 3),
    "paley61": lambda: gen_paley(61),
    "Q7": lambda: gen_hypercube(7),
}


def sigma2_and_neighbours(g: Graph) -> list[Fraction]:
    """sigma_2 if it is an integer, else sigma_2 rounded to 1/1000; and that t -+ 1/100."""
    sigma = np.sort(np.linalg.eigvalsh(nx.to_numpy_array(to_networkx(g))))[-2]
    t = Fraction(round(sigma * 1000), 1000)
    if abs(sigma - round(sigma)) < 1e-9:
        t = Fraction(round(sigma))
    return [t - Fraction(1, 100), t, t + Fraction(1, 100)]


class TestDistanceRegular:
    @pytest.mark.parametrize("make, array", [
        (gen_clebsch, ((5, 4), (1, 2))),
        (lambda: gen_hamming(3, 3), ((6, 4, 2), (1, 2, 3))),
        (lambda: gen_hypercube(4), ((4, 3, 2, 1), (1, 2, 3, 4))),
        (lambda: gen_paley(13), ((6, 3), (1, 3))),
        (lambda: gen_cocktail(4), ((6, 1), (1, 6))),
        (gen_shrikhande, ((6, 3), (1, 2))),
        (lambda: gen_complete(5), ((4,), (1,))),
        (lambda: gen_cycle(7), ((2, 1, 1), (1, 1, 1))),
        (lambda: Graph(1, []), ((), ())),
    ])
    def test_intersection_arrays(self, make, array):
        g = make()
        assert as_reference(distance_regular(g)) == array == reference_intersection(g)

    @pytest.mark.parametrize("make", [clebsch_k2, c4_clebsch])
    def test_products_name_the_reference_triple(self, make):
        found = distance_regular(make())
        assert isinstance(found, NotDistanceRegular)
        assert as_reference(found) == reference_intersection(make())

    def test_agrees_with_brute_force_on_random_graphs(self):
        seen = set()
        for seed in range(40):
            g = random_connected_regular_graph(seed, max_n=14)
            found = distance_regular(g)
            assert as_reference(found) == reference_intersection(g), seed
            seen.add(type(found))
        assert seen == {IntersectionArray, NotDistanceRegular}
        # a path: vertex 1's end neighbour 0 has b_1 = 0, vertex 0's neighbour 1 has b_1 = 1
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert as_reference(distance_regular(path)) == (1, 0, 1) == reference_intersection(path)

    def test_chunks_of_sources_read_like_one(self, monkeypatch):
        g, other = gen_hamming(3, 3), c4_clebsch()
        whole = distance_regular(g), distance_regular(other)
        monkeypatch.setattr("arcurv.spectral._DR_BUDGET", 1)  # one source per chunk
        assert (distance_regular(g), distance_regular(other)) == whole

    def test_relabelling_keeps_the_array(self):
        g = gen_hamming(3, 3)
        assert distance_regular(relabelled(g, 4)) == distance_regular(g)

    def test_rejects_disconnected(self):
        with pytest.raises(SpectralError, match="connected"):
            distance_regular(Graph(4, [(0, 1), (2, 3)]))


class TestSturmRoute:
    @pytest.mark.parametrize("name", sorted(LADDER))
    def test_agrees_with_bareiss_on_the_ladder(self, name):
        g = LADDER[name]()
        array = distance_regular(g)
        for t in sigma2_and_neighbours(g):
            sturm, bareiss = sigma2_sturm(g, array, t), sigma2_bareiss(g, t)
            assert (sturm.psd, sturm.zero_pivots) == (bareiss.psd, bareiss.zero_pivots), t
            assert (sturm.method, bareiss.method) == ("sturm", "bareiss")

    def test_agrees_with_bareiss_on_random_regular_graphs(self):
        compared = 0
        for seed in range(40):
            g = random_connected_regular_graph(seed, max_n=14)
            array = distance_regular(g)
            if isinstance(array, NotDistanceRegular):
                continue
            compared += 1
            for t in sigma2_and_neighbours(g) + [Fraction(g.regular_degree())]:
                sturm, bareiss = sigma2_sturm(g, array, t), sigma2_bareiss(g, t)
                assert (sturm.psd, sturm.zero_pivots) == (bareiss.psd, bareiss.zero_pivots), seed
        assert compared >= 5

    @pytest.mark.parametrize("k", [7, 8])
    def test_biggs_multiplicity_on_hypercubes(self, k):
        g = gen_hypercube(k)  # sigma_2 = k - 2, with multiplicity k
        cert = sigma2_sturm(g, distance_regular(g), Fraction(k - 2))
        assert (cert.psd, cert.zero_pivots, cert.failure, cert.method) == (True, k, None, "sturm")

    @pytest.mark.parametrize("name", sorted(SHARP))
    def test_sharp_bounds(self, name):
        make, t, multiplicity = SHARP[name]
        g = make()
        cert = sigma2_at_most(g, Fraction(t))
        assert cert == sigma2_sturm(g, distance_regular(g), t) and cert.zero_pivots == multiplicity
        below = sigma2_at_most(g, t - Fraction(1, 100))
        assert not below.psd and below.failure.kind == "sign-change"

    def test_the_failure_names_the_block_with_two_eigenvalues_above_t(self):
        # H(3,3): {6, 4, 2; 1, 2, 3}, eigenvalues 6, 3, 0, -3. The leading 2 x 2 block
        # [[0, sqrt 6], [sqrt 6, 1]] has eigenvalues 3 and -2, both above t = -5/2, so
        # the count first reaches 2 at block order 2.
        g = gen_hamming(3, 3)
        cert = sigma2_sturm(g, distance_regular(g), Fraction(-5, 2))
        assert cert.failure == PsdFailure(2, "sign-change") and not cert.psd

    def test_at_the_degree_there_is_no_multiplicity(self):
        g = gen_hamming(3, 3)
        cert = sigma2_sturm(g, distance_regular(g), Fraction(6))
        assert (cert.psd, cert.zero_pivots) == (True, 0)

    def test_not_distance_regular_takes_bareiss(self):
        g = clebsch_k2()
        assert sigma2_at_most(g, Fraction(4)).method == "bareiss"

    def test_an_intersection_number_off_by_one_is_refused(self):
        g = gen_hamming(3, 3)
        array = distance_regular(g)
        numbers = [*array.b, *array.c]
        for i in range(len(numbers)):
            for delta in (-1, 1):
                changed = numbers.copy()
                changed[i] += delta
                wrong = IntersectionArray(tuple(changed[:3]), tuple(changed[3:]))
                with pytest.raises(SpectralError, match="intersection array"):
                    sigma2_sturm(g, wrong, Fraction(3))

    def test_a_changed_array_in_verify_exits_2_not_pass(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "h33.txt"
        path.write_text(dump_edge_list(gen_hamming(3, 3)))
        wrong = IntersectionArray((6, 4, 2), (1, 2, 4))
        monkeypatch.setattr("arcurv.report.distance_regular", lambda g: wrong)
        assert main(["verify", str(path)]) == EXIT_INPUT
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: intersection array {6, 4, 2; 1, 2, 4} gives distance layers")


class TestBareissCap:
    def test_bareiss_refuses_past_its_cap(self, monkeypatch):
        monkeypatch.setattr("arcurv.spectral.BAREISS_CAP", 20)
        with pytest.raises(SpectralError, match="Bareiss cap 20"):
            sigma2_bareiss(clebsch_k2(), Fraction(4))

    def test_verify_refuses_before_any_per_edge_work(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "clebsch-k2.txt"
        path.write_text(dump_edge_list(clebsch_k2()))
        monkeypatch.setattr("arcurv.spectral.BAREISS_CAP", 31)

        def per_edge_work(*args):
            raise AssertionError("per-edge work ran")

        monkeypatch.setattr("arcurv.report.curvature_all_edges", per_edge_work)
        assert main(["verify", str(path)]) == EXIT_INPUT
        assert capsys.readouterr() == ("", "error: graph size 32 exceeds the Bareiss cap 31 "
                                           "for graphs that are not distance-regular\n")

    def test_the_cap_does_not_bind_the_sturm_route(self, monkeypatch):
        monkeypatch.setattr("arcurv.spectral.BAREISS_CAP", 20)
        report = verify_graph(gen_hamming(3, 3), "h33")
        assert report.overall_pass
        assert {c.method for c in report.spectral.certificates} == {"sturm"}

    def test_a_512_vertex_product_is_refused_at_the_real_cap(self, tmp_path, capsys):
        clebsch = gen_clebsch()
        path = tmp_path / "big.txt"
        path.write_text(dump_edge_list(gen_product(gen_product(clebsch, clebsch), gen_complete(2))))
        assert main(["verify", str(path)]) == EXIT_INPUT
        assert "exceeds the Bareiss cap 256" in capsys.readouterr().err


@pytest.mark.parametrize("make, params", [(clebsch_k2, (32, 6, 0, 2)), (c4_clebsch, (64, 7, 0, 2))])
def test_products_verify_through_bareiss(make, params):
    g = make()
    report = verify_graph(g, "product")
    p = report.params
    assert (p.n, p.d, p.alpha, p.beta, p.girth) == (*params, 4)
    assert isinstance(report.distance_regular, NotDistanceRegular)
    assert report.overall_pass
    assert {c.method for c in report.spectral.certificates} == {"bareiss"}
    comparison = report.diameter.comparisons[0]
    assert comparison.name == "distance-regular-linear" and not comparison.applicable
    assert str(report.distance_regular) in comparison.detail
