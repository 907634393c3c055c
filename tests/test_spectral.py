import math
import random
from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from arcurv import (
    Graph,
    PsdFailure,
    SpectralError,
    adjacency_spectrum,
    detect_amply_params,
    gen_cocktail,
    gen_complete,
    gen_cycle,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_shrikhande,
    lambda1,
    second_largest,
    sigma2_at_most,
)
from arcurv.report import _spectral_row

from conftest import random_connected_regular_graph, srg_eigenvalues, to_networkx

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
    @pytest.mark.parametrize("name", sorted(SHARP))
    def test_zero_pivots_are_the_multiplicity_of_t(self, name):
        make, t, multiplicity = SHARP[name]
        cert = sigma2_at_most(make(), Fraction(t))
        assert (cert.t, cert.psd, cert.zero_pivots, cert.failure) == (t, True, multiplicity, None)

    @pytest.mark.parametrize("name", sorted(SHARP))
    def test_just_below_a_sharp_bound_is_not_psd(self, name):
        make, t, _ = SHARP[name]
        cert = sigma2_at_most(make(), t - Fraction(1, 100))
        assert not cert.psd
        assert cert.failure is not None and cert.failure.kind == "negative-pivot"

    def test_strict_bound_has_no_zero_pivots(self):
        cert = sigma2_at_most(gen_paley(13), Fraction(2))
        assert cert.psd and cert.zero_pivots == 0

    def test_zero_pivot_with_nonzero_row(self):
        # C5 at t = -3/4: the scaled diagonal n*p + (d+1)*q - p is 0, while
        # each neighbor entry is (d+1)*q - p - n*q = -5.
        cert = sigma2_at_most(gen_cycle(5), Fraction(-3, 4))
        assert not cert.psd
        assert cert.failure == PsdFailure(0, "zero-pivot-nonzero-row")

    def test_agrees_with_eigvalsh_around_sigma2(self):
        for seed in range(20):
            g = random_connected_regular_graph(seed, max_n=14)
            sigma = np.sort(np.linalg.eigvalsh(nx.to_numpy_array(to_networkx(g))))[-2]
            mid = round(sigma * 1000)
            above = sigma2_at_most(g, Fraction(mid + 1, 1000))
            below = sigma2_at_most(g, Fraction(mid - 1, 1000))
            assert above.psd and above.zero_pivots == 0, seed
            assert not below.psd, seed

    def test_preconditions(self):
        with pytest.raises(SpectralError, match="regular"):
            sigma2_at_most(Graph(3, [(0, 1), (1, 2)]), Fraction(1))
        with pytest.raises(SpectralError, match="connected"):
            sigma2_at_most(Graph(4, [(0, 1), (2, 3)]), Fraction(1))


class TestSpectralRow:
    def test_one_certificate_when_the_smaller_t_holds(self):
        g = gen_paley(29)  # bound d - 3 = 11, Lichnerowicz t = 14 (1 - 4/7) = 6
        row = _spectral_row(g, detect_amply_params(g), Fraction(4, 7))
        assert [(c.t, c.psd) for c in row.certificates] == [(6, True)]
        assert row.bound_passed and row.lichnerowicz_passed and row.passed

    def test_larger_t_is_tested_after_the_smaller_fails(self):
        # An overstated kappa_min moves the Lichnerowicz t to 3/2, below
        # sigma_2 = 3 = d - 3 of H(3,3), so the bound needs its own test.
        g = gen_hamming(3, 3)
        row = _spectral_row(g, detect_amply_params(g), Fraction(3, 4))
        assert [(c.t, c.psd) for c in row.certificates] == [(Fraction(3, 2), False), (3, True)]
        assert row.bound_passed and not row.lichnerowicz_passed and not row.passed

    def test_lichnerowicz_alone_without_a_bound(self):
        g = gen_cycle(7)  # (7,2,0,1): beta = 1, so no sigma_2 bound applies
        row = _spectral_row(g, detect_amply_params(g), Fraction(0))
        assert row.bound is None and row.bound_passed is None
        assert [(c.t, c.psd, c.zero_pivots) for c in row.certificates] == [(2, True, 0)]
