import re
import time
from itertools import product
from math import prod

import pytest

from arcurv import (
    AmplyParams,
    GraphError,
    detect_amply_params,
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
)

import arcurv.generators as generators


def test_hamming_instances():
    assert detect_amply_params(gen_hamming(3, 2)) == AmplyParams(8, 3, 0, 2, girth=4)
    assert detect_amply_params(gen_hamming(2, 3)) == AmplyParams(9, 4, 1, 2, girth=3)
    assert detect_amply_params(gen_hamming(2, 4)) == AmplyParams(16, 6, 2, 2, girth=3)


def test_hamming_size_cap():
    with pytest.raises(GraphError, match="cap"):
        gen_hamming(10, 4, size_cap=1000)


@pytest.mark.parametrize("p, q", [(10**6, 10**6), (5000, 10), (18, 2), (2, 10**6)])
def test_hamming_refuses_huge_arguments_before_computing_q_to_the_p(p, q):
    # computing 10**6 ** 10**6 takes seconds, and 10**5000 has too many digits to print
    start = time.perf_counter()
    message = rf"^H\({p},{q}\) has {q}\^{p} vertices, exceeding cap 100000$"
    with pytest.raises(GraphError, match=message):
        gen_hamming(p, q)
    assert time.perf_counter() - start < 0.1


def test_hamming_cap_boundary():
    assert gen_hamming(1, 10, size_cap=10).n == 10
    with pytest.raises(GraphError, match=r"^H\(1,11\) has 11\^1 vertices, exceeding cap 10$"):
        gen_hamming(1, 11, size_cap=10)
    with pytest.raises(GraphError, match=r"^H\(17,2\) has 131072 vertices, exceeding cap 100000$"):
        gen_hypercube(17)


@pytest.mark.parametrize("build, size", [
    (lambda cap: gen_complete(11, size_cap=cap), 11),
    (lambda cap: gen_cycle(11, size_cap=cap), 11),
    (lambda cap: gen_cocktail(6, size_cap=cap), 12),
    (lambda cap: gen_paley(13, size_cap=cap), 13),
    (lambda cap: gen_shrikhande(size_cap=cap), 16),
    pytest.param(lambda cap: gen_clebsch(size_cap=cap), 16, id="clebsch"),
    pytest.param(lambda cap: gen_product(gen_complete(3), gen_complete(4), size_cap=cap), 12,
                 id="product"),
])
def test_every_family_honours_the_size_cap(build, size):
    with pytest.raises(GraphError, match=f"{size} vertices, exceeding cap 10"):
        build(10)
    assert build(size).n == size


# Each dense family's first size past the edge bound of 1,000,000 with its edge
# count, and its largest size under the bound with its count.
EDGE_BOUND_SIZES = [
    (gen_complete, "K_{}", (1415,), 1000405, (1414,), 998991),
    (gen_cocktail, "cocktail({})", (708,), 1001112, (707,), 998284),
    (gen_paley, "Paley({})", (2017,), 1016568, (1997,), 996503),
    (gen_hamming, "H({},{})", (2, 101), 1020100, (2, 100), 990000),
]


def _refusal(name, count, bound):
    return rf"^{re.escape(name)} has {count} edges, exceeding the edge bound {bound}$"


@pytest.mark.parametrize("build, name, past, past_count, under, under_count", EDGE_BOUND_SIZES)
def test_every_dense_family_honours_the_edge_bound(monkeypatch, build, name, past, past_count,
                                                   under, under_count):
    start = time.perf_counter()
    with pytest.raises(GraphError, match=_refusal(name.format(*past), past_count, 1000000)):
        build(*past)
    assert time.perf_counter() - start < 0.1
    # The largest size under the bound is admitted: its count, read off the
    # refusal under a bound one lower, is at most the bound.
    assert under_count <= generators.EDGE_BOUND
    monkeypatch.setattr(generators, "EDGE_BOUND", under_count - 1)
    with pytest.raises(GraphError, match=_refusal(name.format(*under), under_count, under_count - 1)):
        build(*under)


@pytest.mark.parametrize("build, past, under", [
    (gen_complete, (6,), (5,)),
    (gen_cocktail, (4,), (3,)),
    (gen_paley, (13,), (5,)),
    (gen_hamming, (2, 4), (2, 3)),
])
def test_the_edge_bound_admits_its_own_count(monkeypatch, build, past, under):
    # the bound set to the count of the largest graph under it: that one is
    # built with exactly that many edges, the next is refused
    count = build(*under).num_edges()
    monkeypatch.setattr(generators, "EDGE_BOUND", count)
    assert build(*under).num_edges() == count
    with pytest.raises(GraphError, match=rf"edges, exceeding the edge bound {count}$"):
        build(*past)


@pytest.mark.parametrize("build, name, count", [
    pytest.param(gen_shrikhande, "the Shrikhande graph", 48, id="shrikhande"),
    pytest.param(gen_clebsch, "the Clebsch graph", 40, id="clebsch"),
])
def test_the_fixed_cayley_families_honour_the_edge_bound(monkeypatch, build, name, count):
    # they count their edges like the dense families: one under their count is refused
    monkeypatch.setattr(generators, "EDGE_BOUND", count - 1)
    with pytest.raises(GraphError, match=_refusal(name, count, count - 1)):
        build()
    monkeypatch.setattr(generators, "EDGE_BOUND", count)
    assert build().num_edges() == count


def test_the_edge_bound_holds_under_any_size_cap():
    # Q17's 131072 vertices fit a raised size cap; its 1114112 edges do not
    with pytest.raises(GraphError, match=_refusal("H(17,2)", 1114112, 1000000)):
        gen_hypercube(17, size_cap=10**6)


def test_paley_checks_the_cap_before_primality(monkeypatch):
    def no_test(q):
        raise AssertionError("primality tested past the size cap")

    monkeypatch.setattr("arcurv.generators._is_prime", no_test)
    with pytest.raises(GraphError, match="cap"):
        gen_paley(10**12 + 39, size_cap=100)


def test_hypercube():
    q3 = gen_hypercube(3)
    assert q3.n == 8 and q3.num_edges() == 12
    assert detect_amply_params(gen_hypercube(4)) == AmplyParams(16, 4, 0, 2, girth=4)
    assert gen_hypercube(1) == gen_complete(2)


def test_hypercube_rejects_dimension_below_one():
    with pytest.raises(GraphError, match=r"^gen_hypercube requires k >= 1, got 0$"):
        gen_hypercube(0)


def test_paley_13():
    p = detect_amply_params(gen_paley(13))
    assert p == AmplyParams(13, 6, 2, 3, girth=3)  # conference parameters, gamma = 3


def test_paley_5_is_cycle():
    assert gen_paley(5) == gen_cycle(5)


def test_paley_rejects_bad_modulus():
    with pytest.raises(GraphError, match="prime"):
        gen_paley(12)
    with pytest.raises(GraphError, match="mod 4"):
        gen_paley(7)
    with pytest.raises(GraphError, match="prime"):
        gen_paley(9)  # prime powers unsupported


def test_paley_edge_count():
    for q in (5, 13, 17, 29):
        assert gen_paley(q).num_edges() == q * (q - 1) // 4


def test_shrikhande():
    g = gen_shrikhande()
    assert g.num_edges() == 48
    assert detect_amply_params(g) == AmplyParams(16, 6, 2, 2, girth=3)


def test_clebsch_is_the_folded_5_cube():
    g = gen_clebsch()
    assert detect_amply_params(g) == AmplyParams(16, 5, 0, 2, girth=4)
    assert all(bin(u ^ v).count("1") in (1, 4) for u, v in g.edges())
    assert g.num_edges() == 40


def test_product_numbers_pairs_factor_major():
    g, h = gen_cycle(4), gen_complete(3)
    p = gen_product(g, h)
    assert (p.n, p.num_edges()) == (12, 4 * 3 + 3 * 4)
    for a in range(4):
        for b in range(3):
            assert set(p.neighbors(3 * a + b)) == (
                {3 * c + b for c in g.neighbors(a)} | {3 * a + c for c in h.neighbors(b)})


@pytest.mark.parametrize("g, h, params", [
    (gen_clebsch(), gen_complete(2), AmplyParams(32, 6, 0, 2, girth=4)),
    (gen_cycle(4), gen_clebsch(), AmplyParams(64, 7, 0, 2, girth=4)),
    (gen_clebsch(), gen_clebsch(), AmplyParams(256, 10, 0, 2, girth=4)),
])
def test_products_in_the_girth_4_regime(g, h, params):
    assert detect_amply_params(gen_product(g, h)) == params


def test_product_checks_the_edge_bound_before_building(monkeypatch):
    def no_build(*args):
        raise AssertionError("product built past the edge bound")

    clebsch, k2 = gen_clebsch(), gen_complete(2)
    monkeypatch.setattr(generators, "EDGE_BOUND", 95)
    monkeypatch.setattr(generators, "Graph", no_build)
    # Clebsch x K2: 40 * 2 + 1 * 16 = 96 edges
    with pytest.raises(GraphError, match=_refusal("the product of a 16-vertex and a 2-vertex graph",
                                                  96, 95)):
        gen_product(clebsch, k2)


def test_cocktail():
    assert detect_amply_params(gen_cocktail(3)) == AmplyParams(6, 4, 2, 4, girth=3)
    # cocktail(2) is a 4-cycle (up to relabeling)
    c = detect_amply_params(gen_cocktail(2))
    assert (c.n, c.d, c.alpha, c.beta) == (4, 2, 0, 2)
    assert detect_amply_params(gen_cocktail(4)) == AmplyParams(8, 6, 4, 6, girth=3)


def test_complete_and_cycle():
    assert gen_complete(4).num_edges() == 6
    c6 = detect_amply_params(gen_cycle(6))
    assert (c6.d, c6.alpha, c6.beta) == (2, 0, 1)
    assert gen_cycle(3) == gen_complete(3)
    with pytest.raises(GraphError):
        gen_cycle(2)
    with pytest.raises(GraphError):
        gen_complete(1)


def test_generators_connected_and_deterministic():
    builds = [
        lambda: gen_hamming(2, 3),
        lambda: gen_paley(13),
        gen_shrikhande,
        lambda: gen_cocktail(3),
        lambda: gen_cycle(7),
        lambda: gen_complete(5),
        gen_clebsch,
        lambda: gen_product(gen_clebsch(), gen_complete(2)),
    ]
    for build in builds:
        g1, g2 = build(), build()
        assert g1.is_connected()
        assert dump_edge_list(g1) == dump_edge_list(g2)


# Each family built through the abelian Cayley constructor, against its textbook adjacency
# rule: the group Z_{r1} x ... x Z_{rk} (vertex u is the mixed-radix number of its
# coordinates, the first most significant) and the edge set the rule gives.


def _hamming_rule(p, q):
    """Pairs of p-tuples over range(q) at Hamming distance 1, numbered in lexicographic order."""
    tuples = list(product(range(q), repeat=p))
    index = {t: i for i, t in enumerate(tuples)}
    return {(i, index[t[:c] + (b,) + t[c + 1:]])
            for i, t in enumerate(tuples) for c in range(p) for b in range(t[c] + 1, q)}


def _pairs(n, rule):
    return {(u, v) for u in range(n) for v in range(u + 1, n) if rule(u, v)}


def _paley_rule(q):
    squares = {a * a % q for a in range(1, q)}
    return _pairs(q, lambda u, v: (v - u) % q in squares)


# H(1, q) = K_q for small q, and every H(p, q) with p >= 2, q >= 3, q^p <= 20000 and at most
# 50000 edges; Q_k = H(k, 2) is listed on its own
HAMMING = [(1, q) for q in range(3, 12)] + [
    (p, q) for p in range(2, 10) for q in range(3, 142)
    if q ** p <= 20000 and q ** p * p * (q - 1) // 2 <= 50_000]

SHRIKHANDE_DIFFERENCES = {(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)}

CAYLEY_CASES = [
    *(pytest.param(lambda p=p, q=q: gen_hamming(p, q), (q,) * p,
                   lambda p=p, q=q: _hamming_rule(p, q), id=f"H({p},{q})")
      for p, q in HAMMING),
    *(pytest.param(lambda k=k: gen_hypercube(k), (2,) * k, lambda k=k: _hamming_rule(k, 2),
                   id=f"Q{k}") for k in range(1, 14)),
    *(pytest.param(lambda q=q: gen_paley(q), (q,), lambda q=q: _paley_rule(q), id=f"paley{q}")
      for q in range(5, 400, 4) if all(q % f for f in range(2, q))),
    pytest.param(gen_shrikhande, (4, 4), lambda: _pairs(16, lambda u, v: (
        ((v // 4 - u // 4) % 4, (v - u) % 4) in SHRIKHANDE_DIFFERENCES)), id="shrikhande"),
    pytest.param(gen_clebsch, (2, 2, 2, 2),
                 lambda: _pairs(16, lambda u, v: bin(u ^ v).count("1") in (1, 4)), id="clebsch"),
    *(pytest.param(lambda m=m: gen_cocktail(m), (m, 2),
                   lambda m=m: _pairs(2 * m, lambda u, v: u // 2 != v // 2), id=f"cocktail({m})")
      for m in range(2, 60)),
]


def _translate(u, radices, i):
    """u + e_i: coordinate i of u plus one, modulo its radix."""
    w = prod(radices[i + 1:])
    return u + w if (u // w) % radices[i] < radices[i] - 1 else u - (radices[i] - 1) * w


@pytest.mark.parametrize("build, radices, rule", CAYLEY_CASES)
def test_cayley_families_follow_their_adjacency_rule(build, radices, rule):
    g = build()
    edges = set(g.edges())
    assert g.n == prod(radices)
    assert edges == rule()
    # the translation by each generator e_i of the group is an automorphism
    for i in range(len(radices)):
        moved = {tuple(sorted((_translate(u, radices, i), _translate(v, radices, i))))
                 for u, v in edges}
        assert moved == edges
