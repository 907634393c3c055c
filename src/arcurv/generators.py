"""Deterministic constructors for the named graph families used in verification."""

from __future__ import annotations

from itertools import chain
from math import isqrt, prod
from typing import Iterable

import numpy as np

from .graph import Graph, GraphError

DEFAULT_SIZE_CAP = 100_000
EDGE_BOUND = 1_000_000
"""The most edges any family but the cycle builds, whatever the size cap: the
vertex cap alone admits K_n with billions of edges."""


def _check_size(name: str, n: int, size_cap: int) -> None:
    """Refuse a graph of ``n`` vertices above ``size_cap``, before any of it is built."""
    if n > size_cap:
        raise GraphError(f"{name} has {n} vertices, exceeding cap {size_cap}")


def _check_edges(name: str, m: int) -> None:
    """Refuse a graph of ``m`` edges above ``EDGE_BOUND``, before any of it is built."""
    if m > EDGE_BOUND:
        raise GraphError(f"{name} has {m} edges, exceeding the edge bound {EDGE_BOUND}")


def _cayley(name: str, radices: tuple, degree: int, connection: Iterable, size_cap: int) -> Graph:
    """Cayley graph on Z_{r1} x ... x Z_{rk}: u ~ u + s for each s in ``connection``, a set of
    ``degree`` nonzero elements closed under negation, each given by its k coordinates.

    Vertex u is the mixed-radix number of its coordinates, the first most significant. The
    size cap and the edge bound are checked before ``connection`` is read, so it may be a
    generator; the edges are then streamed into the graph one connection element at a time.
    """
    n = prod(radices)
    _check_size(name, n, size_cap)
    _check_edges(name, n * degree // 2)
    digits = np.indices(radices).reshape(len(radices), n)
    u = np.arange(n)
    labels = u.astype(object)  # one int per vertex, shared by its edges: less memory, faster dump

    def joins(s):
        v = np.ravel_multi_index(digits + np.reshape(s, (-1, 1)), radices, mode="wrap")
        keep = u < v
        return zip(labels[keep].tolist(), labels[v[keep]].tolist())

    return Graph(n, chain.from_iterable(map(joins, connection)))


def gen_hamming(p: int, q: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Hamming graph H(p, q): p-tuples over {0..q-1}, adjacency = Hamming distance 1.

    The Cayley graph on Z_q^p with connection set {c e_i : c != 0}; vertices are indexed in
    lexicographic tuple order.
    """
    if p < 1 or q < 2:
        raise GraphError(f"gen_hamming requires p >= 1, q >= 2, got ({p}, {q})")
    if q > size_cap or p > size_cap.bit_length():  # then q**p > size_cap: refused uncomputed
        raise GraphError(f"H({p},{q}) has {q}^{p} vertices, exceeding cap {size_cap}")
    return _cayley(f"H({p},{q})", (q,) * p, p * (q - 1),
                   (c * e for e in np.eye(p, dtype=int) for c in range(1, q)), size_cap)


def gen_hypercube(k: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """k-dimensional hypercube Q_k = H(k, 2)."""
    if k < 1:
        raise GraphError(f"gen_hypercube requires k >= 1, got {k}")
    return gen_hamming(k, 2, size_cap=size_cap)


def _is_prime(q: int) -> bool:
    return q > 1 and all(q % f for f in range(2, isqrt(q) + 1))


def gen_paley(q: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Paley graph on a prime q = 1 (mod 4): u ~ v iff u - v is a nonzero square.

    Prime powers are deliberately unsupported; the 9-vertex case is available
    as gen_hamming(2, 3). The size cap is checked before the primality test.
    """
    _check_size(f"Paley({q})", q, size_cap)
    if not _is_prime(q):
        raise GraphError(f"gen_paley requires a prime, got {q}")
    if q % 4 != 1:
        raise GraphError(f"gen_paley requires q = 1 (mod 4), got {q}")
    # a and -a have the same square, so the (q-1)/2 nonzero squares are those of 1..(q-1)/2
    return _cayley(f"Paley({q})", (q,), (q - 1) // 2,
                   ((a * a % q,) for a in range(1, (q + 1) // 2)), size_cap)


def gen_shrikhande(size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Shrikhande graph: Cayley graph on Z4 x Z4 with connection set {+-(1,0), +-(0,1), +-(1,1)}."""
    return _cayley("the Shrikhande graph", (4, 4), 6,
                   [(1, 0), (3, 0), (0, 1), (0, 3), (1, 1), (3, 3)], size_cap)


def gen_clebsch(size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Clebsch graph (16,5,0,2), the folded 5-cube: u ~ v on 0..15 iff popcount(u xor v)
    is 1 or 4, the Cayley graph on Z2^4 with connection set {e_i} and 1111."""
    return _cayley("the Clebsch graph", (2,) * 4, 5, [*np.eye(4, dtype=int), (1, 1, 1, 1)],
                   size_cap)


def gen_product(g: Graph, h: Graph, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Cartesian product G x H: (a, b), numbered a * |H| + b, is adjacent to (a', b) for a ~ a'
    and to (a, b') for b ~ b'. The size cap and the edge bound are checked before it is built.

    If G and H are amply regular with the same alpha, each with beta = 2 or
    complete, the product is amply regular with that alpha and beta = 2, and
    in general not distance-regular. With alpha = 0, as for the Clebsch graph
    times K2, C4 or itself, these products sit in the paper's girth-4 regime:
    any two edges from different factors span a 4-cycle, and there are no
    triangles.
    """
    name, n = f"the product of a {g.n}-vertex and a {h.n}-vertex graph", g.n * h.n
    _check_size(name, n, size_cap)
    _check_edges(name, g.num_edges() * h.n + h.num_edges() * g.n)
    edges = [(a * h.n + b, c * h.n + b) for a, c in g.edges() for b in range(h.n)]
    edges += [(a * h.n + b, a * h.n + c) for b, c in h.edges() for a in range(g.n)]
    return Graph(n, edges)


def gen_cocktail(m: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    """Cocktail-party graph K_{m x 2}: 2m vertices, 2i and 2i+1 non-adjacent; the Cayley
    graph on Z_m x Z2 with connection set {(i, b) : i != 0}."""
    if m < 2:
        raise GraphError(f"gen_cocktail requires m >= 2, got {m}")
    return _cayley(f"cocktail({m})", (m, 2), 2 * (m - 1),
                   ((i, b) for i in range(1, m) for b in (0, 1)), size_cap)


def gen_complete(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if n < 2:
        raise GraphError(f"gen_complete requires n >= 2, got {n}")
    _check_size(f"K_{n}", n, size_cap)
    _check_edges(f"K_{n}", n * (n - 1) // 2)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def gen_cycle(n: int, size_cap: int = DEFAULT_SIZE_CAP) -> Graph:
    if n < 3:
        raise GraphError(f"gen_cycle requires n >= 3, got {n}")
    _check_size(f"C_{n}", n, size_cap)
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])
