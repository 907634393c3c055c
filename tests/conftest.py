"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the package's own solvers: brute-force
bijection enumeration for regular-edge transport, networkx BFS for distances
and transport-plan costs, and the closed-form strongly-regular eigenvalues for
spectra.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations
from math import sqrt

import networkx as nx
import numpy as np
import pytest

from arcurv import Bipartite, Graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


def from_networkx(h: nx.Graph) -> Graph:
    mapping = {v: i for i, v in enumerate(sorted(h.nodes()))}
    return Graph(h.number_of_nodes(), [(mapping[u], mapping[v]) for u, v in h.edges()])


def brute_regular_wasserstein(g: Graph, x: int, y: int) -> Fraction:
    """Minimum over all bijections between closed neighborhoods, by enumeration.

    Valid for regular graphs at idleness 1/(d+1); feasible for d + 1 <= 8.
    """
    d = g.regular_degree()
    assert d is not None and d + 1 <= 8
    bx = sorted((x,) + g.neighbors(x))
    by = sorted((y,) + g.neighbors(y))
    best = None
    for perm in permutations(range(d + 1)):
        total = 0
        for i, j in enumerate(perm):
            dist = g.distance(bx[i], by[j])
            assert dist is not None
            total += dist
        if best is None or total < best:
            best = total
    return Fraction(best, d + 1)


def plan_cost(g: Graph, plan) -> Fraction:
    """Exact cost of a transport plan given as ((v, w), mass) pairs: sum of d(v, w) * mass.

    Distances come from networkx BFS. A negative mass or a pair in different
    components raises ValueError.
    """
    h = to_networkx(g)
    total = Fraction(0)
    for (v, w), m in plan:
        if m < 0:
            raise ValueError(f"negative plan mass at ({v}, {w})")
        if not nx.has_path(h, v, w):
            raise ValueError(f"plan moves mass between components: ({v}, {w})")
        total += nx.shortest_path_length(h, v, w) * Fraction(m)
    return total


def bipartite_from_edges(left_n: int, right_n: int, edges) -> Bipartite:
    """The ``Bipartite`` on ``left_n`` + ``right_n`` vertices with the (left, right) pairs ``edges``.

    Repeated pairs count once.
    """
    h = np.zeros((left_n, right_n), dtype=bool)
    for u, w in edges:
        h[u, w] = True
    return Bipartite(h)


def bipartite_edges(b: Bipartite) -> list[tuple[int, int]]:
    """The (left, right) edges of ``b``, left-major in row order."""
    return list(zip(*(side.tolist() for side in np.nonzero(b.biadjacency))))


def is_perfect(m, b) -> bool:
    """Right partners ``m``, by left vertex, cover both sides of ``b`` once, by edges of ``b``."""
    n, right_n = b.biadjacency.shape
    return (right_n == n and sorted(m) == list(range(n))
            and all(b.biadjacency[u, w] for u, w in enumerate(m)))


def srg_eigenvalues(n: int, d: int, alpha: int, beta: int) -> tuple[float, float, float]:
    """Closed-form strongly-regular eigenvalues (r, s, d), r > s."""
    disc = sqrt((alpha - beta) ** 2 + 4 * (d - beta))
    r = ((alpha - beta) + disc) / 2
    s = ((alpha - beta) - disc) / 2
    return r, s, float(d)


def random_connected_graph(seed: int, max_n: int = 16) -> Graph:
    """Random spanning tree plus extra edges; always connected."""
    rng = random.Random(seed)
    n = rng.randint(2, max_n)
    edges = set()
    for v in range(1, n):
        edges.add((rng.randrange(v), v))
    extra = rng.randint(0, n)
    for _ in range(extra):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def random_connected_regular_graph(seed: int, max_n: int = 16) -> Graph:
    """Connected random d-regular graph via networkx, retrying degenerate draws."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(4, max_n)
        d = rng.randint(2, min(6, n - 1))
        if (n * d) % 2 == 1:
            continue
        h = nx.random_regular_graph(d, n, seed=rng.randrange(2**31))
        if nx.is_connected(h):
            return from_networkx(h)


def relabelled(g: Graph, seed: int) -> Graph:
    """``g`` with its vertices permuted by a seeded shuffle."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def mixed_regular_graphs(count: int) -> list[Graph]:
    """The first ``count`` seeded random connected regular graphs (n <= 12) whose edges
    lie in two or more triangle counts t below d - 1, so that their B-pass difference
    zones, of d-1-t points per side, come in two or more nonzero sizes."""
    graphs, seed = [], 0
    while len(graphs) < count:
        g = random_connected_regular_graph(seed, max_n=12)
        d = g.regular_degree()
        if len({d - 1 - len(g.common_neighbors(x, y)) for x, y in g.edges()} - {0}) >= 2:
            graphs.append(g)
        seed += 1
    return graphs


@pytest.fixture
def petersen() -> Graph:
    return from_networkx(nx.petersen_graph())
