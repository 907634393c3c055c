"""`search_amply` against two oracles: the networkx graph atlas and a plain search.

``graph_atlas_g()`` lists every graph on at most 7 vertices up to
isomorphism. The parameters of each connected regular one are computed here
with networkx alone, so the oracle shares no code with the search or with
``detect_amply_params``. ``reference_search`` is the backtracking search
without the counting-identity and lex-leader prunes; both must return the
same graph on every tuple up to ``SEARCH_VERTEX_CAP``.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from arcurv import AmplyParams, Graph, detect_amply_params
from arcurv.search import SEARCH_VERTEX_CAP, infeasibility_reason, search_amply
from conftest import to_networkx

ATLAS_MAX_N = 7


def _nx_params(h: nx.Graph):
    """(n, d, alpha, beta) of h by networkx, or None when h is not amply regular.

    beta is None when h has no pair at distance 2.
    """
    degrees = {deg for _, deg in h.degree()}
    if h.number_of_nodes() == 0 or len(degrees) != 1 or not nx.is_connected(h):
        return None
    dist = dict(nx.all_pairs_shortest_path_length(h))
    alphas = {len(list(nx.common_neighbors(h, u, v))) for u, v in h.edges()}
    betas = {
        len(list(nx.common_neighbors(h, u, v)))
        for u in h for v in h if u < v and dist[u][v] == 2
    }
    if len(alphas) > 1 or len(betas) > 1:
        return None
    alpha = alphas.pop() if alphas else 0
    beta = betas.pop() if betas else None
    return (h.number_of_nodes(), degrees.pop(), alpha, beta)


def test_search_matches_graph_atlas():
    atlas = {params for h in graph_atlas_g() if (params := _nx_params(h)) is not None}
    # 0 <= alpha < d < n, plus the edgeless d = alpha = 0 (K_1, or disconnected).
    tuples = [
        (n, d, alpha, beta)
        for n in range(1, ATLAS_MAX_N + 1)
        for d in range(n)
        for alpha in range(max(d, 1))
        for beta in (None, *range(d + 1))
    ]
    assert len(tuples) == 322
    hits = []
    for params in tuples:
        found = search_amply(*params)
        assert (found is not None) == (params in atlas), params
        if found is not None:
            hits.append(params)
            assert _nx_params(to_networkx(found)) == params
    # K_1..K_7, C_4..C_7, K_{3,3} and the octahedron K_{2,2,2}.
    assert len(hits) == 13


def reference_search(n: int, d: int, alpha: int, beta: Optional[int]) -> Optional[Graph]:
    """The search with the degree, partial-alpha and completed-vertex prunes only.

    Same slot order, edge present first, vertex 0 pinned to 1..d and final
    ``detect_amply_params`` check as ``search_amply``, so it returns the same
    first hit without the counting identity or the lex-leader cuts.
    """
    if n < 1 or d >= n or infeasibility_reason(n, d, alpha) is not None:
        return None
    nb = [(1 << d + 1) - 2] + [1] * d + [0] * (n - 1 - d)
    slots = []
    left = [0] * n
    for u, v in reversed([(u, v) for u in range(1, n) for v in range(u + 1, n)]):
        slots.append((u, v, left[u], left[v]))
        left[u] += 1
        left[v] += 1
    slots.reverse()

    def alpha_ok_after(u, v):
        common = nb[u] & nb[v]
        if common.bit_count() > alpha:
            return False
        while common:
            bit = common & -common
            w = bit.bit_length() - 1
            if (nb[u] & nb[w]).bit_count() > alpha or (nb[v] & nb[w]).bit_count() > alpha:
                return False
            common ^= bit
        return True

    def completed_ok(u):
        for a in range(u):
            c = (nb[a] & nb[u]).bit_count()
            if nb[u] >> a & 1:
                if c != alpha:
                    return False
            elif c and (beta is None or c != beta):
                return False
        return True

    def descend(idx, u, v):
        if v == n - 1 and not completed_ok(u):
            return None
        return backtrack(idx + 1)

    def backtrack(idx):
        if idx == len(slots):
            if any(mask.bit_count() != d for mask in nb):
                return None
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if nb[u] >> v & 1])
            if not g.is_connected():
                return None
            params = detect_amply_params(g)
            if isinstance(params, AmplyParams) and (params.d, params.alpha, params.beta) == (d, alpha, beta):
                return g
            return None
        u, v, left_u, left_v = slots[idx]
        deg_u, deg_v = nb[u].bit_count(), nb[v].bit_count()
        if deg_u < d and deg_v < d:
            nb[u] |= 1 << v
            nb[v] |= 1 << u
            if alpha_ok_after(u, v):
                found = descend(idx, u, v)
                if found is not None:
                    return found
            nb[u] ^= 1 << v
            nb[v] ^= 1 << u
        if deg_u + left_u >= d and deg_v + left_v >= d:
            return descend(idx, u, v)
        return None

    return backtrack(0)


def test_search_matches_reference_on_every_tuple():
    tuples = [
        (n, d, alpha, beta)
        for n in range(1, SEARCH_VERTEX_CAP + 1)
        for d in range(n)
        for alpha in range(max(d, 1))
        for beta in (None, *range(d + 1))
    ]
    assert len(tuples) == 1175
    hits = 0
    for params in tuples:
        found, expected = search_amply(*params), reference_search(*params)
        if expected is None:
            assert found is None, params
        else:
            assert found is not None and found.edges() == expected.edges(), params
            hits += 1
    # includes the Petersen graph (10,3,0,1), where 1 + d + k2 = n exactly
    assert hits == 29
