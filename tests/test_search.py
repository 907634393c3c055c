"""`search_amply` against an independent oracle: the networkx graph atlas.

``graph_atlas_g()`` lists every graph on at most 7 vertices up to
isomorphism. The parameters of each connected regular one are computed here
with networkx alone, so the oracle shares no code with the search or with
``detect_amply_params``.
"""

from __future__ import annotations

import networkx as nx
from networkx.generators.atlas import graph_atlas_g

from arcurv.search import search_amply
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
