"""Exhaustive search for small amply regular graphs with given parameters."""

from __future__ import annotations

from typing import Optional

from .graph import AmplyParams, Graph, GraphError, detect_amply_params

SEARCH_VERTEX_CAP = 10


def infeasibility_reason(n: int, d: int, alpha: int) -> Optional[str]:
    """Why no d-regular graph on n vertices has every edge in alpha triangles.

    Exact counting conditions: the degree sum n*d is even; each neighborhood
    induces an alpha-regular graph on d vertices, so d*alpha is even; and the
    graph has n*d*alpha/6 triangles, an integer. None when all three hold.
    """
    if (n * d) % 2:
        return f"n*d = {n * d} is odd, so no {d}-regular graph on {n} vertices exists"
    if (d * alpha) % 2:
        return (
            f"d*alpha = {d * alpha} is odd, but each neighborhood would induce "
            f"a graph on {d} vertices, regular of degree {alpha}"
        )
    if (n * d * alpha) % 6:
        return f"the triangle count n*d*alpha/6 = {n * d * alpha}/6 is not an integer"
    return None


def search_amply(
    n: int, d: int, alpha: int, beta: Optional[int]
) -> Optional[Graph]:
    """First d-regular graph on n vertices that is amply regular with (alpha, beta).

    Exhaustive backtracking over edge slots in lexicographic pair order,
    pruned by degree feasibility and partial common-neighbor counts. Vertex 0
    is pinned to neighbors 1..d (every candidate has such a relabeling), so
    one representative per orbit of that pinning is enough. ``beta=None``
    asks for a graph with no distance-2 pair. Deterministic first hit;
    absence is returned as None.
    """
    if n > SEARCH_VERTEX_CAP:
        raise GraphError(f"search limited to n <= {SEARCH_VERTEX_CAP}, got {n}")
    if n < 1 or d < 0 or d >= n or infeasibility_reason(n, d, alpha) is not None:
        return None
    adj = [[False] * n for _ in range(n)]
    deg = [0] * n
    for v in range(1, d + 1):
        adj[0][v] = adj[v][0] = True
        deg[0] += 1
        deg[v] += 1
    slots = [(u, v) for u in range(1, n) for v in range(u + 1, n)]

    def common_count(u: int, v: int) -> int:
        return sum(1 for w in range(n) if adj[u][w] and adj[v][w])

    def alpha_ok_after(u: int, v: int) -> bool:
        # adding uv can only grow counts; reject any adjacent pair already past alpha
        if common_count(u, v) > alpha:
            return False
        for w in range(n):
            if adj[u][w] and adj[v][w]:
                if common_count(u, w) > alpha or common_count(v, w) > alpha:
                    return False
        return True

    def remaining(u: int, idx: int) -> int:
        # undecided slots incident to u at or after position idx
        return sum(1 for s, t in slots[idx:] if s == u or t == u)

    def backtrack(idx: int) -> Optional[Graph]:
        if idx == len(slots):
            if any(deg[v] != d for v in range(n)):
                return None
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if adj[u][v]])
            if not g.is_connected():
                return None
            params = detect_amply_params(g)
            if (
                isinstance(params, AmplyParams)
                and params.d == d
                and params.alpha == alpha
                and params.beta == beta
            ):
                return g
            return None
        u, v = slots[idx]
        # try edge present first, then absent
        if deg[u] < d and deg[v] < d:
            adj[u][v] = adj[v][u] = True
            deg[u] += 1
            deg[v] += 1
            if alpha_ok_after(u, v):
                found = backtrack(idx + 1)
                if found is not None:
                    return found
            adj[u][v] = adj[v][u] = False
            deg[u] -= 1
            deg[v] -= 1
        if deg[u] + remaining(u, idx + 1) >= d and deg[v] + remaining(v, idx + 1) >= d:
            return backtrack(idx + 1)
        return None

    return backtrack(0)
