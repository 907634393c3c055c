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

    Exhaustive backtracking over edge slots in lexicographic pair order, edge
    present first, then absent, so leaves are met in decreasing lex order of
    the slot string. Vertex 0 is pinned to neighbors 1..d (every candidate has
    such a relabeling), so one representative per orbit of that pinning is
    enough. Neighborhoods are int bitmasks.

    Before backtracking, the counting identity d(d-1-alpha) = k2*beta, with k2
    the number of vertices at distance 2 from any vertex (Brouwer, Cohen and
    Neumaier 1989, 1.1), must give an integer k2 >= 0 with 1 + d + k2 <= n.
    With no distance-2 pair (``beta`` None or 0) only K_1 and K_{d+1} remain.

    The valid graphs under the pinning are closed under swapping two vertices
    in the same block, {1..d} or {d+1..n-1}, so the first hit is the
    lex-greatest valid graph. Every prune below cuts only a graph that fails
    the final ``detect_amply_params`` check, or one whose slot string is
    below that of a relabeling, so none cuts the first hit:

    - degree: no vertex goes past d, and each keeps enough undecided slots
      to reach d;
    - partial alpha: adding an edge only grows common-neighbor counts, so no
      adjacent pair may already be past alpha;
    - completed vertex: after slot (u, n-1) all slots at u and at every
      a < u are decided, so the pair (a, u) is final. An adjacent pair must
      have exactly alpha common neighbors; a non-adjacent pair with a common
      neighbor is at distance 2, so it must have exactly beta (and
      ``beta=None``, which asks for no distance-2 pair, ends the branch);
    - lex leader (Crawford, Ginsberg, Luks and Roy 1996): swapping i and i+1
      of one block must not give a greater slot string. Once rows 0..i-1
      are decided, the first row where the columns of i and i+1 differ must
      have the edge at i; if they never differ, once row i+1 is decided the
      first column above i+1 where rows i and i+1 differ must have it at i.

    Absence is returned as None. Negative parameters raise ``GraphError``.
    """
    if n > SEARCH_VERTEX_CAP:
        raise GraphError(f"search limited to n <= {SEARCH_VERTEX_CAP}, got {n}")
    if min(n, d, alpha, 0 if beta is None else beta) < 0:
        raise GraphError(
            f"search parameters must be nonnegative, got n={n}, d={d}, "
            f"alpha={alpha}, beta={beta}"
        )
    if n < 1 or d >= n or infeasibility_reason(n, d, alpha) is not None:
        return None
    if not beta:
        if n > 1 and (n != d + 1 or alpha != d - 1):
            return None
    else:
        k2, rest = divmod(d * (d - 1 - alpha), beta)
        if rest or k2 < 0 or 1 + d + k2 > n:
            return None
    # neighborhood bitmasks, vertex 0 pinned to 1..d
    nb = [(1 << d + 1) - 2] + [1] * d + [0] * (n - 1 - d)
    # (u, v, undecided slots at u after this one, undecided slots at v after it)
    slots = []
    left = [0] * n
    for u, v in reversed([(u, v) for u in range(1, n) for v in range(u + 1, n)]):
        slots.append((u, v, left[u], left[v]))
        left[u] += 1
        left[v] += 1
    slots.reverse()

    def alpha_ok_after(u: int, v: int) -> bool:
        # adding uv can only grow counts; reject any adjacent pair already past alpha
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

    def completed_ok(u: int) -> bool:
        # lex leader: columns of u+1, u+2 over rows 0..u, then tails of rows u-1, u.
        # Row 0 tells the blocks apart: for i = d the columns first differ
        # there, at d's edge, so a pair across the blocks is never cut.
        i = u + 1
        if i + 1 < n:
            diff = (nb[i] ^ nb[i + 1]) & ((1 << i) - 1)
            if diff and not nb[i] & diff & -diff:
                return False
        i = u - 1
        if i and not (nb[i] ^ nb[u]) & ((1 << i) - 1):
            diff = (nb[i] ^ nb[u]) >> u + 1
            if diff and not nb[i] >> u + 1 & diff & -diff:
                return False
        for a in range(u):
            c = (nb[a] & nb[u]).bit_count()
            if nb[u] >> a & 1:
                if c != alpha:
                    return False
            elif c and (beta is None or c != beta):
                return False
        return True

    def descend(idx: int, u: int, v: int) -> Optional[Graph]:
        if v == n - 1 and not completed_ok(u):
            return None
        return backtrack(idx + 1)

    def backtrack(idx: int) -> Optional[Graph]:
        if idx == len(slots):
            if any(mask.bit_count() != d for mask in nb):
                return None
            g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if nb[u] >> v & 1])
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
        u, v, left_u, left_v = slots[idx]
        deg_u, deg_v = nb[u].bit_count(), nb[v].bit_count()
        # try edge present first, then absent
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
