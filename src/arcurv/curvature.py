"""Exact measures, Wasserstein distance, and edge curvature of regular graphs.

All masses, costs, and curvature values are `fractions.Fraction` or integers;
nothing in this module touches floating point. One private core serves
`lly_curvature`, `curvature_all_edges`, `ollivier_kappa_p` and
`kappa_p_all_edges` on regular edges, one edge or all alike; the two
all-edge functions certify every edge in one batch. The uniform measures on
B(x) and B(y) (or N(x) and N(y)) give equal mass to every shared vertex, so
mu - nu, and with it W1 by Kantorovich-Rubinstein duality, depends only on
the symmetric difference. Each edge's zone is therefore B(x) - B(y) then
B(y) - B(x), or N(x) - N(y) then N(y) - N(x), read from the partition of
its neighbourhood that `graph.edge_chunks` gives a chunk of edges at a time;
an edge in t triangles has d-1-t or d-t points per side.
`certify_assignments` solves the zones of each size in a chunk as integer
assignments, each proven optimal by an integer Kantorovich potential of
equal value, 1-Lipschitz on the zone and so (McShane) on the graph; an empty
zone costs 0 unsolved. A B-zone cost C gives kappa_LLY = (d+1-C)/d, an
N-zone cost kappa_0 = (d-C)/d; idleness p runs the passes it needs, the B
pass through kappa_LLY, and interpolates by the linearity theorem of Bourne
et al. (SIAM J. Discrete Math. 32, 2018). `lly_curvature` and
`curvature_all_edges` keep each kappa_LLY they certify on its `Graph`. The
min-cost-flow transportation solve serves only irregular graphs and
non-adjacent pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .graph import Graph, edge_chunks


class CurvatureError(ValueError):
    """Unmet curvature precondition or internal exactness failure."""


def _idleness(p) -> Fraction:
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise CurvatureError(f"idleness {p} outside [0, 1]")
    return p


def mu_p(g: Graph, x: int, p: Fraction) -> dict[int, Fraction]:
    """Idleness-p measure ``{vertex: mass}``: p at x, (1-p)/deg(x) at each neighbor, no zeros."""
    p = _idleness(p)
    g.check_vertex(x)
    deg = g.degree(x)
    if deg == 0 and p != 1:
        raise CurvatureError(f"isolated vertex {x} requires p = 1")
    masses = {w: (1 - p) / deg for w in g.neighbors(x)} if p != 1 else {}
    if p:
        masses[x] = p
    return masses


class _MinCostFlow:
    """Successive shortest paths with Johnson potentials; nonnegative int costs."""

    def __init__(self, n: int):
        self.n = n
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        self.cost: list[int] = []

    def add_edge(self, u: int, v: int, cap: int, cost: int) -> None:
        self.head[u].append(len(self.to))
        self.to.append(v)
        self.cap.append(cap)
        self.cost.append(cost)
        self.head[v].append(len(self.to))
        self.to.append(u)
        self.cap.append(0)
        self.cost.append(-cost)

    def solve(self, s: int, t: int, flow: int) -> int:
        potential = [0] * self.n
        total_cost = 0
        remaining = flow
        while remaining > 0:
            dist = [None] * self.n
            prev_edge = [-1] * self.n
            dist[s] = 0
            pq = [(0, s)]
            while pq:
                d, u = heapq.heappop(pq)
                if dist[u] is not None and d > dist[u]:
                    continue
                for eid in self.head[u]:
                    if self.cap[eid] <= 0:
                        continue
                    v = self.to[eid]
                    nd = d + self.cost[eid] + potential[u] - potential[v]
                    if dist[v] is None or nd < dist[v]:
                        dist[v] = nd
                        prev_edge[v] = eid
                        heapq.heappush(pq, (nd, v))
            if dist[t] is None:
                raise CurvatureError("internal error: transportation network infeasible")
            for v in range(self.n):
                if dist[v] is not None:
                    potential[v] += dist[v]
            # bottleneck along the shortest path
            push = remaining
            v = t
            while v != s:
                eid = prev_edge[v]
                push = min(push, self.cap[eid])
                v = self.to[eid ^ 1]
            v = t
            while v != s:
                eid = prev_edge[v]
                self.cap[eid] -= push
                self.cap[eid ^ 1] += push
                total_cost += push * self.cost[eid]
                v = self.to[eid ^ 1]
            remaining -= push
        return total_cost


def _support(g: Graph, mu: dict[int, Fraction]) -> tuple[list[int], list[Fraction]]:
    """The sorted vertices of ``mu`` and their masses, checked to be a probability measure on g."""
    vertices = sorted(mu)
    masses = [Fraction(mu[v]) for v in vertices]
    for v, m in zip(vertices, masses):
        if not 0 <= v < g.n:
            raise CurvatureError(f"measure vertex {v} is not a vertex of the graph (0..{g.n - 1})")
        if m <= 0:
            raise CurvatureError(f"nonpositive mass {m} at vertex {v}")
    if sum(masses) != 1:
        raise CurvatureError(f"total mass {sum(masses)} != 1")
    return vertices, masses


def wasserstein(g: Graph, mu1: dict[int, Fraction], mu2: dict[int, Fraction]) -> Fraction:
    """Exact Wasserstein distance between two ``{vertex: mass}`` probability measures.

    Each measure must put a positive mass on vertices of g only, with total
    1. Both are scaled by the least common denominator to integer
    supplies/demands and the transportation problem is solved by min-cost
    flow over BFS distances. The integer flow is checked to be nonnegative,
    to have row sums equal to the supplies and column sums equal to the
    demands, and to cost the solver's total; that total is then unscaled
    back to a Fraction.
    """
    sources, masses1 = _support(g, mu1)
    targets, masses2 = _support(g, mu2)
    scale = lcm(*[m.denominator for m in masses1 + masses2])
    supplies = [int(m * scale) for m in masses1]
    demands = [int(m * scale) for m in masses2]
    a, b = len(sources), len(targets)
    dmat = g.distances(np.array(sources)[:, None], targets)
    if (dmat < 0).any():
        raise CurvatureError("measure supports lie in different components")
    dmat = dmat.tolist()
    # nodes: 0 = source, 1..a = sources, a+1..a+b = targets, a+b+1 = sink
    net = _MinCostFlow(a + b + 2)
    s, t = 0, a + b + 1
    for i, supply in enumerate(supplies):
        net.add_edge(s, 1 + i, supply, 0)
    for j, demand in enumerate(demands):
        net.add_edge(1 + a + j, t, demand, 0)
    arc_base = len(net.to)
    for i in range(a):
        for j in range(b):
            net.add_edge(1 + i, 1 + a + j, supplies[i], dmat[i][j])
    total = net.solve(s, t, scale)
    flow = [[supplies[i] - net.cap[arc_base + 2 * (i * b + j)] for j in range(b)] for i in range(a)]
    negative = [(sources[i], targets[j]) for i in range(a) for j in range(b) if flow[i][j] < 0]
    if negative:
        raise CurvatureError(f"negative plan mass at {negative[0]}")
    if [sum(row) for row in flow] != supplies:
        raise CurvatureError("row marginals do not match source measure")
    if [sum(col) for col in zip(*flow)] != demands:
        raise CurvatureError("column marginals do not match target measure")
    if sum(f * c for row, costs in zip(flow, dmat) for f, c in zip(row, costs)) != total:
        raise CurvatureError("internal error: plan cost disagrees with flow value")
    return Fraction(total, scale)


def _first_solve(cost):
    """scipy's `linear_sum_assignment` on ``cost``, imported at the first solve.

    Importing `scipy.optimize` takes most of `import arcurv`'s time, and only
    regular-edge transport needs it. The first call rebinds the module's
    `linear_sum_assignment` to scipy's function, so later solves call it
    directly, unless a stand-in has been set there meanwhile.
    """
    global linear_sum_assignment
    from scipy.optimize import linear_sum_assignment as solve

    if linear_sum_assignment is _first_solve:
        linear_sum_assignment = solve
    return solve(cost)


linear_sum_assignment = _first_solve


def _fail(bad: np.ndarray, edges, reason: str) -> None:
    """Raise ``reason`` if ``bad`` (one leading row per problem) has a set entry.

    The first such problem i is named by ``edges[i]``.
    """
    if np.count_nonzero(bad):
        i = int(bad.reshape(len(bad), -1).any(axis=1).argmax())
        raise CurvatureError(f"edge {edges[i]}: {reason}")


def kantorovich_potential(
    dist: np.ndarray, sigma: np.ndarray, edges
) -> tuple[np.ndarray, np.ndarray]:
    """Integer potentials proving each assignment of a batch optimal, and its cost.

    ``dist`` holds one integer distance block per problem, shape (m, 2k, 2k),
    on a zone of k sources followed by k targets; problem i sends its source j
    to its target ``sigma[i, j]``. For every problem at once, column
    potentials v come from Bellman-Ford on the residual graph (arc sigma(j) ->
    l of weight C[j,l] - C[j,sigma(j)]), and u_j = C[j,sigma(j)] - v_sigma(j);
    (u, v) is checked to be dual feasible, and its value, sum u + sum v, is
    the cost of sigma by construction once sigma is a permutation. The
    potential f(z) = min_l (d(z, target_l) - v_l) on each zone is checked
    exactly to be 1-Lipschitz there (McShane extends it to the graph), with
    sum f[sources] - sum f[targets] equal to the cost of sigma; by Kantorovich
    duality no assignment is cheaper. Returns f (m, 2k) and the costs (m,).
    Raises CurvatureError for the first problem i that fails a check, naming
    ``edges[i]``, the edge of problem i.
    """
    m, k = sigma.shape
    cost = dist[:, :k, k:]
    slot, problem = np.arange(k), np.arange(m)[:, None]
    _fail(np.sort(sigma, axis=1) != slot, edges, "assignment is not a permutation")
    matched = cost[problem, slot, sigma]
    c_total = matched.sum(axis=1)
    reduced = cost - matched[:, :, None]
    at_sigma = sigma + k * problem  # flat index of v[i, sigma[i, j]]
    v = np.zeros((m, k), dtype=np.int64)
    for _ in range(k):
        relaxed = (v.take(at_sigma)[:, :, None] + reduced).min(axis=1)
        if not np.count_nonzero(relaxed != v):
            break
        v = relaxed
    u = matched - v.take(at_sigma)
    _fail(u[:, :, None] + v[:, None, :] > cost, edges,
          "assignment is not optimal: dual potentials infeasible")
    f = (dist[:, :, k:] - v[:, None, :]).min(axis=2)
    _fail(np.abs(f[:, :, None] - f[:, None, :]) > dist, edges,
          "Kantorovich potential is not 1-Lipschitz")
    _fail((f[:, :k] - f[:, k:]).sum(axis=1) != c_total, edges,
          "Kantorovich potential value differs from the assignment cost")
    return f, c_total


def certify_assignments(g: Graph, zones: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Certified cheapest bijections for one chunk of equal-size transport problems.

    Row i of ``zones`` (m, 2k) holds problem i's k sources followed by its k
    targets; callers pass one chunk (`graph.EDGE_CHUNK` problems at most),
    which bounds the (m, 2k, 2k) temporaries of the whole-array checks.
    Returns the integer cost of each optimal bijection, as total BFS
    distance, and the plans (m, k): entry (i, j) is the target vertex that
    source j of problem i is sent to. Each zone is read as one distance
    block (`Graph.distances`); a vertex in both halves appears twice,
    which the 1-Lipschitz test allows (its two rows are equal, at distance
    0). `linear_sum_assignment` solves each problem; then, over whole
    arrays, `kantorovich_potential` proves every assignment optimal (it
    refuses any assignment that is not a permutation, so each plan's
    targets are its target set), and each plan's cost is re-summed from
    the distances of its vertex pairs. A failed check raises
    CurvatureError naming ``edges[i]``, the edge of problem i.
    """
    m, k = zones.shape[0], zones.shape[1] // 2
    dist = g.distances(zones[:, :, None], zones[:, None, :])
    _fail(dist < 0, edges, "supports lie in different components")
    cost = dist[:, :k, k:]
    sigma = np.full((m, k), -1, dtype=np.int64)
    for i in range(m):
        solved_rows, solved_cols = linear_sum_assignment(cost[i])
        sigma[i, solved_rows] = solved_cols
    _, c_total = kantorovich_potential(dist, sigma, edges)
    plan_targets = zones[:, k:][np.arange(m)[:, None], sigma]
    _fail(g.distances(zones[:, :k], plan_targets).sum(axis=1) != c_total, edges,
          "internal error: plan cost disagrees with assignment value")
    return c_total, plan_targets


def _difference_costs(g: Graph, edges, closed: bool) -> list[int]:
    """Each edge's certified cost on its difference zone, in edge order.

    Edge (x, y) sends B(x) - B(y) = N_x to B(y) - B(x) = N_y, or, when not
    ``closed``, N(x) - N(y) = N_x + y to N(y) - N(x) = N_y + x, one
    `graph.edge_chunks` chunk at a time. Each chunk makes one
    `certify_assignments` call per nonzero zone size, first seen first; an
    empty zone costs 0 unsolved.
    """
    costs = np.zeros(len(edges), dtype=np.int64)
    for lo, xy, (nx, _, ny) in edge_chunks(g, edges):
        if not closed:
            nx[np.arange(len(xy)), xy[:, 1]] = ny[np.arange(len(xy)), xy[:, 0]] = True
        sizes = nx.sum(axis=1)
        for k in filter(None, dict.fromkeys(sizes.tolist())):
            at = np.flatnonzero(sizes == k)
            zones = np.concatenate([np.nonzero(side[at])[1].reshape(-1, k) for side in (nx, ny)],
                                   axis=1)
            costs[lo + at], _ = certify_assignments(g, zones, [edges[lo + i] for i in at.tolist()])
    return costs.tolist()


def _per_cost(keys, value) -> list[Fraction]:
    """``value(key)`` for each of ``keys`` in order, evaluated once per distinct key."""
    keys = list(keys)
    table = {key: value(key) for key in set(keys)}
    return [table[key] for key in keys]


def _lly_of_cost(d: int, c: int) -> Fraction:
    """kappa_LLY = (d+1)/d * (1 - W) = (d+1-C)/d of an edge whose B difference costs C."""
    return Fraction(d + 1 - c, d)


def _kappa_lly(g: Graph, edges, d: int) -> list[Fraction]:
    """kappa_LLY = (d+1-C)/d (`_lly_of_cost`) of each edge of a d-regular graph.

    C is the edge's certified cost on B(x) - B(y) -> B(y) - B(x). The uniform
    measures on B(x) and B(y) put the same mass 1/(d+1) on every shared
    vertex, so mu - nu, and with it W (Kantorovich-Rubinstein), lives on the
    difference zone. The plan that fixes the shared vertices and follows the
    certified bijection on the rest costs C/(d+1). The potential is checked
    1-Lipschitz on the difference zone only; McShane extends it to the whole
    graph with the same value on mu - nu, so no plan is cheaper and
    W = C/(d+1). The closed form is evaluated once per distinct C.
    """
    return _per_cost(_difference_costs(g, edges, closed=True), lambda c: _lly_of_cost(d, c))


def _regular_kappa_p(g: Graph, edges, p: Fraction) -> list[Fraction]:
    """kappa_p of each edge of a regular graph, from the certified passes p needs.

    By the linearity theorem of Bourne, Cushing, Liu, Muench & Peyerimhoff
    (SIAM J. Discrete Math. 32, 2018), p -> kappa_p is linear on [0, 1/(d+1)]
    and on [1/(d+1), 1], and kappa_1 = 0:

    - p >= 1/(d+1): (1-p) kappa_LLY, from the B pass (`_kappa_lly`) alone;
    - p = 0: kappa_0 = (d-C)/d, from the N pass alone (W = C/d);
    - 0 < p < 1/(d+1): the line from kappa_0 to (d/(d+1)) kappa_LLY, from both.

    Each pass certifies only the difference zone of each edge: d-1-t points
    per side in the B pass, d-t in the N pass for an edge in t triangles.
    The N pass sends N(x) - N(y), which holds y, to N(y) - N(x), which holds
    x; the mass 1/d on each shared neighbour cancels in mu - nu as in the B
    pass, and a potential 1-Lipschitz on the zone extends by McShane. An
    empty B difference (an edge of K_n) costs 0 without a solve; the N
    difference is never empty. The closed form p needs is evaluated once
    per distinct integer pair (B cost, N cost), with 0 for a pass p does
    not run.
    """
    if not edges:
        return []
    d = g.regular_degree()
    knee = Fraction(1, d + 1)
    unrun = [0] * len(edges)
    b_costs = _difference_costs(g, edges, closed=True) if p > 0 else unrun
    n_costs = _difference_costs(g, edges, closed=False) if p < knee else unrun

    def kappa_p(costs: tuple[int, int]) -> Fraction:
        b_cost, n_cost = costs
        if p >= knee:
            return (1 - p) * _lly_of_cost(d, b_cost)
        kappa_0 = Fraction(d - n_cost, d)
        if p == 0:
            return kappa_0
        return kappa_0 + ((1 - knee) * _lly_of_cost(d, b_cost) - kappa_0) * p / knee

    return _per_cost(zip(b_costs, n_costs), kappa_p)


def ollivier_kappa_p(g: Graph, x: int, y: int, p: Fraction) -> Fraction:
    """p-idleness Ollivier curvature: 1 - W(mu_x^p, mu_y^p) / d(x, y).

    A regular edge goes through `_regular_kappa_p`, anything else through the min-cost flow.
    """
    dxy = int(g.distances(y, x))  # refuses y before x, the order lly_curvature checks
    if dxy == 0:
        raise CurvatureError("curvature requires distinct vertices")
    if dxy < 0:
        raise CurvatureError("vertices lie in different components")
    p = _idleness(p)
    if g.regular_degree() is None or dxy != 1:
        return 1 - wasserstein(g, mu_p(g, x, p), mu_p(g, y, p)) / dxy
    return _regular_kappa_p(g, [(x, y)], p)[0]


def kappa_p_all_edges(g: Graph, p: Fraction) -> list[tuple[int, int, Fraction]]:
    """``ollivier_kappa_p`` of every edge, in sorted edge order.

    A regular graph takes `_regular_kappa_p` over all its edges at once, an
    irregular one the min-cost flow edge by edge.
    """
    p = _idleness(p)
    edges = g.edges()
    if g.regular_degree() is None:
        return [(u, v, ollivier_kappa_p(g, u, v, p)) for u, v in edges]
    return [(u, v, k) for (u, v), k in zip(edges, _regular_kappa_p(g, edges, p))]


def lly_curvature(g: Graph, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature of a regular edge, (d+1)/d * (1 - W) at idleness 1/(d+1).

    W is the certified value of the B(x) - B(y) -> B(y) - B(x) assignment:
    an exact primal plan plus an integer 1-Lipschitz potential of equal value.
    The arguments are checked on every call; then a value certified before on
    this graph, for (x, y) or (y, x) (W is symmetric), is read back without a
    solve. Only a value whose certificate passed is kept.
    """
    g.check_vertex(y)  # y, then x, as ollivier_kappa_p's g.distances(y, x) checks
    g.check_vertex(x)
    d = g.regular_degree()
    if d is None:
        raise CurvatureError("operation requires a regular graph")
    if not g.is_edge(x, y):
        raise CurvatureError(f"({x}, {y}) is not an edge")
    key = (x, y) if x < y else (y, x)
    kappa = g._lly_cache.get(key)
    if kappa is None:
        kappa = g._lly_cache[key] = _kappa_lly(g, [(x, y)], d)[0]
    return kappa


@dataclass(frozen=True)
class CurvatureTable:
    """Per-edge curvature in sorted edge order, with min and max."""

    rows: tuple[tuple[int, int, Fraction], ...]
    kappa_min: Fraction
    kappa_max: Fraction


def curvature_all_edges(g: Graph) -> CurvatureTable:
    """Lin-Lu-Yau curvature of every edge of a connected regular graph.

    The edges the graph has not kept yet are certified in one `_kappa_lly`
    batch, one `certify_assignments` call per zone size of each chunk, and
    kept only once the whole batch has passed; the table then reads each
    edge through `lly_curvature`.
    """
    if not g.is_connected():
        raise CurvatureError("curvature_all_edges requires a connected graph")
    d = g.regular_degree()
    if d is None:
        raise CurvatureError("curvature_all_edges requires a regular graph")
    edges = g.edges()
    if not edges:
        raise CurvatureError("graph has no edges")
    missing = [e for e in edges if e not in g._lly_cache]
    g._lly_cache.update(zip(missing, _kappa_lly(g, missing, d)))
    kappas = [lly_curvature(g, u, v) for u, v in edges]
    rows = tuple((u, v, k) for (u, v), k in zip(edges, kappas))
    return CurvatureTable(rows=rows, kappa_min=min(kappas), kappa_max=max(kappas))
