"""Exact measures, Wasserstein distance, and edge curvature of regular graphs.

All masses, costs, and curvature values are `fractions.Fraction` or integers;
nothing in this module touches floating point. The regular-edge Wasserstein
value behind Lin-Lu-Yau curvature comes from one integer assignment solve over
the closed neighborhoods, proven optimal by an integer 1-Lipschitz Kantorovich
potential of equal value. Idleness-p curvature of a regular edge rests on that
assignment for p >= 1/(d+1) and on the same certified assignment over the open
neighborhoods for p = 0; in between, the linearity theorem of Bourne et al.
(SIAM J. Discrete Math. 32, 2018) interpolates. The min-cost-flow
transportation solve serves only irregular graphs and non-adjacent pairs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linear_sum_assignment

from .graph import Graph

Rational = Fraction


class CurvatureError(ValueError):
    """Unmet curvature precondition or internal exactness failure."""


@dataclass(frozen=True)
class ProbMeasure:
    """Sparse probability measure on vertices; support holds only positive masses."""

    masses: tuple[tuple[int, Fraction], ...]

    def __post_init__(self):
        total = Fraction(0)
        for v, m in self.masses:
            if m <= 0:
                raise CurvatureError(f"nonpositive mass {m} at vertex {v}")
            total += m
        if total != 1:
            raise CurvatureError(f"total mass {total} != 1")

    @staticmethod
    def from_dict(masses: dict[int, Fraction]) -> "ProbMeasure":
        return ProbMeasure(tuple(sorted((v, Fraction(m)) for v, m in masses.items() if m != 0)))

    def as_dict(self) -> dict[int, Fraction]:
        return dict(self.masses)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(v for v, _ in self.masses)


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling; entries map (source, target) to positive mass."""

    entries: tuple[tuple[tuple[int, int], Fraction], ...]

    @staticmethod
    def from_dict(entries: dict[tuple[int, int], Fraction]) -> "TransportPlan":
        return TransportPlan(
            tuple(sorted((k, Fraction(m)) for k, m in entries.items() if m != 0))
        )

    def as_dict(self) -> dict[tuple[int, int], Fraction]:
        return dict(self.entries)

    def validate_marginals(self, mu1: ProbMeasure, mu2: ProbMeasure) -> None:
        rows: dict[int, Fraction] = {}
        cols: dict[int, Fraction] = {}
        for (v, w), m in self.entries:
            if m < 0:
                raise CurvatureError(f"negative plan mass at ({v}, {w})")
            rows[v] = rows.get(v, Fraction(0)) + m
            cols[w] = cols.get(w, Fraction(0)) + m
        if rows != mu1.as_dict():
            raise CurvatureError("row marginals do not match source measure")
        if cols != mu2.as_dict():
            raise CurvatureError("column marginals do not match target measure")


def mu_p(g: Graph, x: int, p: Fraction) -> ProbMeasure:
    """Idleness-p measure: mass p at x, (1-p)/deg(x) at each neighbor."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise CurvatureError(f"idleness {p} outside [0, 1]")
    deg = g.degree(x)
    if deg == 0 and p != 1:
        raise CurvatureError(f"isolated vertex {x} requires p = 1")
    masses: dict[int, Fraction] = {x: p}
    share = (1 - p) / deg if deg else Fraction(0)
    for w in g.neighbors(x):
        masses[w] = masses.get(w, Fraction(0)) + share
    return ProbMeasure.from_dict(masses)


def plan_cost(g: Graph, plan: TransportPlan) -> Fraction:
    """Exact transport cost: sum of d(v, w) * mass over plan entries."""
    total = Fraction(0)
    for (v, w), m in plan.entries:
        if m < 0:
            raise CurvatureError(f"negative plan mass at ({v}, {w})")
        d = g.distance(v, w)
        if d is None:
            raise CurvatureError(f"plan moves mass between components: ({v}, {w})")
        total += d * m
    return total


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


def wasserstein(
    g: Graph, mu1: ProbMeasure, mu2: ProbMeasure
) -> tuple[Fraction, TransportPlan]:
    """Exact Wasserstein distance and an optimal plan.

    Both measures are scaled by the least common denominator to integer
    supplies/demands and the transportation problem is solved by min-cost
    flow over BFS distances; the result is unscaled back to a Fraction.
    """
    sup1 = list(mu1.masses)
    sup2 = list(mu2.masses)
    scale = lcm(*[m.denominator for _, m in sup1 + sup2])
    supplies = [int(m * scale) for _, m in sup1]
    demands = [int(m * scale) for _, m in sup2]
    a, b = len(sup1), len(sup2)
    dmat: list[list[int]] = []
    for v, _ in sup1:
        row = []
        for w, _ in sup2:
            d = g.distance(v, w)
            if d is None:
                raise CurvatureError("measure supports lie in different components")
            row.append(d)
        dmat.append(row)
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
    entries: dict[tuple[int, int], Fraction] = {}
    for i in range(a):
        for j in range(b):
            eid = arc_base + 2 * (i * b + j)
            flow = supplies[i] - net.cap[eid]
            if flow > 0:
                key = (sup1[i][0], sup2[j][0])
                entries[key] = entries.get(key, Fraction(0)) + Fraction(flow, scale)
    value = Fraction(total, scale)
    plan = TransportPlan.from_dict(entries)
    plan.validate_marginals(mu1, mu2)
    if plan_cost(g, plan) != value:
        raise CurvatureError("internal error: plan cost disagrees with flow value")
    return value, plan


def _regular_edge_degree(g: Graph, x: int, y: int) -> int:
    d = g.regular_degree()
    if d is None:
        raise CurvatureError("operation requires a regular graph")
    if not g.is_edge(x, y):
        raise CurvatureError(f"({x}, {y}) is not an edge")
    return d


def kantorovich_potential(
    dist: np.ndarray, src: np.ndarray, dst: np.ndarray, sigma: np.ndarray
) -> np.ndarray:
    """Integer potential proving that the assignment ``sigma`` is optimal.

    ``dist`` is the integer distance matrix on a vertex set Z, ``src`` and
    ``dst`` (index arrays or slices) pick two equal-size supports in Z, and
    ``sigma`` sends ``src[i]`` to ``dst[sigma[i]]``. Column potentials v come
    from Bellman-Ford on the residual graph (arc sigma(i) -> j of weight
    C[i,j] - C[i,sigma(i)]), and u_i = C[i,sigma(i)] - v_sigma(i). The returned f(z) = min_j (d(z, dst_j) - v_j)
    on Z is checked exactly to be 1-Lipschitz on Z (McShane extends it to the
    graph) with sum f[src] - sum f[dst] equal to the cost of ``sigma``; by
    Kantorovich duality no assignment is cheaper. Raises CurvatureError if any
    check fails.
    """
    cost = dist[src][:, dst]
    k = len(cost)
    if sorted(sigma.tolist()) != list(range(k)):
        raise CurvatureError("assignment is not a permutation")
    matched = cost[np.arange(k), sigma]
    c_total = int(matched.sum())
    reduced = cost - matched[:, None]
    v = np.zeros(k, dtype=np.int64)
    for _ in range(k):
        relaxed = (v[sigma][:, None] + reduced).min(axis=0)
        if np.array_equal(relaxed, v):
            break
        v = relaxed
    u = matched - v[sigma]
    if (u[:, None] + v[None, :] > cost).any():
        raise CurvatureError("assignment is not optimal: dual potentials infeasible")
    if int(u.sum()) + int(v.sum()) != c_total:
        raise CurvatureError("dual value differs from the assignment cost")
    f = (dist[:, dst] - v[None, :]).min(axis=1)
    if (np.abs(f[:, None] - f[None, :]) > dist).any():
        raise CurvatureError("Kantorovich potential is not 1-Lipschitz")
    if int(f[src].sum()) - int(f[dst].sum()) != c_total:
        raise CurvatureError("Kantorovich potential value differs from the assignment cost")
    return f


def check_uniform_plan(plan: TransportPlan, sources, targets) -> None:
    """Check in integers that ``plan`` is a bijection ``sources`` -> ``targets``.

    The plan must have one entry per source, each of mass 1/k for k sources
    (numerator 1 and denominator k, as a `Fraction` is kept in lowest terms),
    with its sorted sources equal to ``sources`` and its sorted targets equal
    to ``targets``: exactly the marginals of the two uniform measures.
    """
    k = len(sources)
    if (
        len(plan.entries) != k
        or any(m.numerator != 1 or m.denominator != k for _, m in plan.entries)
        or sorted(v for (v, _), _ in plan.entries) != sorted(sources)
        or sorted(w for (_, w), _ in plan.entries) != sorted(targets)
    ):
        raise CurvatureError("plan marginals are not uniform on the two supports")


def assignment_wasserstein(
    g: Graph, sources, targets
) -> tuple[Fraction, TransportPlan]:
    """Exact W between uniform measures on two equal-size vertex sets.

    Serves a regular edge xy twice: the closed neighborhoods B(x), B(y) carry
    the idleness-1/(d+1) measures, the open neighborhoods N(x), N(y) the
    idleness-0 ones. With k vertices on each side an optimal plan is a
    bijection (Birkhoff), so W = C/k where C is the minimum total distance
    over bijections, found by one integer assignment solve. The value is
    certified: the plan's marginals (one unit out of each source, one into
    each target) and its total BFS distance are checked in integers, and
    `kantorovich_potential` proves it optimal.

    The zone is ``sources`` followed by ``targets``, read as one block from
    the graph's cached BFS rows; a vertex in both lists appears twice, which
    the 1-Lipschitz test allows (its two rows are equal, at distance 0).
    """
    k = len(sources)
    if k == 0 or k != len(targets):
        raise CurvatureError("assignment needs two vertex sets of equal positive size")
    dist = g.distance_block([*sources, *targets])
    if (dist < 0).any():
        raise CurvatureError("supports lie in different components")
    src, dst = slice(0, k), slice(k, 2 * k)
    cost = dist[src, dst]
    rows, cols = linear_sum_assignment(cost)
    sigma = np.full(k, -1, dtype=np.int64)
    sigma[rows] = cols
    kantorovich_potential(dist, src, dst, sigma)
    c_total = int(cost[np.arange(k), sigma].sum())
    unit = Fraction(1, k)
    pairs = sorted(zip(sources, [targets[j] for j in sigma.tolist()]))
    plan = TransportPlan(tuple((pair, unit) for pair in pairs))
    check_uniform_plan(plan, sources, targets)
    if sum(g.distance(v, w) for (v, w), _ in plan.entries) != c_total:
        raise CurvatureError("internal error: plan cost disagrees with assignment value")
    return Fraction(c_total, k), plan


def ollivier_kappa_p(g: Graph, x: int, y: int, p: Fraction) -> Fraction:
    """p-idleness Ollivier curvature: 1 - W(mu_x^p, mu_y^p) / d(x, y).

    On an edge of a d-regular graph, p -> kappa_p is linear on [0, 1/(d+1)]
    and on [1/(d+1), 1] (Bourne, Cushing, Liu, Muench & Peyerimhoff, SIAM J.
    Discrete Math. 32, 2018), and kappa_1 = 0. So kappa_p rests on two
    certified assignments of `assignment_wasserstein`, solving only those p
    needs:

    - p >= 1/(d+1): (1-p) kappa_LLY, from the B(x) -> B(y) assignment;
    - p = 0: 1 - W(unif N(x), unif N(y)), from the N(x) -> N(y) assignment;
    - 0 < p < 1/(d+1): the line from kappa_0 to (d/(d+1)) kappa_LLY.

    Irregular graphs and non-adjacent pairs go through the min-cost flow.
    """
    if x == y:
        raise CurvatureError("curvature requires distinct vertices")
    dxy = g.distance(x, y)
    if dxy is None:
        raise CurvatureError("vertices lie in different components")
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise CurvatureError(f"idleness {p} outside [0, 1]")
    d = g.regular_degree()
    if d is None or dxy != 1:
        w, _ = wasserstein(g, mu_p(g, x, p), mu_p(g, y, p))
        return 1 - w / dxy
    knee = Fraction(1, d + 1)
    if p >= knee:
        return (1 - p) * lly_curvature(g, x, y)
    kappa_0 = 1 - assignment_wasserstein(g, g.neighbors(x), g.neighbors(y))[0]
    if p == 0:
        return kappa_0
    kappa_knee = (1 - knee) * lly_curvature(g, x, y)
    return kappa_0 + (kappa_knee - kappa_0) * p / knee


def lly_curvature(g: Graph, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature of a regular edge, (d+1)/d * (1 - W) at idleness 1/(d+1).

    W is the certified assignment value of `assignment_wasserstein`: an exact
    primal plan plus an integer 1-Lipschitz potential of equal value.
    """
    d = _regular_edge_degree(g, x, y)
    bx = sorted((x,) + g.neighbors(x))
    by = sorted((y,) + g.neighbors(y))
    return Fraction(d + 1, d) * (1 - assignment_wasserstein(g, bx, by)[0])


@dataclass(frozen=True)
class CurvatureTable:
    """Per-edge curvature in sorted edge order, with min and max."""

    rows: tuple[tuple[int, int, Fraction], ...]
    kappa_min: Fraction
    kappa_max: Fraction


def curvature_all_edges(g: Graph) -> CurvatureTable:
    """Lin-Lu-Yau curvature of every edge of a connected regular graph."""
    if not g.is_connected():
        raise CurvatureError("curvature_all_edges requires a connected graph")
    if g.regular_degree() is None:
        raise CurvatureError("curvature_all_edges requires a regular graph")
    edges = g.edges()
    if not edges:
        raise CurvatureError("graph has no edges")
    kappas = [lly_curvature(g, u, v) for u, v in edges]
    rows = tuple((u, v, k) for (u, v), k in zip(edges, kappas))
    return CurvatureTable(rows=rows, kappa_min=min(kappas), kappa_max=max(kappas))
