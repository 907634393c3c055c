"""Independent output oracles for the benchmark's ops.

Nothing here calls arcurv. Distances come from this module's own BFS, exact
transport values from `scipy.optimize.linear_sum_assignment` over replicated
atoms, and spectra from closed forms. Each ``check_*`` function returns None
when an op's output is correct and a one-line reason when it is not.
"""

from __future__ import annotations

import json
from collections import deque
from fractions import Fraction
from math import lcm

import numpy as np
from scipy.optimize import linear_sum_assignment

SIGMA_TOL = 1e-9
WITNESS_COUNTS = (
    "edges_checked", "regular_pass", "class_count_pass", "bijection_pass",
    "chain_bound_pass", "pi0_bound_pass", "lower_bound_pass",
)


def adjacency(n: int, edges) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return [sorted(a) for a in adj]


def all_distances(adj: list[list[int]]) -> np.ndarray:
    n = len(adj)
    dist = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        row = dist[s]
        row[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if row[w] < 0:
                    row[w] = row[u] + 1
                    queue.append(w)
    return dist


def amply_params(adj: list[list[int]]):
    """(n, d, alpha, beta) of a connected amply regular graph, else None.

    beta is None when no pair lies at distance 2.
    """
    n = len(adj)
    if n == 0 or len({len(a) for a in adj}) != 1:
        return None
    dist = all_distances(adj)
    if (dist < 0).any():
        return None
    sets = [set(a) for a in adj]
    alphas: set[int] = set()
    betas: set[int] = set()
    for u in range(n):
        for v in range(u + 1, n):
            if dist[u, v] == 1:
                alphas.add(len(sets[u] & sets[v]))
            elif dist[u, v] == 2:
                betas.add(len(sets[u] & sets[v]))
    if len(alphas) > 1 or len(betas) > 1:
        return None
    alpha = alphas.pop() if alphas else 0
    beta = betas.pop() if betas else None
    return (n, len(adj[0]), alpha, beta)


def _atoms(adj, x: int, p: Fraction, scale: int) -> list[int]:
    d = len(adj[x])
    share = (1 - p) / d
    return [x] * int(p * scale) + [w for w in adj[x] for _ in range(int(share * scale))]


def kappa_p(adj, dist: np.ndarray, x: int, y: int, p: Fraction) -> Fraction:
    """Exact idleness-p curvature of edge xy, 1 - W(mu_x^p, mu_y^p).

    Both measures are scaled to integer supplies and each unit becomes an
    atom; the transport polytope has an integral optimal vertex, so the
    minimum-cost bijection between atoms is the scaled Wasserstein value.
    """
    d = len(adj[x])
    scale = lcm(p.denominator, ((1 - p) / d).denominator)
    src = _atoms(adj, x, p, scale)
    dst = _atoms(adj, y, p, scale)
    cost = dist[np.ix_(src, dst)]
    rows, cols = linear_sum_assignment(cost)
    return 1 - Fraction(int(cost[rows, cols].sum()), scale)


def lly_kappa(adj, dist, x: int, y: int) -> Fraction:
    """Lin-Lu-Yau curvature (d+1)/d * kappa_{1/(d+1)} of a regular edge."""
    d = len(adj[x])
    return Fraction(d + 1, d) * kappa_p(adj, dist, x, y, Fraction(1, d + 1))


def srg_sigma2(k: int, lam: int, mu: int) -> float:
    """Second-largest adjacency eigenvalue of a strongly regular graph."""
    return ((lam - mu) + ((lam - mu) ** 2 + 4 * (k - mu)) ** 0.5) / 2


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _kappa_rows(rows) -> dict[tuple[int, int], Fraction]:
    return {_edge_key(r["u"], r["v"]): Fraction(r["kappa"]) for r in rows}


def check_verify(stdout: str, rc, exp: dict):
    """Check a ``--format json verify`` report against its expected facts.

    ``exp`` holds params, kappa (edge -> Fraction), sigma2, diameter and the
    booleans witness and dense saying which certificates must be present.
    """
    if rc != 0:
        return f"exit code {rc}, expected 0"
    data = json.loads(stdout)
    p = data["params"]
    got = (p["n"], p["d"], p["alpha"], p["beta"])
    if got != exp["params"]:
        return f"params {got} != {exp['params']}"
    if _kappa_rows(data["edges"]) != exp["kappa"]:
        return "edge curvature differs from the transport oracle"
    if data["diameter"]["value"] != exp["diameter"]:
        return f"diameter {data['diameter']['value']} != {exp['diameter']}"
    sigma = data["spectral"]["sigma_second"]
    if abs(sigma - exp["sigma2"]) > SIGMA_TOL:
        return f"sigma_2 {sigma!r} not within {SIGMA_TOL} of {exp['sigma2']!r}"
    m = len(exp["kappa"])
    w = data["witness"]
    if exp["witness"]:
        if not w or any(w[k] != m for k in WITNESS_COUNTS):
            return f"witness pass counts {w} do not all equal |E| = {m}"
    elif w is not None:
        return "witness summary present outside beta > alpha >= 1"
    dm = data["dense_match"]
    if exp["dense"]:
        if not dm or dm["edges_certified"] != m or not dm["passed"]:
            return f"dense certificate {dm} does not cover |E| = {m}"
    elif dm is not None:
        return "dense certificate present outside 2 beta - alpha >= d + 1"
    if data["overall_pass"] is not True:
        return "verdict is not PASS"
    return None


def check_curvature(stdout: str, rc, exp: dict):
    """Check ``--format json curvature --all --p P`` against exact kappa_p.

    At p = 1/2 also checks kappa_{1/2} = kappa_LLY / 2, which holds on
    d-regular graphs because p -> kappa_p is linear on [1/(d+1), 1] with
    kappa_1 = 0.
    """
    if rc != 0:
        return f"exit code {rc}, expected 0"
    got = _kappa_rows(json.loads(stdout))
    if got != exp["kappa"]:
        return f"kappa_{exp['p']} differs from the assignment oracle"
    if exp["p"] == Fraction(1, 2) and any(got[e] != exp["lly"][e] / 2 for e in got):
        return "kappa_1/2 != kappa_LLY / 2"
    return None


def parse_edge_list(text: str):
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    n, m = map(int, lines[0])
    edges = [tuple(map(int, ln)) for ln in lines[1:]]
    if len(edges) != m:
        raise ValueError(f"header declares {m} edges, found {len(edges)}")
    return n, edges


def check_search(stdout: str, rc, exp: dict):
    """Check a ``search`` answer: ``none``, or a graph with the asked parameters."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    text = stdout.strip()
    if exp["params"] is None:
        return None if text == "none" else "expected none, got a graph"
    if text == "none":
        return f"expected a graph with {exp['params']}, got none"
    try:
        n, edges = parse_edge_list(text)
    except ValueError as exc:
        return f"unparsable edge list: {exc}"
    got = amply_params(adjacency(n, edges))
    if got != exp["params"]:
        return f"returned graph has params {got}, expected {exp['params']}"
    return None
