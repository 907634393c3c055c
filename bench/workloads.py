"""The benchmark's four workloads: op lists, seeded inputs and expected outputs.

Graphs come from arcurv's in-repo generators. The workload seed relabels
each graph's vertices with a seeded permutation and fixes the op order; every
verdict and curvature value is invariant under relabelling. Expected outputs
come from closed forms or from ``oracles``, never from arcurv's solvers.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles


@dataclass(frozen=True)
class GraphSpec:
    """A generator call plus the closed-form facts the oracle relies on.

    ``lly`` is the closed-form Lin-Lu-Yau curvature of every edge, or None
    when the oracle computes it by exact transport (the Paley graphs).
    """

    build: Callable  # generators module -> Graph
    params: tuple[int, int, int, int]
    lly: Optional[Fraction]
    sigma2: float
    diameter: int


def _hamming_sigma2(p: int, q: int) -> float:
    return float(p * (q - 1) - q)


GRAPHS = {
    "H(3,3)": GraphSpec(lambda g: g.gen_hamming(3, 3), (27, 6, 1, 2), Fraction(1, 2), _hamming_sigma2(3, 3), 3),
    "H(4,3)": GraphSpec(lambda g: g.gen_hamming(4, 3), (81, 8, 1, 2), Fraction(3, 8), _hamming_sigma2(4, 3), 4),
    "Q6": GraphSpec(lambda g: g.gen_hypercube(6), (64, 6, 0, 2), Fraction(1, 3), _hamming_sigma2(6, 2), 6),
    "Q7": GraphSpec(lambda g: g.gen_hypercube(7), (128, 7, 0, 2), Fraction(2, 7), _hamming_sigma2(7, 2), 7),
    "cocktail(8)": GraphSpec(lambda g: g.gen_cocktail(8), (16, 14, 12, 14), Fraction(1), oracles.srg_sigma2(14, 12, 14), 2),
    "paley29": GraphSpec(lambda g: g.gen_paley(29), (29, 14, 6, 7), None, oracles.srg_sigma2(14, 6, 7), 2),
    "paley37": GraphSpec(lambda g: g.gen_paley(37), (37, 18, 8, 9), None, oracles.srg_sigma2(18, 8, 9), 2),
}

# (n, d, alpha, beta) -> parameters of the first graph found, or None when
# the exhaustive search must report none.
SEARCHES = {
    (10, 3, 0, 1): (10, 3, 0, 1),
    (10, 3, 0, 2): None,
    (9, 4, 2, 2): None,
    (10, 6, 3, 3): None,
}

WORKLOADS = {
    "verify-witness": ("verify", ("H(3,3)", "cocktail(8)", "paley29", "paley37")),
    "verify-large-n": ("verify", ("Q7", "H(4,3)")),
    "curvature-idleness": ("curvature", ("H(3,3)", "Q6", "cocktail(8)", "paley29", "paley37")),
    "search-exhaustive": ("search", tuple(SEARCHES)),
}


@dataclass(frozen=True)
class Op:
    """One CLI call: its argv, the oracle that checks it, and its input size."""

    label: str
    argv: tuple[str, ...]
    check: Callable  # (stdout, exit code, expected) -> None or a reason
    expected: dict
    edges: int = 0  # |E| of the input graph
    witness_edges: int = 0  # edges on which the witness pipeline must run


@dataclass(frozen=True)
class _Input:
    path: str
    adj: list
    dist: object
    edges: list
    lly: dict


def _write_input(name: str, spec: GraphSpec, generators, rng: random.Random, workdir: Path) -> _Input:
    g = spec.build(generators)
    perm = list(range(g.n))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g.edges())
    path = workdir / (re.sub(r"\W+", "", name) + ".txt")
    path.write_text(f"{g.n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges))
    adj = oracles.adjacency(g.n, edges)
    dist = oracles.all_distances(adj)
    if spec.lly is None:
        lly = {e: oracles.lly_kappa(adj, dist, *e) for e in edges}
    else:
        lly = dict.fromkeys(edges, spec.lly)
    return _Input(str(path), adj, dist, edges, lly)


def _verify_op(name: str, spec: GraphSpec, inp: _Input) -> Op:
    n, d, alpha, beta = spec.params
    witness = beta > alpha >= 1
    expected = {
        "params": spec.params,
        "kappa": inp.lly,
        "sigma2": spec.sigma2,
        "diameter": spec.diameter,
        "witness": witness,
        "dense": 2 * beta - alpha >= d + 1,
    }
    m = len(inp.edges)
    return Op(f"verify {name}", ("--format", "json", "verify", inp.path),
              oracles.check_verify, expected, m, m if witness else 0)


def _curvature_ops(name: str, spec: GraphSpec, inp: _Input) -> list[Op]:
    d = spec.params[1]
    ops = []
    for p in (Fraction(0), Fraction(1, d + 1), Fraction(1, 2)):
        kappa = {e: oracles.kappa_p(inp.adj, inp.dist, *e, p) for e in inp.edges}
        expected = {"p": p, "kappa": kappa, "lly": inp.lly}
        ops.append(Op(f"curvature {name} p={p}",
                      ("--format", "json", "curvature", inp.path, "--all", "--p", str(p)),
                      oracles.check_curvature, expected, len(inp.edges)))
    return ops


def build_ops(workload: str, seed: int, generators, workdir: Path) -> list[Op]:
    """The workload's op list for ``seed``, with input files written to ``workdir``."""
    kind, items = WORKLOADS[workload]
    rng = random.Random(seed)
    ops: list[Op] = []
    for item in items:
        if kind == "search":
            ops.append(Op(f"search {item}", ("--format", "json", "search", *map(str, item)),
                          oracles.check_search, {"params": SEARCHES[item]}))
            continue
        spec = GRAPHS[item]
        inp = _write_input(item, spec, generators, rng, workdir)
        if kind == "verify":
            ops.append(_verify_op(item, spec, inp))
        else:
            ops.extend(_curvature_ops(item, spec, inp))
    rng.shuffle(ops)
    return ops
