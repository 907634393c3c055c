"""Bipartite matching: one batched Hopcroft-Karp call, Konig decomposition, dense perfect matchings.

Every matching comes from `perfect_matchings`, which matches a whole stack of
biadjacencies in one Hopcroft-Karp call (Hopcroft & Karp, SIAM J. Comput. 2,
1973) on their block-diagonal graph, and checks each graph's result on its own.
A `Bipartite` is one graph's boolean biadjacency and the Konig classes that
`konig_stack`, the decomposition of a whole stack, made for it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np


class MatchingError(ValueError):
    """Unmet matching precondition or an internal consistency failure."""


@dataclass(frozen=True, eq=False)
class Bipartite:
    """Bipartite graph as its (left_n, right_n) boolean biadjacency, with its Konig classes.

    ``konig`` holds the graph's Konig classes, each a tuple of right partners
    indexed by left vertex, or the message of the decomposition's failure, or
    None for a graph not yet decomposed. `witness_batches` fills it from one
    `konig_stack` call per chunk of H's.
    """

    biadjacency: np.ndarray
    konig: Union[tuple[tuple[int, ...], ...], str, None] = None

    def __post_init__(self):
        if not (isinstance(h := self.biadjacency, np.ndarray) and h.dtype == bool and h.ndim == 2):
            raise MatchingError("biadjacency must be a 2-D boolean ndarray")


def _hopcroft_karp(h: np.ndarray) -> np.ndarray:
    """scipy's Hopcroft-Karp maximum matching on the block-diagonal graph of the stack ``h``.

    Graph i of the (m, s, t) stack has its left vertex u at row i*s + u and
    its right vertex w at column i*t + w. Returns the column matched to each
    row, -1 where unmatched. scipy is imported at the first call, so that
    importing arcurv does not import `scipy.sparse`.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import maximum_bipartite_matching

    m, s, t = h.shape
    flat = np.flatnonzero(h).astype(np.int32)  # (i*s + u)*t + w, in row order
    indptr = np.concatenate([[0], np.cumsum(h.sum(axis=2, dtype=np.int32))], dtype=np.int32)
    graph = csr_array((np.ones(len(flat), dtype=np.int8), flat // (s * t) * t + flat % t, indptr),
                      shape=(m * s, m * t))
    return maximum_bipartite_matching(graph, perm_type="column")


def perfect_matchings(h: np.ndarray) -> tuple[np.ndarray, list[Optional[str]]]:
    """A perfect matching of every (s, s) biadjacency of the stack ``h``, from one call.

    `_hopcroft_karp` matches the stack's block-diagonal graph. The blocks
    share no vertex, so each graph's matching is the one it would get alone.
    Each graph's result is then checked on its own: every left vertex is
    matched, its partner lies in its own block, the partners are a
    permutation of the right side, and every pair is an edge of ``h``.
    Returns the right partners (m, s), by left vertex, and for each
    graph None or the "internal error" message of its first failed check;
    the row of a graph with a message means nothing.
    """
    m, s, t = h.shape
    if s != t:
        raise MatchingError("perfect matchings require equal side sizes")
    found = np.asarray(_hopcroft_karp(h)) if m * s else np.zeros(0, dtype=np.int64)
    if found.shape != (m * s,):
        message = f"Hopcroft-Karp returned {found.size} partners for {m * s} left vertices"
        return np.zeros((m, s), dtype=np.int64), [f"internal error: {message}"] * m
    found, rows = found.reshape(m, s), np.arange(m)[:, None]
    own = (found >= rows * t) & (found < rows * t + t)
    partners = np.where(own, found - rows * t, 0)
    errors: list[Optional[str]] = [None] * m
    for bad, message in reversed((  # the first failed check is written last
        (found < 0, "left vertex {u} has no partner"),
        (~own, "left vertex {u} is matched outside its own graph"),
        (np.sort(partners, axis=1) != np.arange(s), "the partners are not a permutation"),
        (~h[rows, np.arange(s), partners], "matched pair ({u}, {w}) is not an edge"),
    )):
        for i in np.flatnonzero(bad.any(axis=1)).tolist():
            u = int(bad[i].argmax())
            errors[i] = "internal error: " + message.format(u=u, w=int(partners[i, u]))
    return partners, errors


def konig_stack(h: np.ndarray) -> list[Union[tuple[tuple[int, ...], ...], str]]:
    """Konig classes of every biadjacency of the stack ``h``, or the message of its failure.

    Graph i must be k_i-regular, k_i >= 1, with equal sides. Round r matches
    every graph with more than r classes that has not failed, in one
    `perfect_matchings` call, and removes each graph's matched edges from
    what remains of it, so that an edge of an earlier class is no edge. A
    graph whose round fails keeps that round's message and drops out; the
    others go on. After a graph's last round no edge of it may be left over.
    With every round checked, each graph's classes are perfect, pairwise
    edge-disjoint, and their union is exactly its edge set.
    """
    m, s, _ = h.shape
    sums = np.concatenate([h.sum(axis=2), h.sum(axis=1)], axis=1)
    degree = sums.max(axis=1, initial=0)
    live = (degree >= 1) & (sums == degree[:, None]).all(axis=1)
    results = {i: None if ok else "konig_decomposition requires a k-regular bipartite graph, k >= 1"
               for i, ok in enumerate(live.tolist())}
    remaining, found = h.copy(), np.zeros((m, int(degree.max(initial=0)), s), dtype=np.int64)
    for r in range(found.shape[1]):
        run = np.flatnonzero(live & (degree > r))
        if not len(run):
            break
        partners, errors = perfect_matchings(remaining[run])
        results.update(zip(run.tolist(), errors))
        live[run] = matched = np.array([e is None for e in errors], dtype=bool)
        run, partners = run[matched], partners[matched]
        remaining[run[:, None], np.arange(s), partners] = False
        found[run, r] = partners
    return [e or ("internal error: leftover edges after decomposition" if remaining[i].any()
                  else tuple(map(tuple, found[i, :degree[i]].tolist()))) for i, e in results.items()]


def konig_decomposition(b: Bipartite) -> tuple[tuple[int, ...], ...]:
    """Partition a k-regular bipartite graph's edges into k perfect matchings.

    Returns ``b.konig``, the classes `witness_batches` made for ``b`` with
    every round checked, and raises its message if that run failed; a run's
    failure is kept and raised again, for the graphs of a stack share no
    vertex and a run alone would fail the same way. A standalone ``b``
    (``konig`` None) is decomposed as a stack of one, at every call. The
    classes are immutable.
    """
    result = konig_stack(b.biadjacency[None])[0] if b.konig is None else b.konig
    if isinstance(result, str):
        raise MatchingError(result)
    return result


def dense_perfect_matchings(h: np.ndarray) -> list[Union[tuple[int, ...], str]]:
    """A perfect matching of each (p, p) biadjacency of the stack ``h`` with min degree >= p/2.

    The min degree of each graph, over both sides, is checked first; the
    graphs that meet it are matched by one `perfect_matchings` call, whose
    checks stand. Returns each graph's matching, right partners by left
    vertex, or the message of the check it fails.
    """
    s = h.shape[1]
    min_degree = np.minimum(h.sum(axis=2).min(axis=1, initial=s), h.sum(axis=1).min(axis=1, initial=s))
    dense = 2 * min_degree >= s
    matched = iter(e or tuple(row.tolist()) for row, e in zip(*perfect_matchings(h[dense])))
    return [next(matched) if ok else f"min degree {degree} below n/2 = {s}/2"
            for ok, degree in zip(dense.tolist(), min_degree.tolist())]


def dense_perfect_matching(b: Bipartite) -> tuple[int, ...]:
    """`dense_perfect_matchings` on ``b`` alone; raises MatchingError for a failed check."""
    [result] = dense_perfect_matchings(b.biadjacency[None])
    if isinstance(result, str):
        raise MatchingError(result)
    return result
