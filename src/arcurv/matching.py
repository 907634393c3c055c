"""Bipartite matching: augmenting paths, Konig decomposition, dense perfect matchings."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional


class MatchingError(ValueError):
    """Unmet matching precondition or an internal consistency failure."""


@dataclass(frozen=True)
class Bipartite:
    """Bipartite graph; edges stored as per-left-vertex sorted right-neighbor tuples."""

    left_n: int
    right_n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adj) != self.left_n:
            raise MatchingError("adjacency size does not match left side")
        for u, nbrs in enumerate(self.adj):
            if len(set(nbrs)) != len(nbrs):
                raise MatchingError(f"duplicate edges at left vertex {u}")
            for w in nbrs:
                if not 0 <= w < self.right_n:
                    raise MatchingError(f"right index {w} out of range at left {u}")

    @cached_property
    def right_degrees(self) -> tuple[int, ...]:
        """Degree of each right vertex, counted at the first use and kept."""
        degs = [0] * self.right_n
        for u in range(self.left_n):
            for w in self.adj[u]:
                degs[w] += 1
        return tuple(degs)

    def min_degree(self) -> int:
        """Smallest degree over both sides; 0 on an empty side."""
        return min(min(map(len, self.adj), default=0), min(self.right_degrees, default=0))

    def regular_degree(self) -> Optional[int]:
        """Common degree if k-regular with equal sides, else None."""
        if self.left_n != self.right_n or self.left_n == 0:
            return None
        left = {len(a) for a in self.adj}
        right = set(self.right_degrees)
        if len(left) == 1 and left == right:
            return left.pop()
        return None

    @cached_property
    def konig_classes(self) -> tuple[tuple[int, ...], ...]:
        """The k perfect matchings that partition a k-regular graph's edges, made once and kept.

        Each class is a tuple of right partners, indexed by left vertex. Each
        round extracts the perfect matching that Kuhn's search finds in the
        remaining graph and removes it, leaving a (k-1)-regular graph. Every
        round is checked as it runs: ``_perfect`` checks that each left vertex
        is matched and no right vertex twice, and each matched edge is removed
        from the remaining edges, so a non-edge or an edge of an earlier class
        raises. With no edge left over after k rounds, the classes are perfect,
        pairwise edge-disjoint, and their union is exactly the edge set. A run
        that raises keeps nothing, so the next read runs again.
        """
        k = self.regular_degree()
        if k is None or k < 1:
            raise MatchingError("konig_decomposition requires a k-regular bipartite graph, k >= 1")
        n = self.left_n
        adj = [sorted(nbrs) for nbrs in self.adj]
        classes: list[tuple[int, ...]] = []
        for _ in range(k):
            match_l = _perfect(_kuhn(adj, n), n)
            try:
                list(map(list.remove, adj, match_l))  # adj[u].remove(match_l[u]) for every u
            except ValueError:  # a non-edge, or an edge of an earlier class
                raise MatchingError("internal error: class uses a removed or missing edge") from None
            classes.append(tuple(match_l))
        if any(adj):
            raise MatchingError("internal error: leftover edges after decomposition")
        return tuple(classes)


def _kuhn(adj, right_n: int) -> list[int]:
    """Kuhn's augmenting-path search over plain adjacency lists.

    Left vertices and their neighbor lists are scanned in stored order, so
    the result is deterministic. A left vertex that fails to augment is
    skipped, not fatal: the result is maximum, not just maximal. One stamp
    array serves every search: ``visited[w] == root`` marks w as reached in
    the search from ``root``. Returns the right partner of each left vertex,
    -1 where unmatched.
    """
    match_r = [-1] * right_n
    match_l = [-1] * len(adj)
    visited = [-1] * right_n

    def try_augment(u: int) -> bool:
        for w in adj[u]:
            if visited[w] == root:
                continue
            visited[w] = root
            if match_r[w] < 0 or try_augment(match_r[w]):
                match_r[w] = u
                match_l[u] = w
                return True
        return False

    for root in range(len(adj)):
        try_augment(root)
    return match_l


def _perfect(match_l: list[int], n: int) -> list[int]:
    """Kuhn's result ``match_l``, checked perfect on n left vertices: each matched, no two alike."""
    if len(match_l) != n or min(match_l, default=0) < 0 or len(set(match_l)) != n:
        raise MatchingError("internal error: Kuhn's search found no perfect matching")
    return match_l


def konig_decomposition(b: Bipartite) -> tuple[tuple[int, ...], ...]:
    """Partition a k-regular bipartite graph's edges into k perfect matchings.

    Returns ``b.konig_classes``: the decomposition runs, with every round
    checked, at the first call on ``b`` and is kept on it, so later calls on
    the same object read the same classes. The classes are immutable.
    """
    return b.konig_classes


def dense_perfect_matching(b: Bipartite) -> tuple[int, ...]:
    """Perfect matching of a balanced bipartite graph with min degree >= n/2.

    Returns Kuhn's result, right partners by left vertex, checked perfect by
    ``_perfect`` and each of its pairs checked to be an edge.
    """
    if b.left_n != b.right_n:
        raise MatchingError("dense_perfect_matching requires equal side sizes")
    n = b.left_n
    min_deg = b.min_degree()
    if 2 * min_deg < n:
        raise MatchingError(f"min degree {min_deg} below n/2 = {n}/2")
    match_l = _perfect(_kuhn(b.adj, n), n)
    if any(w not in row for row, w in zip(b.adj, match_l)):
        raise MatchingError("internal error: a matched pair is not an edge")
    return tuple(match_l)
