"""Immutable simple graphs with cached BFS metrics and amply-regular detection."""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Union

import numpy as np


class GraphError(ValueError):
    """Malformed graph input or an unmet structural precondition."""


class Graph:
    """Simple undirected graph on vertices 0..n-1, immutable after construction.

    Adjacency is stored as sorted tuples. Three facts are cached, because the
    graph never changes: the common degree (None if irregular), found once at
    construction; one BFS distance row per source, computed on first use as a
    read-only int32 numpy array, from which `distances` answers every batched
    distance read in the package (row 0 also settles whether the graph is
    connected); and each edge's certified Lin-Lu-Yau curvature, keyed by
    (min, max), which `curvature.curvature_all_edges` fills in one batch and
    `curvature.lly_curvature` reads and fills.
    """

    __slots__ = ("n", "_adj", "_dist_cache", "_connected", "_degree", "_lly_cache")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise GraphError(f"vertex count must be nonnegative, got {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"loop edge at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self.n = n
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)
        degrees = {len(a) for a in self._adj}
        self._degree: Optional[int] = degrees.pop() if len(degrees) == 1 else None
        self._dist_cache: dict[int, np.ndarray] = {}
        self._connected: Optional[bool] = None
        self._lly_cache: dict[tuple[int, int], Fraction] = {}

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._adj

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)  # a negative index would wrap to n+v
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def num_edges(self) -> int:
        return sum(len(a) for a in self._adj) // 2

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self._adj[u] if u < v]

    def is_edge(self, u: int, v: int) -> bool:
        self.check_vertex(u)  # a negative index would wrap to n+u
        self.check_vertex(v)
        return v in self._adj[u]

    def check_vertex(self, v: int) -> None:
        """Raise GraphError naming ``v`` unless it is one of 0..n-1."""
        if not 0 <= v < self.n:
            raise GraphError(f"vertex {v} out of range 0..{self.n - 1}")

    def regular_degree(self) -> Optional[int]:
        """Common degree if the graph is regular, else None."""
        return self._degree

    def distances_from(self, source: int) -> np.ndarray:
        """BFS distance row from ``source``; -1 marks unreachable vertices."""
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        self.check_vertex(source)
        dist = [-1] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        row = np.array(dist, dtype=np.int32)
        row.flags.writeable = False
        self._dist_cache[source] = row
        return row

    def distances(self, u, v) -> np.ndarray:
        """d(u, v) elementwise over the broadcast integer arrays ``u`` and ``v``, as int64.

        -1 marks an unreachable pair. The cached BFS row of each distinct
        vertex of ``u`` is read once. Raises GraphError naming the first
        vertex outside 0..n-1, in ``u`` before ``v``, in C order; a negative
        column would otherwise wrap to a vertex of the graph.
        """
        u, v = np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)
        for a in (u, v):
            outside = a[(a < 0) | (a >= self.n)]
            if outside.size:
                self.check_vertex(int(outside[0]))
        seen = np.zeros(self.n, dtype=bool)
        seen[u] = True
        at = np.cumsum(seen) - 1  # vertex w's row, if w is in u: no sort, unlike np.unique
        rows = np.array([self.distances_from(s) for s in np.flatnonzero(seen).tolist()],
                        dtype=np.int64)
        return rows.reshape(len(rows), self.n)[at[u], v]

    def distance(self, u: int, v: int) -> Optional[int]:
        """Shortest-path length, or None if u and v are in different components."""
        self.check_vertex(v)  # distances_from checks u; a bad v would wrap or overrun the row
        d = int(self.distances_from(u)[v])
        return None if d < 0 else d

    def is_connected(self) -> bool:
        if self._connected is None:
            self._connected = self.n <= 1 or bool((self.distances_from(0) >= 0).all())
        return self._connected

    def diameter(self) -> int:
        if self.n == 0:
            raise GraphError("diameter undefined for the empty graph")
        if not self.is_connected():
            raise GraphError("diameter undefined for disconnected graph")
        return max(int(self.distances_from(v).max()) for v in range(self.n))

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for forests.

        A BFS from each root in turn, over the vertices still alive. After a
        root's BFS the root is deleted, and vertices of degree <= 1, which lie
        on no cycle, are peeled away; a shortest cycle is still found by the
        BFS from the first of its vertices to be processed, since the whole
        cycle is alive then. On a cycle graph the first root peels the rest.
        """
        alive = [True] * self.n
        degree = [len(a) for a in self._adj]
        best: Optional[int] = None

        def delete(v: int) -> None:
            stack = [v]
            alive[v] = False
            while stack:
                u = stack.pop()
                for w in self._adj[u]:
                    if alive[w]:
                        degree[w] -= 1
                        if degree[w] <= 1:
                            alive[w] = False
                            stack.append(w)

        for v in range(self.n):
            if alive[v] and degree[v] <= 1:
                delete(v)
        for root in range(self.n):
            if not alive[root]:
                continue
            dist = {root: 0}
            parent = {root: -1}
            queue = deque([root])
            while queue:
                u = queue.popleft()
                if best is not None and 2 * dist[u] >= best:
                    continue
                for w in self._adj[u]:
                    if not alive[w]:
                        continue
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        queue.append(w)
                    elif w != parent[u]:
                        cycle = dist[u] + dist[w] + 1
                        if best is None or cycle < best:
                            best = cycle
            delete(root)
        return best

    def common_neighbors(self, u: int, v: int) -> list[int]:
        self.check_vertex(u)
        self.check_vertex(v)
        if u == v:
            raise GraphError("common_neighbors requires distinct vertices")
        su, sv = set(self._adj[u]), set(self._adj[v])
        return sorted(su & sv)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self._adj == other._adj
        )

    def __hash__(self):
        return hash((self.n, self._adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.num_edges()})"


@dataclass(frozen=True)
class AmplyParams:
    """Detected amply-regular parameters.

    ``beta`` is None when the graph has no pair at distance 2 (diameter <= 1),
    in which case clause (ii) of the defining condition is vacuous. ``girth``
    is None for forests.
    """

    n: int
    d: int
    alpha: int
    beta: Optional[int]
    girth: Optional[int]
    connected: bool = True


@dataclass(frozen=True)
class AmplyViolation:
    """Witness that a graph is not amply regular.

    kind is one of "not-regular", "alpha", "beta". ``pair`` is the first
    offending vertex pair in scan order; ``found``/``expected`` are the two
    conflicting counts (degrees for the not-regular case).
    """

    kind: str
    pair: tuple[int, int]
    found: int
    expected: int

    def __str__(self) -> str:
        return (f"{self.kind} violation at pair {self.pair} "
                f"(found {self.found}, expected {self.expected})")


DetectResult = Union[AmplyParams, AmplyViolation]


def _content_lines(text: Union[str, Iterable[str]]):
    """(line number, raw line, fields) of each line that is neither blank nor a '#' comment."""
    lines = text.splitlines() if isinstance(text, str) else (line.rstrip("\n") for line in text)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, raw, line.split()


def _header(content) -> tuple[int, int]:
    """The 'n m' header: the first content line."""
    lineno, raw, parts = next(content, (0, "", None))
    if parts is None:
        raise GraphError("empty input: missing 'n m' header")
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: expected header 'n m', got {raw!r}")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: non-integer header {raw!r}") from None
    if n < 0 or m < 0:
        raise GraphError(f"line {lineno}: negative counts in header")
    return n, m


def edge_list_order(text: Union[str, Iterable[str]]) -> int:
    """The vertex count n from an edge list's header, read before anything is allocated."""
    return _header(_content_lines(text))[0]


def load_edge_list(text: Union[str, Iterable[str]]) -> Graph:
    """Parse the "n m" / "u v" edge-list format.

    Lines starting with '#' and blank lines are ignored. Duplicate edges are
    collapsed. Errors carry 1-based line numbers.
    """
    content = _content_lines(text)
    n, m = _header(content)
    edges: list[tuple[int, int]] = []
    for lineno, raw, parts in content:
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected edge 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer edge {raw!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"line {lineno}: index out of range in edge ({u}, {v})")
        if u == v:
            raise GraphError(f"line {lineno}: loop edge at vertex {u}")
        edges.append((u, v))
    if len(edges) != m:
        raise GraphError(f"header declares {m} edges but {len(edges)} edge lines found")
    return Graph(n, edges)


def dump_edge_list(g: Graph) -> str:
    """Inverse of load_edge_list; deterministic sorted edge order."""
    lines = [f"{g.n} {g.num_edges()}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def detect_amply_params(g: Graph) -> DetectResult:
    """Check amply regularity and return parameters or the first violation.

    Disconnected input is a hard error; a violation is a value.
    """
    if g.n == 0:
        raise GraphError("empty graph")
    if not g.is_connected():
        raise GraphError("detect_amply_params requires a connected graph")
    adj = g.adjacency
    d = len(adj[0])
    for v in range(1, g.n):
        if len(adj[v]) != d:
            return AmplyViolation("not-regular", (0, v), len(adj[v]), d)
    alpha: Optional[int] = None
    for u, v in g.edges():
        c = len(g.common_neighbors(u, v))
        if alpha is None:
            alpha = c
        elif c != alpha:
            return AmplyViolation("alpha", (u, v), c, alpha)
    # The pairs at distance 2 from u are N(N(u)) minus B(u), and the number of
    # walks u - w - v counts their common neighbors: O(n d^2) in all, scanned
    # in the order u ascending, then v ascending.
    beta: Optional[int] = None
    for u in range(g.n):
        ball = {u, *adj[u]}
        common = Counter(v for w in adj[u] for v in adj[w] if v > u and v not in ball)
        for v in sorted(common):
            c = common[v]
            if beta is None:
                beta = c
            elif c != beta:
                return AmplyViolation("beta", (u, v), c, beta)
    return AmplyParams(
        n=g.n,
        d=d,
        alpha=alpha if alpha is not None else 0,
        beta=beta,
        girth=g.girth(),
        connected=True,
    )


def edge_partition(g: Graph, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N_x, Delta and N_y of each edge (x, y) of ``edges``, as (m, n) boolean masks.

    Read off the endpoints' distances to every vertex: Delta is the common
    neighbours, N_x the neighbours of x at distance 2 from y, and N_y the
    other way round; so B(x) - B(y) is N_x and N(x) - N(y) is N_x with y. Raises
    GraphError for the first vertex outside the graph, x before y, then for
    the first pair that is not an edge.
    """
    xy = np.array(edges, dtype=np.int64).reshape(-1, 2)
    ends = g.distances(xy[:, :, None], np.arange(g.n))
    dx, dy = ends[:, 0], ends[:, 1]
    apart = dx[np.arange(len(xy)), xy[:, 1]] != 1
    if apart.any():
        x, y = xy[apart.argmax()].tolist()
        raise GraphError(f"({x}, {y}) is not an edge")
    near_x, near_y = dx == 1, dy == 1
    return near_x & (dy == 2), near_x & near_y, near_y & (dx == 2)
