"""Transport-bipartite witness machinery for amply regular edges.

For an edge xy of an amply regular graph with beta > alpha >= 1, an auxiliary
(beta-1)-regular bipartite graph is built from the local structure of xy. Its
perfect matchings induce bijections N_x -> N_y whose chains bound the graph
distance, which yields an explicit cheap transport plan and hence a curvature
lower bound of 3/d. `witness_batches` runs every step of that construction
on many edges at once, over whole arrays of distances (`Graph.distances`):
each H is a boolean biadjacency, and one `konig_stack` call per chunk
decomposes the H's not seen before. `edge_witness` runs it on one edge. A
separate dense-matching certificate pins the curvature to (2+alpha)/d when
2*beta - alpha >= d + 1. Both work through their edges one
`graph.edge_chunks` chunk at a time, which gives each edge's N_x, Delta and
N_y.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .curvature import lly_curvature
from .graph import AmplyParams, Graph, edge_chunks
from .matching import Bipartite, MatchingError, dense_perfect_matchings, konig_decomposition, konig_stack

# edge class indices (1-based, matching the construction below)
CLASS_NAMES = {
    1: "Nx-Ny host edges",
    2: "Nx-Delta' host edges",
    3: "Delta-Ny host edges",
    4: "Delta diagonal",
    5: "Delta-Delta' host edges",
    6: "x-copy to Delta'",
    7: "Delta to x'-copy",
    8: "x-copy to x'-copy",
}

class WitnessError(ValueError):
    """Unmet witness hypothesis or a failed internal certificate."""


def _name(i: int, ends: Sequence[int], delta: Sequence[int], letter: str, prime: str) -> str:
    """Side index i of H: an N_x or N_y vertex (``letter``), a z or an x-copy, ``prime`` on the right."""
    p, a = len(ends), len(delta)
    if i < p:
        return f"{letter}{ends[i]}"
    if i < p + a:
        return f"z{delta[i - p]}{prime}"
    return f"x_copy{i - p - a + 1}{prime}"


@dataclass(frozen=True)
class TransportBipartite:
    """The auxiliary bipartite graph of a host edge xy.

    Side layout (identical on both sides): indices [0, p) are N_x (resp. N_y)
    vertices in sorted host order, [p, p+alpha) are the common neighbors
    z_1..z_alpha (resp. their primed copies) in sorted host order, and
    [p+alpha, p+alpha+delta-1) are synthetic copies of x (resp. x'), where
    delta = beta - alpha. Right index i of a z/x-copy is the primed twin of
    left index i. ``b`` holds H's biadjacency and its Konig classes; edges
    whose H's are equal share one ``b``.
    """

    x: int
    y: int
    d: int
    beta: int
    nx: tuple[int, ...]
    ny: tuple[int, ...]
    delta: tuple[int, ...]
    b: Bipartite

    @property
    def edge_classes(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """E1..E8 of H, read off ``b``'s biadjacency by the index range of each end.

        Each class is in (left, right) order, except E7 (Delta to x'-copy),
        which is in copy-major order: by x'-copy, then by z.
        """
        h = self.b.biadjacency
        p, a, s = len(self.nx), len(self.delta), len(h)

        def block(lo: int, hi: int, r_lo: int, r_hi: int) -> tuple[tuple[int, int], ...]:
            return tuple(map(tuple, (np.argwhere(h[lo:hi, r_lo:r_hi]) + (lo, r_lo)).tolist()))

        delta_pairs = block(p, p + a, p, p + a)
        return (
            block(0, p, 0, p),  # E1
            block(0, p, p, p + a),  # E2
            block(p, p + a, 0, p),  # E3
            tuple(e for e in delta_pairs if e[0] == e[1]),  # E4
            tuple(e for e in delta_pairs if e[0] != e[1]),  # E5
            block(p + a, s, p, p + a),  # E6
            tuple(sorted(block(p, p + a, p + a, s), key=lambda e: e[1])),  # E7
            block(p + a, s, p + a, s),  # E8
        )

    def z1_edge(self) -> tuple[int, int]:
        """The diagonal edge z_1 z_1' (z_1 = smallest host index in Delta)."""
        p = len(self.nx)
        return (p, p)

    def left_name(self, i: int) -> str:
        return _name(i, self.nx, self.delta, "v", "")

    def right_name(self, i: int) -> str:
        return _name(i, self.ny, self.delta, "w", "'")


class ChainRecord(NamedTuple):
    """One matched-edge chain from v0 in N_x to w0 in N_y: ok iff d(v0, w0) <= rho - k.

    rho counts the chain's left-side members and k the synthetic x-copies
    among them.
    """

    v0: int
    w0: int
    distance: int
    rho: int
    k: int
    ok: bool


@dataclass(frozen=True)
class WitnessCertificate:
    """Per-edge lower-bound certificate: the z_1 z_1' class, its chains and their plan pi0.

    pi0 is its sorted support pairs (source, target), each of mass 1/(d+1).
    """

    matching: tuple[int, ...]
    chain_records: tuple[ChainRecord, ...]
    pi0: tuple[tuple[int, int], ...]
    pi0_cost: Fraction
    kappa_lb: Fraction
    kappa: Fraction


@dataclass(frozen=True)
class EdgeWitness:
    """Every witness step of one edge xy, as one edge of a `WitnessBatch` holds it.

    ``irregular`` is None, or the first side vertex of H, left before right
    by index, whose degree is not beta - 1. ``classes`` are H's Konig
    classes; ``class_records`` holds their chain records, in order, up to
    the first class whose walk raised; ``walk_error`` is that class's
    message, the regularity or decomposition message if H has no classes,
    or None if every class was walked. ``certificate`` is the lower-bound
    certificate, or None with its message in ``certify_error``.
    """

    h: TransportBipartite
    irregular: Optional[str]
    classes: tuple[tuple[int, ...], ...]
    class_records: tuple[tuple[ChainRecord, ...], ...]
    walk_error: Optional[str]
    certificate: Optional[WitnessCertificate]
    certify_error: Optional[str]


class Walks(NamedTuple):
    """Lemma 3.3's chains through every Konig class of every edge of a chunk.

    ``v0`` to ``ok`` are (m, K, p) arrays of the `ChainRecord` fields: entry
    (i, c, j) is the chain of edge i's class c from its N_x vertex j, for K
    the most classes of any edge. ``walked`` (m,) counts each edge's classes
    walked before the first that raised, and ``error`` is that class's
    message, or None.
    """

    v0: np.ndarray
    w0: np.ndarray
    distance: np.ndarray
    rho: np.ndarray
    k: np.ndarray
    ok: np.ndarray
    walked: np.ndarray
    error: list


@dataclass(frozen=True)
class WitnessBatch:
    """Every witness step of a chunk of edges, each run once, over whole arrays.

    ``nx``, ``delta`` and ``ny`` are (m, p), (m, alpha) and (m, p) arrays,
    each row in sorted host order. ``bipartites`` holds each edge's H with
    its Konig classes; edges whose H's are equal share one object, and so
    one decomposition, made by the chunk's one `konig_stack` call.
    ``z1`` is the index of each certified edge's z_1 z_1' class and ``cost``
    the integer total distance of its plan pi0; ``kappa`` is the exact
    curvature each certified edge was checked against. `edge` gives one
    edge's steps as an `EdgeWitness`, and `steps` the outcome of each.
    """

    params: AmplyParams
    edges: tuple[tuple[int, int], ...]
    nx: np.ndarray
    delta: np.ndarray
    ny: np.ndarray
    bipartites: tuple[Bipartite, ...]
    irregular: tuple[Optional[str], ...]
    classes: tuple[tuple[tuple[int, ...], ...], ...]
    walks: Walks
    walk_error: tuple[Optional[str], ...]
    z1: np.ndarray
    cost: np.ndarray
    kappa: tuple[Optional[Fraction], ...]
    certify_error: tuple[Optional[str], ...]

    def steps(self) -> np.ndarray:
        """(m, 6) booleans: H regular, beta - 1 classes, every class walked, every chain
        within its bound, and the pi0 cost and kappa bounds.

        The last two are both the certificate's outcome, which checks both bounds.
        """
        counts = np.array([len(c) for c in self.classes], dtype=np.int64)
        walked = np.array([e is None for e in self.walk_error])
        certified = np.array([e is None for e in self.certify_error])
        unreal = np.arange(self.walks.ok.shape[1]) >= counts[:, None]
        return np.stack([
            np.array([r is None for r in self.irregular]),
            counts == self.params.beta - 1,
            walked,
            walked & (self.walks.ok | unreal[:, :, None]).all(axis=(1, 2)),
            certified,
            certified,
        ], axis=1)

    def edge(self, i: int) -> EdgeWitness:
        """Edge i's steps as Python values: H, the chain records and the certificate."""
        (x, y), w, d = self.edges[i], self.walks, self.params.d
        nx, delta, ny = (tuple(a[i].tolist()) for a in (self.nx, self.delta, self.ny))
        h = TransportBipartite(x, y, d, self.params.beta, nx, ny, delta, self.bipartites[i])
        class_records = tuple(
            tuple(map(ChainRecord._make, zip(*(a[i, c].tolist() for a in w[:6]))))
            for c in range(int(w.walked[i]))
        )
        certificate = None
        if self.certify_error[i] is None:
            j, cost = int(self.z1[i]), int(self.cost[i])
            records = class_records[j]
            pi0 = tuple(sorted([(v, v) for v in (*delta, x, y)] + [(r.v0, r.w0) for r in records]))
            certificate = WitnessCertificate(self.classes[i][j], records, pi0, Fraction(cost, d + 1),
                                             Fraction(d + 1 - cost, d), self.kappa[i])
        return EdgeWitness(h, self.irregular[i], self.classes[i], class_records, self.walk_error[i],
                           certificate, self.certify_error[i])


def _neighbourhoods(xy: np.ndarray, sets, params: AmplyParams):
    """N_x, Delta and N_y of each edge as (m, p), (m, alpha), (m, p) arrays in sorted host order.

    ``sets`` is the chunk's (m, n) masks from `graph.edge_chunks`. Raises
    WitnessError, naming the first offending edge, for sizes other than
    p = d-1-alpha and alpha.
    """
    m, a = len(xy), params.alpha
    p = params.d - 1 - a
    sizes = np.stack([s.sum(axis=1) for s in sets], axis=1)
    wrong = (sizes != (p, a, p)).any(axis=1)
    if wrong.any():
        i = int(wrong.argmax())
        (x, y), (nx, delta, ny) = xy[i].tolist(), sizes[i].tolist()
        raise WitnessError(f"edge ({x}, {y}): |N_x| = {nx}, |N_y| = {ny}, |Delta| = {delta} "
                           f"do not match d-1-alpha = {p} and alpha = {a}")
    return tuple(np.nonzero(s)[1].reshape(m, width) for s, width in zip(sets, (p, a, p)))


def _transport_h(host: np.ndarray, p: int, copies: int) -> np.ndarray:
    """Each edge's H as an (m, s, s) boolean biadjacency.

    ``host`` (m, p+alpha, p+alpha) marks the host edges from N_x then Delta
    to N_y then Delta' (E1, E2, E3, E5). H adds each Delta diagonal (E4),
    every Delta vertex to every x'-copy (E7), and every x-copy to every
    Delta' vertex and x'-copy (E6, E8).
    """
    m, t, _ = host.shape
    h = np.zeros((m, t + copies, t + copies), dtype=bool)
    h[:, :t, :t] = host
    z = np.arange(p, t)
    h[:, z, z] = True
    h[:, p:t, t:] = True
    h[:, t:, p:] = True
    return h


def _walk(g: Graph, nx: np.ndarray, ny: np.ndarray, perms: np.ndarray, counts: np.ndarray,
          first_copy: int) -> Walks:
    """Lemma 3.3's chains through every class of every edge, as whole arrays.

    ``perms`` (m, K, s) holds each edge's classes, right partner by left
    index, its first ``counts`` rows real. Every class is first checked to
    be a permutation of H's side. Each chain then follows matched edges
    from its N_x vertex until one lands in N_y, where ``g.distances`` reads
    its length; a right-side z/x-copy at index i continues through its
    unprimed left twin, and indices from ``first_copy`` on are x-copies. A
    walk follows the permutation's cycle through its start and stops before
    it returns, so no chain revisits a vertex and the chain map of each
    class is a bijection. A class raises if it is not a permutation, or if a
    chain's endpoints are disconnected.
    """
    m, slots, s = perms.shape
    p = nx.shape[1]
    perfect = (np.sort(perms, axis=2) == np.arange(s)).all(axis=2)
    perm = np.where(perfect[:, :, None], perms, np.arange(s))  # the identity stands in for the rest
    end = perm[:, :, :p]
    rho, k = np.ones_like(end), np.zeros_like(end)
    for _ in range(s):
        onward = end >= p
        if not onward.any():
            break
        rho += onward
        k += end >= first_copy
        end = np.where(onward, np.take_along_axis(perm, end, axis=2), end)
    w0 = np.take_along_axis(ny[:, None, :], end, axis=2)
    distance = g.distances(nx[:, None, :], w0)
    raised = (np.arange(slots) < counts[:, None]) & (~perfect | (distance < 0).any(axis=2))
    first = np.concatenate([raised, np.ones((m, 1), bool)], axis=1).argmax(axis=1)
    walked = np.minimum(first, counts)
    error: list[Optional[str]] = [None] * m
    for i in np.flatnonzero(raised.any(axis=1)).tolist():
        error[i] = ("chain walk requires a perfect matching" if not perfect[i, walked[i]]
                    else "internal error: chain endpoints disconnected")
    return Walks(np.broadcast_to(nx[:, None, :], w0.shape), w0, distance, rho, k,
                 distance <= rho - k, walked, error)


def _certify(g: Graph, xy: np.ndarray, params: AmplyParams, delta: np.ndarray, walks: Walks,
             bipartites: Sequence[Bipartite], errors: list) -> tuple[np.ndarray, np.ndarray, list]:
    """The lower-bound certificate (d+1)/d * (1 - cost(pi0)) of each edge, from its walks.

    ``errors`` holds each edge's regularity message or None, and is filled
    in with the first check each other edge fails. Each edge reads H's Konig
    classes, picks the class through z_1 z_1', and reads that class's
    chains from the walk (a walk stopped before it fails); then, over whole
    arrays, checks the chain distance bounds, the sum bound on chain
    lengths, the marginals of pi0 against the balls B(x) and B(y), read off
    the adjacency, its connectivity, the plan cost bound (d-2)/(d+1), which
    is kappa_lb >= 3/d, and kappa_lb <= the exact curvature. pi0 keeps mass
    1/(d+1) on every common neighbour and on x and y, and ships each N_x
    vertex's mass to its chain partner in N_y; its cost is the integer sum
    of its pairs' distances over d+1. Returns the z_1 z_1' class index
    and the integer cost of each edge, and the exact curvature of each
    certified edge.
    """
    m, d, p = len(xy), params.d, walks.v0.shape[2]
    kappa: list[Optional[Fraction]] = [None] * m
    z1 = np.zeros(m, dtype=np.int64)
    for i in range(m):
        if errors[i] is not None:
            continue
        try:
            classes = konig_decomposition(bipartites[i])
        except MatchingError as exc:
            errors[i] = str(exc)
            continue
        # c[p] == p, read as a slice, so that a short class is no match
        j = next((j for j, c in enumerate(classes) if c[p:p + 1] == (p,)), None)
        if j is None:
            errors[i] = "no Konig class contains the z1 z1' edge"
        elif j >= walks.walked[i]:
            errors[i] = f"chain walk stopped before the z1 z1' class (class {j + 1})"
        else:
            z1[i] = j
    live = np.array([e is None for e in errors])
    v0, w0, distance, rho, k, ok = (a[np.arange(m), z1] for a in walks[:6])
    stay = np.concatenate([delta, xy], axis=1)
    sources, targets = np.concatenate([stay, v0], axis=1), np.concatenate([stay, w0], axis=1)
    dists = g.distances(sources, targets)
    cost = dists.sum(axis=1)

    def fail(bad: np.ndarray, message) -> None:
        for i in np.flatnonzero(live & bad).tolist():
            errors[i] = message(i)
        live[bad] = False

    def record(i: int) -> ChainRecord:
        j = int(ok[i].argmin())
        return ChainRecord(*(int(a[i, j]) for a in (v0, w0, distance, rho, k)), False)

    def stranded(i: int) -> tuple[int, int]:
        return min((s, t) for s, t, dist in zip(sources[i].tolist(), targets[i].tolist(),
                                                dists[i].tolist()) if dist < 0)

    sum_rho, k_total = rho.sum(axis=1), k.sum(axis=1)
    fail(~ok.all(axis=1), lambda i: f"chain distance bound failed: {record(i)}")
    fail(sum_rho > d + k_total - 2, lambda i: f"chain length sum {sum_rho[i]} exceeds "
                                              f"d + k - 2 = {d + k_total[i] - 2}")
    balls = [np.array([sorted((v, *g.adjacency[v])) for v in end]) for end in xy.T.tolist()]
    fail((np.sort(sources, axis=1) != balls[0]).any(axis=1)
         | (np.sort(targets, axis=1) != balls[1]).any(axis=1),
         lambda i: "plan marginals are not uniform on B(x) and B(y)")
    fail((dists < 0).any(axis=1), lambda i: f"plan moves mass between components: {stranded(i)}")
    fail(cost > d - 2, lambda i: f"plan cost {Fraction(int(cost[i]), d + 1)} exceeds (d-2)/(d+1)")
    kappa_lb = {c: Fraction(d + 1 - c, d) for c in set(cost[live].tolist())}
    for i in np.flatnonzero(live).tolist():
        x, y = xy[i].tolist()
        kappa[i] = lly_curvature(g, x, y)
        lb = kappa_lb[int(cost[i])]
        if lb > kappa[i]:
            errors[i] = f"lower bound {lb} exceeds exact curvature {kappa[i]}"
    return z1, cost, kappa


def _witness_chunk(g: Graph, xy: np.ndarray, sets, params: AmplyParams,
                   shared: dict[bytes, Bipartite]) -> WitnessBatch:
    """`witness_batches` on one `graph.edge_chunks` chunk; ``shared`` holds the call's H's so far."""
    a, copies = params.alpha, params.beta - params.alpha - 1
    p = params.d - 1 - a
    m = len(xy)
    nx, delta, ny = _neighbourhoods(xy, sets, params)
    left, right = np.concatenate([nx, delta], axis=1), np.concatenate([ny, delta], axis=1)
    h = _transport_h(g.distances(left[:, :, None], right[:, None, :]) == 1, p, copies)

    # each side index i as left then right: the first of them whose degree is not beta - 1
    s, k = h.shape[1], params.beta - 1
    degrees = np.stack([h.sum(axis=2), h.sum(axis=1)], axis=2).reshape(m, 2 * s)
    off = degrees != k
    irregular: list[Optional[str]] = [None] * m
    for i in np.flatnonzero(off.any(axis=1)).tolist():
        j = int(off[i].argmax())
        v, on_right = divmod(j, 2)
        name = (_name(v, ny[i].tolist(), delta[i].tolist(), "w", "'") if on_right
                else _name(v, nx[i].tolist(), delta[i].tolist(), "v", ""))
        irregular[i] = f"{'right' if on_right else 'left'} {name} has degree {degrees[i, j]}"

    keys = [hi.tobytes() for hi in h]
    fresh = {key: i for i, key in enumerate(keys) if key not in shared}  # this chunk's new H's
    if fresh:
        stack = h[list(fresh.values())]
        shared.update(zip(fresh, map(Bipartite, stack, konig_stack(stack))))
    bipartites = [shared[key] for key in keys]

    unmet = [None if r is None else f"auxiliary graph is not (beta-1)-regular: {r}"
             for r in irregular]
    walk_error = list(unmet)
    classes: list[tuple[tuple[int, ...], ...]] = [()] * m
    for i in range(m):
        if irregular[i] is None:
            try:
                classes[i] = konig_decomposition(bipartites[i])
            except MatchingError as exc:
                walk_error[i] = str(exc)
    counts = np.array([len(c) for c in classes], dtype=np.int64)
    # at least one class slot, so that every edge has a z1 slot to read; a short class is all -1
    perms = np.full((m, int(counts.max(initial=1)), s), -1, dtype=np.int64)
    for i, c in enumerate(classes):
        perms[i, :len(c)] = np.reshape([cls if len(cls) == s else (-1,) * s for cls in c], (-1, s))
    walks = _walk(g, nx, ny, perms, counts, p + a)
    walk_error = [e if e is not None else walks.error[i] for i, e in enumerate(walk_error)]

    certify_error = list(unmet)
    z1, cost, kappa = _certify(g, xy, params, delta, walks, bipartites, certify_error)
    return WitnessBatch(params, tuple(map(tuple, xy.tolist())), nx, delta, ny, tuple(bipartites),
                        tuple(irregular), tuple(classes), walks, tuple(walk_error), z1, cost,
                        tuple(kappa), tuple(certify_error))


def witness_batches(g: Graph, edges: Sequence[tuple[int, int]],
                    params: AmplyParams) -> Iterator[WitnessBatch]:
    """Run the witness pipeline on ``edges``, one `WitnessBatch` per `graph.edge_chunks` chunk.

    Requires detected parameters with beta present and beta > alpha >= 1.
    Each chunk's split of its edges' neighbourhoods into N_x, Delta and N_y
    passes the size check of `_neighbourhoods`, and the chunk builds every
    H (`_transport_h`) from one block of distances between N_x + Delta and
    N_y + Delta. Equal H's of one call share one `Bipartite`. The H's new
    to the call are decomposed by one `konig_stack`
    call per chunk, one batched matching call per round (beta - 1 rounds on
    regular H's), and each `Bipartite` keeps its classes or its failure
    message.
    Each edge reads its classes through `konig_decomposition` twice, for its
    walks and its certificate. An H that is not (beta-1)-regular keeps the
    regularity message as the walk's, and its classes are not read; a
    decomposition that failed leaves H with no classes. Every class is
    walked (`_walk`), and the certificate (`_certify`) reads the walk. A
    failed step keeps its message.
    """
    if params.beta is None:
        raise WitnessError("no distance-2 pair: beta is undefined")
    if not (params.beta > params.alpha >= 1):
        raise WitnessError(
            f"construction requires beta > alpha >= 1, got alpha={params.alpha}, beta={params.beta}"
        )
    shared: dict[bytes, Bipartite] = {}  # each distinct H of this call, by its biadjacency
    for _, xy, sets in edge_chunks(g, edges):
        yield _witness_chunk(g, xy, sets, params, shared)


def edge_witness(g: Graph, x: int, y: int, params: AmplyParams) -> EdgeWitness:
    """The witness pipeline on edge xy alone: `witness_batches` on a batch of one."""
    return next(witness_batches(g, [(x, y)], params)).edge(0)


def prop_3_1_certificate(g: Graph, edges: Sequence[tuple[int, int]], kappas: Sequence[Fraction],
                         params: AmplyParams) -> list[Union[tuple[int, ...], str]]:
    """Exact-curvature certificates of ``edges``, for the regime 2*beta - alpha >= d + 1.

    ``kappas`` holds each edge's exact curvature, as the curvature table
    gives it. The edges are taken a `graph.edge_chunks` chunk at a time: N_x
    and N_y come through the witness's size check (`_neighbourhoods`), and each
    edge's host edges between them form a bipartite graph; the chunk's
    graphs are checked against the dense degree condition and matched by
    one `dense_perfect_matchings` call; then kappa = (2+alpha)/d is
    asserted. Returns each edge's matching, right partners by left index,
    or the message of the first check it fails. alpha = 0 is allowed.
    """
    if params.beta is None:
        raise WitnessError("no distance-2 pair: beta is undefined")
    if 2 * params.beta - params.alpha < params.d + 1:
        raise WitnessError(
            f"requires 2*beta - alpha >= d + 1, got "
            f"2*{params.beta} - {params.alpha} < {params.d} + 1"
        )
    upper = Fraction(2 + params.alpha, params.d)
    results: list[Union[tuple[int, ...], str]] = []
    for lo, xy, sets in edge_chunks(g, edges):
        nx, _, ny = _neighbourhoods(xy, sets, params)
        host = g.distances(nx[:, :, None], ny[:, None, :]) == 1
        for matching, kappa in zip(dense_perfect_matchings(host), kappas[lo:lo + len(xy)]):
            results.append(matching if isinstance(matching, str) or kappa == upper
                           else f"exact curvature {kappa} differs from (2+alpha)/d = {upper}")
    return results
