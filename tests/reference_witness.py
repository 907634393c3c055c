"""The per-edge witness pipeline, kept as a reference for the batched pass.

One edge at a time, in plain Python: build H from the adjacency rows
of N_x and Delta, check it (beta-1)-regular, decompose it by Konig, walk
Lemma 3.3's chains through every class, and certify the 3/d lower bound from
those walks. ``reference_edge_witness`` returns the same ``EdgeWitness``
record as ``arcurv.witness.edge_witness``; the tests check that the batch
gives the same outcome, message, classes, chain records and certificate on
every edge.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from arcurv.curvature import lly_curvature
from arcurv.graph import AmplyParams, Graph, GraphError
from arcurv.matching import Bipartite, MatchingError, konig_decomposition
from arcurv.witness import (
    ChainRecord,
    EdgeWitness,
    TransportBipartite,
    WitnessCertificate,
    WitnessError,
)


def edge_partition(g: Graph, x: int, y: int) -> tuple[tuple[int, ...], ...]:
    """N_x, Delta and N_y of edge xy, from the neighbour sets of x and y, each sorted.

    Delta is the common neighbours, N_x the neighbours of x outside y's
    closed neighbourhood, and N_y the other way round.
    """
    g.check_vertex(x)
    g.check_vertex(y)
    gx = set(g.neighbors(x))
    if y not in gx:
        raise GraphError(f"({x}, {y}) is not an edge")
    gy = set(g.neighbors(y))
    return tuple(sorted(gx - gy - {y})), tuple(sorted(gx & gy)), tuple(sorted(gy - gx - {x}))


def dense_bipartite(g: Graph, x: int, y: int) -> Bipartite:
    """The host edges between N_x and N_y of edge xy, by is_edge probes, indexed in sorted order."""
    nx, _, ny = edge_partition(g, x, y)
    h = np.array([[g.is_edge(v, w) for w in ny] for v in nx], dtype=bool)
    return Bipartite(h.reshape(len(nx), len(ny)))


def build_transport_bipartite(g: Graph, x: int, y: int, params: AmplyParams) -> TransportBipartite:
    """Construct the auxiliary bipartite graph of edge xy.

    Requires detected parameters with beta present and beta > alpha >= 1.
    Common neighbors are indexed in sorted host order, which fixes z_1.
    """
    if params.beta is None:
        raise WitnessError("no distance-2 pair: beta is undefined")
    if not (params.beta > params.alpha >= 1):
        raise WitnessError(
            f"construction requires beta > alpha >= 1, got alpha={params.alpha}, beta={params.beta}"
        )
    nx, delta, ny = edge_partition(g, x, y)
    p = len(nx)
    a = params.alpha
    copies = params.beta - params.alpha - 1
    assert len(delta) == a and len(ny) == p
    # Right indices [0, p) are N_y and [p, p+a) are Delta, so one scan of
    # each N_x and Delta row finds its host edges of E1-E3 and E5. A Delta
    # row adds its diagonal (E4) and every x'-copy (E7); an x-copy row is
    # every Delta' and x'-copy (E6, E8).
    col_index = {w: j for j, w in enumerate(ny + delta)}
    adj = g.adjacency
    s = p + a + copies
    rows = [[col_index[w] for w in adj[v] if w in col_index] for v in nx]
    for i, z in enumerate(delta):
        host = [col_index[w] for w in adj[z] if w in col_index]
        rows.append(host + [p + i] + list(range(p + a, s)))
    rows += [list(range(p, s))] * copies
    biadjacency = np.zeros((s, s), dtype=bool)
    for u, row in enumerate(rows):
        biadjacency[u, row] = True
    return TransportBipartite(
        x=x,
        y=y,
        d=params.d,
        beta=params.beta,
        nx=nx,
        ny=ny,
        delta=delta,
        b=Bipartite(biadjacency),
    )


def check_h_regular(h: TransportBipartite) -> Optional[str]:
    """None if every auxiliary vertex has degree exactly beta - 1, else the first offender.

    Left degrees are the row sums of ``h.b``'s biadjacency, and right
    degrees its column sums.
    """
    biadjacency, k = h.b.biadjacency, h.beta - 1
    left, right = biadjacency.sum(axis=1).tolist(), biadjacency.sum(axis=0).tolist()
    for i in range(len(biadjacency)):
        if left[i] != k:
            return f"left {h.left_name(i)} has degree {left[i]}"
        if right[i] != k:
            return f"right {h.right_name(i)} has degree {right[i]}"
    return None


def verify_lemma_3_3(g: Graph, h: TransportBipartite, m: tuple[int, ...]) -> list[ChainRecord]:
    """Walk the chain of every N_x vertex through ``m`` and bound its distance.

    ``m`` holds the right partner of each left vertex of H. Matched edges
    are followed from each N_x vertex until one lands in N_y; a right-side
    z/x-copy at index i continues through its unprimed left twin at the same
    index. ``m`` must be a permutation of H's side, so each walk follows
    the permutation's cycle through its start and stops before it returns:
    no chain revisits a vertex, and the induced map N_x -> N_y is a
    bijection. Each chain's endpoints must be connected.
    """
    if sorted(m) != list(range(len(h.b.biadjacency))):
        raise WitnessError("chain walk requires a perfect matching")
    p = len(h.nx)
    first_copy = p + len(h.delta)
    records = []
    for start, v0 in enumerate(h.nx):
        rho, k = 1, 0
        current = m[start]
        while current >= p:  # primed twin shares the index
            rho += 1
            k += current >= first_copy
            current = m[current]
        w0 = h.ny[current]
        dist = g.distances_from(v0).item(w0)
        if dist < 0:
            raise WitnessError("internal error: chain endpoints disconnected")
        records.append(ChainRecord(v0, w0, dist, rho, k, dist <= rho - k))
    return records


def certify_witness(
    g: Graph,
    h: TransportBipartite,
    irregular: Optional[str],
    class_records: tuple[tuple[ChainRecord, ...], ...],
) -> WitnessCertificate:
    """The lower-bound certificate (d+1)/d * (1 - cost(pi0)) on a built H of edge xy.

    ``irregular`` is ``check_h_regular(h)``, and ``class_records`` are the
    chain records of each Konig class of ``h.b`` walked, in order, as
    ``reference_edge_witness`` keeps them. Picks the class through z_1 z_1' among the
    classes kept on ``h.b`` and reads its chains from that walk;
    then checks the whole chain of inequalities: regularity, the z_1 z_1'
    membership, chain distance bounds, the sum bound on chain lengths, the
    marginals of pi0, the plan cost bound (d-2)/(d+1), kappa_lb >= 3/d, and
    kappa_lb <= the exact curvature.

    pi0 keeps mass 1/(d+1) on every common neighbor and on x and y, and
    ships each N_x vertex's mass to its chain partner in N_y; its sorted
    sources and targets are checked to be B(x) and B(y), and its cost is
    the integer sum of its pairs' BFS distances over d+1.
    """
    if irregular is not None:
        raise WitnessError(f"auxiliary graph is not (beta-1)-regular: {irregular}")
    z1l, z1r = h.z1_edge()
    classes = konig_decomposition(h.b)
    i = next((i for i, m in enumerate(classes) if m[z1l] == z1r), None)
    if i is None:
        raise WitnessError("no Konig class contains the z1 z1' edge")
    if i >= len(class_records):
        raise WitnessError(f"chain walk stopped before the z1 z1' class (class {i + 1})")
    records = class_records[i]
    if not all(r.ok for r in records):
        bad = next(r for r in records if not r.ok)
        raise WitnessError(f"chain distance bound failed: {bad}")
    d = h.d
    sum_rho = sum(r.rho for r in records)
    k_total = sum(r.k for r in records)
    if sum_rho > d + k_total - 2:
        raise WitnessError(f"chain length sum {sum_rho} exceeds d + k - 2 = {d + k_total - 2}")
    pi0 = tuple(sorted([(v, v) for v in (*h.delta, h.x, h.y)] + [(r.v0, r.w0) for r in records]))
    if (
        [v for v, _ in pi0] != sorted((h.x,) + g.adjacency[h.x])
        or sorted(w for _, w in pi0) != sorted((h.y,) + g.adjacency[h.y])
    ):
        raise WitnessError("plan marginals are not uniform on B(x) and B(y)")
    dists = [g.distances_from(v).item(w) for v, w in pi0]  # every mass is 1/(d+1)
    if min(dists) < 0:
        raise WitnessError(f"plan moves mass between components: {pi0[dists.index(-1)]}")
    cost = Fraction(sum(dists), d + 1)
    if cost > Fraction(d - 2, d + 1):
        raise WitnessError(f"plan cost {cost} exceeds (d-2)/(d+1)")
    kappa_lb = Fraction(d + 1, d) * (1 - cost)
    if kappa_lb < Fraction(3, d):
        raise WitnessError(f"lower bound {kappa_lb} fell below 3/d")
    kappa = lly_curvature(g, h.x, h.y)
    if kappa_lb > kappa:
        raise WitnessError(f"lower bound {kappa_lb} exceeds exact curvature {kappa}")
    return WitnessCertificate(matching=classes[i], chain_records=records, pi0=pi0, pi0_cost=cost,
                              kappa_lb=kappa_lb, kappa=kappa)


def reference_edge_witness(g: Graph, x: int, y: int, params: AmplyParams) -> EdgeWitness:
    """Run the witness pipeline of edge xy once and keep every step's outcome.

    Builds H and its regularity check, decomposes H into
    its Konig classes, checks Lemma 3.3 on each class, and certifies the
    lower bound from those walks. A failed step's ``WitnessError`` or
    ``MatchingError`` is kept as its message. An H that is not
    (beta-1)-regular is not decomposed, and the regularity message is kept
    as the walk's; a decomposition that raises leaves H with no classes.
    """
    h = build_transport_bipartite(g, x, y, params)
    irregular = check_h_regular(h)
    classes: tuple[tuple[int, ...], ...] = ()
    walked: list[tuple[ChainRecord, ...]] = []
    walk_error = (None if irregular is None
                  else f"auxiliary graph is not (beta-1)-regular: {irregular}")
    try:
        if irregular is None:
            classes = konig_decomposition(h.b)
        for m in classes:
            walked.append(tuple(verify_lemma_3_3(g, h, m)))
    except (WitnessError, MatchingError) as exc:
        walk_error = str(exc)
    class_records = tuple(walked)
    certificate, certify_error = None, None
    try:
        certificate = certify_witness(g, h, irregular, class_records)
    except (WitnessError, MatchingError) as exc:
        certify_error = str(exc)
    return EdgeWitness(
        h=h, irregular=irregular, classes=classes, class_records=class_records,
        walk_error=walk_error, certificate=certificate, certify_error=certify_error,
    )



def reference_summary(g: Graph, params: AmplyParams):
    """``verify``'s witness summary, counted edge by edge from ``reference_edge_witness``."""
    from arcurv.report import WitnessSummary

    d = params.d
    edges = g.edges()
    passes = [0] * 6
    for u, v in edges:
        w = reference_edge_witness(g, u, v, params)
        cert = w.certificate
        walked = w.walk_error is None
        steps = (
            w.irregular is None,
            len(w.classes) == params.beta - 1,
            walked,
            walked and all(r.ok for records in w.class_records for r in records),
            cert is not None and cert.pi0_cost <= Fraction(d - 2, d + 1),
            cert is not None and Fraction(3, d) <= cert.kappa_lb <= cert.kappa,
        )
        passes = [count + ok for count, ok in zip(passes, steps)]
    return WitnessSummary(len(edges), *passes, passed=all(c == len(edges) for c in passes))
