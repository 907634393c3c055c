"""Adjacency spectra for display, and exact decisions of sigma_2 <= t.

Eigenvalues come from ``numpy.linalg.eigvalsh`` and are only displayed; no
asserted claim reads them. ``sigma2_at_most`` decides a bound on sigma_2
exactly, by one of two routes. On a distance-regular graph, whose intersection
array `distance_regular` counts exactly, the distinct adjacency eigenvalues are
those of the (D+1)x(D+1) tridiagonal intersection matrix, so a Sturm count on
that matrix decides the bound and Biggs' formula gives the multiplicity of t
(Brouwer, Cohen & Neumaier, Distance-Regular Graphs, 1989, 4.1; Biggs,
Algebraic Graph Theory, 1993, ch. 20-21). Any other graph takes exact
positive-semidefiniteness by fraction-free elimination (Bareiss, Math. Comp.
22, 1968), under its own vertex cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np
from numpy.linalg import eigvalsh

from .graph import Graph

DEFAULT_SPECTRUM_CAP = 4096

BAREISS_CAP = 256
"""The most vertices the exact elimination takes; the spectrum cap does not
bound its time, which grows about 25x per doubling of n. On a 2-core host,
`verify` on the 256-vertex product of the Clebsch graph with itself, which is
not distance-regular, took 12.3-12.5 s, 10.4 s of it in one elimination."""

_DR_BUDGET = 1 << 19
"""Entries of each (sources, directed edges) temporary of `distance_regular`."""


class SpectralError(ValueError):
    """Unmet spectral precondition."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues with the trace residual max(|sum l|, |sum l^2 - 2|E||)."""

    eigenvalues: tuple[float, ...]
    n: int
    residual: float


@dataclass(frozen=True)
class PsdFailure:
    """What refutes PSD: the elimination step, of ``kind`` "negative-pivot" or
    "zero-pivot-nonzero-row"; or, of kind "sign-change", the order of the
    leading block of the intersection matrix with too many eigenvalues above t."""

    row: int
    kind: str


@dataclass(frozen=True)
class PsdCertificate:
    """Exact verdict on sigma_2 <= t, i.e. on M(t) being PSD, and the ``method`` that reached it.

    "bareiss" eliminates M(t): ``zero_pivots`` counts the dropped zero rows
    up to the verdict, and ``failure`` names the refuting pivot. "sturm"
    counts sign changes on the intersection matrix: ``zero_pivots`` is
    Biggs' multiplicity of t whatever the verdict, and ``failure`` names the
    leading block that already has one eigenvalue above t too many. When
    ``psd`` holds, ``zero_pivots`` is the multiplicity of t as an adjacency
    eigenvalue on either route.
    """

    t: Fraction
    psd: bool
    zero_pivots: int
    failure: Optional[PsdFailure]
    method: str


@dataclass(frozen=True)
class IntersectionArray:
    """{b_0, ..., b_{D-1}; c_1, ..., c_D} of a distance-regular graph of diameter D.

    For vertices u, v at distance i, b_i neighbours of v lie at distance
    i + 1 from u and c_i at distance i - 1.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]

    def __str__(self) -> str:
        return f"{{{', '.join(map(str, self.b))}; {', '.join(map(str, self.c))}}}"


@dataclass(frozen=True)
class NotDistanceRegular:
    """The first pair (u, v), u then v ascending, at distance i whose counts b_i or c_i
    differ from those of the first pair at distance i."""

    u: int
    v: int
    i: int

    def __str__(self) -> str:
        return (f"intersection numbers at ({self.u}, {self.v}), distance {self.i}, differ "
                f"from the first pair's at that distance")


DistanceRegularity = Union[IntersectionArray, NotDistanceRegular]


def check_spectrum_cap(n: int, cap: int = DEFAULT_SPECTRUM_CAP) -> None:
    if n > cap:
        raise SpectralError(f"graph size {n} exceeds spectrum cap {cap}")


def check_bareiss_cap(n: int) -> None:
    """Refuse the exact elimination on more than ``BAREISS_CAP`` vertices."""
    if n > BAREISS_CAP:
        raise SpectralError(f"graph size {n} exceeds the Bareiss cap {BAREISS_CAP} "
                            f"for graphs that are not distance-regular")


def adjacency_spectrum(g: Graph, cap: int = DEFAULT_SPECTRUM_CAP) -> Spectrum:
    """Eigenvalues of the 0/1 adjacency matrix, ascending."""
    check_spectrum_cap(g.n, cap)
    mat = np.zeros((g.n, g.n))
    for u in range(g.n):
        mat[u, list(g.neighbors(u))] = 1.0
    eigs = eigvalsh(mat)  # ascending
    drift = abs(float(eigs.sum()))
    square_drift = abs(float(eigs @ eigs) - 2 * g.num_edges())
    if drift > 1e-8 * max(g.n, 1):
        raise SpectralError("eigenvalue sum drifted from trace 0")
    if square_drift > 1e-8 * max(g.n, 1):
        raise SpectralError("eigenvalue square sum drifted from trace(A^2) = 2|E|")
    return Spectrum(
        eigenvalues=tuple(float(e) for e in eigs), n=g.n, residual=max(drift, square_drift)
    )


def _require_connected_regular(g: Graph, name: str) -> int:
    if not g.is_connected():
        raise SpectralError(f"{name} requires a connected graph")
    d = g.regular_degree()
    if d is None:
        raise SpectralError(f"{name} requires a regular graph")
    if g.n < 2:
        raise SpectralError(f"{name} requires at least 2 vertices")
    return d


def second_largest(g: Graph, cap: int = DEFAULT_SPECTRUM_CAP) -> float:
    """sigma_{n-1}: the second-largest adjacency eigenvalue of a connected regular graph."""
    _require_connected_regular(g, "second_largest")
    return adjacency_spectrum(g, cap=cap).eigenvalues[-2]


def lambda1(g: Graph, cap: int = DEFAULT_SPECTRUM_CAP) -> float:
    """First nonzero normalized-Laplacian eigenvalue: 1 - sigma_{n-1}/d on regular graphs."""
    d = g.regular_degree()
    if d is None or d == 0:
        raise SpectralError("lambda1 requires a regular graph with d >= 1")
    return 1.0 - second_largest(g, cap=cap) / d


def distance_regular(g: Graph) -> DistanceRegularity:
    """The intersection array of a connected graph, or the first pair that refutes one.

    For every source u and vertex v at distance i, counts the neighbours of v
    at distance i - 1 and i + 1 from u, over every directed edge at once. The
    sources are read from the cached BFS rows (`Graph.distances`) in chunks,
    so that no temporary holds more than about ``_DR_BUDGET`` entries, or
    one source's. The first pair at each distance, in that order, sets b_i
    and c_i, and the first pair that differs is returned.
    """
    if g.n == 0 or not g.is_connected():
        raise SpectralError("distance_regular requires a connected nonempty graph")
    if g.n == 1:
        return IntersectionArray((), ())
    n, degrees = g.n, np.array([len(a) for a in g.adjacency], dtype=np.int64)
    src = np.repeat(np.arange(n), degrees)  # every directed edge (v, w), v ascending
    dst = np.fromiter((w for a in g.adjacency for w in a), dtype=np.int64, count=len(src))
    starts = np.cumsum(degrees) - degrees  # v's first edge; every degree is at least 1
    chunk = max(1, _DR_BUDGET // len(src))
    for lo in range(0, n, chunk):
        rows = g.distances(np.arange(lo, min(lo + chunk, n))[:, None], np.arange(n))
        step = rows[:, dst] - rows[:, src]
        c, b = (np.add.reduceat(step == towards, starts, axis=1, dtype=np.int64)
                for towards in (-1, 1))
        if lo == 0:  # vertex 0's first vertex at each distance sets c_i and b_i
            first = np.unique(rows[0], return_index=True)[1]
            want_c, want_b = (np.pad(x[0, first], (0, n - len(first)), constant_values=-1)
                              for x in (c, b))
        bad = (c != want_c[rows]) | (b != want_b[rows])
        if bad.any():
            s, v = np.unravel_index(int(bad.argmax()), bad.shape)
            return NotDistanceRegular(lo + int(s), int(v), int(rows[s, v]))
    diameter = len(first) - 1
    return IntersectionArray(tuple(want_b[:diameter].tolist()),
                             tuple(want_c[1:diameter + 1].tolist()))


def _layer_sizes(g: Graph, array: IntersectionArray, d: int) -> list[int]:
    """k_i = b_0 ... b_{i-1} / (c_1 ... c_i), checked against vertex 0's BFS layers.

    Also requires b_i >= 1, c_i >= 1 and a_i = d - b_i - c_i >= 0, so that
    the intersection matrix is nonnegative with a positive off-diagonal. A
    single intersection number off by one changes some k_i, so this refuses it.
    """
    b, c = array.b, array.c
    if (len(b) != len(c) or min(b + c, default=1) < 1
            or any(d - bi - ci < 0 for bi, ci in zip((*b, 0), (0, *c)))):
        raise SpectralError(f"intersection array {array} is not one of a {d}-regular graph")
    sizes = [Fraction(1)]
    for bi, ci in zip(b, c):
        sizes.append(sizes[-1] * bi / ci)
    counted = np.bincount(g.distances_from(0)).tolist()
    if sizes != counted:
        raise SpectralError(f"intersection array {array} gives distance layers "
                            f"{', '.join(map(str, sizes))}, but vertex 0 has {counted}")
    return counted


def sigma2_sturm(g: Graph, array: IntersectionArray, t: Fraction) -> PsdCertificate:
    """Decide sigma_{n-1} <= t exactly for a distance-regular graph with intersection ``array``.

    The distinct eigenvalues of A are those of the tridiagonal intersection
    matrix L, rows c_i, a_i, b_i; L is similar to the symmetric T with
    off-diagonal sqrt(b_{i-1} c_i). F_j = det(tI - T_j) over T's leading
    blocks follows F_{j+1} = (t - a_j) F_j - b_{j-1} c_j F_{j-1}, with no
    square root. As T is irreducible, the sign changes of the nonzero F_j
    count T's eigenvalues above t. d is one of them, the largest, so
    sigma_{n-1} <= t iff that count is 1, or 0 for t >= d; ``failure`` names
    the block order at which the count first exceeds it. The multiplicity
    of t is 0 unless F_{D+1} = 0 and t != d, and then Biggs' n / sum k_i u_i(t)^2,
    with u_0 = 1, u_1 = t/d and b_i u_{i+1} = (t - a_i) u_i - c_i u_{i-1};
    it must be a positive integer. The array is first checked against the
    graph's distance layers.
    """
    d = _require_connected_regular(g, "sigma2_sturm")
    sizes = _layer_sizes(g, array, d)
    t = Fraction(t)
    b, c = (*array.b, 0), (0, *array.c)
    a = [d - bi - ci for bi, ci in zip(b, c)]
    values = [Fraction(1), t - a[0]]
    for j in range(1, len(a)):
        values.append((t - a[j]) * values[-1] - b[j - 1] * c[j] * values[-2])
    nonzero = [(j, v) for j, v in enumerate(values) if v]
    changes = [j for (_, u), (j, v) in zip(nonzero, nonzero[1:]) if (u > 0) != (v > 0)]
    allowed = 1 if t < d else 0
    failure = None if len(changes) <= allowed else PsdFailure(changes[allowed], "sign-change")
    multiplicity = 0
    if values[-1] == 0 and t != d:
        u = [Fraction(1), t / d]
        for i in range(1, len(a) - 1):
            u.append(((t - a[i]) * u[i] - c[i] * u[i - 1]) / b[i])
        m = g.n / sum(k * ui * ui for k, ui in zip(sizes, u))
        if m.denominator != 1 or m < 1:
            raise SpectralError(f"internal error: multiplicity {m} of eigenvalue {t} "
                                f"is not a positive integer")
        multiplicity = int(m)
    return PsdCertificate(t, failure is None, multiplicity, failure, "sturm")


def sigma2_at_most(g: Graph, t: Fraction,
                   structure: Optional[DistanceRegularity] = None) -> PsdCertificate:
    """Decide sigma_{n-1} <= t exactly: `sigma2_sturm` if the graph is distance-regular,
    else `sigma2_bareiss`. ``structure`` is `distance_regular`'s result, found here if None."""
    if structure is None:
        structure = distance_regular(g)
    if isinstance(structure, IntersectionArray):
        return sigma2_sturm(g, structure, t)
    return sigma2_bareiss(g, t)


def sigma2_bareiss(g: Graph, t: Fraction) -> PsdCertificate:
    """Decide sigma_{n-1} <= t exactly for a connected d-regular graph, by elimination.

    The bound holds if and only if M(t) = tI - A + ((d - t + 1)/n) J is PSD:
    M(t) has eigenvalue 1 on the all-ones vector and t - lambda on every
    other eigenvector of A. Symmetric Bareiss elimination of the integer
    matrix n * den(t) * M(t), in vertex order, eliminates a positive pivot;
    a negative pivot or a zero pivot with a nonzero row refutes PSD, and a
    zero pivot with a zero row is dropped and counted. When M(t) is PSD the
    count is its nullity, the multiplicity of t as an eigenvalue of A.

    Row r of ``rows`` holds columns r.. of the remaining matrix. The
    previous pivot is positive, so floor remainders are nonnegative, and one
    sum comparison per row shows that every division in it was exact.
    Refuses more than ``BAREISS_CAP`` vertices.
    """
    d = _require_connected_regular(g, "sigma2_bareiss")
    check_bareiss_cap(g.n)
    t = Fraction(t)
    n, p, q = g.n, t.numerator, t.denominator
    rows = []
    for u in range(n):
        row = [(d + 1) * q - p] * (n - u)  # columns u..n-1
        row[0] += n * p
        for v in g.neighbors(u):
            if v > u:
                row[v - u] -= n * q
        rows.append(row)
    prev, zero_pivots = 1, 0
    for k in range(n):
        pivot, *tail = rows[0]
        if pivot < 0 or (pivot == 0 and any(tail)):
            kind = "negative-pivot" if pivot < 0 else "zero-pivot-nonzero-row"
            return PsdCertificate(t, False, zero_pivots, PsdFailure(k, kind), "bareiss")
        if pivot == 0:
            zero_pivots += 1
            rows = rows[1:]
            continue
        reduced = []
        for r, row in enumerate(rows[1:]):
            c = tail[r]
            nums = [pivot * x - c * y for x, y in zip(row, tail[r:])]
            quotients = [x // prev for x in nums]
            if sum(nums) != prev * sum(quotients):
                raise SpectralError(f"internal error: inexact division at step {k}")
            reduced.append(quotients)
        rows, prev = reduced, pivot
    return PsdCertificate(t, True, zero_pivots, None, "bareiss")
