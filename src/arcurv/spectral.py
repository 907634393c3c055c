"""Adjacency spectra for display, and exact decisions of sigma_2 <= t.

Eigenvalues come from ``numpy.linalg.eigvalsh`` and are only displayed; no
asserted claim reads them. ``sigma2_at_most`` decides a bound on sigma_2 by
exact positive-semidefiniteness, with fraction-free elimination (Bareiss,
Math. Comp. 22, 1968).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.linalg import eigvalsh

from .graph import Graph

DEFAULT_SPECTRUM_CAP = 4096


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
    """The elimination step that refutes PSD: ``kind`` is "negative-pivot"
    or "zero-pivot-nonzero-row"."""

    row: int
    kind: str


@dataclass(frozen=True)
class PsdCertificate:
    """Exact verdict on sigma_2 <= t, i.e. on M(t) being PSD.

    ``zero_pivots`` counts the dropped zero rows up to the verdict; when
    ``psd`` holds it is the multiplicity of t as an adjacency eigenvalue.
    """

    t: Fraction
    psd: bool
    zero_pivots: int
    failure: Optional[PsdFailure]


def check_spectrum_cap(n: int, cap: int = DEFAULT_SPECTRUM_CAP) -> None:
    if n > cap:
        raise SpectralError(f"graph size {n} exceeds spectrum cap {cap}")


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


def sigma2_at_most(g: Graph, t: Fraction) -> PsdCertificate:
    """Decide sigma_{n-1} <= t exactly for a connected d-regular graph.

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
    """
    d = _require_connected_regular(g, "sigma2_at_most")
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
            return PsdCertificate(t, False, zero_pivots, PsdFailure(k, kind))
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
    return PsdCertificate(t, True, zero_pivots, None)
