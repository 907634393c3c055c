"""Verification suite: per-edge curvature claims, diameter and eigenvalue bounds.

Builds a structured report for a connected amply regular graph, asserting
every bound that applies to its parameter regime and carrying comparison-only
columns for the literature bounds that are reported but never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import witness as wit
from .curvature import CurvatureTable, curvature_all_edges
from .graph import AmplyParams, AmplyViolation, Graph, detect_amply_params
from .spectral import (
    DEFAULT_SPECTRUM_CAP,
    DistanceRegularity,
    IntersectionArray,
    PsdCertificate,
    check_bareiss_cap,
    check_spectrum_cap,
    distance_regular,
    lambda1,
    second_largest,
    sigma2_at_most,
)


class ReportError(ValueError):
    """Input fails the verification suite's hypotheses (not an assertion failure)."""


@dataclass(frozen=True)
class EdgeCheck:
    name: str
    relation: str  # "eq" | "ge" | "le"
    bound: Fraction
    passed: bool


@dataclass(frozen=True)
class EdgeRow:
    u: int
    v: int
    kappa: Fraction
    checks: tuple[EdgeCheck, ...]
    passed: bool


@dataclass(frozen=True)
class CompareColumn:
    """Report-only bound from the literature; never asserted."""

    name: str
    applicable: bool
    detail: str


@dataclass(frozen=True)
class DiameterRow:
    value: int
    bound_general: Optional[int]  # <= d when beta >= alpha, beta != 1
    bound_strict: Optional[int]  # <= floor(2d/3) when beta > alpha >= 1
    passed: bool
    comparisons: tuple[CompareColumn, ...]


@dataclass(frozen=True)
class SpectralRow:
    """Displayed eigenvalues (floats) and the exact verdicts, which rest on ``certificates``."""

    sigma_second: float
    bound: Optional[int]
    bound_passed: Optional[bool]
    lambda_one: float
    kappa_min: Fraction
    lichnerowicz_passed: bool
    certificates: tuple[PsdCertificate, ...]  # one per t tested, smallest t first
    passed: bool


@dataclass(frozen=True)
class WitnessSummary:
    edges_checked: int
    regular_pass: int
    class_count_pass: int
    bijection_pass: int
    chain_bound_pass: int
    pi0_bound_pass: int
    lower_bound_pass: int
    passed: bool


@dataclass(frozen=True)
class DenseMatchSummary:
    kappa: Fraction
    edges_certified: int
    passed: bool


@dataclass(frozen=True)
class ConferenceNote:
    """Computed curvature shown against the conjectured conference value; no assertion."""

    gamma: int
    conjectured: Fraction
    computed_min: Fraction
    computed_max: Fraction


@dataclass(frozen=True)
class VerificationReport:
    """Every check of `verify_graph`. ``distance_regular`` is the graph's intersection
    array, or the first pair that refutes one; the spectral certificate and the
    distance-regular comparison both read it."""

    graph_id: str
    params: AmplyParams
    distance_regular: DistanceRegularity
    edges: tuple[EdgeRow, ...]
    diameter: DiameterRow
    spectral: SpectralRow
    witness: Optional[WitnessSummary]
    dense_match: Optional[DenseMatchSummary]
    conference: Optional[ConferenceNote]
    overall_pass: bool


def _edge_checks(kappa: Fraction, params: AmplyParams) -> tuple[EdgeCheck, ...]:
    d, a, b = params.d, params.alpha, params.beta
    checks: list[EdgeCheck] = []
    if b is not None:
        upper = Fraction(2 + a, d)
        checks.append(EdgeCheck("upper-bound", "le", upper, kappa <= upper))
        if a == 0 and b >= 2:
            checks.append(EdgeCheck("girth4-exact", "eq", Fraction(2, d), kappa == Fraction(2, d)))
        if a == 1 and b > a:
            checks.append(EdgeCheck("alpha1-exact", "eq", Fraction(3, d), kappa == Fraction(3, d)))
        if a == b and a > 1:
            checks.append(EdgeCheck("equal-params-lower", "ge", Fraction(2, d), kappa >= Fraction(2, d)))
        if b > a >= 1:
            checks.append(EdgeCheck("main-lower", "ge", Fraction(3, d), kappa >= Fraction(3, d)))
        if 2 * b - a >= d + 1:
            checks.append(EdgeCheck("dense-exact", "eq", upper, kappa == upper))
    return tuple(checks)


def _witness_summary(g: Graph, params: AmplyParams) -> WitnessSummary:
    """Count, over every edge, the witness steps that passed, in one batched pass."""
    edges = g.edges()
    passes = [0] * 6
    for batch in wit.witness_batches(g, edges, params):
        passes = [count + ok for count, ok in zip(passes, batch.steps().sum(axis=0).tolist())]
    return WitnessSummary(len(edges), *passes, passed=all(c == len(edges) for c in passes))


def _diameter_row(g: Graph, params: AmplyParams, structure: DistanceRegularity) -> DiameterRow:
    diam = g.diameter()
    d, a, b = params.d, params.alpha, params.beta
    bound_general = d if (b is not None and b != 1 and b >= a) else None
    bound_strict = (2 * d) // 3 if (b is not None and b > a >= 1) else None
    passed = True
    if bound_general is not None:
        passed = passed and diam <= bound_general
    if bound_strict is not None:
        passed = passed and diam <= bound_strict
    comparisons: list[CompareColumn] = []
    eq3_params = b is not None and d >= 3 and b != 1 and b > a
    drg = isinstance(structure, IntersectionArray)
    if not eq3_params:
        eq3_detail = "requires d >= 3 and 1 != beta > alpha"
    elif drg:
        eq3_detail = (f"diam <= d - beta + 2 = {d - b + 2} "
                      f"(distance-regular, intersection array {structure} verified)")
    else:
        eq3_detail = f"requires a distance-regular graph: {structure}"
    comparisons.append(CompareColumn("distance-regular-linear", eq3_params and drg, eq3_detail))
    eq4_applicable = b is not None and b != 1 and b >= a and diam >= 4
    comparisons.append(
        CompareColumn(
            "two-beta-linear",
            eq4_applicable,
            f"diam <= d - 2*beta + 4 = {d - 2 * b + 4}"
            if eq4_applicable
            else "requires 1 != beta >= alpha and diam >= 4",
        )
    )
    eq5_applicable = b is not None and b >= max(3, a) and diam >= 6
    if eq5_applicable:
        rhs = (3 - Fraction(2, b)) * (b - 3 + diam // 2)
        eq5_detail = f"d >= (3 - 2/beta)(beta - 3 + floor(diam/2)) = {rhs}"
    else:
        eq5_detail = "requires beta >= max(3, alpha) and diam >= 6"
    comparisons.append(CompareColumn("degree-lower-nonlinear", eq5_applicable, eq5_detail))
    return DiameterRow(
        value=diam,
        bound_general=bound_general,
        bound_strict=bound_strict,
        passed=passed,
        comparisons=tuple(comparisons),
    )


def _spectral_row(
    g: Graph, params: AmplyParams, kappa_min: Fraction, structure: DistanceRegularity,
    spectrum_cap: int = DEFAULT_SPECTRUM_CAP,
) -> SpectralRow:
    """Decide sigma_2 <= bound and Lichnerowicz, lambda_1 >= kappa_min, exactly.

    On a d-regular graph lambda_1 = 1 - sigma_2/d, so Lichnerowicz is
    sigma_2 <= d(1 - kappa_min). The smaller t is tested first; if it holds,
    both claims hold and the larger t needs no test. ``structure`` picks the
    route of each test (`sigma2_at_most`).
    """
    sigma = second_largest(g, cap=spectrum_cap)
    lam = lambda1(g, cap=spectrum_cap)
    d, a, b = params.d, params.alpha, params.beta
    bound: Optional[int] = None
    if b is not None and b > a >= 1:
        bound = d - 3
    elif b is not None and b != 1 and b >= a:
        bound = d - 2
    lich_t = d * (1 - kappa_min)
    targets = sorted({lich_t} if bound is None else {lich_t, Fraction(bound)})
    certificates = [sigma2_at_most(g, targets[0], structure)]
    if not certificates[0].psd and len(targets) > 1:
        certificates.append(sigma2_at_most(g, targets[1], structure))

    def holds(t: Fraction) -> bool:
        return any(c.psd for c in certificates if c.t <= t)

    bound_passed = None if bound is None else holds(Fraction(bound))
    lich = holds(lich_t)
    return SpectralRow(
        sigma_second=sigma,
        bound=bound,
        bound_passed=bound_passed,
        lambda_one=lam,
        kappa_min=kappa_min,
        lichnerowicz_passed=lich,
        certificates=tuple(certificates),
        passed=(bound_passed is not False) and lich,
    )


def _conference_note(params: AmplyParams, table: CurvatureTable) -> Optional[ConferenceNote]:
    d, a, b = params.d, params.alpha, params.beta
    if b is None or d % 2 != 0:
        return None
    gamma = d // 2
    if gamma < 2 or params.n != 4 * gamma + 1 or a != gamma - 1 or b != gamma:
        return None
    return ConferenceNote(
        gamma=gamma,
        conjectured=Fraction(1, 2) + Fraction(1, 2 * gamma),
        computed_min=table.kappa_min,
        computed_max=table.kappa_max,
    )


def verify_graph(
    g: Graph, graph_id: str, spectrum_cap: int = DEFAULT_SPECTRUM_CAP
) -> VerificationReport:
    """Run every applicable check against a connected amply regular graph.

    ``spectrum_cap`` bounds the vertex count of the spectral checks; a larger
    graph is refused before any other work. Right after parameter detection,
    `distance_regular` decides the spectral route once; a graph that is not
    distance-regular and exceeds the Bareiss cap is refused before any
    per-edge work. Each distinct curvature value's checks are built once.
    """
    if not g.is_connected():
        raise ReportError("verification requires a connected graph")
    check_spectrum_cap(g.n, spectrum_cap)  # before any per-edge or all-pairs work
    params = detect_amply_params(g)
    if isinstance(params, AmplyViolation):
        raise ReportError(f"not amply regular: {params}")
    structure = distance_regular(g)
    if not isinstance(structure, IntersectionArray):
        check_bareiss_cap(g.n)
    table = curvature_all_edges(g)
    checks = {kappa: _edge_checks(kappa, params) for kappa in {k for _, _, k in table.rows}}
    passed = {kappa: all(c.passed for c in cs) for kappa, cs in checks.items()}
    edge_rows = [EdgeRow(u=u, v=v, kappa=kappa, checks=checks[kappa], passed=passed[kappa])
                 for u, v, kappa in table.rows]
    witness_summary: Optional[WitnessSummary] = None
    if params.beta is not None and params.beta > params.alpha >= 1:
        witness_summary = _witness_summary(g, params)
    dense_summary: Optional[DenseMatchSummary] = None
    if params.beta is not None and 2 * params.beta - params.alpha >= params.d + 1:
        edges, kappas = [(u, v) for u, v, _ in table.rows], [k for _, _, k in table.rows]
        certified = sum(not isinstance(r, str)
                        for r in wit.prop_3_1_certificate(g, edges, kappas, params))
        dense_summary = DenseMatchSummary(Fraction(2 + params.alpha, params.d), certified,
                                          passed=certified == len(edges))
    diameter_row = _diameter_row(g, params, structure)
    spectral_row = _spectral_row(g, params, table.kappa_min, structure, spectrum_cap)
    conference = _conference_note(params, table)
    overall = (
        all(r.passed for r in edge_rows)
        and diameter_row.passed
        and spectral_row.passed
        and (witness_summary is None or witness_summary.passed)
        and (dense_summary is None or dense_summary.passed)
    )
    return VerificationReport(
        graph_id=graph_id,
        params=params,
        distance_regular=structure,
        edges=tuple(edge_rows),
        diameter=diameter_row,
        spectral=spectral_row,
        witness=witness_summary,
        dense_match=dense_summary,
        conference=conference,
        overall_pass=overall,
    )


# --- serialization ---------------------------------------------------------


def _encode(value, memo: dict):
    # a dataclass's field table; no encoded class has a ClassVar or InitVar pseudo-field
    table = getattr(type(value), "__dataclass_fields__", None)
    if table is not None:
        return {name: _encode(getattr(value, name), memo) for name in table}
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, tuple):
        if id(value) not in memo:  # a tuple that several fields share is encoded once
            memo[id(value)] = [_encode(v, memo) for v in value]
        return memo[id(value)]
    return value


def report_to_dict(r: VerificationReport) -> dict:
    """JSON-ready dict: field names as keys, Fractions as "p/q", tuples as lists.

    A tuple that several fields of ``r`` share, such as the checks of the
    edges with one curvature value, becomes one list that they all hold.
    """
    return _encode(r, {})


def _display(x: float) -> str:
    """A displayed eigenvalue: rounding to 12 places keeps solver noise out of the text."""
    return f"{round(x, 12) + 0.0:.12g}"


def render_text(r: VerificationReport) -> str:
    p = r.params
    beta = "-" if p.beta is None else p.beta
    lines = [
        f"graph: {r.graph_id}",
        f"params: ({p.n},{p.d},{p.alpha},{beta})  girth={p.girth}",
        "",
        "edge curvature:",
    ]
    for row in r.edges:
        mark = "ok" if row.passed else "FAIL"
        checks = "; ".join(
            f"{c.name} {'=' if c.relation == 'eq' else ('>=' if c.relation == 'ge' else '<=')} "
            f"{c.bound} [{'ok' if c.passed else 'FAIL'}]"
            for c in row.checks
        ) or "no applicable bound"
        lines.append(f"  ({row.u},{row.v})  kappa={row.kappa}  {checks}  [{mark}]")
    d = r.diameter
    lines.append("")
    lines.append(
        f"diameter: {d.value}"
        + (f"  <= d = {d.bound_general}" if d.bound_general is not None else "")
        + (f"  <= floor(2d/3) = {d.bound_strict}" if d.bound_strict is not None else "")
        + f"  [{'ok' if d.passed else 'FAIL'}]"
    )
    for c in d.comparisons:
        tag = "comparison" if c.applicable else "not applicable"
        lines.append(f"  {c.name} ({tag}): {c.detail}")
    s = r.spectral
    lines.append("")
    lines.append(
        f"sigma_(n-1): {_display(s.sigma_second)}"
        + (f"  bound {s.bound}  [{'ok' if s.bound_passed else 'FAIL'}]" if s.bound is not None else "  (no bound applicable)")
    )
    lines.append(
        f"lambda_1: {_display(s.lambda_one)}  >= kappa_min = {s.kappa_min}"
        f"  [{'ok' if s.lichnerowicz_passed else 'FAIL'}]"
    )
    if r.witness is not None:
        w = r.witness
        lines.append("")
        lines.append(
            f"witness pipeline: {w.edges_checked} edges | regular {w.regular_pass}"
            f" | classes {w.class_count_pass} | bijection {w.bijection_pass}"
            f" | chains {w.chain_bound_pass} | pi0 {w.pi0_bound_pass}"
            f" | lower bound {w.lower_bound_pass}  [{'ok' if w.passed else 'FAIL'}]"
        )
    if r.dense_match is not None:
        m = r.dense_match
        lines.append(
            f"dense-matching certificate: kappa = {m.kappa} on "
            f"{m.edges_certified} edges  [{'ok' if m.passed else 'FAIL'}]"
        )
    if r.conference is not None:
        c = r.conference
        lines.append(
            f"conference graph (gamma={c.gamma}): conjectured kappa = {c.conjectured},"
            f" computed in [{c.computed_min}, {c.computed_max}] (not asserted)"
        )
    lines.append("")
    lines.append(f"verdict: {'PASS' if r.overall_pass else 'FAIL'}")
    return "\n".join(lines) + "\n"
