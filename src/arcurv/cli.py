"""Command-line surface: generation, parameter detection, curvature, verification."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import generators as gen
from . import witness as wit
from .curvature import curvature_all_edges, kappa_p_all_edges, lly_curvature, ollivier_kappa_p
from .graph import (
    AmplyViolation,
    Graph,
    GraphError,
    detect_amply_params,
    dump_edge_list,
    edge_list_order,
    load_edge_list,
)
from .report import render_text, report_to_dict, verify_graph
from .search import infeasibility_reason, search_amply
from .spectral import DEFAULT_SPECTRUM_CAP, adjacency_spectrum, check_spectrum_cap

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_INPUT = 2

# The most digits a --p text may have before any exponent, and the largest exponent
# magnitude; checked before the text is parsed.
_P_TEXT_BOUND = 1000

def _check_size_cap(n: int, cap: int) -> None:
    if n > cap:
        raise GraphError(f"graph size {n} exceeds size cap {cap}")


def _read_text(path: str) -> str:
    """The text of ``path``; "-" is stdin."""
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _read_graph(path: str, cap: int, check_cap=_check_size_cap) -> Graph:
    """The graph in ``path`` ("-" is stdin), refused by ``check_cap`` past ``cap`` unbuilt."""
    text = _read_text(path)
    check_cap(edge_list_order(text), cap)
    return load_edge_list(text)


def _gen_product(a: str, b: str, size_cap: int) -> Graph:
    """`gen product A B`: the product's vertex count, from the two headers, is checked
    against the cap before either factor is built; `gen_product` checks the edge bound."""
    texts = [_read_text(path) for path in (a, b)]
    _check_size_cap(edge_list_order(texts[0]) * edge_list_order(texts[1]), size_cap)
    return gen.gen_product(*map(load_edge_list, texts), size_cap=size_cap)


# family -> (argument count, generator); every generator takes ``size_cap``, and every
# family but `product`, whose arguments are edge-list files, takes integers.
_FAMILIES = {
    "hamming": (2, gen.gen_hamming),
    "hypercube": (1, gen.gen_hypercube),
    "paley": (1, gen.gen_paley),
    "shrikhande": (0, gen.gen_shrikhande),
    "clebsch": (0, gen.gen_clebsch),
    "cocktail": (1, gen.gen_cocktail),
    "complete": (1, gen.gen_complete),
    "cycle": (1, gen.gen_cycle),
    "product": (2, _gen_product),
}


def _edge(g: Graph, edge: list[int]) -> tuple[int, int]:
    """The ``--edge`` vertices, rejected unless both lie in 0..n-1."""
    for v in edge:
        if not 0 <= v < g.n:
            raise GraphError(f"--edge vertex {v} out of range for n={g.n}")
    u, v = edge
    return u, v


def _integer_argument(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer argument, got {text!r}") from None


def _cmd_gen(args) -> int:
    if args.family not in _FAMILIES:
        raise ValueError(f"unknown family {args.family!r}")
    arity, build = _FAMILIES[args.family]
    if len(args.args) != arity:
        raise ValueError(f"family {args.family!r} takes {arity} argument(s), got {len(args.args)}")
    values = args.args if build is _gen_product else list(map(_integer_argument, args.args))
    g = build(*values, size_cap=args.size_cap or gen.DEFAULT_SIZE_CAP)
    sys.stdout.write(dump_edge_list(g))
    return EXIT_OK


def _cmd_params(args) -> int:
    g = _read_graph(args.file, args.size_cap or gen.DEFAULT_SIZE_CAP)
    result = detect_amply_params(g)
    if isinstance(result, AmplyViolation):
        if args.format == "json":
            print(json.dumps({
                "violation": result.kind,
                "pair": list(result.pair),
                "found": result.found,
                "expected": result.expected,
            }))
        else:
            print(
                f"violation: {result.kind} at pair {result.pair} "
                f"(found {result.found}, expected {result.expected})"
            )
        return EXIT_INPUT
    if args.format == "json":
        print(json.dumps({
            "n": result.n, "d": result.d, "alpha": result.alpha,
            "beta": result.beta, "girth": result.girth,
        }))
    else:
        beta = "-" if result.beta is None else result.beta
        print(f"({result.n},{result.d},{result.alpha},{beta})")
    return EXIT_OK


def _idleness(text: str) -> Fraction:
    """The ``--p`` text as an exact fraction; past the digit or exponent bound it is not parsed.

    ``Fraction`` expands a decimal exponent into a full integer, so without
    the bound ``1e10000000`` would cost seconds before the [0, 1] check.
    """
    mantissa, _, exponent = text.lower().partition("e")
    exponent = "".join(filter(str.isdecimal, exponent)).lstrip("0")
    if (sum(map(str.isdecimal, mantissa)) > _P_TEXT_BOUND
            or len(exponent) > len(str(_P_TEXT_BOUND)) or int(exponent or 0) > _P_TEXT_BOUND):
        raise ValueError(f"idleness {text} has more than {_P_TEXT_BOUND} digits "
                         f"or an exponent of magnitude over {_P_TEXT_BOUND}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"idleness {text} has a zero denominator") from None


def _curvature_rows(g: Graph, args) -> list[tuple[int, int, Fraction]]:
    if args.all and g.n == 0:
        raise GraphError("empty graph")  # as params and verify say
    if args.p is not None:
        p = _idleness(args.p)
        if args.all:
            rows = kappa_p_all_edges(g, p)
            if not rows:
                raise GraphError("graph has no edges")  # as --all without --p says
            return rows
        u, v = _edge(g, args.edge)
        return [(u, v, ollivier_kappa_p(g, u, v, p))]
    if args.all:
        table = curvature_all_edges(g)
        return [(u, v, k) for u, v, k in table.rows]
    u, v = _edge(g, args.edge)
    return [(u, v, lly_curvature(g, u, v))]


def _cmd_curvature(args) -> int:
    if not args.all and args.edge is None:
        raise ValueError("pass --all or --edge u v")
    if args.all and args.edge is not None:
        raise ValueError("pass --all or --edge u v, not both")
    g = _read_graph(args.file, args.size_cap or gen.DEFAULT_SIZE_CAP)
    rows = _curvature_rows(g, args)
    if args.format == "json":
        print(json.dumps([
            {"u": u, "v": v, "kappa": str(k)} for u, v, k in rows
        ]))
    elif args.format == "csv":
        print("u,v,kappa")
        for u, v, k in rows:
            print(f"{u},{v},{k}")
    else:
        for u, v, k in rows:
            print(f"{u} {v} {k}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    cap = args.size_cap or DEFAULT_SPECTRUM_CAP
    g = _read_graph(args.file, cap, check_spectrum_cap)
    report = verify_graph(g, graph_id=args.file, spectrum_cap=cap)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), sort_keys=True))
    elif args.format == "csv":
        print("u,v,kappa,passed")
        for row in report.edges:
            print(f"{row.u},{row.v},{row.kappa},{row.passed}")
    else:
        sys.stdout.write(render_text(report))
    return EXIT_OK if report.overall_pass else EXIT_ASSERTION


def _hgraph_payload(g: Graph, x: int, y: int) -> dict:
    params = detect_amply_params(g)
    if isinstance(params, AmplyViolation):
        raise wit.WitnessError(f"graph is not amply regular: {params}")
    record = wit.edge_witness(g, x, y, params)
    for error in (record.walk_error, record.certify_error):
        if error is not None:
            raise wit.WitnessError(error)
    h, cert = record.h, record.certificate
    return {
        "edge": [x, y],
        "left": [h.left_name(i) for i in range(len(h.b.biadjacency))],
        "right": [h.right_name(i) for i in range(len(h.b.biadjacency))],
        "regular": record.irregular is None,
        "degree": h.beta - 1,
        "edge_classes": {
            str(i + 1): sorted([u, w] for u, w in cls)
            for i, cls in enumerate(h.edge_classes)
        },
        "matchings": [
            {
                "edges": [[u, w] for u, w in enumerate(m)],
                "chains": [{"v0": r.v0, "w0": r.w0, "rho": r.rho, "k": r.k} for r in records],
            }
            for m, records in zip(record.classes, record.class_records)
        ],
        "pi0_cost": str(cert.pi0_cost),
        "kappa_lower_bound": str(cert.kappa_lb),
        "kappa": str(cert.kappa),
    }


def _cmd_hgraph(args) -> int:
    g = _read_graph(args.file, args.size_cap or gen.DEFAULT_SIZE_CAP)
    x, y = _edge(g, args.edge)
    payload = _hgraph_payload(g, x, y)
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
        return EXIT_OK
    print(f"transport-bipartite graph of edge ({x},{y})")
    print("left:  " + " ".join(payload["left"]))
    print("right: " + " ".join(payload["right"]))
    print(f"regular: {payload['regular']} (degree {payload['degree']})")
    for name, edges in payload["edge_classes"].items():
        label = wit.CLASS_NAMES[int(name)]
        print(f"  E{name} ({label}): {edges}")
    for i, m in enumerate(payload["matchings"], start=1):
        print(f"matching {i}: {m['edges']}")
        for c in m["chains"]:
            print(f"  chain {c['v0']} -> {c['w0']}  rho={c['rho']} k={c['k']}")
    print(f"pi0 cost: {payload['pi0_cost']}")
    print(f"kappa lower bound: {payload['kappa_lower_bound']}  (exact {payload['kappa']})")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    cap = args.size_cap or DEFAULT_SPECTRUM_CAP
    g = _read_graph(args.file, cap, check_spectrum_cap)
    if g.n == 0:
        raise GraphError("empty graph")
    spec = adjacency_spectrum(g, cap=cap)
    if args.format == "json":
        print(json.dumps({
            "eigenvalues": list(spec.eigenvalues),
            "residual": spec.residual,
        }))
    else:
        for e in spec.eigenvalues:
            print(f"{e:.12g}")
        print(f"# residual {spec.residual:.3e}")
    return EXIT_OK


def _cmd_diameter(args) -> int:
    g = _read_graph(args.file, args.size_cap or gen.DEFAULT_SIZE_CAP)
    print(g.diameter())
    return EXIT_OK


def _search_beta(text: str) -> int | None:
    """The ``search`` beta argument: an integer, or 'none' or '-' for no distance-2 pair."""
    if text in ("none", "-"):
        return None
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, 'none' or '-', got {text!r}") from None


def _cmd_search(args) -> int:
    found = search_amply(args.n, args.d, args.alpha, args.beta)
    if found is None:
        print("none")
        reason = infeasibility_reason(args.n, args.d, args.alpha)
        if reason is not None:
            print(f"none: {reason}", file=sys.stderr)
        return EXIT_OK
    sys.stdout.write(dump_edge_list(found))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by every later one.

    Parsing reads the parser and never changes it, so repeated `main` calls
    in one process reuse it; importing this module builds nothing.
    """
    parser = argparse.ArgumentParser(
        prog="arcurv",
        description="Exact curvature, matching-witness, and spectral verification of amply regular graphs.",
    )
    parser.add_argument("--format", choices=["text", "json", "csv"], default="text")
    parser.add_argument(
        "--size-cap", type=int, default=0,
        help=f"vertex cap for gen and for every command that reads a graph file; 0 (the default) "
             f"means the command's own cap: {DEFAULT_SPECTRUM_CAP} for verify and spectrum, "
             f"{gen.DEFAULT_SIZE_CAP} otherwise",
    )
    # Each command names the formats it renders; `main` refuses any other.
    # `gen` and `search` print an edge list (or "none") in every format.
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a builtin family, or the product of two edge-list "
                                        "files (gen product A B), as an edge list")
    p_gen.add_argument("family")
    p_gen.add_argument("args", nargs="*")
    p_gen.set_defaults(func=_cmd_gen, formats=("text", "json", "csv"))

    p_params = sub.add_parser("params", help="detect amply-regular parameters")
    p_params.add_argument("file")
    p_params.set_defaults(func=_cmd_params, formats=("text", "json"))

    p_curv = sub.add_parser("curvature", help="exact edge curvature")
    p_curv.add_argument("file")
    p_curv.add_argument("--edge", nargs=2, type=int, metavar=("U", "V"))
    p_curv.add_argument("--all", action="store_true")
    p_curv.add_argument("--p", help="idleness as num/den; switches to p-idleness curvature")
    p_curv.set_defaults(func=_cmd_curvature, formats=("text", "json", "csv"))

    p_verify = sub.add_parser("verify", help="run the full verification report")
    p_verify.add_argument("file")
    p_verify.set_defaults(func=_cmd_verify, formats=("text", "json", "csv"))

    p_hgraph = sub.add_parser("hgraph", help="dump the transport-bipartite graph of an edge")
    p_hgraph.add_argument("file")
    p_hgraph.add_argument("--edge", nargs=2, type=int, metavar=("U", "V"), required=True)
    p_hgraph.set_defaults(func=_cmd_hgraph, formats=("text", "json"))

    p_spec = sub.add_parser("spectrum", help="adjacency eigenvalues")
    p_spec.add_argument("file")
    p_spec.set_defaults(func=_cmd_spectrum, formats=("text", "json"))

    p_diam = sub.add_parser("diameter", help="graph diameter")
    p_diam.add_argument("file")
    p_diam.set_defaults(func=_cmd_diameter, formats=("text",))

    p_search = sub.add_parser("search", help="exhaustive search for an amply regular instance")
    p_search.add_argument("n", type=int)
    p_search.add_argument("d", type=int)
    p_search.add_argument("alpha", type=int)
    p_search.add_argument("beta", type=_search_beta, help="integer, or 'none' for no distance-2 pair")
    p_search.set_defaults(func=_cmd_search, formats=("text", "json", "csv"))

    return parser


def main(argv=None) -> int:
    """Run one command; every refused input is one ``error:`` line on stderr and exit 2.

    Every arcurv error subclasses ``ValueError``, so the one clause covers them all.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.format not in args.formats:
            raise ValueError(f"{args.command} does not render --format {args.format}; "
                             f"it renders {', '.join(args.formats)}")
        if args.size_cap < 0:
            raise ValueError(f"--size-cap must be nonnegative, got {args.size_cap}")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
