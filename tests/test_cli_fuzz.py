"""Property tests of the CLI's input contract, run in-process through ``main``.

Every command, fed a malformed or extreme edge list or argument, exits 0, 1
or 2, prints no traceback, gives a reason when it exits 2, and returns
within a wall bound. Headers past every default cap are refused before a
graph is built; graphs that are built stay small, so the bound holds.
"""

import contextlib
import io
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurv import Graph, gen_cocktail, gen_complete, gen_hamming, gen_hypercube, gen_paley
from arcurv.cli import EXIT_ASSERTION, EXIT_INPUT, EXIT_OK, main

WALL_BOUND_S = 2.0
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)
FILE_COMMANDS = ["params", "curvature", "verify", "hgraph", "spectrum", "diameter"]

HUGE = st.one_of(st.integers(100_001, 10**30), st.just(10**100))  # past every default cap
CAPS = st.sampled_from([[], [], [], ["--size-cap", "0"], ["--size-cap", "-1"],
                        ["--size-cap", "-100000"], ["--size-cap", "3"]])
FORMATS = st.sampled_from([[], [], ["--format", "json"], ["--format", "csv"]])
IDLENESS = st.sampled_from(["nan", "1e999", "1/0", "-0", "0", "1/2", "1", "3/2", "-1/3", "inf",
                            "x", "1/3", "1e10000000", "1e-10000000"])
VERTEX = st.one_of(st.integers(0, 3), st.integers(0, 8), st.integers(-3, 10), HUGE,
                   st.integers(-(10**30), -4))


def call(argv: list[str]) -> tuple[int, str, str, float]:
    """``main(argv)``'s exit code, stdout, stderr and wall time; argparse's exit counts."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start


def check_contract(argv: list[str]) -> tuple[int, str, str]:
    """``main(argv)``'s exit code, stdout and stderr, asserted to keep the input contract."""
    code, out, err, seconds = call(argv)
    assert code in (EXIT_OK, EXIT_ASSERTION, EXIT_INPUT), (argv, code)
    assert "Traceback" not in out + err, argv
    assert code != EXIT_INPUT or (out + err).strip(), f"{argv}: exit 2 without a reason"
    assert seconds < WALL_BOUND_S, f"{argv}: {seconds:.2f} s"
    return code, out, err


# Small graphs that reach the solvers: amply regular ones in each regime, and a path.
SMALL_GRAPHS = [gen_hamming(2, 3), gen_cocktail(3), gen_hypercube(3), gen_paley(5), gen_complete(4),
                Graph(4, [(0, 1), (1, 2), (2, 3)])]


@st.composite
def edge_list(draw) -> tuple[bytes, list[tuple[int, int]]]:
    """An edge list from the "n m" / "u v" grammar, each of its parts broken now and then.

    Returns the file's bytes and the pairs it lists, so that ``--edge`` can pick one.
    """
    if draw(st.booleans()):
        g = draw(st.sampled_from(SMALL_GRAPHS))
        n, pairs = g.n, g.edges()
    else:
        n = draw(st.integers(1, 8))
        pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] != e[1]), max_size=12))
    sometimes = st.integers(0, 3).map(lambda k: k == 3)  # true about one time in four
    if pairs and draw(sometimes):
        pairs = pairs[:-1]
    if draw(sometimes):  # a loop, an out-of-range end or a repeat, often
        pairs = pairs + [draw(st.tuples(st.integers(-2, n + 1), st.integers(-2, n + 1)))]
    lines = [f"{u} {v}" for u, v in pairs]
    if draw(sometimes):
        line = draw(st.one_of(st.just("# comment"), st.just(""),
                              st.text(alphabet="0123456789 -#x.\t", max_size=8)))
        lines.insert(draw(st.integers(0, len(lines))), line)
    header = f"{n} {len(pairs)}"
    if draw(sometimes):
        header = draw(st.one_of(
            st.integers(0, 20).map(lambda m: f"{n} {m}"),
            HUGE.map(lambda big: f"{big} {len(pairs)}"),
            st.integers(-(10**6), -1).map(lambda neg: f"{neg} {len(pairs)}"),
            st.sampled_from(["3.5 1", "x 1", "1e3 0", "3", "3 1 1", "0x10 2", ""]),
        ))
    data = "\n".join([header] + lines).encode()
    if draw(sometimes):  # bytes that are not UTF-8
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xfe\xfe", b"\x80", b"\xc3("]))
        data = data[:at] + bad + data[at:]
    return data, pairs


@st.composite
def options(draw, command: str, pairs, caps=CAPS, formats=FORMATS) -> list[str]:
    """``command``'s argv around the placeholder FILE; ``--edge`` is often one of ``pairs``."""
    vertices = st.tuples(VERTEX, VERTEX)
    edge = draw(st.one_of(vertices, st.sampled_from(pairs)) if pairs else vertices)
    rest: list[str] = []
    if command == "curvature":
        rest = draw(st.sampled_from([["--all"], ["--edge", *map(str, edge)]]))
        if draw(st.booleans()):
            rest.append(f"--p={draw(IDLENESS)}")  # attached, so argparse takes "-1/3" as a value
    elif command == "hgraph":
        rest = ["--edge", *map(str, edge)]
    return draw(caps) + draw(formats) + [command, "FILE"] + rest


@pytest.fixture(scope="module")
def graph_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


def on_file(argv: list[str], path) -> list[str]:
    return [str(path) if a == "FILE" else a for a in argv]


@pytest.mark.parametrize("command", FILE_COMMANDS)
@SETTINGS
@given(case=st.data())
def test_file_commands_keep_the_input_contract(graph_path, command, case):
    data, pairs = case.draw(edge_list())
    graph_path.write_bytes(data)
    check_contract(on_file(case.draw(options(command, pairs)), graph_path))


@pytest.mark.parametrize("command", FILE_COMMANDS)
@SETTINGS
@given(n=HUGE, case=st.data())
def test_huge_header_exits_2_before_the_graph_is_built(graph_path, command, n, case):
    def no_build(text):
        raise AssertionError("graph built past the size cap")

    graph_path.write_text(f"{n} 1\n0 1\n")
    caps = st.sampled_from([[], ["--size-cap", "0"], ["--size-cap", "3"]])
    argv = case.draw(options(command, [(0, 1)], caps=caps, formats=st.just([])))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("arcurv.cli.load_edge_list", no_build)
        code, out, err = check_contract(on_file(argv, graph_path))
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith(f"error: graph size {n} exceeds ") and " cap " in err, err


ARGUMENT = st.one_of(st.integers(-3, 5), HUGE, st.integers(-(10**30), -4)).map(str)


@SETTINGS
@given(
    prefix=st.tuples(CAPS, FORMATS).map(lambda t: t[0] + t[1]),
    family=st.sampled_from(["hamming", "hypercube", "paley", "shrikhande", "clebsch", "cocktail",
                            "complete", "cycle", "product", "moebius"]),
    args=st.lists(ARGUMENT, max_size=3),
)
def test_gen_keeps_the_input_contract(prefix, family, args):
    check_contract(prefix + ["gen", family] + args)


@SETTINGS
@given(
    prefix=st.tuples(CAPS, FORMATS).map(lambda t: t[0] + t[1]),
    params=st.lists(st.integers(-2, 8).map(str), min_size=3, max_size=3),
    beta=st.one_of(st.integers(-2, 8).map(str), st.sampled_from(["none", "-", "foo", "1.5"])),
)
def test_search_keeps_the_input_contract(prefix, params, beta):
    check_contract(prefix + ["search"] + params + [beta])
