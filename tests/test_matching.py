import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arcurv.matching as matching_module
from arcurv import (
    Bipartite,
    MatchingError,
    dense_perfect_matching,
    detect_amply_params,
    gen_cocktail,
    gen_hamming,
    gen_paley,
    konig_decomposition,
)
from arcurv.matching import dense_perfect_matchings, konig_stack, perfect_matchings
from arcurv.witness import edge_witness, witness_batches

from conftest import bipartite_edges, bipartite_from_edges, is_perfect


def complete_bipartite(n: int) -> Bipartite:
    return bipartite_from_edges(n, n, [(u, w) for u in range(n) for w in range(n)])


def hopcroft_karp_pairs(b: Bipartite) -> dict[int, int]:
    """The matched pairs of the Hopcroft-Karp call on ``b`` alone, left -> right."""
    found = matching_module._hopcroft_karp(b.biadjacency[None])
    return {u: int(w) for u, w in enumerate(found) if w >= 0}


def faulty_hopcroft_karp(monkeypatch, fault):
    """Pass every Hopcroft-Karp result, as (m, s) global columns, through ``fault``."""
    original = matching_module._hopcroft_karp

    def faulty(h):
        found = original(h).reshape(h.shape[:2])
        return np.asarray(fault(found)).ravel()

    monkeypatch.setattr(matching_module, "_hopcroft_karp", faulty)


def count_hopcroft_karp(monkeypatch) -> list:
    """Record the stack shape of every Hopcroft-Karp call from now on."""
    calls, original = [], matching_module._hopcroft_karp
    monkeypatch.setattr(matching_module, "_hopcroft_karp",
                        lambda h: calls.append(h.shape) or original(h))
    return calls


def class_through(b: Bipartite, u: int, w: int):
    """The Konig class of ``b`` that matches left u to right w, by a scan, or None."""
    return next((m for m in konig_decomposition(b) if m[u] == w), None)


def bipartite_cycle(length: int) -> Bipartite:
    # alternating cycle on length/2 + length/2 vertices
    assert length % 2 == 0
    n = length // 2
    return bipartite_from_edges(n, n, [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)])


class TestBipartite:
    @pytest.mark.parametrize("biadjacency", [np.ones(3, dtype=bool), np.ones((2, 2), dtype=int),
                                             [[True]]], ids=["1-d", "int", "list"])
    def test_refuses_all_but_a_2d_boolean_array(self, biadjacency):
        with pytest.raises(MatchingError, match="biadjacency must be a 2-D boolean ndarray"):
            Bipartite(biadjacency)


class TestMaxMatching:
    """The Hopcroft-Karp call finds a maximum matching."""

    def test_k33(self):
        assert len(hopcroft_karp_pairs(complete_bipartite(3))) == 3

    def test_shared_single_neighbor(self):
        b = bipartite_from_edges(2, 1, [(0, 0), (1, 0)])
        assert len(hopcroft_karp_pairs(b)) == 1

    def test_six_cycle(self):
        assert len(hopcroft_karp_pairs(bipartite_cycle(6))) == 3

    def test_transport_bipartite_always_matchable(self):
        g = gen_cocktail(3)
        params = detect_amply_params(g)
        b = edge_witness(g, 0, 2, params).h.b
        partners, errors = perfect_matchings(b.biadjacency[None])
        assert errors == [None]
        assert is_perfect(tuple(partners[0].tolist()), b)

    def test_no_augmenting_path_on_random_instances(self):
        # maximality: the matching is as large as networkx's maximum matching
        for seed in range(30):
            rng = random.Random(seed)
            ln = rng.randint(1, 12)
            rn = rng.randint(1, 12)
            edges = {
                (rng.randrange(ln), rng.randrange(rn))
                for _ in range(rng.randint(0, ln * rn))
            }
            b = bipartite_from_edges(ln, rn, edges)
            pairs = hopcroft_karp_pairs(b)
            assert len(set(pairs.values())) == len(pairs)
            assert all(b.biadjacency[u, w] for u, w in pairs.items())
            # checked against networkx's independent implementation
            h = nx.Graph()
            h.add_nodes_from(("L", u) for u in range(ln))
            h.add_nodes_from(("R", w) for w in range(rn))
            h.add_edges_from((("L", u), ("R", w)) for u, w in bipartite_edges(b))
            ref = nx.bipartite.maximum_matching(h, top_nodes=[("L", u) for u in range(ln)])
            assert len(pairs) == len(ref) // 2


class TestPerfectMatchings:
    """One call matches a whole stack; each graph's result is checked on its own."""

    def test_requires_equal_sides(self):
        with pytest.raises(MatchingError, match="equal side sizes"):
            perfect_matchings(np.ones((2, 2, 3), dtype=bool))

    def test_empty_stack_and_empty_sides(self):
        partners, errors = perfect_matchings(np.ones((0, 3, 3), dtype=bool))
        assert partners.shape == (0, 3) and errors == []
        partners, errors = perfect_matchings(np.ones((2, 0, 0), dtype=bool))
        assert partners.shape == (2, 0) and errors == [None, None]

    def test_one_call_per_stack(self, monkeypatch):
        calls = count_hopcroft_karp(monkeypatch)
        stack = np.stack([complete_bipartite(4).biadjacency, bipartite_cycle(8).biadjacency])
        partners, errors = perfect_matchings(stack)
        assert calls == [(2, 4, 4)] and errors == [None, None]
        assert is_perfect(tuple(partners[1].tolist()), bipartite_cycle(8))

    def test_a_graph_without_a_perfect_matching_is_named_and_the_others_go_on(self):
        # graph 1's left vertices 0 and 1 share their one neighbour 0
        lonely = bipartite_from_edges(3, 3, [(0, 0), (1, 0), (2, 1), (2, 2)])
        graphs = [bipartite_cycle(6), lonely, complete_bipartite(3)]
        alone = [perfect_matchings(b.biadjacency[None]) for b in graphs]
        partners, errors = perfect_matchings(np.stack([b.biadjacency for b in graphs]))
        assert errors[1] == "internal error: left vertex 1 has no partner"
        for i in (0, 2):
            assert errors[i] is None and alone[i][1] == [None]
            assert partners[i].tolist() == alone[i][0][0].tolist()
            assert is_perfect(tuple(partners[i].tolist()), graphs[i])

    def test_a_partner_in_another_graphs_block_is_refused(self, monkeypatch):
        graphs = [bipartite_cycle(8), complete_bipartite(4)]
        alone = [perfect_matchings(b.biadjacency[None])[0][0].tolist() for b in graphs]

        def borrow(found):
            if len(found) > 1:
                found[0, 0] = found[1, 0]  # graph 0's left vertex 0 takes graph 1's partner
            return found

        faulty_hopcroft_karp(monkeypatch, borrow)
        partners, errors = perfect_matchings(np.stack([b.biadjacency for b in graphs]))
        assert errors == ["internal error: left vertex 0 is matched outside its own graph", None]
        assert partners[1].tolist() == alone[1]


class TestKonigDecomposition:
    def test_k33(self):
        classes = konig_decomposition(complete_bipartite(3))
        assert len(classes) == 3

    def test_eight_cycle(self):
        classes = konig_decomposition(bipartite_cycle(8))
        assert len(classes) == 2

    def test_octahedron_transport_graph(self):
        g = gen_cocktail(3)
        h = edge_witness(g, 0, 2, detect_amply_params(g)).h
        classes = konig_decomposition(h.b)
        assert len(classes) == 3  # beta - 1

    def test_rejects_irregular(self):
        b = bipartite_from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        with pytest.raises(MatchingError):
            konig_decomposition(b)

    def test_partition_invariants(self):
        for n in (2, 3, 4, 5):
            b = complete_bipartite(n)
            classes = konig_decomposition(b)
            union = set()
            for m in classes:
                assert is_perfect(m, b)
                assert not (set(enumerate(m)) & union)
                union |= set(enumerate(m))
            assert union == set(bipartite_edges(b))

    def test_deterministic(self):
        # two equal but distinct objects, so the two decompositions are two runs, not one kept
        b, c = bipartite_cycle(10), bipartite_cycle(10)
        assert np.array_equal(b.biadjacency, c.biadjacency) and b is not c
        first, second = konig_decomposition(b), konig_decomposition(c)
        assert first is not second
        assert first == second

    def test_classes_are_read_only(self):
        b = bipartite_cycle(8)
        classes = konig_decomposition(b)
        assert all(type(m) is tuple for m in classes)
        original = list(classes)
        with pytest.raises(TypeError):
            classes[0][0] = 1
        with pytest.raises(TypeError):
            del classes[0][0]
        assert list(classes) == original

    def test_matching_copies_the_mapping_it_is_given(self, monkeypatch):
        # each class copies the array the Hopcroft-Karp call returns, so changing that array
        # later changes no class
        found = []
        original = matching_module._hopcroft_karp
        monkeypatch.setattr(matching_module, "_hopcroft_karp",
                            lambda h: found.append(original(h)) or found[-1])
        classes = konig_decomposition(bipartite_cycle(8))
        original_rows = [tuple(m.tolist()) for m in found]
        for m in found:
            m[0] = -1
        assert list(classes) == original_rows


def reference_konig(b: Bipartite) -> tuple[tuple[int, ...], ...]:
    """Konig classes by a plain Kuhn search, checked once after the last round.

    Kuhn's search takes a fresh visited list per left vertex and scans left
    vertices and neighbor lists in ascending order; the end-of-run check
    asserts that the classes are perfect, pairwise edge-disjoint and cover
    exactly the edge set.
    """
    n = len(b.biadjacency)
    adj = [np.flatnonzero(row).tolist() for row in b.biadjacency]
    classes = []
    for _ in range(len(adj[0])):
        match_r = [-1] * n
        match_l = [-1] * n

        def try_augment(u, visited):
            for w in adj[u]:
                if visited[w]:
                    continue
                visited[w] = True
                if match_r[w] < 0 or try_augment(match_r[w], visited):
                    match_r[w] = u
                    match_l[u] = w
                    return True
            return False

        for u in range(n):
            try_augment(u, [False] * n)
        for u, w in enumerate(match_l):
            adj[u].remove(w)
        classes.append(tuple(match_l))
    edges = set(bipartite_edges(b))
    seen = set()
    for c in classes:
        assert sorted(c) == list(range(n))
        assert not set(enumerate(c)) & seen and set(enumerate(c)) <= edges
        seen |= set(enumerate(c))
    assert seen == edges
    return tuple(classes)


def random_regular_bipartite(rng: random.Random, n: int, k: int) -> Bipartite:
    """Union of k edge-disjoint random permutations of range(n).

    Each permutation picks, row by row in random order, a random unused
    column that shares no edge with the earlier ones, and starts over when a
    row has no such column.
    """
    edges: set[tuple[int, int]] = set()
    for _ in range(k):
        while True:
            free, perm = set(range(n)), {}
            for u in rng.sample(range(n), n):
                options = sorted(w for w in free if (u, w) not in edges)
                if not options:
                    break
                perm[u] = rng.choice(options)
                free.discard(perm[u])
            else:
                edges.update(perm.items())
                break
    return bipartite_from_edges(n, n, edges)


def witness_bipartites(g):
    """Each edge's H from one batched witness pass, decomposed there."""
    batches = witness_batches(g, g.edges(), detect_amply_params(g))
    return [b for batch in batches for b in batch.bipartites]


def assert_konig(b: Bipartite, classes) -> None:
    """``classes`` are a Konig decomposition of the k-regular ``b``, checked from scratch.

    There are k of them, each a perfect matching of ``b`` by its edges; no two
    share an edge, and together they cover every edge. ``reference_konig``
    must decompose ``b`` too.
    """
    edges = set(bipartite_edges(b))
    k = int(b.biadjacency[0].sum())
    assert len(classes) == k
    seen: set[tuple[int, int]] = set()
    for m in classes:
        pairs = set(enumerate(m))
        assert is_perfect(m, b) and pairs <= edges
        assert not pairs & seen
        seen |= pairs
    assert seen == edges
    assert len(reference_konig(b)) == k


WITNESS_GRAPHS = pytest.mark.parametrize(
    "make",
    [lambda: gen_hamming(3, 3), lambda: gen_paley(13), lambda: gen_paley(29),
     lambda: gen_cocktail(3), lambda: gen_cocktail(8)],
    ids=["h33", "paley13", "paley29", "cocktail3", "cocktail8"],
)


class TestKonigOrder:
    """``konig_decomposition`` gives k perfect matchings that partition H's edges."""

    def test_random_regular_bipartite_graphs(self):
        rng = random.Random(20261018)
        for case in range(100):
            k = 1 + case % 8
            b = random_regular_bipartite(rng, rng.randint(2 * k, 2 * k + 6), k)
            assert_konig(b, konig_decomposition(b))

    @WITNESS_GRAPHS
    def test_every_witness_edge(self, make):
        for b in witness_bipartites(make()):
            assert_konig(b, konig_decomposition(b))


class TestKonigStack:
    """A stack decomposes as each of its graphs does alone."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 6), n=st.integers(1, 9))
    def test_a_stack_equals_each_graph_alone_in_any_order(self, seed, count, n):
        rng = random.Random(seed)
        graphs = [random_regular_bipartite(rng, n, rng.randint(1, n)) for _ in range(count)]
        stack = np.stack([b.biadjacency for b in graphs])
        alone = [konig_stack(h[None])[0] for h in stack]
        for b, classes in zip(graphs, alone):
            assert_konig(b, classes)
        order = list(range(count))
        rng.shuffle(order)
        assert konig_stack(stack[order]) == [alone[i] for i in order]

    @WITNESS_GRAPHS
    def test_every_witness_chunk_equals_its_graphs_alone(self, make):
        for b in witness_bipartites(make()):
            assert konig_decomposition(b) == konig_stack(b.biadjacency[None])[0]

    def test_an_irregular_graph_is_refused_alone(self):
        irregular = bipartite_from_edges(2, 2, [(0, 0), (0, 1), (1, 0)])
        graphs = [bipartite_cycle(4), irregular]
        results = konig_stack(np.stack([b.biadjacency for b in graphs]))
        assert results[0] == konig_decomposition(bipartite_cycle(4))
        assert results[1] == "konig_decomposition requires a k-regular bipartite graph, k >= 1"

    def test_a_graph_that_fails_a_round_drops_out_and_the_others_go_on(self, monkeypatch):
        # graph 1 loses its second round's partner of left vertex 0; graphs 0 and 2 go on
        graphs = [complete_bipartite(4), bipartite_cycle(8), complete_bipartite(4)]
        alone = [konig_decomposition(b) for b in graphs]
        rounds = []

        def second_round_of_graph_1(found):
            rounds.append(len(found))
            if len(rounds) == 2:
                found[1, 0] = -1
            return found

        faulty_hopcroft_karp(monkeypatch, second_round_of_graph_1)
        results = konig_stack(np.stack([b.biadjacency for b in graphs]))
        assert results[1] == "internal error: left vertex 0 has no partner"
        assert rounds == [3, 3, 2, 2]
        assert [results[0], results[2]] == [alone[0], alone[2]]


class TestKonigRoundChecks:
    """A faulty Hopcroft-Karp round raises an internal MatchingError when it is made."""

    @staticmethod
    def _fresh_cycle8() -> Bipartite:
        """C8 as a new Bipartite with no decomposition kept, so the faulty round runs on it."""
        b = bipartite_cycle(8)  # edges (i, i) and (i, i+1 mod 4)
        assert b.konig is None
        return b

    @pytest.mark.parametrize(
        "fault",
        [
            lambda m: np.concatenate([m[:, 1:2], m[:, 1:]], axis=1),  # right vertex m[1] twice
            lambda m: m[:, ::-1],  # a permutation, but (0, 3) or (0, 2) is not an edge
            lambda m: np.concatenate([[[-1]] * len(m), m[:, 1:]], axis=1),  # left 0 unmatched
            lambda m: m[:, :-1],  # left vertex n-1 missing
        ],
        ids=["repeated-right", "non-edge", "unmatched", "short"],
    )
    def test_faulty_round_raises(self, monkeypatch, fault):
        faulty_hopcroft_karp(monkeypatch, fault)
        with pytest.raises(MatchingError, match="internal error"):
            konig_decomposition(self._fresh_cycle8())

    def test_edge_of_an_earlier_class_raises(self, monkeypatch):
        first = konig_decomposition(bipartite_cycle(8))[0]
        faulty_hopcroft_karp(monkeypatch, lambda m: np.array([first]))
        with pytest.raises(MatchingError, match="internal error: matched pair .* is not an edge"):
            konig_decomposition(self._fresh_cycle8())

    def test_edges_left_over_after_the_last_round_raise(self, monkeypatch):
        # a stand-in matching that passes its non-edges (0, 3) and (2, 1) off as edges: the
        # two rounds remove only (1, 2) and (3, 0), and the edges left over are refused
        monkeypatch.setattr(matching_module, "perfect_matchings",
                            lambda h: (np.tile([3, 2, 1, 0], (len(h), 1)), [None] * len(h)))
        with pytest.raises(MatchingError, match="internal error: leftover edges"):
            konig_decomposition(self._fresh_cycle8())

    def test_a_decomposition_that_raises_is_not_kept(self, monkeypatch):
        faulty_hopcroft_karp(monkeypatch, lambda m: np.concatenate([[[-1]], m[:, 1:]], axis=1))
        calls = count_hopcroft_karp(monkeypatch)
        b = self._fresh_cycle8()
        for attempt in (1, 2):
            with pytest.raises(MatchingError, match="internal error"):
                konig_decomposition(b)
            assert len(calls) == attempt  # the second call searched again
        assert b.konig is None

    def test_a_kept_failure_is_raised_again_without_a_search(self, monkeypatch):
        calls = count_hopcroft_karp(monkeypatch)
        message = "internal error: left vertex 0 has no partner"
        b = Bipartite(bipartite_cycle(8).biadjacency, message)
        for _ in (1, 2):
            with pytest.raises(MatchingError, match=message):
                konig_decomposition(b)
        assert calls == []


class TestMatchingThroughEdge:
    """The perfect matching through an edge is the Konig class that holds it, found by a scan."""

    def test_k22(self):
        assert class_through(complete_bipartite(2), 0, 1) == (1, 0)

    def test_six_cycle_alternating_class(self):
        b = bipartite_cycle(6)
        m = class_through(b, 1, 2)
        assert m[1] == 2
        assert is_perfect(m, b)

    def test_every_edge_of_regular_graphs(self):
        # the classes partition the edges: exactly one class holds each edge
        for b in (complete_bipartite(4), bipartite_cycle(12)):
            for u, w in bipartite_edges(b):
                assert sum(m[u] == w for m in konig_decomposition(b)) == 1
                m = class_through(b, u, w)
                assert m[u] == w and is_perfect(m, b)

    def test_h23_transport_graph_is_its_own_matching(self):
        g = gen_hamming(2, 3)
        h = edge_witness(g, 0, 1, detect_amply_params(g)).h
        b = h.b
        assert set(b.biadjacency.sum(axis=1).tolist()) == {1} and len(konig_decomposition(b)) == 1
        m = class_through(b, *h.z1_edge())
        assert set(enumerate(m)) == set(bipartite_edges(b))

    def test_non_edge_rejected(self):
        assert class_through(bipartite_cycle(6), 0, 2) is None

    def test_two_pinned_calls_share_one_decomposition(self, monkeypatch):
        # the two calls the witness pipeline makes on one H, for its walks and for its
        # certificate: Hopcroft-Karp runs beta - 1 = 2 times, once per class, not once per
        # class per call, and every later read returns the classes kept on H.
        g = gen_paley(13)  # (13, 6, 2, 3)
        calls = count_hopcroft_karp(monkeypatch)
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        classes = konig_decomposition(w.h.b)
        assert classes is w.classes is w.h.b.konig
        assert all(type(m) is tuple for m in classes)
        m = class_through(w.h.b, *w.h.z1_edge())
        assert len(calls) == len(classes) == 2
        assert any(m is c for c in classes)


class TestDensePerfectMatching:
    def test_k22(self):
        b = complete_bipartite(2)
        assert is_perfect(dense_perfect_matching(b), b)

    def test_two_four_cycles(self):
        b = bipartite_from_edges(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        )
        assert is_perfect(dense_perfect_matching(b), b)

    def test_min_degree_counts_both_sides(self):
        # every left vertex has degree 2, but right vertex 2 has degree 0
        b = bipartite_from_edges(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)])
        with pytest.raises(MatchingError, match="min degree 0 below n/2 = 3/2"):
            dense_perfect_matching(b)
        assert is_perfect(dense_perfect_matching(complete_bipartite(3)), complete_bipartite(3))
        assert dense_perfect_matchings(np.stack([b.biadjacency, b.biadjacency.T])) == [
            "min degree 0 below n/2 = 3/2"] * 2

    def test_degree_precondition(self):
        b = bipartite_from_edges(4, 4, [(i, i) for i in range(4)])
        with pytest.raises(MatchingError, match="min degree"):
            dense_perfect_matching(b)

    def test_empty_graph(self):
        assert dense_perfect_matching(bipartite_from_edges(0, 0, [])) == ()

    def test_requires_equal_sides(self):
        with pytest.raises(MatchingError, match="equal side sizes"):
            dense_perfect_matching(bipartite_from_edges(2, 3, [(0, 0), (1, 1)]))

    def test_a_stack_is_matched_in_one_call_past_its_sparse_graphs(self, monkeypatch):
        sparse = bipartite_from_edges(4, 4, [(i, i) for i in range(4)])
        graphs = [complete_bipartite(4), sparse, bipartite_cycle(8)]
        calls = count_hopcroft_karp(monkeypatch)
        results = dense_perfect_matchings(np.stack([b.biadjacency for b in graphs]))
        assert calls == [(2, 4, 4)]
        assert results[1] == "min degree 1 below n/2 = 4/2"
        assert [results[0], results[2]] == [dense_perfect_matching(graphs[0]),
                                            dense_perfect_matching(graphs[2])]
        assert is_perfect(results[0], graphs[0]) and is_perfect(results[2], graphs[2])

    @pytest.mark.parametrize(
        "fault",
        [
            lambda m: np.concatenate([m[:, 1:2], m[:, 1:]], axis=1),  # right vertex m[1] twice
            lambda m: (m + 2) % 4,  # a permutation, but (0, 2) is not an edge
            lambda m: np.concatenate([[[-1]], m[:, 1:]], axis=1),  # left vertex 0 unmatched
            lambda m: m[:, :-1],  # left vertex n-1 missing
        ],
        ids=["repeated-right", "non-edge", "unmatched", "short"],
    )
    def test_faulty_kuhn_result_raises(self, monkeypatch, fault):
        # two 4-cycles: left {0, 1} ~ right {0, 1} and left {2, 3} ~ right {2, 3}; each
        # fault corrupts the Hopcroft-Karp result before its checks
        b = bipartite_from_edges(4, 4, [(u, w) for u in range(4) for w in range(4)
                                        if u // 2 == w // 2])
        faulty_hopcroft_karp(monkeypatch, fault)
        with pytest.raises(MatchingError, match="internal error"):
            dense_perfect_matching(b)
