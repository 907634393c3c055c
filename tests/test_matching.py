import random

import pytest

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
from arcurv.matching import _kuhn
from arcurv.witness import edge_witness, witness_batches

from conftest import bipartite_edges, bipartite_from_edges, is_perfect
from reference_witness import build_transport_bipartite


def complete_bipartite(n: int) -> Bipartite:
    return bipartite_from_edges(n, n, [(u, w) for u in range(n) for w in range(n)])


def kuhn_pairs(b: Bipartite) -> dict[int, int]:
    """The matched pairs of Kuhn's search on ``b``, left -> right."""
    return {u: w for u, w in enumerate(_kuhn(b.adj, b.right_n)) if w >= 0}


def class_through(b: Bipartite, u: int, w: int):
    """The Konig class of ``b`` that matches left u to right w, by a scan, or None."""
    return next((m for m in konig_decomposition(b) if m[u] == w), None)


def bipartite_cycle(length: int) -> Bipartite:
    # alternating cycle on length/2 + length/2 vertices
    assert length % 2 == 0
    n = length // 2
    return bipartite_from_edges(n, n, [(i, i) for i in range(n)] + [(i, (i + 1) % n) for i in range(n)])


class TestMaxMatching:
    """Kuhn's search finds a maximum matching."""

    def test_k33(self):
        assert len(kuhn_pairs(complete_bipartite(3))) == 3

    def test_shared_single_neighbor(self):
        b = bipartite_from_edges(2, 1, [(0, 0), (1, 0)])
        assert len(kuhn_pairs(b)) == 1

    def test_six_cycle(self):
        assert len(kuhn_pairs(bipartite_cycle(6))) == 3

    def test_transport_bipartite_always_matchable(self):
        g = gen_cocktail(3)
        params = detect_amply_params(g)
        b = edge_witness(g, 0, 2, params).h.b
        assert is_perfect(tuple(_kuhn(b.adj, b.right_n)), b)

    def test_no_augmenting_path_on_random_instances(self):
        # maximality: Kuhn's matching is as large as networkx's maximum matching
        for seed in range(30):
            rng = random.Random(seed)
            ln = rng.randint(1, 12)
            rn = rng.randint(1, 12)
            edges = {
                (rng.randrange(ln), rng.randrange(rn))
                for _ in range(rng.randint(0, ln * rn))
            }
            b = bipartite_from_edges(ln, rn, edges)
            pairs = kuhn_pairs(b)
            assert len(set(pairs.values())) == len(pairs)
            assert all(w in b.adj[u] for u, w in pairs.items())
            # checked against networkx's independent implementation
            import networkx as nx

            h = nx.Graph()
            h.add_nodes_from(("L", u) for u in range(ln))
            h.add_nodes_from(("R", w) for w in range(rn))
            h.add_edges_from((("L", u), ("R", w)) for u, w in bipartite_edges(b))
            ref = nx.bipartite.maximum_matching(h, top_nodes=[("L", u) for u in range(ln)])
            assert len(pairs) == len(ref) // 2


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
        assert b == c and b is not c
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
        assert konig_decomposition(b) is classes and list(classes) == original

    def test_matching_copies_the_mapping_it_is_given(self, monkeypatch):
        # each class copies the list Kuhn's search returns, so changing that list later
        # changes no class
        found = []
        kuhn = matching_module._kuhn
        monkeypatch.setattr(matching_module, "_kuhn",
                            lambda adj, n: found.append(kuhn(adj, n)) or found[-1])
        classes = konig_decomposition(bipartite_cycle(8))
        original = [tuple(m) for m in found]
        for m in found:
            m[0] = -1
        assert list(classes) == original


def reference_konig(b: Bipartite) -> tuple[tuple[int, ...], ...]:
    """Konig classes by a plain Kuhn search, checked once after the last round.

    Kuhn's search takes a fresh visited list per left vertex and scans left
    vertices and neighbor lists in ascending order; the end-of-run check
    asserts that the classes are perfect, pairwise edge-disjoint and cover
    exactly the edge set.
    """
    n = b.left_n
    adj = [sorted(nbrs) for nbrs in b.adj]
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
    edges = {(u, w) for u in range(n) for w in b.adj[u]}
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


class TestKonigOrder:
    """``konig_decomposition`` gives the reference classes, in the same order."""

    def test_random_regular_bipartite_graphs(self):
        rng = random.Random(20261018)
        for case in range(100):
            k = 1 + case % 8
            b = random_regular_bipartite(rng, rng.randint(2 * k, 2 * k + 6), k)
            assert konig_decomposition(b) == reference_konig(b)

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_hamming(3, 3), lambda: gen_paley(13), lambda: gen_paley(29),
         lambda: gen_cocktail(3), lambda: gen_cocktail(8)],
        ids=["h33", "paley13", "paley29", "cocktail3", "cocktail8"],
    )
    def test_every_witness_edge(self, make):
        for b in witness_bipartites(make()):
            assert konig_decomposition(b) == reference_konig(b)


class TestKonigRoundChecks:
    """A faulty Kuhn round raises an internal MatchingError when it is made."""

    @staticmethod
    def _faulty(monkeypatch, fault):
        kuhn = matching_module._kuhn
        monkeypatch.setattr(matching_module, "_kuhn", lambda adj, n: fault(kuhn(adj, n)))

    @staticmethod
    def _fresh_cycle8() -> Bipartite:
        """C8 as a new Bipartite with no decomposition kept, so the faulty search runs on it."""
        b = bipartite_cycle(8)  # edges (i, i) and (i, i+1 mod 4); Kuhn's first class is i -> i
        assert "konig_classes" not in vars(b)
        return b

    @pytest.mark.parametrize(
        "fault",
        [
            lambda m: [m[1]] + m[1:],  # right vertex m[1] covered twice
            lambda m: m[::-1],  # a permutation, but (0, 3) is not an edge
            lambda m: [-1] + m[1:],  # left vertex 0 unmatched
            lambda m: m[:-1],  # left vertex n-1 missing
        ],
        ids=["repeated-right", "non-edge", "unmatched", "short"],
    )
    def test_faulty_round_raises(self, monkeypatch, fault):
        self._faulty(monkeypatch, fault)
        with pytest.raises(MatchingError, match="internal error"):
            konig_decomposition(self._fresh_cycle8())

    def test_edge_of_an_earlier_class_raises(self, monkeypatch):
        first = konig_decomposition(bipartite_cycle(8))[0]
        monkeypatch.setattr(matching_module, "_kuhn", lambda adj, n: list(first))
        with pytest.raises(MatchingError, match="internal error"):
            konig_decomposition(self._fresh_cycle8())

    def test_a_decomposition_that_raises_is_not_kept(self, monkeypatch):
        calls = []
        kuhn = matching_module._kuhn

        def faulty(adj, n):
            calls.append(n)
            return [-1] + kuhn(adj, n)[1:]  # left vertex 0 unmatched

        monkeypatch.setattr(matching_module, "_kuhn", faulty)
        b = self._fresh_cycle8()
        for attempt in (1, 2):
            with pytest.raises(MatchingError, match="internal error"):
                konig_decomposition(b)
            assert len(calls) == attempt  # the second call searched again
        assert "konig_classes" not in vars(b)


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
        assert b.regular_degree() == 1
        m = class_through(b, *h.z1_edge())
        assert set(enumerate(m)) == set(bipartite_edges(b))

    def test_non_edge_rejected(self):
        assert class_through(bipartite_cycle(6), 0, 2) is None

    def test_two_decompositions_share_one_right_degree_count(self):
        b = bipartite_cycle(6)
        degrees = b.right_degrees
        assert degrees == (2, 2, 2)
        konig_decomposition(b)
        class_through(b, 0, 0)
        assert b.right_degrees is degrees

    def test_two_pinned_calls_share_one_decomposition(self, monkeypatch):
        # the two calls the witness pipeline makes on one H, for its walks and for its
        # certificate: Kuhn's search runs beta - 1 = 2 times, once per class, not once per
        # class per call, and both calls return the same object. The reference builds a
        # fresh H, not yet decomposed.
        g = gen_paley(13)  # (13, 6, 2, 3)
        h = build_transport_bipartite(g, 0, 1, detect_amply_params(g))
        calls = []
        kuhn = matching_module._kuhn
        monkeypatch.setattr(matching_module, "_kuhn",
                            lambda adj, n: calls.append(n) or kuhn(adj, n))
        classes = konig_decomposition(h.b)
        assert konig_decomposition(h.b) is classes
        assert all(type(m) is tuple for m in classes)
        m = class_through(h.b, *h.z1_edge())
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
        assert b.min_degree() == 0
        assert complete_bipartite(3).min_degree() == 3
        assert bipartite_from_edges(0, 0, []).min_degree() == 0

    def test_degree_precondition(self):
        b = bipartite_from_edges(4, 4, [(i, i) for i in range(4)])
        with pytest.raises(MatchingError, match="min degree"):
            dense_perfect_matching(b)

    def test_empty_graph(self):
        assert dense_perfect_matching(bipartite_from_edges(0, 0, [])) == ()

    @pytest.mark.parametrize(
        "fault",
        [
            lambda m: [m[1]] + m[1:],  # right vertex m[1] covered twice
            lambda m: [(w + 2) % 4 for w in m],  # a permutation, but (0, 2) is not an edge
            lambda m: [-1] + m[1:],  # left vertex 0 unmatched
            lambda m: m[:-1],  # left vertex n-1 missing
        ],
        ids=["repeated-right", "non-edge", "unmatched", "short"],
    )
    def test_faulty_kuhn_result_raises(self, monkeypatch, fault):
        # two 4-cycles: left {0, 1} ~ right {0, 1} and left {2, 3} ~ right {2, 3}
        b = bipartite_from_edges(4, 4, [(u, w) for u in range(4) for w in range(4)
                                        if u // 2 == w // 2])
        kuhn = matching_module._kuhn
        monkeypatch.setattr(matching_module, "_kuhn", lambda adj, n: fault(kuhn(adj, n)))
        with pytest.raises(MatchingError, match="internal error"):
            dense_perfect_matching(b)
