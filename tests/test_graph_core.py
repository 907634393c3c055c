import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arcurv import (
    AmplyParams,
    AmplyViolation,
    Graph,
    GraphError,
    detect_amply_params,
    dump_edge_list,
    edge_partition,
    gen_cocktail,
    gen_complete,
    gen_cycle,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_product,
    gen_shrikhande,
    load_edge_list,
)
from arcurv.graph import EDGE_CHUNK, edge_chunks

import reference_witness
from conftest import (
    from_networkx,
    mixed_regular_graphs,
    random_connected_graph,
    random_connected_regular_graph,
    relabelled,
    to_networkx,
)


class TestLoadEdgeList:
    def test_triangle(self):
        g = load_edge_list("3 3\n0 1\n1 2\n0 2")
        assert g.n == 3 and g.num_edges() == 3

    def test_duplicate_collapsed(self):
        # header count applies to edge lines, dedup happens in the graph
        g = load_edge_list("2 2\n0 1\n0 1")
        assert g.num_edges() == 1
        with pytest.raises(GraphError, match="declares"):
            load_edge_list("2 1\n0 1\n0 1")

    def test_index_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            load_edge_list("4 1\n0 4")

    def test_loop_rejected(self):
        with pytest.raises(GraphError, match="loop"):
            load_edge_list("3 1\n1 1")

    def test_comments_and_blanks(self):
        g = load_edge_list("# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
        assert g.num_edges() == 3

    def test_error_carries_line_number(self):
        with pytest.raises(GraphError, match="line 3"):
            load_edge_list("3 2\n0 1\nnot-an-edge")

    def test_roundtrip(self):
        g = gen_cocktail(3)
        assert load_edge_list(dump_edge_list(g)) == g


class TestMetrics:
    def test_hypercube_antipodal(self):
        g = gen_hypercube(3)
        assert g.distances(0, 7) == 3

    def test_self_distance(self):
        g = gen_cycle(5)
        assert g.distances(2, 2) == 0

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_distance_rejects_a_vertex_outside_the_graph(self, bad):
        # -1 would otherwise index the row's last entry, vertex 5 (distance 1 from 0).
        g = gen_cycle(6)
        for u, v in ((0, bad), (bad, 0)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                g.distances(u, v)

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_is_edge_rejects_a_vertex_outside_the_graph(self, bad):
        # is_edge(-1, 0) would otherwise read vertex 5's row and answer True.
        g = gen_cycle(6)
        for u, v in ((0, bad), (bad, 0)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                g.is_edge(u, v)

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_neighbors_and_degree_reject_a_vertex_outside_the_graph(self, bad):
        # neighbors(-1) would otherwise answer vertex 5's (0, 4), and neighbors(6)
        # raise a bare IndexError.
        g = gen_cycle(6)
        for method in (g.neighbors, g.degree):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                method(bad)

    def test_h23_double_difference(self):
        g = gen_hamming(2, 3)
        # vertices 0 = (0,0) and 4 = (1,1) differ in both coordinates
        assert g.distances(0, 4) == 2

    def test_distance_matches_networkx(self):
        for seed in range(20):
            g = random_connected_graph(seed, max_n=20)
            h = to_networkx(g)
            lengths = dict(nx.all_pairs_shortest_path_length(h))
            for u in range(g.n):
                for v in range(g.n):
                    assert g.distances(u, v) == lengths[u][v]

    def test_unreachable(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.distances(0, 2) == -1
        with pytest.raises(GraphError):
            g.diameter()

    def test_empty_graph_has_no_diameter(self):
        with pytest.raises(GraphError, match="empty graph"):
            Graph(0, []).diameter()

    def test_diameters(self):
        assert gen_hamming(2, 3).diameter() == 2
        assert gen_hamming(3, 3).diameter() == 3
        assert gen_complete(7).diameter() == 1

    def test_girth(self):
        assert gen_shrikhande().girth() == 3
        assert gen_hypercube(3).girth() == 4
        assert Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]).girth() is None
        assert gen_cycle(9).girth() == 9

    def test_girth_matches_networkx(self):
        densities = (0.06, 0.12, 0.25, 0.5)
        graphs = [
            from_networkx(nx.gnp_random_graph(4 + seed % 23, densities[seed % 4], seed=seed))
            for seed in range(160)
        ]
        trees = [from_networkx(nx.random_labeled_tree(n, seed=n)) for n in range(1, 30, 4)]
        graphs += trees
        # forests, and trees hanging off a cycle, which peeling must not eat into
        graphs += [Graph(2 * t.n, t.edges() + [(u + t.n, v + t.n) for u, v in t.edges()]) for t in trees]
        graphs += [Graph(t.n + 7, t.edges() + [(t.n + i, t.n + (i + 1) % 7) for i in range(7)] + [(0, t.n)])
                   for t in trees]
        graphs += [Graph(0, []), Graph(3, [])]
        graphs += [gen_cycle(n) for n in (3, 4, 5, 8, 13, 64)]
        graphs += [gen_hamming(2, 3), gen_hamming(3, 3), gen_hamming(4, 3), gen_shrikhande(),
                   gen_paley(13), gen_paley(17), gen_paley(29), gen_cocktail(3), gen_cocktail(8),
                   gen_complete(2), gen_complete(5), from_networkx(nx.petersen_graph())]
        graphs += [gen_hypercube(k) for k in range(1, 8)]
        for g in graphs:
            expected = nx.girth(to_networkx(g))
            assert g.girth() == (None if expected == float("inf") else expected)
        assert gen_cycle(2049).girth() == 2049

    def test_common_neighbors(self):
        k4 = gen_complete(4)
        assert set(k4.neighbors(0)) & set(k4.neighbors(1)) == {2, 3}
        q3 = gen_hypercube(3)
        assert not set(q3.neighbors(0)) & set(q3.neighbors(1))
        sh = gen_shrikhande()
        u, v = sh.edges()[0]
        assert len(set(sh.neighbors(u)) & set(sh.neighbors(v))) == 2

    def test_regular_degree(self):
        assert Graph(0, []).regular_degree() is None
        assert Graph(3, []).regular_degree() == 0
        assert Graph(3, [(0, 1), (1, 2)]).regular_degree() is None
        assert Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]).regular_degree() is None
        assert gen_cycle(7).regular_degree() == 2
        assert gen_hamming(2, 3).regular_degree() == 4

    def test_distance_block_matches_networkx(self):
        # the block of the zone against itself, through Graph.distances
        # gnp graphs are often disconnected: -1 marks an unreachable pair
        for seed in range(25):
            rng = random.Random(seed)
            n = rng.randint(1, 30)
            g = from_networkx(nx.gnp_random_graph(n, rng.uniform(0.05, 0.3), seed=seed))
            lengths = dict(nx.shortest_path_length(to_networkx(g)))
            zone = [rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]  # repeats too
            block = g.distances(np.array(zone)[:, None], zone)
            assert block.shape == (len(zone), len(zone))
            assert block.tolist() == [[lengths[a].get(b, -1) for b in zone] for a in zone]

    def test_distance_rows_are_read_only(self):
        g = gen_cycle(6)
        with pytest.raises(ValueError):
            g.distances_from(0)[3] = 1
        assert g.distances(0, 3) == 3


def _detect_by_pair_scan(g):
    """Amply-regular detection by the definition, with networkx distances.

    Scans edges, then every pair u < v at distance 2, in the order u
    ascending, then v ascending; the first count that differs is the violation.
    """
    d = g.degree(0)
    for v in range(1, g.n):
        if g.degree(v) != d:
            return AmplyViolation("not-regular", (0, v), g.degree(v), d)
    lengths = dict(nx.shortest_path_length(to_networkx(g)))
    counts = {"alpha": None, "beta": None}
    pairs = [("alpha", u, v) for u, v in g.edges()]
    pairs += [("beta", u, v) for u in range(g.n) for v in range(u + 1, g.n) if lengths[u][v] == 2]
    for kind, u, v in pairs:
        c = len(set(g.neighbors(u)) & set(g.neighbors(v)))
        if counts[kind] is None:
            counts[kind] = c
        elif c != counts[kind]:
            return AmplyViolation(kind, (u, v), c, counts[kind])
    return AmplyParams(g.n, d, counts["alpha"] or 0, counts["beta"], girth=g.girth())


def _two_switch(g, rng):
    """g with edges ab, cd replaced by ad, cb: same degrees; a bipartite g stays bipartite."""
    h = to_networkx(g)
    side = nx.bipartite.color(h) if nx.is_bipartite(h) else None
    edges = g.edges()
    while True:
        (a, b), (c, d) = rng.sample(edges, 2)
        if (side[a] != side[c]) if side else rng.random() < 0.5:
            c, d = d, c
        if len({a, b, c, d}) < 4 or g.is_edge(a, d) or g.is_edge(c, b):
            continue
        removed = {frozenset((a, b)), frozenset((c, d))}
        switched = Graph(g.n, [e for e in edges if frozenset(e) not in removed] + [(a, d), (c, b)])
        if switched.is_connected():
            return switched


class TestDetect:
    def test_q3(self):
        p = detect_amply_params(gen_hypercube(3))
        assert p == AmplyParams(8, 3, 0, 2, girth=4)

    def test_h23(self):
        p = detect_amply_params(gen_hamming(2, 3))
        assert p == AmplyParams(9, 4, 1, 2, girth=3)

    def test_petersen(self, petersen):
        p = detect_amply_params(petersen)
        assert p == AmplyParams(10, 3, 0, 1, girth=5)
        assert p.girth == 5

    def test_path_not_regular(self):
        p3 = Graph(3, [(0, 1), (1, 2)])
        v = detect_amply_params(p3)
        assert isinstance(v, AmplyViolation)
        assert v.kind == "not-regular"

    def test_complete_beta_absent(self):
        p = detect_amply_params(gen_complete(5))
        assert p.beta is None and p.alpha == 3

    def test_disconnected_is_error(self):
        with pytest.raises(GraphError):
            detect_amply_params(Graph(4, [(0, 1), (2, 3)]))

    def test_hamming_family_parameters(self):
        for p in (2, 3):
            for q in (2, 3, 4):
                g = gen_hamming(p, q)
                params = detect_amply_params(g)
                assert params == AmplyParams(
                    q**p, (q - 1) * p, q - 2, 2, girth=3 if q >= 3 else 4
                )

    def test_neighbors_of_neighbors_scan_matches_pair_scan(self):
        rng = random.Random(7)
        graphs = [random_connected_regular_graph(seed, max_n=30) for seed in range(30)]
        for g in (gen_hypercube(4), gen_hypercube(5), gen_cycle(12), gen_hamming(2, 3),
                  gen_hamming(3, 3), gen_paley(13), gen_shrikhande(), gen_cocktail(4)):
            graphs.append(g)
            graphs.append(_two_switch(g, rng))
            graphs.append(_two_switch(_two_switch(g, rng), rng))
        kinds = set()
        for g in graphs:
            result = detect_amply_params(g)
            assert result == _detect_by_pair_scan(g)
            kinds.add(getattr(result, "kind", "params"))
        assert kinds == {"alpha", "beta", "params"}

    @pytest.mark.parametrize("edges, beta, alpha", [
        ([(0, 1), (0, 6), (0, 7), (1, 3), (1, 7), (2, 4), (2, 5), (2, 7), (3, 4), (3, 6),
          (4, 5), (5, 6)], ((0, 3), 2, 1), ((0, 6), 0, 1)),
        ([(0, 1), (0, 5), (0, 7), (1, 2), (1, 3), (2, 4), (2, 7), (3, 5), (3, 6), (4, 6),
          (4, 7), (5, 6)], ((0, 4), 1, 2), ((2, 4), 1, 0)),
    ], ids=["same-row", "later-row"])
    def test_an_alpha_violation_outranks_an_earlier_beta_violation(self, edges, beta, alpha):
        # Two cubic graphs on 8 vertices whose first beta violation comes before their
        # first alpha violation in (u, v) order: in the same row u, and in an earlier one.
        g = Graph(8, edges)
        pairs = [(u, v) for u in range(8) for v in range(u + 1, 8) if g.distances(u, v) == 2]
        counts = [len(set(g.neighbors(u)) & set(g.neighbors(v))) for u, v in pairs]
        first = next(i for i, c in enumerate(counts) if c != counts[0])
        assert (pairs[first], counts[first], counts[0]) == beta
        expected = AmplyViolation("alpha", *alpha)
        assert detect_amply_params(g) == expected == _detect_by_pair_scan(g)

    def test_girth3_iff_common_neighbor(self):
        for seed in range(15):
            g = random_connected_graph(seed + 100, max_n=12)
            has_triangle = any(
                set(g.neighbors(u)) & set(g.neighbors(v)) for u, v in g.edges()
            )
            assert (g.girth() == 3) == has_triangle


def _sizes(g, edge):
    """(|N_x|, |Delta|, |N_y|) of one edge, from the batched partition."""
    return tuple(int(mask.sum()) for mask in edge_partition(g, [edge]))


PARTITION_GRAPHS = {
    "h23": lambda: gen_hamming(2, 3), "paley13": lambda: gen_paley(13),
    "cocktail3": lambda: gen_cocktail(3), "q4": lambda: gen_hypercube(4),
    "shrikhande": gen_shrikhande,
    **{f"random{i}": (lambda g=g: g) for i, g in enumerate(mixed_regular_graphs(5))},
}


class TestEdgePartition:
    def test_h23_sizes(self):
        g = gen_hamming(2, 3)
        assert _sizes(g, g.edges()[0]) == (2, 1, 2)

    def test_octahedron_sizes(self):
        g = gen_cocktail(3)
        assert _sizes(g, g.edges()[0]) == (1, 2, 1)

    def test_complete_no_exclusive(self):
        nx_, delta, ny = edge_partition(gen_complete(4), [(0, 1)])
        assert np.flatnonzero(delta[0]).tolist() == [2, 3] and not nx_.any() and not ny.any()

    def test_not_an_edge(self):
        # alone, and as the first of two non-edges in a batch
        for batch in ([(0, 2)], [(0, 1), (0, 2), (1, 2), (1, 3)]):
            with pytest.raises(GraphError, match=r"^\(0, 2\) is not an edge$"):
                edge_partition(gen_cycle(5), batch)

    def test_an_empty_batch_has_no_rows(self):
        assert [mask.shape for mask in edge_partition(gen_cycle(6), [])] == [(0, 6)] * 3

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_rejects_a_vertex_outside_the_graph(self, bad):
        # (-1, 0) would otherwise read vertex 5's row as x's.
        g = gen_cycle(6)
        for x, y in ((bad, 0), (0, bad)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                edge_partition(g, [(x, y)])

    def test_regular_size_identity(self):
        for g in (gen_shrikhande(), gen_hamming(2, 3), gen_cocktail(4)):
            d, edges = g.regular_degree(), np.array(g.edges())
            nx_, delta, ny = edge_partition(g, edges)
            assert (nx_.sum(axis=1) + delta.sum(axis=1) + 1 == d).all()
            assert (nx_.sum(axis=1) == ny.sum(axis=1)).all()
            assert not (nx_ & delta | nx_ & ny | delta & ny).any()
            at = np.arange(len(edges))
            for mask in (nx_, delta, ny):
                assert not (mask[at, edges[:, 0]] | mask[at, edges[:, 1]]).any()

    @pytest.mark.parametrize("relabel", [None, 5], ids=["natural", "relabelled"])
    @pytest.mark.parametrize("name", PARTITION_GRAPHS)
    def test_matches_the_neighbour_sets_on_every_edge(self, name, relabel):
        # each edge in both orientations, so N_x and N_y trade places
        g = PARTITION_GRAPHS[name]()
        g = g if relabel is None else relabelled(g, relabel)
        edges = g.edges() + [(y, x) for x, y in g.edges()]
        masks = edge_partition(g, edges)
        got = [tuple(tuple(np.flatnonzero(mask[i]).tolist()) for mask in masks)
               for i in range(len(edges))]
        assert got == [reference_witness.edge_partition(g, x, y) for x, y in edges]

    def test_edge_chunks_split_the_edges_a_chunk_at_a_time(self):
        # Paley(13) x K2's 91 edges: one full chunk, then the other 27
        g = gen_product(gen_paley(13), gen_complete(2))
        edges = g.edges()
        chunks = list(edge_chunks(g, edges))
        assert EDGE_CHUNK == 64
        assert [(lo, len(xy)) for lo, xy, _ in chunks] == [(0, 64), (64, 27)]
        for lo, xy, sets in chunks:
            assert xy.dtype == np.int64 and xy.tolist() == [list(e) for e in edges[lo:lo + len(xy)]]
            assert all((got == want).all() for got, want in zip(sets, edge_partition(g, xy)))
        assert list(edge_chunks(g, [])) == []


class TestDistances:
    """`Graph.distances` against networkx BFS, in each shape its callers read."""

    @pytest.mark.parametrize("relabel", [None, 5], ids=["natural", "relabelled"])
    def test_matches_networkx_on_every_pair(self, relabel):
        # a triangle beside a path: -1 across the components
        two_components = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6)])
        for g in (*mixed_regular_graphs(5), two_components):
            g = g if relabel is None else relabelled(g, relabel)
            lengths = dict(nx.shortest_path_length(to_networkx(g)))
            every = np.arange(g.n)
            got = g.distances(every[:, None], every)
            assert got.dtype == np.int64
            assert got.tolist() == [[lengths[a].get(b, -1) for b in every] for a in every]

    def test_blocks_and_elementwise_pairs(self):
        # (m, k, 1) x (m, 1, k) blocks and (m, k) x (m, k) pairs, with repeated sources
        g = gen_paley(13)
        lengths = dict(nx.shortest_path_length(to_networkx(g)))
        u, v = np.random.default_rng(0).integers(0, g.n, (2, 4, 5))
        u[0] = u[0, 0]
        block = g.distances(u[:, :, None], v[:, None, :])
        assert block.shape == (4, 5, 5)
        assert block.tolist() == [[[lengths[a][b] for b in vi] for a in ui]
                                  for ui, vi in zip(u.tolist(), v.tolist())]
        pairs = g.distances(u, v)
        assert pairs.shape == (4, 5)
        assert pairs.tolist() == [[lengths[a][b] for a, b in zip(ui, vi)]
                                  for ui, vi in zip(u.tolist(), v.tolist())]

    def test_empty_arrays(self):
        g = gen_cycle(6)
        assert g.distances([], []).shape == (0,)
        assert g.distances(np.empty((0, 2, 1), dtype=np.int64), np.arange(6)).shape == (0, 2, 6)
        assert g.distances(np.empty((3, 0, 1), dtype=np.int64),
                           np.empty((3, 1, 0), dtype=np.int64)).shape == (3, 0, 0)
        assert Graph(0, []).distances([], []).shape == (0,)
        assert not g._dist_cache

    def test_reads_the_row_of_each_distinct_source_once(self, monkeypatch):
        g = gen_cycle(100)
        read, original = [], Graph.distances_from

        def recording(self, source):
            read.append(source)
            return original(self, source)

        monkeypatch.setattr(Graph, "distances_from", recording)
        got = g.distances(np.array([[7, 3], [7, 7]])[:, :, None], [0, 50, 99])
        assert sorted(read) == [3, 7] and set(g._dist_cache) == {3, 7}
        assert got.tolist() == [[[7, 43, 8], [3, 47, 4]], [[7, 43, 8]] * 2]

    @pytest.mark.parametrize("u, v, named", [
        ([[0], [6]], [1], 6), ([[0]], [1, -1], -1), ([[-7]], [8], -7), ([[6]], [-1], 6),
        ([[0, 1]], [[2, 9], [-2, 3]], 9),
    ], ids=["in u", "in v", "below 0 in u", "u before v", "first in v"])
    def test_refuses_a_vertex_outside_the_graph(self, u, v, named):
        # the first in u, then the first in v, before any row is read; a column of -1
        # would otherwise read vertex 5
        g = gen_cycle(6)
        with pytest.raises(GraphError, match=rf"^vertex {named} out of range 0\.\.5$"):
            g.distances(u, v)
        assert not g._dist_cache


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_distance_is_a_metric(seed):
    g = random_connected_graph(seed, max_n=64)
    import random as _r

    rng = _r.Random(seed)
    verts = [rng.randrange(g.n) for _ in range(3)]
    u, v, w = verts
    assert g.distances(u, v) == g.distances(v, u)
    assert (g.distances(u, v) == 0) == (u == v)
    assert g.distances(u, w) <= g.distances(u, v) + g.distances(v, w)
