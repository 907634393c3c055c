import dataclasses
from fractions import Fraction

import numpy as np
import pytest

import arcurv.cli as cli_module
import arcurv.curvature as curvature_module
import arcurv.matching as matching_module
import arcurv.witness as witness_module
from arcurv import (
    curvature_all_edges,
    detect_amply_params,
    dump_edge_list,
    gen_cocktail,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_shrikhande,
    lly_curvature,
)
from arcurv.cli import _hgraph_payload
from arcurv.graph import EDGE_CHUNK, Graph
from arcurv.matching import Bipartite, MatchingError, konig_decomposition
from arcurv.report import WitnessSummary, _witness_summary, verify_graph
from arcurv.witness import (
    CLASS_NAMES,
    WitnessCertificate,
    WitnessError,
    edge_witness,
    prop_3_1_certificate,
    witness_batches,
)
from conftest import is_perfect, plan_cost, relabelled
import reference_witness
from reference_witness import (
    build_transport_bipartite,
    reference_edge_witness,
    reference_summary,
    verify_lemma_3_3,
)


def h23():
    return gen_hamming(2, 3)


def _classes_by_definition(g, x, y, params):
    """E1-E8 of H from is_edge probes over N_x, Delta and N_y in sorted host order."""
    nx, delta, ny = reference_witness.edge_partition(g, x, y)
    p, a, copies = len(nx), params.alpha, params.beta - params.alpha - 1
    return (
        tuple((i, j) for i, v in enumerate(nx) for j, w in enumerate(ny) if g.is_edge(v, w)),
        tuple((i, p + j) for i, v in enumerate(nx) for j, z in enumerate(delta) if g.is_edge(v, z)),
        tuple((p + i, j) for i, z in enumerate(delta) for j, w in enumerate(ny) if g.is_edge(z, w)),
        tuple((p + i, p + i) for i in range(a)),
        tuple((p + i, p + j) for i, z in enumerate(delta) for j, z2 in enumerate(delta)
              if g.is_edge(z, z2)),
        tuple((p + a + i, p + j) for i in range(copies) for j in range(a)),
        tuple((p + j, p + a + i) for i in range(copies) for j in range(a)),
        tuple((p + a + i, p + a + j) for i in range(copies) for j in range(copies)),
    )


def k333():
    """K_{3,3,3}, amply regular (9,6,3,6): its H has beta - alpha - 1 = 2 x-copies."""
    return Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9) if u % 3 != v % 3])


def _views(g, params=None):
    """Every edge's `EdgeWitness`, in edge order, from one batched pass over all edges."""
    batches = witness_batches(g, g.edges(), params or detect_amply_params(g))
    return [batch.edge(i) for batch in batches for i in range(len(batch.edges))]


def _build(g, x, y):
    return edge_witness(g, x, y, detect_amply_params(g)).h


def _certificate(g, x, y, params=None):
    return edge_witness(g, x, y, params or detect_amply_params(g)).certificate


def _z1_class(h):
    """Index and class of the Konig class of ``h.b`` through z1 z1', by a scan."""
    z1l, z1r = h.z1_edge()
    return next((i, m) for i, m in enumerate(konig_decomposition(h.b)) if m[z1l] == z1r)


def _pi0_by_definition(h, records):
    """Support of pi0: Delta, x and y kept in place, and each chain v0 -> w0, sorted."""
    return tuple(sorted([(v, v) for v in h.delta + (h.x, h.y)] + [(r.v0, r.w0) for r in records]))


def _pi0_plan(cert, d):
    """pi0 as ((v, w), mass) pairs of mass 1/(d+1) each, for the `plan_cost` oracle."""
    return [(pair, Fraction(1, d + 1)) for pair in cert.pi0]


def _fresh_chunks(g, params) -> int:
    """The chunks of ``g``'s edges, ``EDGE_CHUNK`` at a time, that hold an H of no earlier edge."""
    seen, chunks = set(), set()
    for i, (x, y) in enumerate(g.edges()):
        key = build_transport_bipartite(g, x, y, params).b.biadjacency.tobytes()
        if key not in seen:
            seen.add(key)
            chunks.add(i // EDGE_CHUNK)
    return len(chunks)


def _count_calls(monkeypatch, targets):
    """Wrap ``owner.<name>`` for each (owner, name); the returned dict counts the calls."""
    counts = {name: 0 for _, name in targets}
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return counts


def _tamper_h(monkeypatch, tamper):
    """Apply ``tamper`` to every chunk's (m, s, s) biadjacency of H as it is built."""
    build = witness_module._transport_h

    def tampered(*args):
        h = build(*args)
        tamper(h)
        return h

    monkeypatch.setattr(witness_module, "_transport_h", tampered)


def _tamper_walks(monkeypatch, tamper):
    """Replace every chunk's walks by ``tamper(walks)`` before the certificate reads them."""
    walk = witness_module._walk
    monkeypatch.setattr(witness_module, "_walk", lambda *args: tamper(walk(*args)))


def _tamper_v0_w0(monkeypatch, tamper):
    """Apply ``tamper`` to writable copies of the walks' (m, K, p) v0 and w0 arrays."""
    def replaced(walks):
        v0, w0 = walks.v0.copy(), walks.w0.copy()
        tamper(v0, w0)
        return walks._replace(v0=v0, w0=w0)

    _tamper_walks(monkeypatch, replaced)


def _reverse_ny(monkeypatch, only=None):
    """Walk the chains to N_y reversed, on every edge or only on the edge whose H is ``only``.

    H is built from the true N_y, so each class is still a perfect matching
    and each walk a bijection, but the chains end at the wrong vertices.
    Returns the chunk rows reversed, a list filled as the pass runs.
    """
    walk = witness_module._walk
    hit = []

    def reversed_ny(g, nx, ny, *rest):
        chosen = np.ones(len(ny), dtype=bool)
        if only is not None:
            chosen = (nx == only.nx).all(axis=1) & (ny == only.ny).all(axis=1)
        hit.extend(np.flatnonzero(chosen).tolist())
        ny = ny.copy()
        ny[chosen] = ny[chosen, ::-1]
        return walk(g, nx, ny, *rest)

    monkeypatch.setattr(witness_module, "_walk", reversed_ny)
    return hit


def _patch_classes(monkeypatch, classes):
    """Make every read of H's Konig classes return ``classes``."""
    monkeypatch.setattr(witness_module, "konig_decomposition", lambda b: classes)


class TestConstruction:
    def test_h23_layout(self):
        g = h23()
        h = _build(g, 0, 1)
        # d=4, alpha=1, beta=2: two exclusive neighbors, one common, no copies
        assert (len(h.nx), len(h.delta), len(h.b.biadjacency)) == (2, 1, 3)
        assert h.z1_edge() == (2, 2)

    def test_paley13_layout(self):
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        # d=6, alpha=2, beta=3: no synthetic copies
        assert (len(h.nx), len(h.delta), len(h.b.biadjacency)) == (3, 2, 5)

    def test_octahedron_layout(self):
        g = gen_cocktail(3)
        h = _build(g, 0, 2)
        # d=4, alpha=2, beta=4: one exclusive pair, one synthetic copy
        assert (len(h.nx), len(h.delta), len(h.b.biadjacency)) == (1, 2, 4)

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_paley(13), lambda: gen_paley(17), h23, lambda: gen_hamming(3, 3),
         lambda: gen_cocktail(4), k333],
        ids=["paley13", "paley17", "h23", "h33", "cocktail4", "k333"],
    )
    def test_classes_equal_definition_in_order(self, make):
        g = make()
        params = detect_amply_params(g)
        for (x, y), w in zip(g.edges(), _views(g, params)):
            assert (w.h.x, w.h.y) == (x, y)
            assert w.h.edge_classes == _classes_by_definition(g, x, y, params)

    def test_class_names_cover_all_classes(self):
        assert sorted(CLASS_NAMES) == list(range(1, 9))
        g = gen_cocktail(3)
        h = _build(g, 0, 2)
        assert len(h.edge_classes) == 8

    def test_diagonal_class_size_is_alpha(self):
        for g, e in ((h23(), (0, 1)), (gen_cocktail(3), (0, 2))):
            params = detect_amply_params(g)
            h = edge_witness(g, *e, params).h
            assert len(h.edge_classes[3]) == params.alpha

    def test_copy_classes_empty_when_beta_is_alpha_plus_one(self):
        h = _build(h23(), 0, 1)
        assert h.edge_classes[5] == h.edge_classes[6] == h.edge_classes[7] == ()

    def test_girth4_rejected(self):
        with pytest.raises(WitnessError, match="alpha"):
            _build(gen_hypercube(3), 0, 1)

    def test_names(self):
        h = _build(h23(), 0, 1)
        left = [h.left_name(i) for i in range(len(h.b.biadjacency))]
        right = [h.right_name(i) for i in range(len(h.b.biadjacency))]
        assert left[-1].startswith("z") and right[-1].endswith("'")
        assert all(n.startswith("v") for n in left[:2])
        assert all(n.startswith("w") for n in right[:2])

    def test_parameters_of_another_graph_name_the_edge_and_sizes(self):
        # paley13 is (13,6,2,3) and paley17 (17,8,3,4): each edge of paley13 has
        # |N_x| = |N_y| = 3 and |Delta| = 2, where paley17's parameters want 4 and 3
        params = detect_amply_params(gen_paley(17))
        with pytest.raises(WitnessError) as exc:
            edge_witness(gen_paley(13), 0, 1, params)
        assert str(exc.value) == ("edge (0, 1): |N_x| = 3, |N_y| = 3, |Delta| = 2 "
                                  "do not match d-1-alpha = 4 and alpha = 3")

    def test_the_size_check_names_the_first_offending_edge(self):
        # H(2,3) with the extra edge 0-4: edge (0, 1) gains a second common
        # neighbour, while (5, 8), listed first, keeps H(2,3)'s sizes
        g = h23()
        params = detect_amply_params(g)
        g = Graph(9, g.edges() + [(0, 4)])
        with pytest.raises(WitnessError) as exc:
            list(witness_batches(g, [(5, 8), (0, 1), (0, 4)], params))
        assert str(exc.value) == ("edge (0, 1): |N_x| = 2, |N_y| = 1, |Delta| = 2 "
                                  "do not match d-1-alpha = 2 and alpha = 1")

    def test_a_pair_that_is_not_an_edge_is_refused(self):
        from arcurv import GraphError

        with pytest.raises(GraphError, match=r"^\(0, 4\) is not an edge$"):
            _build(h23(), 0, 4)
        # a vertex outside the graph is named before any non-edge, and before
        # it can wrap to n-1 in an adjacency read
        g = h23()
        for bad in (9, -1):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.8$"):
                list(witness_batches(g, [(0, 4), (0, 1), (1, bad)], detect_amply_params(g)))

    def test_a_non_edge_past_the_first_chunk_is_refused(self):
        # cocktail(8), kappa = 1 on all 112 edges, with a non-edge at index EDGE_CHUNK + 3:
        # the witness pass yields the first chunk, and both edge-local passes refuse the
        # second, naming the pair
        from arcurv import GraphError

        g = gen_cocktail(8)
        params = detect_amply_params(g)
        x, y = next((u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.is_edge(u, v))
        edges = g.edges()
        edges.insert(EDGE_CHUNK + 3, (x, y))
        refused = rf"^\({x}, {y}\) is not an edge$"
        batches = witness_batches(g, edges, params)
        assert next(batches).edges == tuple(edges[:EDGE_CHUNK])
        with pytest.raises(GraphError, match=refused):
            next(batches)
        with pytest.raises(GraphError, match=refused):
            prop_3_1_certificate(g, edges, [Fraction(1)] * len(edges), params)


class TestRegularity:
    def test_h23(self):
        w = edge_witness(h23(), 0, 1, detect_amply_params(h23()))
        assert w.irregular is None and w.h.beta - 1 == 1

    def test_paley13(self):
        g = gen_paley(13)
        for w in _views(g)[:5]:
            assert w.irregular is None and w.h.beta - 1 == 2

    def test_octahedron(self):
        g = gen_cocktail(3)
        w = edge_witness(g, 0, 2, detect_amply_params(g))
        assert w.irregular is None and w.h.beta - 1 == 3
        h = w.h.b.biadjacency
        assert set(h.sum(axis=1).tolist()) == set(h.sum(axis=0).tolist()) == {3}

    def test_corrupted_graph_flagged(self, monkeypatch):
        g = gen_cocktail(3)
        assert _build(g, 0, 2).edge_classes[7] == ((3, 3),), "expected one copy-copy edge to remove"

        def drop_e8(h):
            h[:, -1, -1] = False

        _tamper_h(monkeypatch, drop_e8)
        assert edge_witness(g, 0, 2, detect_amply_params(g)).irregular == "left x_copy1 has degree 2"

    def test_irregular_right_side_flagged(self, monkeypatch):
        # every row keeps 3 entries, but the x-copy's row (1, 2, 3) moves its
        # edge to z4' onto w1, which then has degree 4
        g = gen_cocktail(3)
        assert np.flatnonzero(_build(g, 0, 2).b.biadjacency[3]).tolist() == [1, 2, 3]

        def move(h):
            h[:, 3, 1], h[:, 3, 0] = False, True

        _tamper_h(monkeypatch, move)
        assert edge_witness(g, 0, 2, detect_amply_params(g)).irregular == "right w1 has degree 4"


class TestChains:
    def test_h23_direct_chains(self):
        chains = _certificate(h23(), 0, 1).chain_records
        assert len(chains) == 2
        # 1-regular H: every exclusive neighbor matches straight across
        assert all(c.rho == 1 and c.k == 0 for c in chains)

    def test_chain_map_is_bijection(self):
        for g in (gen_paley(13), gen_cocktail(3), gen_cocktail(4)):
            for w in _views(g):
                assert len(w.class_records) == len(w.classes) == w.h.beta - 1
                for chains in w.class_records:
                    assert sorted(c.w0 for c in chains) == sorted(w.h.ny)

    def test_distance_bound_every_matching(self):
        for g in (h23(), gen_paley(13), gen_cocktail(3), gen_paley(17)):
            for w in _views(g):
                assert all(r.ok for chains in w.class_records for r in chains)

    def test_chain_sum_bound_for_z1_matching(self):
        for g in (h23(), gen_paley(13), gen_cocktail(3), gen_paley(17)):
            params = detect_amply_params(g)
            for w in _views(g, params):
                chains = w.certificate.chain_records
                k_total = sum(c.k for c in chains)
                assert sum(c.rho for c in chains) <= params.d + k_total - 2

    # paley13: N_x is left 0..2, Delta is left 3..4; the walk refuses a class that is not a
    # permutation of H's side before it starts, and keeps no chain records of it

    @staticmethod
    def _walk_error(monkeypatch, g, classes):
        _patch_classes(monkeypatch, classes)
        w = edge_witness(g, *g.edges()[0], detect_amply_params(g))
        assert w.class_records == () and w.certificate is None
        return w.walk_error

    def test_revisiting_chain_rejected(self, monkeypatch):
        # right 3 twice: the chain from 0 would cycle 3 -> 4 -> 3
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        assert (len(h.nx), len(h.b.biadjacency)) == (3, 5)
        assert self._walk_error(monkeypatch, g, ((3, 1, 2, 4, 3),)) == (
            "chain walk requires a perfect matching")

    def test_non_bijective_chain_map_rejected(self, monkeypatch):
        # right 0 twice: N_x vertices 0 and 1 would both end at the first N_y vertex
        assert self._walk_error(monkeypatch, gen_paley(13), ((0, 0, 2, 3, 4),)) == (
            "chain walk requires a perfect matching")

    @pytest.mark.parametrize(
        "m",
        [(-1, 1, 0, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 3)],
        ids=["minus-one", "past-the-side", "short"],
    )
    def test_entry_outside_the_side_rejected(self, monkeypatch, m):
        # -1 would wrap to the last N_y vertex and give three chain records; 5 is no index of H
        assert self._walk_error(monkeypatch, gen_paley(13), (m,)) == (
            "chain walk requires a perfect matching")

    def test_imperfect_matching_rejected(self, monkeypatch):
        assert self._walk_error(monkeypatch, h23(), ((0,),)) == "chain walk requires a perfect matching"

    def test_a_class_after_a_bad_one_is_not_walked(self, monkeypatch):
        # paley13's two classes, the first with right 0 twice: no class is walked
        g = gen_paley(13)
        classes = konig_decomposition(_build(g, *g.edges()[0]).b)
        bad = (classes[0][1],) + classes[0][1:]
        _patch_classes(monkeypatch, (classes[1], bad))
        w = edge_witness(g, *g.edges()[0], detect_amply_params(g))
        assert len(w.class_records) == 1 and w.walk_error == "chain walk requires a perfect matching"


class TestPi0:
    def test_h23_cost(self):
        g = h23()
        assert plan_cost(g, _pi0_plan(_certificate(g, 0, 1), 4)) == Fraction(2, 5)

    def test_paley13_cost(self):
        g = gen_paley(13)
        assert plan_cost(g, _pi0_plan(_certificate(g, *g.edges()[0]), 6)) == Fraction(3, 7)

    def test_stationary_mass(self):
        g = gen_cocktail(3)
        h = _build(g, 0, 2)
        pi0 = _certificate(g, 0, 2).pi0
        for z in h.delta:
            assert (z, z) in pi0
        assert (0, 0) in pi0 and (2, 2) in pi0

    @pytest.mark.parametrize(
        "make",
        [h23, lambda: gen_hamming(3, 3), lambda: gen_paley(13), lambda: gen_cocktail(3)],
        ids=["h23", "h33", "paley13", "cocktail3"],
    )
    def test_integer_cost_equals_plan_cost(self, make):
        # the batch sums BFS distances in integers; plan_cost sums d(v, w) * mass
        g = make()
        params = detect_amply_params(g)
        for (x, y), w in zip(g.edges(), _views(g, params)):
            cert = w.certificate
            assert cert.pi0_cost == plan_cost(g, _pi0_plan(cert, params.d))
            assert len(cert.pi0) == params.d + 1
            assert cert.pi0 == tuple(sorted(cert.pi0))
            assert all(type(v) is int and type(w) is int for v, w in cert.pi0)
            # the marginals of mass 1/(d+1) per pair are uniform on B(x) and B(y)
            assert [v for v, _ in cert.pi0] == sorted((x,) + g.neighbors(x))
            assert sorted(w for _, w in cert.pi0) == sorted((y,) + g.neighbors(y))

    def test_requires_z1_edge(self, monkeypatch):
        # the certificate rejects classes of which none contains z1 z1'
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        z1l, z1r = h.z1_edge()
        others = tuple(m for m in konig_decomposition(h.b) if m[z1l] != z1r)
        assert others, "decomposition should contain a class avoiding z1 z1'"
        _patch_classes(monkeypatch, others)
        w = edge_witness(g, *g.edges()[0], detect_amply_params(g))
        assert w.walk_error is None and w.class_records
        assert w.certificate is None and w.certify_error == "no Konig class contains the z1 z1' edge"


class TestWitnessBound:
    def test_h23_tight(self):
        cert = _certificate(h23(), 0, 1)
        assert cert.kappa_lb == Fraction(3, 4)
        assert cert.kappa == Fraction(3, 4)

    def test_paley13_tight(self):
        g = gen_paley(13)
        for x, y in g.edges()[:4]:
            cert = _certificate(g, x, y)
            assert cert.kappa_lb == Fraction(2, 3)
            assert cert.kappa == Fraction(2, 3)

    def test_paley17(self):
        g = gen_paley(17)
        x, y = g.edges()[0]
        cert = _certificate(g, x, y)
        assert cert.kappa_lb >= Fraction(3, 8)
        assert cert.kappa_lb <= cert.kappa

    def test_octahedron(self):
        cert = _certificate(gen_cocktail(3), 0, 2)
        assert Fraction(3, 4) <= cert.kappa_lb <= cert.kappa == Fraction(1)

    def test_cost_bound_holds(self):
        for g in (h23(), gen_paley(13), gen_cocktail(3)):
            params = detect_amply_params(g)
            x, y = g.edges()[0]
            cert = _certificate(g, x, y, params)
            assert cert.pi0_cost <= Fraction(params.d - 2, params.d + 1)
            assert cert.kappa_lb >= Fraction(3, params.d)

    def test_every_edge_of_paley13(self):
        for w in _views(gen_paley(13)):
            assert w.certificate.kappa_lb == Fraction(2, 3)


class TestCertificateOnBuiltH:
    @pytest.mark.parametrize(
        "make",
        [h23, lambda: gen_paley(13), lambda: gen_cocktail(3), lambda: gen_hamming(3, 3)],
        ids=["h23", "paley13", "cocktail3", "h33"],
    )
    def test_equals_certificate_on_fresh_bipartite(self, make):
        # the reference builds its own H and decomposes it afresh, edge by edge
        g = make()
        params = detect_amply_params(g)
        for (x, y), w in zip(g.edges(), _views(g, params)):
            cert = w.certificate
            ref = reference_edge_witness(g, x, y, params).certificate
            for f in dataclasses.fields(WitnessCertificate):
                assert getattr(cert, f.name) == getattr(ref, f.name), f.name
            assert list(cert.chain_records) == verify_lemma_3_3(g, w.h, cert.matching)
            assert cert.pi0 == _pi0_by_definition(w.h, cert.chain_records)

    @pytest.mark.parametrize(
        "make",
        [h23, lambda: gen_paley(13), lambda: gen_cocktail(3), lambda: gen_hamming(3, 3)],
        ids=["h23", "paley13", "cocktail3", "h33"],
    )
    def test_chain_records_are_the_z1_class_records(self, make):
        for w in _views(make()):
            z1l, z1r = w.h.z1_edge()
            i = next(i for i, m in enumerate(w.classes) if m[z1l] == z1r)
            assert w.certificate.matching is w.classes[i]
            assert w.certificate.chain_records is w.class_records[i]

    def test_reads_the_walk_and_never_walks_again(self, monkeypatch):
        # one walk per chunk: the certificate reads its chains and walks no class itself
        g = gen_paley(13)
        counts = _count_calls(monkeypatch, [(witness_module, "_walk")])
        assert _certificate(g, *g.edges()[0]).kappa_lb == Fraction(2, 3)
        assert counts == {"_walk": 1}

    def test_rejects_a_walk_stopped_before_the_z1_class(self, monkeypatch):
        # the z1 class, with right partners of left 0 and 1 made equal, is no permutation:
        # the walk stops there, and the certificate names it
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        classes = konig_decomposition(h.b)
        i, m = _z1_class(h)
        bad = (m[1],) + m[1:]
        _patch_classes(monkeypatch, classes[:i] + (bad,) + classes[i + 1:])
        w = edge_witness(g, *g.edges()[0], detect_amply_params(g))
        assert len(w.class_records) == i and w.walk_error == "chain walk requires a perfect matching"
        assert w.certify_error == f"chain walk stopped before the z1 z1' class (class {i + 1})"

    def test_rejects_chain_longer_than_its_bound(self, monkeypatch):
        # H(2,3), x = (0,0), y = (0,1): reversing N_y sends 3 = (1,0) to 7 = (2,1), at distance
        # 2 > rho - k = 1
        g = h23()
        _reverse_ny(monkeypatch)
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        assert w.walk_error is None and w.certificate is None
        assert w.certify_error == ("chain distance bound failed: "
                                   "ChainRecord(v0=3, w0=7, distance=2, rho=1, k=0, ok=False)")

    def test_rejects_chain_sum_over_bound(self, monkeypatch):
        # sum rho = d + k - 2 holds with equality on H(2,3); one more member in a chain breaks it
        g = h23()

        def longer(walks):
            rho = walks.rho.copy()
            rho[..., 0] += 1
            return walks._replace(rho=rho)

        _tamper_walks(monkeypatch, longer)
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        assert w.certify_error == "chain length sum 3 exceeds d + k - 2 = 2"

    def test_rejects_pi0_off_the_balls(self, monkeypatch):
        # vertex 8 = (2,2) is at distance 2 from y: mass shipped there leaves B(y)
        g = h23()
        assert g.distances(8, 1) == 2

        def to_eight(v0, w0):
            w0[..., 0] = 8

        _tamper_v0_w0(monkeypatch, to_eight)
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        assert w.certificate is None
        assert w.certify_error == "plan marginals are not uniform on B(x) and B(y)"

    @pytest.mark.parametrize(
        "make", [lambda: gen_paley(13), lambda: gen_hamming(3, 3)], ids=["paley13", "h33"]
    )
    def test_verify_builds_each_witness_fact_once_per_edge(self, monkeypatch, make):
        g = make()
        params = detect_amply_params(g)
        m = g.num_edges()
        fresh = _fresh_chunks(g, params)
        names = ["_neighbourhoods", "_transport_h", "_walk", "_certify", "konig_decomposition",
                 "lly_curvature"]
        counts = _count_calls(monkeypatch, [(witness_module, n) for n in names]
                              + [(matching_module, "perfect_matchings")])
        report = verify_graph(g, graph_id="g")
        assert report.witness is not None and report.witness.passed
        chunks = -(-m // EDGE_CHUNK)
        # each chunk splits the neighbourhoods, builds its H's, walks and certifies once; each
        # edge reads its classes twice, for its walks and its certificate, and its curvature
        # once; each chunk with fresh H's decomposes them in beta - 1 matching calls
        assert counts == {
            "_neighbourhoods": chunks, "_transport_h": chunks, "_walk": chunks, "_certify": chunks,
            "konig_decomposition": 2 * m, "lly_curvature": m,
            "perfect_matchings": (params.beta - 1) * fresh,
        }

    def test_hgraph_builds_each_witness_fact_once(self, monkeypatch):
        g = gen_paley(13)
        names = ["_neighbourhoods", "_transport_h", "_walk", "konig_decomposition"]
        counts = _count_calls(
            monkeypatch,
            [(cli_module, "detect_amply_params")] + [(witness_module, n) for n in names]
            + [(matching_module, "perfect_matchings")],
        )
        _hgraph_payload(g, *g.edges()[0])
        # paley13 has beta = 3: two Konig rounds, read twice
        assert counts == {
            "detect_amply_params": 1, "_neighbourhoods": 1, "_transport_h": 1, "_walk": 1,
            "konig_decomposition": 2, "perfect_matchings": 2,
        }

    def test_equal_hs_share_one_decomposition_on_relabelled_cocktail8(self, monkeypatch):
        # cocktail(8) is (16,14,12,14): beta - 1 = 13 rounds per chunk with fresh H's, each
        # one matching call on all of that chunk's fresh H's
        g = relabelled(gen_cocktail(8), 3)
        params = detect_amply_params(g)
        m = g.num_edges()
        distinct = len({build_transport_bipartite(g, x, y, params).b.biadjacency.tobytes()
                        for x, y in g.edges()})
        assert 1 < distinct < m
        counts = _count_calls(monkeypatch, [(witness_module, "konig_decomposition"),
                                            (matching_module, "perfect_matchings")])
        batches = list(witness_batches(g, g.edges(), params))
        assert len({id(b) for batch in batches for b in batch.bipartites}) == distinct
        assert counts == {"konig_decomposition": 2 * m,
                          "perfect_matchings": 13 * _fresh_chunks(g, params)}

    def test_a_chunk_of_kept_hs_decomposes_nothing(self, monkeypatch):
        # paley29's first chunk of edges, then the same edges again: the second chunk
        # finds every H kept, so only the first chunk calls konig_stack
        g = gen_paley(29)  # (29, 14, 6, 7)
        params = detect_amply_params(g)
        chunk = g.edges()[:EDGE_CHUNK]
        counts = _count_calls(monkeypatch, [(witness_module, "konig_stack")])
        calls, hopcroft_karp = [], matching_module._hopcroft_karp
        monkeypatch.setattr(matching_module, "_hopcroft_karp",
                            lambda h: calls.append(len(h)) or hopcroft_karp(h))
        batches = witness_batches(g, chunk + chunk, params)
        first = next(batches)
        assert counts == {"konig_stack": 1} and len(calls) == params.beta - 1
        second = next(batches)
        assert counts == {"konig_stack": 1} and len(calls) == params.beta - 1
        assert all(a is b for a, b in zip(first.bipartites, second.bipartites))
        assert second.classes == first.classes and second.steps().all()

    def test_a_round_fault_on_one_h_fails_only_its_edge(self, monkeypatch):
        # graph 1 of the chunk's first round loses left vertex 0's partner: it drops out of
        # the later rounds, and its kept message fails both reads of its classes
        g = gen_paley(29)  # (29, 14, 6, 7), every H distinct
        params = detect_amply_params(g)
        edges = g.edges()[:10]
        clean = next(witness_batches(g, edges, params))
        assert len({b.biadjacency.tobytes() for b in clean.bipartites}) == len(edges)
        rounds, hopcroft_karp = [], matching_module._hopcroft_karp

        def faulty(h):
            found = hopcroft_karp(h).reshape(h.shape[:2])
            rounds.append(len(h))
            if len(rounds) == 1:
                found[1, 0] = -1
            return found.ravel()

        monkeypatch.setattr(matching_module, "_hopcroft_karp", faulty)
        [batch] = witness_batches(g, edges, params)
        message = "internal error: left vertex 0 has no partner"
        assert rounds == [10] + [9] * (params.beta - 2)
        assert batch.walk_error[1] == batch.certify_error[1] == message
        assert batch.classes[1] == () and batch.bipartites[1].konig == message
        with pytest.raises(MatchingError, match=message):
            konig_decomposition(batch.bipartites[1])
        assert len(rounds) == params.beta - 1
        others = [i for i in range(len(edges)) if i != 1]
        assert [batch.classes[i] for i in others] == [clean.classes[i] for i in others]
        assert batch.steps()[others].all() and not batch.steps()[1].all()



ORACLE_GRAPHS = {
    "h23": h23, "h33": lambda: gen_hamming(3, 3), "paley13": lambda: gen_paley(13),
    "paley29": lambda: gen_paley(29), "paley37": lambda: gen_paley(37),
    "cocktail3": lambda: gen_cocktail(3), "cocktail8": lambda: gen_cocktail(8),
}


def _understate_curvature(monkeypatch):
    for module in (witness_module, reference_witness):
        monkeypatch.setattr(module, "lly_curvature", lambda g, x, y: Fraction(0))


def _leave_left_zero_unmatched(monkeypatch):
    """Every Hopcroft-Karp call leaves left vertex 0 of each graph of its stack unmatched."""
    original = matching_module._hopcroft_karp

    def unmatched(h):
        found = original(h).reshape(h.shape[:2])
        found[:, 0] = -1
        return found.ravel()

    monkeypatch.setattr(matching_module, "_hopcroft_karp", unmatched)


class TestBatchMatchesReference:
    """The batched pass against the per-edge reference pipeline, edge by edge."""

    @staticmethod
    def _check(g):
        params = detect_amply_params(g)
        views = _views(g, params)
        assert len(views) == g.num_edges()
        for (x, y), w in zip(g.edges(), views):
            ref = reference_edge_witness(g, x, y, params)
            assert np.array_equal(w.h.b.biadjacency, ref.h.b.biadjacency)
            assert dataclasses.replace(w.h, b=ref.h.b) == ref.h
            assert (w.irregular, w.walk_error, w.certify_error) == (
                ref.irregular, ref.walk_error, ref.certify_error)
            assert w.classes == ref.classes
            assert w.class_records == ref.class_records
            assert w.certificate == ref.certificate
        assert _witness_summary(g, params) == reference_summary(g, params)

    @pytest.mark.parametrize("seed", [None, 1, 2, 3], ids=["natural", "seed1", "seed2", "seed3"])
    @pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
    def test_every_edge(self, name, seed):
        g = ORACLE_GRAPHS[name]()
        self._check(g if seed is None else relabelled(g, seed))

    @pytest.mark.parametrize("fault", [_understate_curvature, _leave_left_zero_unmatched],
                             ids=["understated-curvature", "kuhn-fault"])
    @pytest.mark.parametrize("name", ["h23", "paley13", "cocktail3"])
    def test_every_edge_under_a_fault(self, monkeypatch, name, fault):
        fault(monkeypatch)
        self._check(relabelled(ORACLE_GRAPHS[name](), 1))


def test_verify_solves_each_edge_once(monkeypatch):
    # paley13 is (13,6,2,3): every edge has a 3 + 3 B-zone to solve. The
    # table certifies each edge's curvature; the witness certificate's call on the
    # same graph reads the kept value.
    from scipy.optimize import linear_sum_assignment

    shapes = []

    def solver(cost):
        shapes.append(cost.shape)
        return linear_sum_assignment(cost)

    monkeypatch.setattr(curvature_module, "linear_sum_assignment", solver)
    g = gen_paley(13)
    report = verify_graph(g, graph_id="g")
    assert report.overall_pass and report.witness.passed
    assert shapes == [(3, 3)] * g.num_edges()


class TestVerifyCountsFailedWitnessSteps:
    """``verify``'s witness summary when a step fails on every edge."""

    GRAPHS = {"h23": (h23, 18), "h33": (lambda: gen_hamming(3, 3), 81),
              "paley13": (lambda: gen_paley(13), 39)}

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_reversed_ny_fails_chains_and_everything_after(self, monkeypatch, name):
        # reversing N_y keeps H regular and every class walk a bijection, but
        # sends chains to the wrong endpoints, so every chain-bound check fails
        _reverse_ny(monkeypatch)
        make, m = self.GRAPHS[name]
        report = verify_graph(make(), graph_id="g")
        assert report.witness == WitnessSummary(m, m, m, m, 0, 0, 0, passed=False)
        assert not report.overall_pass

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_one_corrupted_edge_drops_each_failed_count_by_one(self, monkeypatch, name):
        # N_y reversed on one edge only, in the second chunk of H(3,3)'s 81 edges: only
        # that edge's chain, pi0 and lower-bound steps fail
        make, m = self.GRAPHS[name]
        g = make()
        edge = g.edges()[min(m - 1, EDGE_CHUNK + 5)]
        hit = _reverse_ny(monkeypatch, only=_build(g, *edge))
        report = verify_graph(g, graph_id="g")
        assert len(hit) == 1
        assert report.witness == WitnessSummary(m, m, m, m, m - 1, m - 1, m - 1, passed=False)

    def test_irregular_h_is_not_decomposed(self, monkeypatch, tmp_path, capsys):
        # cocktail(3)'s H has one copy-copy (E8) edge; without it H is not
        # 3-regular, has no Konig classes and keeps the regularity message
        def drop_e8(h):
            assert h[:, -1, -1].all()  # the x-copy to x'-copy edge of every H
            h[:, -1, -1] = False

        _tamper_h(monkeypatch, drop_e8)
        g = gen_cocktail(3)
        w = edge_witness(g, 0, 2, detect_amply_params(g))
        assert w.irregular == "left x_copy1 has degree 2"
        assert w.classes == () and w.class_records == ()
        assert w.walk_error.startswith("auxiliary graph is not (beta-1)-regular: ")
        assert w.certificate is None and w.certify_error == w.walk_error
        report = verify_graph(g, graph_id="g")
        assert report.witness == WitnessSummary(12, 0, 0, 0, 0, 0, 0, passed=False)
        assert not report.overall_pass
        path = tmp_path / "cocktail3.txt"
        path.write_text(dump_edge_list(g))
        assert cli_module.main(["verify", str(path)]) == cli_module.EXIT_ASSERTION
        assert "witness pipeline: 12 edges | regular 0 | classes 0 | bijection 0" in capsys.readouterr().out

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_understated_exact_curvature_fails_only_the_certificate(self, monkeypatch, name):
        # every chain passes; the certificate then finds kappa_lb above "exact"
        monkeypatch.setattr(witness_module, "lly_curvature", lambda g, x, y: Fraction(0))
        make, m = self.GRAPHS[name]
        report = verify_graph(make(), graph_id="g")
        assert report.witness == WitnessSummary(m, m, m, m, m, 0, 0, passed=False)

    def test_a_matching_fault_in_the_witness_is_a_failed_step(self, monkeypatch, tmp_path,
                                                              capsys):
        # the Hopcroft-Karp call leaves left vertex 0 unmatched, so every Konig
        # decomposition raises MatchingError: H is regular but has no classes
        _leave_left_zero_unmatched(monkeypatch)
        g = gen_paley(13)
        fault = "internal error: left vertex 0 has no partner"
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        assert w.irregular is None and w.classes == () and w.class_records == ()
        assert w.walk_error == w.certify_error == fault and w.certificate is None
        path = tmp_path / "paley13.txt"
        path.write_text(dump_edge_list(g))
        assert cli_module.main(["verify", str(path)]) == cli_module.EXIT_ASSERTION
        out = capsys.readouterr().out
        assert ("witness pipeline: 39 edges | regular 39 | classes 0 | bijection 0 | "
                "chains 0 | pi0 0 | lower bound 0  [FAIL]") in out
        assert cli_module.main(["hgraph", str(path), "--edge", "0", "1"]) == cli_module.EXIT_INPUT
        assert capsys.readouterr() == ("", f"error: {fault}\n")

    def test_a_matching_fault_on_a_shared_h_fails_every_edge_that_reads_it(self, monkeypatch):
        # a decomposition's failure is kept on its H and raised again at each read: every
        # edge keeps the fault, on both of its reads. Each chunk's fresh H's all fail the
        # first round of its one decomposition, and no read searches again.
        g = relabelled(gen_cocktail(8), 3)
        _leave_left_zero_unmatched(monkeypatch)
        counts = _count_calls(monkeypatch, [(matching_module, "perfect_matchings")])
        m = g.num_edges()
        assert _witness_summary(g, detect_amply_params(g)) == WitnessSummary(
            m, m, 0, 0, 0, 0, 0, passed=False)
        assert counts == {"perfect_matchings": -(-m // EDGE_CHUNK)}

    def test_a_matching_fault_in_the_dense_stage_is_an_uncertified_edge(self, monkeypatch,
                                                                        tmp_path, capsys):
        # K_{3,3} is (6,3,0,3): dense regime (2*3 - 0 >= 4), no witness stage; the
        # Hopcroft-Karp call leaves left vertex 0 of every host graph unmatched
        _leave_left_zero_unmatched(monkeypatch)
        g = Graph(6, [(u, v) for u in range(3) for v in range(3, 6)])
        report = verify_graph(g, graph_id="g")
        assert report.witness is None
        assert report.dense_match.edges_certified == 0 and not report.dense_match.passed
        assert not report.overall_pass
        path = tmp_path / "k33.txt"
        path.write_text(dump_edge_list(g))
        assert cli_module.main(["verify", str(path)]) == cli_module.EXIT_ASSERTION
        out = capsys.readouterr().out
        assert "dense-matching certificate: kappa = 2/3 on 0 edges  [FAIL]" in out


def _recording_dense(monkeypatch, fail_on=None):
    """Wrap the dense certificate's `dense_perfect_matchings`; returns the list of the
    bipartite graphs of every stack it is called on. Graph ``fail_on`` (0-based) loses its
    left vertex 0's partner in the Hopcroft-Karp call; every graph of its stack must be
    dense, so that the call's stack is the whole stack."""
    seen = []
    original = witness_module.dense_perfect_matchings
    hopcroft_karp = matching_module._hopcroft_karp

    def recording(h):
        first = len(seen)
        seen.extend(map(Bipartite, h))
        with monkeypatch.context() as patch:
            if fail_on is not None and first <= fail_on < len(seen):
                def unmatched(stack):
                    assert len(stack) == len(h)
                    found = hopcroft_karp(stack).reshape(stack.shape[:2])
                    found[fail_on - first, 0] = -1
                    return found.ravel()

                patch.setattr(matching_module, "_hopcroft_karp", unmatched)
            return original(h)

    monkeypatch.setattr(witness_module, "dense_perfect_matchings", recording)
    return seen


def _dense_table(g):
    """prop_3_1_certificate on every edge of g, one call, with the curvature table's kappas."""
    table = curvature_all_edges(g)
    return prop_3_1_certificate(g, [(u, v) for u, v, _ in table.rows],
                                [k for _, _, k in table.rows], detect_amply_params(g))


class TestDenseMatchCertificate:
    def test_octahedron(self, monkeypatch):
        g = gen_cocktail(3)
        seen = _recording_dense(monkeypatch)
        assert lly_curvature(g, 0, 2) == Fraction(1)
        assert prop_3_1_certificate(g, [(0, 2)], [Fraction(1)], detect_amply_params(g)) == [(0,)]
        assert [b.biadjacency.tolist() for b in seen] == [[[True]]]

    def test_cocktail4(self):
        g = gen_cocktail(4)
        x, y = g.edges()[0]
        assert lly_curvature(g, x, y) == Fraction(1)
        [matching] = prop_3_1_certificate(g, [(x, y)], [Fraction(1)], detect_amply_params(g))
        assert matching == (0,)

    def test_hypercube_alpha_zero(self, monkeypatch):
        # d=3, alpha=0, beta=2: 2*2 - 0 >= 4, so every edge's kappa is certified 2/3 on
        # the two host edges between N_x and N_y
        g = gen_hypercube(3)
        seen = _recording_dense(monkeypatch)
        assert {k for _, _, k in curvature_all_edges(g).rows} == {Fraction(2, 3)}
        results = _dense_table(g)
        assert len(results) == len(seen) == 12
        assert all(is_perfect(m, b) for m, b in zip(results, seen))

    def test_regime_guard(self):
        g = gen_paley(13)
        with pytest.raises(WitnessError, match="2\\*beta"):
            prop_3_1_certificate(g, g.edges()[:1], [Fraction(1)], detect_amply_params(g))

    def test_rejects_kappa_off_the_dense_value(self):
        g = gen_cocktail(4)
        results = prop_3_1_certificate(g, g.edges()[:2], [Fraction(1), Fraction(5, 6)],
                                       detect_amply_params(g))
        assert results == [(0,), "exact curvature 5/6 differs from (2+alpha)/d = 1"]

    def test_a_matching_fault_on_one_edge_keeps_its_reason(self, monkeypatch, tmp_path, capsys):
        # the stand-in raises on the fifth edge of cocktail(4); every other edge is certified
        g = gen_cocktail(4)
        m = g.num_edges()
        path = tmp_path / "cocktail4.txt"
        path.write_text(dump_edge_list(g))
        _recording_dense(monkeypatch, fail_on=4)
        assert cli_module.main(["verify", str(path)]) == cli_module.EXIT_ASSERTION
        out = capsys.readouterr().out
        assert f"dense-matching certificate: kappa = 1 on {m - 1} edges  [FAIL]" in out
        seen = _recording_dense(monkeypatch, fail_on=4)
        results = _dense_table(g)
        assert results[4] == "internal error: left vertex 0 has no partner"
        assert all(is_perfect(r, b) for i, (r, b) in enumerate(zip(results, seen)) if i != 4)

    def test_verify_certifies_on_the_table_kappa_without_probes(self, monkeypatch):
        # cocktail(4) is in both the witness and the dense regime: one
        # lly_curvature call per edge for the table, one in the witness certificate
        g = gen_cocktail(4)
        calls = {"lly": 0, "certificate": 0, "probes": 0}
        inside = [False]

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        def certificate(*args, _original=witness_module.prop_3_1_certificate):
            calls["certificate"] += 1
            inside[0] = True
            try:
                return _original(*args)
            finally:
                inside[0] = False

        def is_edge(self, u, v, _original=Graph.is_edge):
            calls["probes"] += inside[0]
            return _original(self, u, v)

        for module in (curvature_module, witness_module):
            monkeypatch.setattr(module, "lly_curvature", counting("lly", module.lly_curvature))
        monkeypatch.setattr(witness_module, "prop_3_1_certificate", certificate)
        monkeypatch.setattr(Graph, "is_edge", is_edge)
        report = verify_graph(g, graph_id="g")
        assert report.dense_match is not None and report.dense_match.passed
        m = g.num_edges()
        # one certificate call for every edge
        assert calls == {"lly": 2 * m, "certificate": 1, "probes": 0}

    def test_works_through_the_edges_a_chunk_at_a_time(self, monkeypatch):
        # cocktail(8)'s 112 edges in one call: split as witness_batches splits them
        sizes, split = [], witness_module._neighbourhoods

        def recording(xy, sets, params):
            sizes.append(len(xy))
            return split(xy, sets, params)

        monkeypatch.setattr(witness_module, "_neighbourhoods", recording)
        g = gen_cocktail(8)
        results = _dense_table(g)
        assert sizes == [EDGE_CHUNK, g.num_edges() - EDGE_CHUNK]
        assert len(results) == g.num_edges() and not any(isinstance(r, str) for r in results)

    def test_one_matching_call_per_chunk(self, monkeypatch):
        # cocktail(8)'s 112 edges: every host graph of a chunk is matched in one call
        g = gen_cocktail(8)
        counts = _count_calls(monkeypatch, [(witness_module, "dense_perfect_matchings")])
        calls, hopcroft_karp = [], matching_module._hopcroft_karp
        monkeypatch.setattr(matching_module, "_hopcroft_karp",
                            lambda h: calls.append(h.shape) or hopcroft_karp(h))
        results = _dense_table(g)
        p = 14 - 1 - 12
        assert counts == {"dense_perfect_matchings": 2}
        assert calls == [(EDGE_CHUNK, p, p), (g.num_edges() - EDGE_CHUNK, p, p)]
        assert not any(isinstance(r, str) for r in results)

    def test_min_degree_meets_dense_condition(self, monkeypatch):
        # each host block is the reference's N_x-N_y graph; cocktail(8)'s 112 edges
        # span two chunks
        for g in (gen_cocktail(4), gen_cocktail(8)):
            seen = _recording_dense(monkeypatch)
            params = detect_amply_params(g)
            results = _dense_table(g)
            p = params.d - 1 - params.alpha
            assert len(seen) == len(results) == g.num_edges()
            for (x, y), b, matching in zip(g.edges(), seen, results):
                h = b.biadjacency
                assert h.shape == (p, p) and 2 * min(*h.sum(axis=1), *h.sum(axis=0)) >= p
                assert np.array_equal(h, reference_witness.dense_bipartite(g, x, y).biadjacency)
                assert is_perfect(matching, b)
