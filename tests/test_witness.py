import dataclasses
from fractions import Fraction

import pytest

import arcurv.cli as cli_module
import arcurv.curvature as curvature_module
import arcurv.matching as matching_module
import arcurv.witness as witness_module
from arcurv import (
    detect_amply_params,
    dump_edge_list,
    edge_partition,
    gen_cocktail,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    lly_curvature,
)
from arcurv.cli import _hgraph_payload
from arcurv.graph import Graph
from arcurv.matching import konig_decomposition
from arcurv.report import WitnessSummary, verify_graph
from arcurv.witness import (
    CLASS_NAMES,
    WitnessCertificate,
    WitnessError,
    build_transport_bipartite,
    certify_witness,
    check_h_regular,
    edge_witness,
    prop_3_1_certificate,
    verify_lemma_3_3,
)
from conftest import plan_cost


def h23():
    return gen_hamming(2, 3)


def _classes_by_definition(g, x, y, params):
    """E1-E8 of H from is_edge probes over N_x, Delta and N_y in sorted host order."""
    part = edge_partition(g, x, y)
    nx, delta, ny = part.nx, part.delta, part.ny
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


def _drop_last_copy_edge(h):
    """``h`` without the last edge of its last row, an x-copy to x'-copy (E8) edge."""
    adj = h.b.adj[:-1] + (h.b.adj[-1][:-1],)
    return dataclasses.replace(h, b=dataclasses.replace(h.b, adj=adj))


def _build(g, x, y):
    return build_transport_bipartite(g, x, y, detect_amply_params(g))


def _certificate(g, x, y, params=None):
    return edge_witness(g, x, y, params or detect_amply_params(g)).certificate


def _walk(g, h):
    """Every Konig class's chain records on ``h``, walked afresh."""
    return tuple(tuple(verify_lemma_3_3(g, h, m)) for m in konig_decomposition(h.b))


def _certify(g, h):
    """``certify_witness`` on ``h`` and fresh class walks."""
    return certify_witness(g, h, check_h_regular(h), _walk(g, h))


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


class TestConstruction:
    def test_h23_layout(self):
        g = h23()
        h = _build(g, 0, 1)
        # d=4, alpha=1, beta=2: two exclusive neighbors, one common, no copies
        assert (len(h.nx), len(h.delta), h.b.left_n) == (2, 1, 3)
        assert h.z1_edge() == (2, 2)

    def test_paley13_layout(self):
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        # d=6, alpha=2, beta=3: no synthetic copies
        assert (len(h.nx), len(h.delta), h.b.left_n) == (3, 2, 5)

    def test_octahedron_layout(self):
        g = gen_cocktail(3)
        h = _build(g, 0, 2)
        # d=4, alpha=2, beta=4: one exclusive pair, one synthetic copy
        assert (len(h.nx), len(h.delta), h.b.left_n) == (1, 2, 4)

    @pytest.mark.parametrize(
        "make",
        [lambda: gen_paley(13), lambda: gen_paley(17), h23, lambda: gen_hamming(3, 3),
         lambda: gen_cocktail(4), k333],
        ids=["paley13", "paley17", "h23", "h33", "cocktail4", "k333"],
    )
    def test_classes_equal_definition_in_order(self, make):
        g = make()
        params = detect_amply_params(g)
        for x, y in g.edges():
            h = build_transport_bipartite(g, x, y, params)
            assert h.edge_classes == _classes_by_definition(g, x, y, params)

    def test_class_names_cover_all_classes(self):
        assert sorted(CLASS_NAMES) == list(range(1, 9))
        g = gen_cocktail(3)
        h = _build(g, 0, 2)
        assert len(h.edge_classes) == 8

    def test_diagonal_class_size_is_alpha(self):
        for g, e in ((h23(), (0, 1)), (gen_cocktail(3), (0, 2))):
            params = detect_amply_params(g)
            h = build_transport_bipartite(g, *e, params)
            assert len(h.edge_classes[3]) == params.alpha

    def test_copy_classes_empty_when_beta_is_alpha_plus_one(self):
        h = _build(h23(), 0, 1)
        assert h.edge_classes[5] == h.edge_classes[6] == h.edge_classes[7] == ()

    def test_girth4_rejected(self):
        with pytest.raises(WitnessError, match="alpha"):
            _build(gen_hypercube(3), 0, 1)

    def test_names(self):
        h = _build(h23(), 0, 1)
        left = [h.left_name(i) for i in range(h.b.left_n)]
        right = [h.right_name(i) for i in range(h.b.left_n)]
        assert left[-1].startswith("z") and right[-1].endswith("'")
        assert all(n.startswith("v") for n in left[:2])
        assert all(n.startswith("w") for n in right[:2])


class TestRegularity:
    def test_h23(self):
        h = _build(h23(), 0, 1)
        assert check_h_regular(h) is None and h.beta - 1 == 1

    def test_paley13(self):
        g = gen_paley(13)
        for x, y in g.edges()[:5]:
            h = _build(g, x, y)
            assert check_h_regular(h) is None and h.beta - 1 == 2

    def test_octahedron(self):
        h = _build(gen_cocktail(3), 0, 2)
        assert check_h_regular(h) is None and h.beta - 1 == 3
        assert {len(row) for row in h.b.adj} == set(h.b.right_degrees) == {3}

    def test_corrupted_graph_flagged(self):
        h = _build(gen_cocktail(3), 0, 2)
        assert h.edge_classes[7], "expected at least one copy-copy edge to remove"
        assert check_h_regular(_drop_last_copy_edge(h)) == "left x_copy1 has degree 2"

    def test_irregular_right_side_flagged(self):
        # every row keeps 3 entries, but the x-copy's row (1, 2, 3) moves its
        # edge to z4' onto w1, which then has degree 4
        h = _build(gen_cocktail(3), 0, 2)
        assert h.b.adj[3] == (1, 2, 3)
        b = dataclasses.replace(h.b, adj=h.b.adj[:3] + ((0, 2, 3),))
        assert check_h_regular(dataclasses.replace(h, b=b)) == "right w1 has degree 4"


class TestChains:
    def test_h23_direct_chains(self):
        g = h23()
        h = _build(g, 0, 1)
        chains = verify_lemma_3_3(g, h, _z1_class(h)[1])
        assert len(chains) == 2
        # 1-regular H: every exclusive neighbor matches straight across
        assert all(c.rho == 1 and c.k == 0 for c in chains)

    def test_chain_map_is_bijection(self):
        for g in (gen_paley(13), gen_cocktail(3), gen_cocktail(4)):
            x, y = g.edges()[0]
            h = _build(g, x, y)
            for m in konig_decomposition(h.b):
                chains = verify_lemma_3_3(g, h, m)
                assert sorted(c.w0 for c in chains) == sorted(h.ny)

    def test_distance_bound_every_matching(self):
        for g in (h23(), gen_paley(13), gen_cocktail(3), gen_paley(17)):
            x, y = g.edges()[0]
            h = _build(g, x, y)
            for m in konig_decomposition(h.b):
                assert all(r.ok for r in verify_lemma_3_3(g, h, m))

    def test_chain_sum_bound_for_z1_matching(self):
        for g in (h23(), gen_paley(13), gen_cocktail(3), gen_paley(17)):
            params = detect_amply_params(g)
            x, y = g.edges()[0]
            h = build_transport_bipartite(g, x, y, params)
            chains = verify_lemma_3_3(g, h, _z1_class(h)[1])
            k_total = sum(c.k for c in chains)
            assert sum(c.rho for c in chains) <= params.d + k_total - 2

    # paley13: N_x is left 0..2, Delta is left 3..4; the walk refuses a matching that is not a
    # permutation of H's side before it starts

    def test_revisiting_chain_rejected(self):
        # right 3 twice: the chain from 0 would cycle 3 -> 4 -> 3
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        assert (len(h.nx), h.b.left_n) == (3, 5)
        with pytest.raises(WitnessError, match="perfect"):
            verify_lemma_3_3(g, h, (3, 1, 2, 4, 3))

    def test_non_bijective_chain_map_rejected(self):
        # right 0 twice: N_x vertices 0 and 1 would both end at the first N_y vertex
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        with pytest.raises(WitnessError, match="perfect"):
            verify_lemma_3_3(g, h, (0, 0, 2, 3, 4))

    @pytest.mark.parametrize(
        "m",
        [(-1, 1, 0, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 3)],
        ids=["minus-one", "past-the-side", "short"],
    )
    def test_entry_outside_the_side_rejected(self, m):
        # -1 would wrap to the last N_y vertex and give three chain records; 5 is no index of H
        g = gen_paley(13)
        h = _build(g, *g.edges()[0])
        with pytest.raises(WitnessError, match="perfect"):
            verify_lemma_3_3(g, h, m)

    def test_imperfect_matching_rejected(self):
        h = _build(h23(), 0, 1)
        with pytest.raises(WitnessError, match="perfect"):
            verify_lemma_3_3(h23(), h, (0,))


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
        # certify_witness sums BFS distances in integers; plan_cost sums d(v, w) * mass
        g = make()
        params = detect_amply_params(g)
        for x, y in g.edges():
            cert = _certificate(g, x, y, params)
            assert cert.pi0_cost == plan_cost(g, _pi0_plan(cert, params.d))
            assert len(cert.pi0) == params.d + 1
            assert cert.pi0 == tuple(sorted(cert.pi0))
            assert all(type(v) is int and type(w) is int for v, w in cert.pi0)
            # the marginals of mass 1/(d+1) per pair are uniform on B(x) and B(y)
            assert [v for v, _ in cert.pi0] == sorted((x,) + g.neighbors(x))
            assert sorted(w for _, w in cert.pi0) == sorted((y,) + g.neighbors(y))

    def test_requires_z1_edge(self, monkeypatch):
        # certify_witness rejects classes of which none contains z1 z1'
        g = gen_paley(13)
        x, y = g.edges()[0]
        h = _build(g, x, y)
        z1l, z1r = h.z1_edge()
        class_records = _walk(g, h)
        others = tuple(m for m in konig_decomposition(h.b) if m[z1l] != z1r)
        assert others, "decomposition should contain a class avoiding z1 z1'"
        monkeypatch.setattr(witness_module, "konig_decomposition", lambda b: others)
        with pytest.raises(WitnessError, match="z1"):
            certify_witness(g, h, check_h_regular(h), class_records)


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
        g = gen_paley(13)
        for x, y in g.edges():
            cert = _certificate(g, x, y)
            assert cert.kappa_lb == Fraction(2, 3)


class TestCertificateOnBuiltH:
    @pytest.mark.parametrize(
        "make",
        [h23, lambda: gen_paley(13), lambda: gen_cocktail(3), lambda: gen_hamming(3, 3)],
        ids=["h23", "paley13", "cocktail3", "h33"],
    )
    def test_equals_certificate_on_fresh_bipartite(self, make):
        g = make()
        params = detect_amply_params(g)
        for x, y in g.edges():
            h = build_transport_bipartite(g, x, y, params)
            # edge_witness decomposes h.b before certifying; these walks are fresh
            cert = _certify(g, h)
            ref = _certificate(g, x, y, params)
            for f in dataclasses.fields(WitnessCertificate):
                assert getattr(cert, f.name) == getattr(ref, f.name), f.name
            m = cert.matching
            assert list(cert.chain_records) == verify_lemma_3_3(g, h, m)
            assert cert.pi0 == _pi0_by_definition(h, cert.chain_records)

    @pytest.mark.parametrize(
        "make",
        [h23, lambda: gen_paley(13), lambda: gen_cocktail(3), lambda: gen_hamming(3, 3)],
        ids=["h23", "paley13", "cocktail3", "h33"],
    )
    def test_chain_records_are_the_z1_class_records(self, make):
        g = make()
        params = detect_amply_params(g)
        for x, y in g.edges():
            w = edge_witness(g, x, y, params)
            z1l, z1r = w.h.z1_edge()
            i = next(i for i, m in enumerate(w.classes) if m[z1l] == z1r)
            assert w.certificate.matching is w.classes[i]
            assert w.certificate.chain_records is w.class_records[i]

    def test_reads_the_walk_and_never_walks_again(self, monkeypatch):
        g = gen_paley(13)
        x, y = g.edges()[0]
        h = _build(g, x, y)
        class_records = _walk(g, h)

        def no_walk(*args):
            raise AssertionError("certify_witness walked a class")

        monkeypatch.setattr(witness_module, "verify_lemma_3_3", no_walk)
        cert = certify_witness(g, h, check_h_regular(h), class_records)
        assert cert.kappa_lb == Fraction(2, 3)

    def test_rejects_a_walk_stopped_before_the_z1_class(self):
        g = gen_paley(13)
        x, y = g.edges()[0]
        h = _build(g, x, y)
        class_records = _walk(g, h)
        i, _ = _z1_class(h)
        with pytest.raises(WitnessError, match="chain walk stopped before the z1 z1' class"):
            certify_witness(g, h, check_h_regular(h), class_records[:i])

    def test_rejects_chain_longer_than_its_bound(self):
        # H(2,3), x = (0,0), y = (0,1): reversing N_y sends (1,0) to (2,1), at distance 2 > rho - k = 1
        g = h23()
        h = _build(g, 0, 1)
        swapped = dataclasses.replace(h, ny=h.ny[::-1])
        with pytest.raises(WitnessError, match="chain distance bound failed"):
            _certify(g, swapped)

    def test_rejects_chain_sum_over_bound(self):
        # sum rho = d + k - 2 holds with equality on H(2,3); one less degree breaks it
        g = h23()
        h = _build(g, 0, 1)
        with pytest.raises(WitnessError, match="chain length sum"):
            _certify(g, dataclasses.replace(h, d=h.d - 1))

    def test_rejects_pi0_off_the_balls(self, monkeypatch):
        # vertex 8 = (2,2) is at distance 2 from x: mass kept there leaves B(x)
        g = h23()
        h = _build(g, 0, 1)
        moved = dataclasses.replace(h, delta=(8,))
        with pytest.raises(WitnessError, match="marginals"):
            _certify(g, moved)
        # edge_witness keeps the message, as it keeps every failed step's
        monkeypatch.setattr(witness_module, "build_transport_bipartite", lambda *args: moved)
        w = edge_witness(g, 0, 1, detect_amply_params(g))
        assert w.certificate is None and "marginals" in w.certify_error

    @pytest.mark.parametrize(
        "make", [lambda: gen_paley(13), lambda: gen_hamming(3, 3)], ids=["paley13", "h33"]
    )
    def test_verify_builds_each_witness_fact_once_per_edge(self, monkeypatch, make):
        g = make()
        beta = detect_amply_params(g).beta
        names = ["build_transport_bipartite", "check_h_regular", "konig_decomposition",
                 "verify_lemma_3_3"]
        counts = _count_calls(monkeypatch, [(witness_module, n) for n in names]
                              + [(matching_module, "_kuhn")])
        report = verify_graph(g, graph_id="g")
        assert report.witness is not None and report.witness.passed
        m = g.num_edges()
        # H is decomposed once, beta - 1 Kuhn rounds, and read twice: by edge_witness and by
        # certify_witness; beta - 1 classes walked once each; certify_witness reads the z1
        # class's walk
        assert counts == {
            "build_transport_bipartite": m, "check_h_regular": m, "konig_decomposition": 2 * m,
            "verify_lemma_3_3": (beta - 1) * m, "_kuhn": (beta - 1) * m,
        }

    def test_hgraph_builds_each_witness_fact_once(self, monkeypatch):
        g = gen_paley(13)
        names = ["build_transport_bipartite", "check_h_regular", "verify_lemma_3_3"]
        counts = _count_calls(
            monkeypatch,
            [(cli_module, "detect_amply_params")] + [(witness_module, n) for n in names],
        )
        _hgraph_payload(g, *g.edges()[0])
        # paley13 has beta = 3: two Konig classes, each walked once
        assert counts == {
            "detect_amply_params": 1, "build_transport_bipartite": 1, "check_h_regular": 1,
            "verify_lemma_3_3": 2,
        }


def test_verify_solves_each_edge_once(monkeypatch):
    # paley13 is (13,6,2,3): every edge has a 3 + 3 B-zone to solve. The
    # table certifies each edge's curvature; certify_witness's call on the
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
        build = witness_module.build_transport_bipartite

        def reversed_ny(*args, **kwargs):
            h = build(*args, **kwargs)
            return dataclasses.replace(h, ny=h.ny[::-1])

        monkeypatch.setattr(witness_module, "build_transport_bipartite", reversed_ny)
        make, m = self.GRAPHS[name]
        report = verify_graph(make(), graph_id="g")
        assert report.witness == WitnessSummary(m, m, m, m, 0, 0, 0, passed=False)
        assert not report.overall_pass

    def test_irregular_h_is_not_decomposed(self, monkeypatch, tmp_path, capsys):
        # cocktail(3)'s H has one copy-copy (E8) edge; without it H is not
        # 3-regular, has no Konig classes and keeps the regularity message
        build = witness_module.build_transport_bipartite

        def dropped_e8(*args, **kwargs):
            h = build(*args, **kwargs)
            assert len(h.edge_classes[7]) == 1
            return _drop_last_copy_edge(h)

        monkeypatch.setattr(witness_module, "build_transport_bipartite", dropped_e8)
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
        # every chain passes; certify_witness then finds kappa_lb above "exact"
        monkeypatch.setattr(witness_module, "lly_curvature", lambda g, x, y: Fraction(0))
        make, m = self.GRAPHS[name]
        report = verify_graph(make(), graph_id="g")
        assert report.witness == WitnessSummary(m, m, m, m, m, 0, 0, passed=False)

    def test_a_matching_fault_in_the_witness_is_a_failed_step(self, monkeypatch, tmp_path,
                                                              capsys):
        # Kuhn's search leaves left vertex 0 unmatched, so every Konig
        # decomposition raises MatchingError: H is regular but has no classes
        kuhn = matching_module._kuhn

        def unmatched_first(adj, right_n):
            return [-1] + kuhn(adj, right_n)[1:]

        monkeypatch.setattr(matching_module, "_kuhn", unmatched_first)
        g = gen_paley(13)
        fault = "internal error: Kuhn's search found no perfect matching"
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

    def test_a_matching_fault_in_the_dense_stage_is_an_uncertified_edge(self, monkeypatch,
                                                                        tmp_path, capsys):
        # K_{3,3} is (6,3,0,3): dense regime (2*3 - 0 >= 4), no witness stage
        def no_matching(b):
            raise matching_module.MatchingError("internal error: a matched pair is not an edge")

        monkeypatch.setattr(witness_module, "dense_perfect_matching", no_matching)
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


class TestDenseMatchCertificate:
    def test_octahedron(self):
        g = gen_cocktail(3)
        cert = prop_3_1_certificate(g, 0, 2, lly_curvature(g, 0, 2), detect_amply_params(g))
        assert cert.kappa == Fraction(1)
        assert cert.matching == (0,)
        assert cert.bipartite.adj == ((0,),)

    def test_cocktail4(self):
        g = gen_cocktail(4)
        x, y = g.edges()[0]
        cert = prop_3_1_certificate(g, x, y, Fraction(1), detect_amply_params(g))
        assert cert.kappa == Fraction(1)
        assert cert.kappa == lly_curvature(g, x, y)

    def test_hypercube_alpha_zero(self):
        # d=3, alpha=0, beta=2: 2*2 - 0 >= 4, certificate gives kappa = 2/3
        g = gen_hypercube(3)
        cert = prop_3_1_certificate(g, 0, 1, lly_curvature(g, 0, 1), detect_amply_params(g))
        assert cert.kappa == Fraction(2, 3)

    def test_regime_guard(self):
        g = gen_paley(13)
        with pytest.raises(WitnessError, match="2\\*beta"):
            prop_3_1_certificate(g, *g.edges()[0], Fraction(1), detect_amply_params(g))

    def test_rejects_kappa_off_the_dense_value(self):
        g = gen_cocktail(4)
        with pytest.raises(WitnessError, match="differs from"):
            prop_3_1_certificate(g, *g.edges()[0], Fraction(5, 6), detect_amply_params(g))

    def test_verify_certifies_on_the_table_kappa_without_probes(self, monkeypatch):
        # cocktail(4) is in both the witness and the dense regime: one
        # lly_curvature call per edge for the table, one inside certify_witness
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
        assert calls == {"lly": 2 * m, "certificate": m, "probes": 0}

    def test_min_degree_meets_dense_condition(self):
        g = gen_cocktail(4)
        x, y = g.edges()[0]
        cert = prop_3_1_certificate(g, x, y, Fraction(1), detect_amply_params(g))
        p = len(cert.bipartite.adj)
        assert 2 * cert.bipartite.min_degree() >= p
