import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from arcurv import (
    CurvatureError,
    Graph,
    GraphError,
    certify_assignments,
    curvature_all_edges,
    detect_amply_params,
    gen_complete,
    gen_cocktail,
    gen_cycle,
    gen_hamming,
    gen_hypercube,
    gen_paley,
    gen_shrikhande,
    kantorovich_potential,
    kappa_p_all_edges,
    lly_curvature,
    mu_p,
    ollivier_kappa_p,
    wasserstein,
)

import arcurv.curvature as curvature_module
import arcurv.witness as witness_module
from arcurv.curvature import ASSIGNMENT_CHUNK
from arcurv.witness import edge_witness
from conftest import (
    brute_regular_wasserstein,
    mixed_regular_graphs,
    plan_cost,
    random_connected_graph,
    random_connected_regular_graph,
    relabelled,
)


def _balls(g, x, y):
    """The closed neighborhoods B(x) and B(y), sorted."""
    return sorted((x,) + g.neighbors(x)), sorted((y,) + g.neighbors(y))


def _differences(g, x, y):
    """B(x) - B(y) and B(y) - B(x), sorted: the zone halves of edge xy's B pass."""
    bx, by = map(set, _balls(g, x, y))
    return sorted(bx - by), sorted(by - bx)


def _one_zone(g, sources, targets, edge):
    """W = C/k and the plan of one problem, through `certify_assignments` on one zone.

    The plan is its sorted ((source, target), 1/k) pairs, as `plan_cost` reads them.
    """
    costs, plans = certify_assignments(g, np.array([[*sources, *targets]]), [edge])
    k = len(sources)
    unit = Fraction(1, k)
    plan = sorted((pair, unit) for pair in zip(sources, plans[0].tolist()))
    return Fraction(int(costs[0]), k), plan


def _ball_value(g, x, y):
    """W(unif B(x), unif B(y)) of edge xy by the one-zone certified assignment."""
    return _one_zone(g, *_balls(g, x, y), (x, y))[0]


def _marginals(plan):
    """The row and column sums of ``plan``'s ((v, w), mass) pairs, summed in Fractions."""
    rows, cols = {}, {}
    for (v, w), m in plan:
        rows[v] = rows.get(v, 0) + m
        cols[w] = cols.get(w, 0) + m
    return rows, cols


def _flow_kappa(g, x, y, p):
    """kappa_p by the min-cost flow, the reference for the regular-edge formula."""
    return 1 - wasserstein(g, mu_p(g, x, p), mu_p(g, y, p)) / g.distance(x, y)


def _first_edge_witness(monkeypatch, g, name=None, column=None, value=None):
    """The witness of g's first edge, whose certificate reads pi0 off the walked chains.

    With ``name`` (v0 or w0), column ``column`` of the walks' (m, K, p) array
    of that name is set to ``value(array)`` in every class, the z1 z1' class
    among them, before the certificate reads it: a chain's source or target
    is moved, so one of pi0's marginals breaks.
    """
    if name is not None:
        walk = witness_module._walk

        def tampered(*args):
            walks = walk(*args)
            array = getattr(walks, name).copy()
            array[..., column] = value(array)
            return walks._replace(**{name: array})

        monkeypatch.setattr(witness_module, "_walk", tampered)
    return edge_witness(g, *g.edges()[0], detect_amply_params(g))


class TestMuP:
    def test_dirac(self):
        g = gen_cycle(5)
        assert mu_p(g, 2, Fraction(1)) == {2: Fraction(1)}

    def test_q3_quarter(self):
        g = gen_hypercube(3)
        assert mu_p(g, 0, Fraction(1, 4)) == {v: Fraction(1, 4) for v in (0, 1, 2, 4)}

    def test_zero_idleness_drops_center(self):
        g = gen_complete(3)
        assert mu_p(g, 0, Fraction(0)) == {1: Fraction(1, 2), 2: Fraction(1, 2)}

    def test_out_of_range(self):
        with pytest.raises(CurvatureError):
            mu_p(gen_cycle(5), 0, Fraction(3, 2))

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_rejects_a_vertex_outside_the_graph(self, bad):
        # -1 would otherwise return vertex 5's measure under the key -1.
        g = gen_cycle(6)
        for p in (Fraction(0), Fraction(1, 2), Fraction(1)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                mu_p(g, bad, p)

    def test_isolated_vertex_needs_full_idleness(self):
        g = Graph(3, [(0, 1)])
        assert mu_p(g, 2, Fraction(1)) == {2: Fraction(1)}
        for p in (Fraction(0), Fraction(1, 2)):
            with pytest.raises(CurvatureError, match="isolated vertex 2 requires p = 1"):
                mu_p(g, 2, p)


class TestPlanCost:
    def test_identity_plan(self):
        g = gen_cycle(6)
        plan = [((v, v), mass) for v, mass in mu_p(g, 0, Fraction(1, 3)).items()]
        assert plan_cost(g, plan) == 0

    def test_dirac_to_dirac(self):
        g = gen_cycle(6)
        assert plan_cost(g, [((0, 1), Fraction(1))]) == 1

    def test_negative_mass_rejected(self):
        g = gen_cycle(6)
        plan = [((0, 1), Fraction(-1)), ((0, 2), Fraction(2))]
        with pytest.raises(ValueError, match="negative plan mass"):
            plan_cost(g, plan)

    def test_uniform_plan_check(self, monkeypatch):
        # pi0 of paley13's first edge: three chains, mass 1/7 per pair
        g = gen_paley(13)
        x, y = g.edges()[0]
        good = _first_edge_witness(monkeypatch, g).certificate
        unit = Fraction(1, len(good.pi0))
        assert [v for v, _ in good.pi0] == sorted((x,) + g.neighbors(x))
        assert sorted(w for _, w in good.pi0) == sorted((y,) + g.neighbors(y))
        assert plan_cost(g, [(pair, unit) for pair in good.pi0]) == good.pi0_cost
        bad = [
            ("v0", 1, lambda v0: v0[..., 0]),  # the source of chain 0 ships twice, chain 1's never
            ("w0", 1, lambda w0: w0[..., 0]),  # the target of chain 1 receives nothing
        ]
        for tamper in bad:
            with monkeypatch.context() as patch:
                w = _first_edge_witness(patch, g, *tamper)
            assert w.certificate is None
            assert w.certify_error == "plan marginals are not uniform on B(x) and B(y)"

    def test_uniform_plan_check_rejects_each_broken_marginal(self, monkeypatch):
        # pi0 carries no masses, so a non-uniform mass cannot be written; the
        # source and target cases still are
        g = gen_paley(13)
        x, y = g.edges()[0]
        r0 = _first_edge_witness(monkeypatch, g).certificate.chain_records[0]
        outside = next(v for v in range(g.n) if g.distance(v, y) == 2 and v != r0.w0)
        bad = [
            ("v0", 2, lambda v0: v0[..., 0]),  # the source of chain 0 twice, chain 2's never
            ("w0", 0, lambda w0: outside),  # a target outside B(y)
        ]
        for tamper in bad:
            with monkeypatch.context() as patch:
                w = _first_edge_witness(patch, g, *tamper)
            assert w.certificate is None
            assert w.certify_error == "plan marginals are not uniform on B(x) and B(y)"


class TestWasserstein:
    def test_equal_measures(self):
        g = gen_cycle(6)
        m = mu_p(g, 0, Fraction(1, 3))
        assert wasserstein(g, m, m) == 0

    def test_dirac_to_dirac_is_distance(self):
        g = gen_hypercube(3)
        assert wasserstein(g, {0: Fraction(1)}, {7: Fraction(1)}) == 3

    def test_q3_edge_quarter_idleness(self):
        g = gen_hypercube(3)
        mu1, mu2 = mu_p(g, 0, Fraction(1, 4)), mu_p(g, 1, Fraction(1, 4))
        value = wasserstein(g, mu1, mu2)
        assert value == Fraction(1, 2)
        # 0 and 1 stay, 2 -> 3 and 4 -> 5 cross one edge each: a plan of cost W
        quarter = Fraction(1, 4)
        plan = [((0, 0), quarter), ((1, 1), quarter), ((2, 3), quarter), ((4, 5), quarter)]
        assert plan_cost(g, plan) == value
        assert _marginals(plan) == (mu1, mu2)

    def test_agrees_with_brute_force_bijections(self):
        for g in (gen_cycle(6), gen_hypercube(3), gen_cocktail(3), gen_hamming(2, 3)):
            d = g.regular_degree()
            p = Fraction(1, d + 1)
            for x, y in g.edges()[:6]:
                value = wasserstein(g, mu_p(g, x, p), mu_p(g, y, p))
                assert value == brute_regular_wasserstein(g, x, y)

    def test_any_plan_upper_bounds_value(self):
        g = gen_hamming(2, 3)
        p = Fraction(1, 5)
        mu1, mu2 = mu_p(g, 0, p), mu_p(g, 1, p)
        value = wasserstein(g, mu1, mu2)
        # ship everything through vertex 0's support greedily: still a valid plan
        naive = {}
        remaining = dict(mu2)
        for v, mass in sorted(mu1.items()):
            need = mass
            for w in sorted(remaining):
                if need == 0:
                    break
                take = min(need, remaining[w])
                if take > 0:
                    naive[(v, w)] = naive.get((v, w), Fraction(0)) + take
                    remaining[w] -= take
                    need -= take
        plan = list(naive.items())
        assert _marginals(plan) == (mu1, mu2)
        assert value <= plan_cost(g, plan)

    @staticmethod
    def _path_measures():
        """The 4-vertex path 0-1-2-3 and its idleness-1/2 measures at 0 and at 3."""
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        return g, mu_p(g, 0, Fraction(1, 2)), mu_p(g, 3, Fraction(1, 2))

    def test_solver_total_off_by_one_is_rejected(self, monkeypatch):
        g, mu1, mu2 = self._path_measures()
        solve = curvature_module._MinCostFlow.solve
        monkeypatch.setattr(curvature_module._MinCostFlow, "solve",
                            lambda net, *args: solve(net, *args) + 1)
        with pytest.raises(CurvatureError, match="plan cost disagrees"):
            wasserstein(g, mu1, mu2)

    def test_tampered_flow_is_rejected(self, monkeypatch):
        # scale 2: one unit at each of 0, 1 and of 2, 3; after the four source and
        # sink arcs, source 0's forward arcs are 8 (to 2) and 10 (to 3), and an
        # arc's flow is its supply minus its capacity
        g, mu1, mu2 = self._path_measures()
        solve = curvature_module._MinCostFlow.solve
        cases = [
            ({"unused": -1}, "negative plan mass at \\(0, "),
            ({"unused": 1}, "row marginals do not match"),
            ({"used": -1, "unused": 1}, "column marginals do not match"),
        ]
        for change, message in cases:
            def tampered(net, *args, change=change):
                total = solve(net, *args)
                used, unused = sorted((8, 10), key=net.cap.__getitem__)
                assert (net.cap[used], net.cap[unused]) == (0, 1)
                arcs = {"used": used, "unused": unused}
                for name, delta in change.items():
                    net.cap[arcs[name]] -= delta
                return total

            monkeypatch.setattr(curvature_module._MinCostFlow, "solve", tampered)
            with pytest.raises(CurvatureError, match=message):
                wasserstein(g, mu1, mu2)

    def test_disconnected_supports(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(CurvatureError, match="different components"):
            wasserstein(g, {0: Fraction(1)}, {2: Fraction(1)})

    @pytest.mark.parametrize("vertex", [-1, 6])
    def test_vertex_outside_the_graph(self, vertex):
        # -1 would wrap to vertex 5 under numpy indexing, and 6 overrun the BFS row
        g = gen_cycle(6)
        message = f"measure vertex {vertex} is not a vertex of the graph"
        for mu1, mu2 in (({0: Fraction(1)}, {vertex: Fraction(1)}),
                         ({vertex: Fraction(1)}, {0: Fraction(1)})):
            with pytest.raises(CurvatureError, match=message):
                wasserstein(g, mu1, mu2)
        if vertex == -1:  # vertex 5's measure under the key -1 (mu_p refuses -1 itself)
            wrapped = {0: Fraction(1, 4), 4: Fraction(1, 4), -1: Fraction(1, 2)}
            with pytest.raises(CurvatureError, match=message):
                wasserstein(g, mu_p(g, 0, Fraction(1, 2)), wrapped)

    @pytest.mark.parametrize("mass", [Fraction(0), Fraction(-1, 2)])
    def test_nonpositive_mass(self, mass):
        g = gen_cycle(6)
        bad = {0: 1 - mass, 1: mass}
        with pytest.raises(CurvatureError, match=f"nonpositive mass {mass} at vertex 1"):
            wasserstein(g, bad, {0: Fraction(1)})
        with pytest.raises(CurvatureError, match=f"nonpositive mass {mass} at vertex 1"):
            wasserstein(g, {0: Fraction(1)}, bad)

    @pytest.mark.parametrize("masses", [(Fraction(1, 2),), (Fraction(1, 2), Fraction(2, 3))])
    def test_total_other_than_one(self, masses):
        g = gen_cycle(6)
        bad = dict(enumerate(masses))
        total = sum(masses)
        with pytest.raises(CurvatureError, match=f"total mass {total} != 1"):
            wasserstein(g, bad, {0: Fraction(1)})
        with pytest.raises(CurvatureError, match=f"total mass {total} != 1"):
            wasserstein(g, {0: Fraction(1)}, bad)


class TestAssignmentWasserstein:
    def test_supports_in_different_components(self):
        from arcurv import Graph

        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(CurvatureError, match="different components"):
            _one_zone(g, [0, 1], [2, 3], (0, 1))
        # in a batch, the error names the problem whose zone spans two components
        zones = np.array([[0, 1, 1, 0], [0, 1, 2, 3]])
        with pytest.raises(CurvatureError, match=_naming((0, 2), "different components")):
            certify_assignments(g, zones, [(0, 1), (0, 2)])

    def test_complete_graph_zero(self):
        g = gen_complete(4)
        assert _ball_value(g, 0, 1) == 0
        assert lly_curvature(g, 0, 1) == Fraction(4, 3)

    def test_shrikhande(self):
        g = gen_shrikhande()
        assert _ball_value(g, *g.edges()[0]) == Fraction(5, 7)  # kappa = (7/6)(1 - 5/7) = 1/3
        assert lly_curvature(g, *g.edges()[0]) == Fraction(1, 3)

    def test_rook_4x4(self):
        g = gen_hamming(2, 4)
        assert _ball_value(g, *g.edges()[0]) == Fraction(3, 7)  # kappa = (7/6)(1 - 3/7) = 2/3
        assert lly_curvature(g, *g.edges()[0]) == Fraction(2, 3)

    def test_requires_edge(self):
        g = gen_cycle(6)
        with pytest.raises(CurvatureError, match="not an edge"):
            lly_curvature(g, 0, 3)

    def test_requires_equal_supports(self):
        # Equal-size zones follow from regularity: on an irregular graph B(x)
        # and B(y) may differ in size, and the regularity check refuses first.
        from arcurv import Graph

        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        assert len(_balls(g, 0, 1)[0]) != len(_balls(g, 0, 1)[1])
        with pytest.raises(CurvatureError, match="requires a regular graph"):
            lly_curvature(g, 0, 1)

    def test_reads_bfs_rows_of_the_two_balls_only(self):
        # Only x's and y's rows, which split the neighbourhoods, and the rows of
        # B(x) symmetric-difference B(y), which the transport reads.
        cases = ((gen_cycle(10**5), 500, 501, 0), (gen_hypercube(10), 0, 1, Fraction(1, 5)))
        for g, x, y, kappa in cases:
            assert lly_curvature(g, x, y) == kappa
            assert set(g._dist_cache) == {x, y}.union(*_differences(g, x, y))
        assert set(cases[0][0]._dist_cache) == {499, 500, 501, 502}

    def test_idleness_zero_supports(self):
        # N(0) = {1, 5} -> N(1) = {0, 2} on C6: 1 -> 2, 5 -> 0 costs 1 + 1,
        # the other bijection 1 + 3, so W = 2/2
        g = gen_cycle(6)
        value, plan = _one_zone(g, g.neighbors(0), g.neighbors(1), (0, 1))
        assert value == 1 and plan_cost(g, plan) == 1
        assert plan == [((1, 2), Fraction(1, 2)), ((5, 0), Fraction(1, 2))]

    def test_oracle_equivalence_with_flow(self):
        for g in (gen_cycle(7), gen_paley(13), gen_cocktail(4)):
            d = g.regular_degree()
            p = Fraction(1, d + 1)
            for x, y in g.edges()[:10]:
                flow_value = wasserstein(g, mu_p(g, x, p), mu_p(g, y, p))
                assert flow_value == _ball_value(g, x, y)


def _edge_blocks(g, edges):
    """Zone blocks B(x) then B(y) of ``edges`` as one batch, with optimal assignments."""
    zones = np.array([bx + by for bx, by in (_balls(g, x, y) for x, y in edges)])
    dist = g.distances(zones[:, :, None], zones[:, None, :])
    k = dist.shape[1] // 2
    sigma = np.array([linear_sum_assignment(block[:k, k:])[1] for block in dist])
    return dist, sigma


class TestKantorovichCertificate:
    def test_certifies_optimal_assignment(self):
        g = gen_paley(13)
        x, y = g.edges()[0]
        dist, sigma = _edge_blocks(g, [(x, y)])
        k = sigma.shape[1]
        f, costs = kantorovich_potential(dist, sigma, [(x, y)])
        f = f[0]
        c_total = int(dist[0, np.arange(k), k + sigma[0]].sum())
        assert costs.tolist() == [c_total]
        assert int(f[:k].sum() - f[k:].sum()) == c_total
        assert (np.abs(f[:, None] - f[None, :]) <= dist[0]).all()
        assert Fraction(c_total, k) == _ball_value(g, x, y)

    def test_rejects_non_optimal_assignment(self):
        g = gen_paley(13)
        x, y = g.edges()[0]
        dist, sigma = _edge_blocks(g, [(x, y)])
        k = sigma.shape[1]
        # a cyclic shift of the sorted order, dearer than the optimum (asserted)
        shifted = np.roll(np.arange(k), 1)
        optimum = _ball_value(g, x, y) * k
        assert dist[0, np.arange(k), k + shifted].sum() > optimum
        with pytest.raises(CurvatureError, match="not optimal"):
            kantorovich_potential(dist, shifted[None], [(x, y)])

    def test_rejects_non_permutation(self):
        g = gen_paley(13)
        edges = g.edges()[:1]
        dist, sigma = _edge_blocks(g, edges)
        with pytest.raises(CurvatureError, match=_naming(edges[0], "permutation")):
            kantorovich_potential(dist, np.zeros_like(sigma), edges)

    def test_rejects_potential_that_is_not_1_lipschitz(self):
        # Not a metric on (s0, s1, t0, t1): d(s1, t0) = 3 > d(s1, s0) + d(s0, t0).
        # The identity assignment (cost 1 + 3, as cheap as the swap) passes the
        # dual and value checks with v = 0, but its potential f = (1, 3, 0, 0)
        # moves by 2 between s0 and s1, at distance 1.
        dist = np.array([[0, 1, 1, 1], [1, 0, 3, 3], [1, 3, 0, 1], [1, 3, 1, 0]])
        with pytest.raises(CurvatureError, match=_naming((0, 1), "1-Lipschitz")):
            kantorovich_potential(dist[None], np.array([[0, 1]]), [(0, 1)])

    def test_assignment_wasserstein_rejects_bad_solver(self, monkeypatch):
        def worst_assignment(cost):
            return linear_sum_assignment(-cost)

        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", worst_assignment)
        g = gen_paley(13)
        edge = g.edges()[0]
        with pytest.raises(CurvatureError, match="not optimal"):
            _one_zone(g, *_balls(g, *edge), edge)
        with pytest.raises(CurvatureError, match=_naming(edge, "not optimal")):
            lly_curvature(g, *edge)

    def test_idleness_zero_rejects_bad_solver(self, monkeypatch):
        def worst_assignment(cost):
            return linear_sum_assignment(-cost)

        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", worst_assignment)
        g = gen_paley(13)
        with pytest.raises(CurvatureError, match="not optimal"):
            ollivier_kappa_p(g, *g.edges()[0], Fraction(0))


class TestRegularDispatch:
    def _count(self, monkeypatch, g):
        """Record each `certify_assignments` call as "B" or "N", by the pass it runs in.

        Each min-cost-flow solve is recorded as "flow".
        """
        import arcurv.curvature as curvature

        calls, running = [], []
        costs, certify, flow = (curvature._difference_costs, curvature.certify_assignments,
                                curvature.wasserstein)

        def labelled_pass(graph, edges, closed):
            running.append("B" if closed else "N")
            try:
                return costs(graph, edges, closed)
            finally:
                running.pop()

        def counting_certify(graph, zones, edges):
            calls.append(running[-1])
            return certify(graph, zones, edges)

        def counting_flow(*args):
            calls.append("flow")
            return flow(*args)

        monkeypatch.setattr(curvature, "_difference_costs", labelled_pass)
        monkeypatch.setattr(curvature, "certify_assignments", counting_certify)
        monkeypatch.setattr(curvature, "wasserstein", counting_flow)
        return calls

    @pytest.mark.parametrize("build", [lambda: gen_hamming(2, 3), lambda: gen_paley(13)])
    def test_passes_that_p_needs(self, monkeypatch, build):
        g = build()
        d = g.regular_degree()
        calls = self._count(monkeypatch, g)
        cases = [
            (Fraction(0), ["N"]),
            (Fraction(1, 2 * (d + 1)), ["B", "N"]),
            (Fraction(1, d + 1), ["B"]),
            (Fraction(1, 2), ["B"]),
            (Fraction(1), ["B"]),
        ]
        x, y = g.edges()[0]
        for p, passes in cases:
            calls.clear()
            kappa = ollivier_kappa_p(g, x, y, p)
            assert calls == passes
            calls.clear()
            assert kappa_p_all_edges(g, p)[0] == (x, y, kappa)
            assert calls == passes
            assert kappa == _flow_kappa(g, x, y, p)  # the module's own flow, not counted

    def test_non_adjacent_pair_takes_the_flow(self, monkeypatch):
        g = gen_paley(13)
        calls = self._count(monkeypatch, g)
        assert not g.is_edge(0, 2)
        ollivier_kappa_p(g, 0, 2, Fraction(1, 3))
        assert calls == ["flow"]


def _sorted_edges_kappa_p(g, p):
    return [(u, v, ollivier_kappa_p(g, u, v, p)) for u, v in g.edges()]


def _naming(edge, reason):
    """Pattern of an error message that names ``edge`` and then ``reason``."""
    return "^" + re.escape(f"edge {edge}: ") + ".*" + reason


def _fail_on_call(index, answer):
    """A solver that returns ``answer(cost)`` on call ``index`` (0-based) and solves the rest."""
    calls = []

    def solver(cost):
        calls.append(None)
        if len(calls) - 1 == index:
            return answer(cost)
        return linear_sum_assignment(cost)

    return solver


class TestBatchedAssignments:
    @pytest.mark.parametrize("build", [
        lambda: gen_hamming(2, 3), lambda: gen_hamming(3, 3), lambda: gen_hypercube(4),
        lambda: gen_paley(13), gen_shrikhande, lambda: gen_cocktail(4),
    ])
    def test_equals_per_edge_and_flow(self, build):
        g = build()
        d = g.regular_degree()
        for p in (Fraction(0), Fraction(1, 2 * (d + 1)), Fraction(1, d + 1), Fraction(1, 2), Fraction(1)):
            batch = kappa_p_all_edges(g, p)
            assert batch == _sorted_edges_kappa_p(g, p)
            assert [k for _, _, k in batch] == [_flow_kappa(g, x, y, p) for x, y in g.edges()]

    def test_plans_match_the_one_problem_path(self):
        g = gen_paley(13)
        zones = np.array([bx + by for bx, by in (_balls(g, x, y) for x, y in g.edges())])
        costs, plans = certify_assignments(g, zones, g.edges())
        k = zones.shape[1] // 2
        for edge, zone, cost, plan in zip(g.edges(), zones.tolist(), costs.tolist(), plans.tolist()):
            value, single = _one_zone(g, zone[:k], zone[k:], edge)
            assert value == Fraction(cost, k)
            assert [pair for pair, _ in single] == sorted(zip(zone[:k], plan))
            assert plan_cost(g, single) == value

    def test_more_edges_than_one_chunk(self, monkeypatch):
        g = gen_hamming(3, 3)
        assert g.num_edges() > ASSIGNMENT_CHUNK and g.num_edges() % ASSIGNMENT_CHUNK
        expected = _sorted_edges_kappa_p(g, Fraction(1, 14))
        assert kappa_p_all_edges(g, Fraction(1, 14)) == expected
        monkeypatch.setattr("arcurv.curvature.ASSIGNMENT_CHUNK", 5)  # 81 = 16 * 5 + 1
        assert kappa_p_all_edges(g, Fraction(1, 14)) == expected

    def test_disconnected_regular_graph(self):
        from arcurv import Graph

        k4 = gen_complete(4).edges()
        g = Graph(8, k4 + [(u + 4, v + 4) for u, v in k4])
        for p in (Fraction(0), Fraction(1, 8), Fraction(1, 2)):
            batch = kappa_p_all_edges(g, p)
            assert batch == _sorted_edges_kappa_p(g, p)
            assert [k for _, _, k in batch] == [_flow_kappa(g, x, y, p) for x, y in g.edges()]

    def test_edgeless_graph(self):
        from arcurv import Graph

        assert kappa_p_all_edges(Graph(4, []), Fraction(1, 2)) == []
        with pytest.raises(CurvatureError, match="outside"):
            kappa_p_all_edges(Graph(4, []), Fraction(3, 2))

    def test_irregular_graph_uses_flow(self, monkeypatch):
        def no_assignment(cost):
            raise AssertionError("assignment solved on an irregular graph")

        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", no_assignment)
        g = random_connected_graph(3)
        assert g.regular_degree() is None
        p = Fraction(1, 3)
        assert kappa_p_all_edges(g, p) == [(x, y, _flow_kappa(g, x, y, p)) for x, y in g.edges()]

    def test_names_the_edge_of_a_non_permutation(self, monkeypatch):
        g = gen_hamming(3, 3)
        edge = g.edges()[70]  # in the second chunk
        solver = _fail_on_call(70, lambda cost: (np.arange(len(cost)), np.zeros(len(cost), dtype=int)))
        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", solver)
        with pytest.raises(CurvatureError, match=_naming(edge, "permutation")):
            kappa_p_all_edges(g, Fraction(1, 2))

    def test_names_the_edge_of_a_non_optimal_sigma(self, monkeypatch):
        g = gen_paley(13)
        edge = g.edges()[9]
        solver = _fail_on_call(9, lambda cost: linear_sum_assignment(-cost))
        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", solver)
        with pytest.raises(CurvatureError, match=_naming(edge, "not optimal")):
            kappa_p_all_edges(g, Fraction(0))

    def test_names_the_edge_of_a_non_metric_block(self):
        g = gen_paley(13)
        edges = g.edges()[:6]
        dist, sigma = _edge_blocks(g, edges)
        f, _ = kantorovich_potential(dist, sigma, edges)
        k = sigma.shape[1]
        # two sources of member 4 whose potentials differ, put at distance 0
        a, b = next((a, b) for a in range(k) for b in range(a + 1, k) if f[4, a] != f[4, b])
        dist[4, a, b] = dist[4, b, a] = 0
        with pytest.raises(CurvatureError, match=_naming(edges[4], "1-Lipschitz")):
            kantorovich_potential(dist, sigma, edges)

    def test_names_the_edge_of_a_wrong_re_sum(self, monkeypatch):
        g = gen_hamming(3, 3)
        edge = g.edges()[66]
        target = np.concatenate(_differences(g, *edge))
        distances = Graph.distances

        def shifted_block(graph, u, v):
            # One member's zone block is read one too far apart off the diagonal: still
            # a metric, so every other check passes, but not the graph's distances. Only
            # the (m, 2k, 2k) blocks shift; the re-sum reads true (m, k) distances.
            dist = distances(graph, u, v)
            if dist.shape[1:] == (len(target),) * 2:
                dist = dist.copy()
                for i in np.flatnonzero((u[:, :, 0] == target).all(axis=1)):
                    dist[i] += 1 - np.eye(len(target), dtype=dist.dtype)
            return dist

        monkeypatch.setattr(Graph, "distances", shifted_block)
        with pytest.raises(CurvatureError, match=_naming(edge, "plan cost")):
            kappa_p_all_edges(g, Fraction(1, 2))


def _b_group_sizes(g):
    """The sizes d-1-t of the B-pass difference zones, one per edge in t triangles."""
    d = g.regular_degree()
    return {d - 1 - len(g.common_neighbors(x, y)) for x, y in g.edges()}


def _cost_pairs_outnumber_each_pass(g):
    """Whether both passes of g have two or more distinct costs and g's distinct
    (N cost, B cost) pairs outnumber the distinct costs of either pass, so some
    edges share their B cost but not their N cost, and others the reverse."""
    edges = g.edges()
    b_costs = curvature_module._difference_costs(g, edges, closed=True)
    n_costs = curvature_module._difference_costs(g, edges, closed=False)
    distinct = (len(set(b_costs)), len(set(n_costs)))
    return min(distinct) > 1 and len(set(zip(n_costs, b_costs))) > max(distinct)


def _prism():
    """C3 x K2: triangle edges lie in 1 triangle, the rungs (i, i+3) in none."""
    return Graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)])


def _recording_certify(monkeypatch):
    """Wrap `certify_assignments`; returns the list of each call's zones shape."""
    shapes = []
    certify = curvature_module.certify_assignments

    def recording_certify(graph, zones, edges):
        shapes.append(zones.shape)
        return certify(graph, zones, edges)

    monkeypatch.setattr(curvature_module, "certify_assignments", recording_certify)
    return shapes


class TestDifferenceZones:
    @pytest.mark.parametrize("g", [
        *mixed_regular_graphs(5), gen_complete(2), gen_complete(5), gen_cycle(4), gen_cycle(5),
        gen_cycle(7), gen_hypercube(4), _prism(),
    ], ids=[*(f"random{i}" for i in range(5)), "K2", "K5", "C4", "C5", "C7", "Q4", "prism"])
    def test_batch_equals_flow_and_per_edge(self, monkeypatch, g):
        d = g.regular_degree()
        shapes = _recording_certify(monkeypatch)
        for p in (Fraction(0), Fraction(1, 2 * (d + 1)), Fraction(1, d + 1), Fraction(1, 2), Fraction(1)):
            shapes.clear()
            batch = kappa_p_all_edges(g, p)
            if p == Fraction(1, 2):  # the B pass alone: one certified group per nonzero size
                assert sorted(two_k // 2 for _, two_k in shapes) == sorted(_b_group_sizes(g) - {0})
            assert batch == _sorted_edges_kappa_p(g, p)
            assert [k for _, _, k in batch] == [_flow_kappa(g, x, y, p) for x, y in g.edges()]
            if p == Fraction(1, d + 1):  # kappa_p = (d/(d+1)) kappa_LLY at the knee
                assert [(d + 1) * k / d for _, _, k in batch] == [lly_curvature(g, *e) for e in g.edges()]

    def test_empty_difference_is_not_solved(self, monkeypatch):
        # On K5, B(x) = B(y): the B pass costs 0 with no solve. N(x) - N(y) = {y}
        # and N(y) - N(x) = {x} at distance 1, so kappa_0 = (4 - 1)/4.
        def no_assignment(cost):
            raise AssertionError("assignment solved on an empty difference")

        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", no_assignment)
        g = gen_complete(5)
        assert _b_group_sizes(g) == {0}
        assert lly_curvature(g, 0, 1) == Fraction(5, 4)
        assert {k for _, _, k in curvature_all_edges(g).rows} == {Fraction(5, 4)}
        assert {k for _, _, k in kappa_p_all_edges(g, Fraction(1, 2))} == {Fraction(5, 8)}
        with pytest.raises(AssertionError, match="empty difference"):
            kappa_p_all_edges(g, Fraction(0))
        monkeypatch.undo()
        assert {k for _, _, k in kappa_p_all_edges(g, Fraction(0))} == {Fraction(3, 4)}

    def test_the_line_below_the_knee_is_keyed_by_both_costs(self):
        # For 0 < p < 1/(d+1), kappa_p is one value per (N cost, B cost) pair;
        # on the first graph a value kept per B cost or per N cost alone would be
        # wrong on some edge. The mixed graphs, natural and relabelled, add zones
        # of several sizes to each pass.
        found = next(g for g in (random_connected_regular_graph(seed, max_n=10)
                                 for seed in range(100)) if _cost_pairs_outnumber_each_pass(g))
        mixed = mixed_regular_graphs(5)
        for g in (found, *mixed, *(relabelled(g, 5) for g in mixed)):
            d = g.regular_degree()
            for p in (Fraction(1, 2 * (d + 1)), Fraction(1, 3 * (d + 1))):
                batch = kappa_p_all_edges(g, p)
                assert [k for _, _, k in batch] == [_flow_kappa(g, x, y, p) for x, y in g.edges()]

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 2)])
    def test_names_the_edge_of_a_bad_answer_in_the_second_group(self, monkeypatch, p):
        # The prism's six triangle edges form the first group (B pass: 1 point
        # per side, N pass: 2), solved on calls 0-5; the rungs (0, 3), (1, 4),
        # (2, 5) form the second (2 and 3 points), so (1, 4) is call 7.
        g = _prism()
        solver = _fail_on_call(7, lambda cost: linear_sum_assignment(-cost))
        monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", solver)
        with pytest.raises(CurvatureError, match=_naming((1, 4), "not optimal")):
            kappa_p_all_edges(g, p)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_lly_matches_brute_force_on_random_regular_graphs(seed):
    # per edge on one fresh graph, and as the batched table on another
    g, fresh = (random_connected_regular_graph(seed, max_n=10) for _ in range(2))
    d = g.regular_degree()
    expected = [Fraction(d + 1, d) * (1 - brute_regular_wasserstein(g, x, y)) for x, y in g.edges()]
    assert [lly_curvature(g, x, y) for x, y in g.edges()] == expected
    table = curvature_all_edges(fresh)
    assert table.rows == tuple((x, y, k) for (x, y), k in zip(g.edges(), expected))
    assert (table.kappa_min, table.kappa_max) == (min(expected), max(expected))


class TestKappa:
    def test_idleness_one_vanishes(self):
        g = gen_shrikhande()
        assert ollivier_kappa_p(g, 0, 1, Fraction(1)) == 0

    def test_q3_edge(self):
        g = gen_hypercube(3)
        assert ollivier_kappa_p(g, 0, 1, Fraction(1, 4)) == Fraction(1, 2)

    def test_c6_edge(self):
        g = gen_cycle(6)
        assert ollivier_kappa_p(g, 0, 1, Fraction(1, 3)) == 0

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_rejects_a_vertex_outside_the_graph(self, bad):
        # (bad, bad) is named as out of range, not refused for repeating a vertex.
        g = gen_cycle(6)
        for x, y in ((0, bad), (bad, 0), (bad, bad)):
            for p in (Fraction(0), Fraction(1, 2)):
                with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                    ollivier_kappa_p(g, x, y, p)

    @pytest.mark.parametrize("bad", [6, -1, -7])
    def test_lly_rejects_a_vertex_outside_the_graph(self, bad):
        # lly_curvature(C6, -1, 0) would otherwise pass is_edge as edge (5, 0).
        g = gen_cycle(6)
        for x, y in ((0, bad), (bad, 0), (bad, bad)):
            with pytest.raises(GraphError, match=rf"^vertex {bad} out of range 0\.\.5$"):
                lly_curvature(g, x, y)

    def test_lly_checks_vertices_in_the_order_of_kappa_p(self):
        # Both vertices out of range: both functions name y.
        g = gen_cycle(6)
        for x, y in ((-1, 6), (6, -1), (-7, 9)):
            expected = rf"^vertex {y} out of range 0\.\.5$"
            with pytest.raises(GraphError, match=expected):
                lly_curvature(g, x, y)
            with pytest.raises(GraphError, match=expected):
                ollivier_kappa_p(g, x, y, Fraction(1, 3))

    def test_lly_values(self):
        assert lly_curvature(gen_shrikhande(), 0, 1) == Fraction(1, 3)
        assert lly_curvature(gen_hamming(2, 4), 0, 1) == Fraction(2, 3)
        assert lly_curvature(gen_hamming(2, 3), 0, 1) == Fraction(3, 4)
        k5 = gen_complete(5)
        assert lly_curvature(k5, 0, 1) == Fraction(5, 4)
        for k in (2, 3, 4):
            q = gen_hypercube(k)
            assert lly_curvature(q, *q.edges()[0]) == Fraction(2, k)

    def test_lly_refuses_irregular(self):
        from arcurv import Graph

        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        with pytest.raises(CurvatureError):
            lly_curvature(g, 0, 2)
        # kappa_p stays available on irregular graphs
        assert ollivier_kappa_p(g, 0, 1, Fraction(1, 2)) is not None

    def test_flow_serves_irregular_edges_and_non_adjacent_pairs(self):
        from arcurv import Graph

        irregular = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (3, 4)])
        cases = [(irregular, x, y) for x, y in irregular.edges()]
        cases += [(gen_cycle(7), 0, 2), (gen_cycle(7), 0, 3), (gen_paley(13), 0, 2)]
        for g, x, y in cases:
            assert not (g.regular_degree() and g.is_edge(x, y))
            for p in (Fraction(0), Fraction(1, 7), Fraction(1, 3), Fraction(1)):
                assert ollivier_kappa_p(g, x, y, p) == _flow_kappa(g, x, y, p)


def _counting_solver(monkeypatch, answer=linear_sum_assignment):
    """Set a stand-in solver that returns ``answer(cost)``; returns its list of calls."""
    calls = []

    def solver(cost):
        calls.append(cost.shape)
        return answer(cost)

    monkeypatch.setattr("arcurv.curvature.linear_sum_assignment", solver)
    return calls


def _worst_assignment(cost):
    return linear_sum_assignment(-cost)


class TestKeptCurvature:
    """Each graph keeps the LLY curvature of an edge once it is certified."""

    def test_repeat_and_reversed_edge_make_no_solve(self, monkeypatch):
        calls = _counting_solver(monkeypatch)
        g = gen_paley(13)
        kappa = lly_curvature(g, 0, 1)
        assert (kappa, calls) == (Fraction(2, 3), [(3, 3)])
        assert lly_curvature(g, 0, 1) == lly_curvature(g, 1, 0) == kappa
        assert calls == [(3, 3)]

    def test_an_equal_but_distinct_graph_solves_again(self, monkeypatch):
        calls = _counting_solver(monkeypatch)
        g, same = gen_paley(13), gen_paley(13)
        assert g == same and g is not same
        assert lly_curvature(g, 0, 1) == lly_curvature(same, 0, 1)
        assert len(calls) == 2

    def test_a_failed_certificate_is_not_kept(self, monkeypatch):
        calls = _counting_solver(monkeypatch, _worst_assignment)
        g = gen_paley(13)
        for _ in range(2):
            with pytest.raises(CurvatureError, match=_naming((0, 1), "not optimal")):
                lly_curvature(g, 0, 1)
        assert len(calls) == 2
        calls = _counting_solver(monkeypatch)
        assert lly_curvature(g, 0, 1) == Fraction(2, 3)
        assert len(calls) == 1

    def test_the_table_certifies_every_edge_in_one_batch(self, monkeypatch):
        # paley13's 39 edges all have 3 + 3 B-zones: one call holds every zone
        shapes = _recording_certify(monkeypatch)
        calls = _counting_solver(monkeypatch)
        g = gen_paley(13)
        table = curvature_all_edges(g)
        assert shapes == [(39, 6)] and len(calls) == 39
        assert g._lly_cache == {(x, y): k for x, y, k in table.rows}
        assert {k for _, _, k in table.rows} == {Fraction(2, 3)}
        # every edge kept: a second table and each per-edge call solve nothing
        assert curvature_all_edges(g) == table
        assert [lly_curvature(g, x, y) for x, y, _ in table.rows] == [k for _, _, k in table.rows]
        assert shapes == [(39, 6)] and len(calls) == 39

    def test_the_table_certifies_only_the_edges_not_kept(self, monkeypatch):
        shapes = _recording_certify(monkeypatch)
        g = gen_paley(13)
        lly_curvature(g, 0, 1)
        curvature_all_edges(g)
        assert shapes == [(1, 6), (38, 6)]

    def test_a_failed_table_keeps_no_value(self, monkeypatch):
        _counting_solver(monkeypatch, _worst_assignment)
        g = gen_paley(13)
        with pytest.raises(CurvatureError, match=_naming((0, 1), "not optimal")):
            curvature_all_edges(g)
        assert g._lly_cache == {}
        monkeypatch.undo()
        assert curvature_all_edges(g) == curvature_all_edges(gen_paley(13))
        assert len(g._lly_cache) == 39

    def test_bad_arguments_raise_with_values_kept(self, monkeypatch):
        g = gen_paley(13)
        curvature_all_edges(g)  # keeps every edge
        irregular = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
        # Values planted under the keys that the bad arguments would look up:
        # every check must run before the lookup.
        g._lly_cache.update({(0, 2): Fraction(1), (-1, 1): Fraction(1)})
        irregular._lly_cache[(0, 2)] = Fraction(1)
        calls = _counting_solver(monkeypatch)
        assert not g.is_edge(0, 2)
        with pytest.raises(CurvatureError, match=r"^\(0, 2\) is not an edge$"):
            lly_curvature(g, 0, 2)
        with pytest.raises(GraphError, match=r"^vertex -1 out of range 0\.\.12$"):
            lly_curvature(g, -1, 1)
        with pytest.raises(CurvatureError, match="requires a regular graph"):
            lly_curvature(irregular, 0, 2)
        assert calls == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_idleness_formula_matches_flow_on_random_regular_graphs(seed):
    g = random_connected_regular_graph(seed, max_n=10)
    d = g.regular_degree()
    ps = {Fraction(0), Fraction(1, 2 * d + 1), Fraction(1, d + 2), Fraction(1, d + 1),
          Fraction(1, 2), Fraction(d, d + 1), Fraction(1)}
    for x, y in g.edges():
        for p in sorted(ps):
            assert ollivier_kappa_p(g, x, y, p) == _flow_kappa(g, x, y, p)


class TestCurvatureTable:
    def test_shrikhande_all_third(self):
        table = curvature_all_edges(gen_shrikhande())
        assert len(table.rows) == 48
        assert table.kappa_min == table.kappa_max == Fraction(1, 3)

    def test_octahedron_all_one(self):
        table = curvature_all_edges(gen_cocktail(3))
        assert {k for _, _, k in table.rows} == {Fraction(1)}

    def test_c6_all_zero(self):
        table = curvature_all_edges(gen_cycle(6))
        assert {k for _, _, k in table.rows} == {Fraction(0)}


class TestLinearityAndBounds:
    def test_final_segment_linearity(self):
        for g in (gen_hamming(2, 3), gen_shrikhande(), gen_cocktail(3)):
            d = g.regular_degree()
            x, y = g.edges()[0]
            kappa = lly_curvature(g, x, y)
            for p in (Fraction(1, d + 1), Fraction(1, 2), Fraction(d, d + 1), Fraction(1)):
                if p >= Fraction(1, d + 1):
                    assert ollivier_kappa_p(g, x, y, p) == (1 - p) * kappa
                    assert _flow_kappa(g, x, y, p) == (1 - p) * kappa

    def test_upper_bound_amply_regular(self):
        from arcurv import detect_amply_params

        for g in (gen_shrikhande(), gen_paley(13), gen_hamming(2, 4), gen_cocktail(4)):
            params = detect_amply_params(g)
            bound = Fraction(2 + params.alpha, params.d)
            table = curvature_all_edges(g)
            assert table.kappa_max <= bound

    def test_concavity_spot_check(self):
        g = gen_hamming(2, 3)
        x, y = g.edges()[0]
        samples = [Fraction(i, 10) for i in range(11)]
        values = [ollivier_kappa_p(g, x, y, p) for p in samples]
        for i in range(1, len(values) - 1):
            assert 2 * values[i] >= values[i - 1] + values[i + 1]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_wasserstein_triangle_inequality(seed):
    import random

    g = random_connected_graph(seed, max_n=10)
    rng = random.Random(seed + 1)
    x, y, z = (rng.randrange(g.n) for _ in range(3))
    p = Fraction(rng.randint(0, 4), 4)
    mx, my, mz = (mu_p(g, v, p) for v in (x, y, z))
    assert wasserstein(g, mx, mz) <= wasserstein(g, mx, my) + wasserstein(g, my, mz)
