"""Edge-angle chart, constrained search, inertia, finite differences."""

import logging
import math

import numpy as np
import pytest

from linkmorse import geometry, oracle
from linkmorse.enumeration import enumerate_critical_three_chain
from linkmorse.errors import CheckFailedError, NoConvergenceError, NotCriticalError
from linkmorse.geometry import gauss_newton
from linkmorse.graphs import LinkageGraph, make_polygon, make_three_chain
from linkmorse.indices import OpenChainCritical, open_chain_index
from linkmorse.instances import bott_morse_three_chain, non_ptt_example
from linkmorse.oracle import (
    NEWTON_BUDGET,
    NEWTON_CONVERGED,
    NEWTON_NONFINITE,
    NEWTON_STALLED,
    PROJECT_MAX_ITER,
    ChartOracle,
    _kkt_solve,
    area_oracle,
    build_chart,
    distance_oracle,
)

from conftest import sample_polygon, sample_three_chain_with_records


def open_chain(lengths):
    names = [f"p{k}" for k in range(len(lengths) + 1)]
    edges = tuple((names[k], names[k + 1], float(lengths[k]))
                  for k in range(len(lengths)))
    return LinkageGraph(tuple(names), edges), names[0], names[-1]


class TestChart:
    def test_polygon_dimensions(self):
        for n in (4, 5, 6):
            g, _ = make_polygon([1.0 + 0.1 * k for k in range(n)])
            chart = build_chart(g)
            assert chart.n_vars == n - 1
            assert chart.n_constraints == 2
            assert chart.dim == n - 3

    def test_three_chain_dimensions(self):
        g, _ = make_three_chain([1, 1.1], [0.9, 1.2], [0.8, 0.85, 0.9])
        chart = build_chart(g)
        assert chart.n_vars == 7 - 1
        assert chart.n_constraints == 4
        assert chart.dim == 2

    def test_open_chain_no_constraints(self):
        g, _, _ = open_chain([1, 1.2, 0.8])
        chart = build_chart(g)
        assert chart.n_constraints == 0
        assert chart.dim == len(g.edges) - 1

    def test_positions_respect_lengths(self, rng):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        cfg = o.chart.configuration(o.chart.full_theta(x))
        cfg.validate(g)

    def test_theta_round_trip(self, rng):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        cfg = o.chart.configuration(o.chart.full_theta(x))
        x2 = o.chart.reduce(o.chart.theta_from_configuration(cfg))
        assert np.allclose(np.exp(1j * x), np.exp(1j * x2), atol=1e-12)


class TestProjection:
    def test_feasible_point_fixed(self, rng):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        x2 = o.project(x)
        assert np.allclose(x, x2, atol=1e-9)

    def test_full_theta_projection(self, rng):
        from linkmorse.oracle import project_to_manifold
        g, _ = make_polygon([1.0, 1.3, 0.8, 1.4])
        chart = build_chart(g)
        theta = project_to_manifold(chart, rng.uniform(-math.pi, math.pi, 4))
        G, _ = chart.constraints(theta)
        assert np.linalg.norm(G) <= 1e-11
        assert theta[chart.gauge_edge] == 0.0

    def test_stack_rows_match_single_rows(self, rng):
        # a stack mixes a feasible start, starts that converge at different
        # steps and, under a 3-step budget, starts that do not converge
        o = area_oracle(*make_polygon([1.0, 1.3, 0.8, 1.4]))
        x0 = rng.uniform(-math.pi, math.pi, (8, o.chart.n_vars))
        x0[3] = o.project(x0[3])
        tol = 1e-12 * o.scale
        for budget in (3, PROJECT_MAX_ITER):
            xs, converged = gauss_newton(o.constraints, x0, tol, budget)
            if budget == 3:
                assert converged[3] and not converged.all()
            else:
                assert converged.all()
            for i in range(len(x0)):
                xi, ci = gauss_newton(o.constraints, x0[i:i + 1], tol, budget)
                assert ci[0] == converged[i]
                assert np.allclose(xi[0], xs[i], rtol=0, atol=1e-12)

    def test_unclosable_polygon_raises(self, rng):
        # the longest edge exceeds the sum of the others: no closed polygon
        o = area_oracle(*make_polygon([1.0, 1.0, 5.0]))
        with pytest.raises(NoConvergenceError):
            o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))

    def test_triangle_rigid(self, rng):
        g, gamma = make_polygon([1.0, 1.0, 1.0])
        o = area_oracle(g, gamma)
        areas = set()
        for _ in range(20):
            x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
            areas.add(round(o.f(x), 9))
        assert areas == {round(math.sqrt(3) / 4, 9), -round(math.sqrt(3) / 4, 9)}


class TestFindCritical:
    def test_square_linkage_two_clusters(self):
        g, gamma = make_polygon([1.0, 1.1, 0.9, 1.25])
        o = area_oracle(g, gamma)
        res = o.find_critical(150, seed=1)
        assert len(res) == 2
        inertias = sorted(t.as_tuple() for _, t, _ in res)
        assert inertias == [(0, 0, 1), (1, 0, 0)]

    def test_equilateral_triangle_rigid_points(self):
        g, gamma = make_polygon([1.0, 1.0, 1.0])
        o = area_oracle(g, gamma)
        res = o.find_critical(40, seed=2)
        assert len(res) == 2
        assert all(t.as_tuple() == (0, 0, 0) for _, t, _ in res)

    def test_stationarity_residual_invariant(self):
        g, gamma = make_polygon([1.0, 1.1, 0.9, 1.25])
        o = area_oracle(g, gamma)
        for x, _, _ in o.find_critical(100, seed=3):
            gS = o.g(x)
            resid = o.stationarity_residual(x)
            assert resid <= 1e-8 * np.linalg.norm(gS) + 1e-12

    def test_gauge_invariance_of_inertia(self):
        g, gamma = make_polygon([1.0, 1.1, 0.9, 1.25])
        base = area_oracle(g, gamma)
        pts = base.find_critical(100, seed=4)
        for gauge in range(1, len(g.edges)):
            alt = ChartOracle(g, gamma, gauge_edge=gauge)
            for x, tri, cfg in pts:
                xa = alt.chart.reduce(alt.chart.theta_from_configuration(cfg))
                assert alt.inertia(xa).as_tuple() == tri.as_tuple()

    def test_not_critical_raises(self, rng):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        while o.stationarity_residual(x) < 1e-3:
            x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        with pytest.raises(NotCriticalError):
            o.inertia(x)


def criterion_02_instance(k):
    """Instance k of acceptance criterion 2's three-chain sampler (rng 202)."""
    rng = np.random.default_rng(202)
    for _ in range(k + 1):
        g, gamma, _ = sample_three_chain_with_records(rng, enumerate_critical_three_chain)
    return g, gamma


def reference_sweep(o, n_seeds, seed):
    """find_critical one seed at a time: sequential draws, project, then
    newton_kkt, then greedy clustering on (rounded x) order."""
    rng = np.random.default_rng(seed)
    found = []
    project_failed = newton_failed = 0
    for _ in range(n_seeds):
        x0 = rng.uniform(-math.pi, math.pi, o.chart.n_vars)
        try:
            x0 = o.project(x0)
        except NoConvergenceError:
            project_failed += 1
            continue
        res = o.newton_kkt(x0)
        if res is None:
            newton_failed += 1
            continue
        found.append(res[0])
    thr = o.tols.match * o.scale
    reps = []  # (x, position vector, residual)
    for x in sorted(found, key=lambda x: tuple(np.round(x, 9))):
        pv, r = o._positions_vector(x), o.stationarity_residual(x)
        for i, (_, qv, r0) in enumerate(reps):
            if np.max(np.abs(pv - qv)) <= thr:
                if r < r0:
                    reps[i] = (x, pv, r)
                break
        else:
            reps.append((x, pv, r))
    return [x for x, _, _ in reps], project_failed, newton_failed


def sweep_record(caplog, o, n_seeds, seed):
    """find_critical's result and the counts of its DEBUG record."""
    with caplog.at_level(logging.DEBUG, logger="linkmorse.oracle"):
        found = o.find_critical(n_seeds, seed=seed)
    (rec,) = [r for r in caplog.records if r.name == "linkmorse.oracle"]
    assert rec.levelno == logging.DEBUG
    return found, rec.args


class TestStackedSweep:
    @pytest.mark.parametrize("k, n_seeds", [(0, 260), (2, 260)])
    def test_stack_equals_rows(self, caplog, k, n_seeds):
        # 260 seeds make one full block and one partial block
        o = area_oracle(*criterion_02_instance(k))
        ref, project_failed, newton_failed = reference_sweep(o, n_seeds, 77)
        assert project_failed if k == 2 else newton_failed
        found, counts = sweep_record(caplog, o, n_seeds, 77)
        assert counts["project_failed"] == project_failed
        assert (counts["newton_nonfinite"] + counts["newton_budget"]
                + counts["newton_stalled"]) == newton_failed
        thr = o.tols.match * o.scale
        assert len(found) == len(ref)
        for x, tri, _ in found:
            pv = o._positions_vector(x)
            near = [xr for xr in ref if np.max(np.abs(o._positions_vector(xr) - pv)) <= thr]
            assert len(near) == 1
            assert o.inertia(near[0]).as_tuple() == tri.as_tuple()

    @pytest.mark.parametrize("k, counts", [
        (0, {"seeds": 1000, "project_failed": 0, "newton_nonfinite": 0,
             "newton_budget": 0, "newton_stalled": 737, "converged": 263,
             "clusters": 4}),
        (2, {"seeds": 1000, "project_failed": 114, "newton_nonfinite": 0,
             "newton_budget": 0, "newton_stalled": 0, "converged": 886,
             "clusters": 8}),
    ])
    def test_sweep_counts_logged(self, caplog, k, counts):
        o = area_oracle(*criterion_02_instance(k))
        found, logged = sweep_record(caplog, o, 1000, 77)
        assert logged == counts
        assert len(found) == counts["clusters"]

    @pytest.mark.parametrize("name, n_seeds, seed", [
        ("criterion_02_0", 1000, 77), ("k4_fallback", 300, 13), ("bm223", 1000, 77)])
    def test_stall_exit_keeps_every_outcome(self, name, n_seeds, seed):
        # the same projected rows with and without the stall exit: the K4
        # fallback's slowest converging rows sit 3x below NEWTON_STALL_FEAS
        instance = {"criterion_02_0": lambda: criterion_02_instance(0),
                    "k4_fallback": non_ptt_example, "bm223": bott_morse_three_chain}
        o = area_oracle(*instance[name]())
        starts = np.random.default_rng(seed).uniform(-math.pi, math.pi,
                                                     (n_seeds, o.chart.n_vars))
        x0, projected = o.chart.project_stack(starts)
        x, lam, rho, status = o.newton_stack(x0[projected])
        xd, lamd, rhod, statusd = o.newton_stack(x0[projected], drop_stalled=True)
        conv = status == NEWTON_CONVERGED
        assert np.array_equal(statusd == NEWTON_CONVERGED, conv)
        assert np.array_equal(xd[conv], x[conv])
        assert np.array_equal(lamd[conv], lam[conv])
        assert np.array_equal(rhod[conv], rho[conv])
        assert NEWTON_STALLED not in status
        if name == "criterion_02_0":
            assert np.sum(status == NEWTON_BUDGET) == 737
            assert np.array_equal(statusd == NEWTON_STALLED, status == NEWTON_BUDGET)

    @pytest.mark.parametrize("name, n_seeds, seed", [
        ("criterion_02_0", 1000, 77), ("k4_fallback", 300, 13), ("bm223", 1000, 77)])
    def test_gram_kernel_keeps_every_outcome(self, caplog, monkeypatch, name, n_seeds, seed):
        # lstsq_stack's Gram path against the SVD formula alone: the same
        # DEBUG counts and clusters, paired one to one modulo 2 pi. bm223's
        # clusters lie on critical circles (one zero eigenvalue), where
        # Newton's end point slides along the circle on rounding (rescaling
        # J and g by 3 under the SVD alone moves it by 1e-4), so there only
        # the cycle's vertices are compared
        g, gamma = {"criterion_02_0": lambda: criterion_02_instance(0),
                    "k4_fallback": non_ptt_example, "bm223": bott_morse_three_chain}[name]()
        o = area_oracle(g, gamma)
        found, counts = sweep_record(caplog, o, n_seeds, seed)
        caplog.clear()
        monkeypatch.setattr(geometry, "lstsq_stack", geometry._lstsq_svd)
        monkeypatch.setattr(oracle, "lstsq_stack", geometry._lstsq_svd)
        ref, ref_counts = sweep_record(caplog, o, n_seeds, seed)
        assert counts == ref_counts
        assert len(found) == len(ref)
        xs = np.array([x for x, _, _ in found])
        on_gamma = [g.vertices.index(v) for v in gamma.vertices]
        paired = set()
        for x, tri, _ in ref:
            dx = np.max(np.abs(np.remainder(xs - x + math.pi, 2 * math.pi) - math.pi), axis=1)
            j = int(np.argmin(dx))
            paired.add(j)
            assert found[j][1].as_tuple() == tri.as_tuple()
            if tri.zero == 0:
                assert dx[j] <= 1e-10
            else:
                pts = o.chart.points(o.chart.full_theta(np.array([x, xs[j]])))
                assert np.max(np.abs(pts[0, on_gamma] - pts[1, on_gamma])) <= 1e-10
        assert len(paired) == len(ref)
        if name != "bm223":
            assert all(tri.zero == 0 for _, tri, _ in ref)

    def test_nonfinite_row_leaves_other_rows_alone(self):
        # a NaN start makes a non-finite KKT step in its own row only; the
        # aligned start converges at once, so active rows are renumbered
        g, head, tail = open_chain([1.3, 1.0, 0.6])
        o = distance_oracle(g, head, tail)
        x0 = np.array([[0.0, 0.0], [0.3, -2.0], [np.nan, 0.1], [2.5, 1.0], [0.4, 0.2]])
        xs, lam, rho, status = o.newton_stack(x0)
        assert status.tolist() == [NEWTON_CONVERGED, NEWTON_CONVERGED, NEWTON_NONFINITE,
                                   NEWTON_CONVERGED, NEWTON_CONVERGED]
        for i in (0, 1, 3, 4):
            xi, _, rho_i, status_i = o.newton_stack(x0[i:i + 1])
            assert status_i[0] == status[i]
            assert np.array_equal(xi[0], xs[i])
            assert rho_i[0] == rho[i]

    def test_singular_and_nonfinite_rows(self, rng):
        K = rng.normal(size=(5, 6, 6))
        rhs = rng.normal(size=(5, 6))
        K[1, 3] = 0.0          # exactly singular: least squares
        rhs[3, 2] = np.inf     # non-finite step
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(K[1], rhs[1])
        sol, finite = _kkt_solve(K, rhs)
        assert finite.tolist() == [True, True, True, False, True]
        for i in range(5):
            alone, finite_alone = _kkt_solve(K[i:i + 1], rhs[i:i + 1])
            assert finite[i] == finite_alone[0]
            if finite[i]:
                assert np.array_equal(sol[i], alone[0])
        assert np.array_equal(sol[1], np.linalg.lstsq(K[1], rhs[1], rcond=None)[0])
        assert np.array_equal(sol[0], np.linalg.solve(K[0], rhs[0]))


class TestOpenChainOracle:
    @pytest.mark.parametrize("lengths, negatives", [
        ([1.3, 1.0, 0.6], [2, 1, 1, 1]),
        ([1.4, 1.1, 0.7, 0.5], [3, 2, 2, 2, 2, 1, 1, 1]),
    ])
    def test_sweep_without_constraints(self, lengths, negatives):
        # an open chain has no closure rows (m = 0): every alignment is found
        g, head, tail = open_chain(lengths)
        o = distance_oracle(g, head, tail)
        found = o.find_critical(200, seed=3)
        assert len(found) == 2 ** (len(lengths) - 1)
        assert sorted((tri.negative for _, tri, _ in found), reverse=True) == negatives
        for x, tri, _ in found:
            theta = o.chart.full_theta(x)
            sigma = np.sign(np.cos(theta - theta[0]))
            w = float(np.dot(sigma, lengths))
            f = int(np.sum((sigma > 0) == (w > 0)))
            crit = OpenChainCritical(len(lengths), f, (math.copysign(1.0, w), 0.0))
            assert tri.negative == open_chain_index(crit)

    def test_all_alignment_patterns_match_formula(self, rng):
        # aligned chain criticals of the endpoint distance: index f - 1
        for r in (2, 3, 4, 5):
            lens = sorted(rng.uniform(0.5, 1.5, r), reverse=True)
            # distinct signed sums keep every alignment nondegenerate
            g, head, tail = open_chain(lens)
            o = distance_oracle(g, head, tail)
            for mask in range(2 ** (r - 1)):
                sigma = [1] + [1 if (mask >> k) & 1 == 0 else -1
                               for k in range(r - 1)]
                w = float(np.dot(sigma, lens))
                if abs(w) < 1e-6:
                    continue
                theta = np.array([0.0 if s > 0 else math.pi for s in sigma])
                x = o.chart.reduce(theta)
                f = sum(1 for s in sigma if (s > 0) == (w > 0))
                tri = o.inertia(x)
                crit = OpenChainCritical(r, f, (math.copysign(1.0, w), 0.0))
                assert tri.negative == open_chain_index(crit)
                assert tri.zero == 0


class TestFdCheck:
    def test_polygon_passes(self, rng):
        g, gamma = sample_polygon(rng, 5)
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        report = o.fd_check(x)
        assert report["ok"]
        assert report["grad_err"] <= 1e-6
        assert report["hess_err"] <= 1e-4

    def test_three_chain_passes(self, rng):
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
        assert o.fd_check(x)["ok"]

    def test_corrupted_gradient_detected(self, rng):
        g, gamma = make_polygon([1.0, 1.3, 0.8, 1.4])
        o = area_oracle(g, gamma)
        x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))

        def broken(xv):
            grad = o.g(xv)
            grad[0] += 0.5
            return grad

        with pytest.raises(CheckFailedError) as exc:
            o.fd_check(x, grad_fn=broken)
        assert any(kind == "grad" for kind, *_ in exc.value.entries)


class TestAgreementWithEnumeration:
    def test_area_values_agree(self, rng):
        from linkmorse.enumeration import enumerate_critical_three_chain
        from linkmorse.graphs import detect_polygon_with_chains
        from linkmorse.enumeration import match_record

        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        recs = enumerate_critical_three_chain(g, gamma)
        o = area_oracle(g, gamma)
        struct = detect_polygon_with_chains(g, gamma)
        matched = 0
        for x, tri, cfg in o.find_critical(300, seed=6):
            rec = match_record(struct, recs, cfg)
            assert rec is not None
            assert o.f(x) == pytest.approx(rec.area, rel=1e-8, abs=1e-10)
            matched += 1
        assert matched > 0
