"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from linkmorse.config import RunConfig
from linkmorse.enumeration import (
    classify_configuration,
    enumerate_critical_three_chain,
    euler_sum,
    match_record,
)
from linkmorse.errors import NonGenericError
from linkmorse.geometry import enumerate_cyclic, wall_check
from linkmorse.graphs import (
    detect_polygon_with_chains,
    is_partial_two_tree,
    make_three_chain,
    sp_decompose,
)
from linkmorse.indices import cyclic_index
from linkmorse.instances import (
    bott_morse_three_chain,
    pitchfork_concyclic_parameter,
    pitchfork_family,
    worked_example,
)
from linkmorse.oracle import area_oracle, continue_family

from conftest import (
    evaluate_sp_tree,
    lagrange_det_222,
    lagrange_matrix_222,
    random_sp_graph,
    random_subdivided_k4,
    sample_polygon,
    sample_three_chain_with_records,
)


@contextmanager
def criterion(num, text, budget_s=None):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num}: FAIL - {text}")
        raise
    elapsed = time.time() - t0
    print(f"\nACCEPTANCE {num}: PASS - {text} ({elapsed:.1f}s)")
    if budget_s is not None:
        assert elapsed <= budget_s, f"criterion {num} exceeded its runtime budget"


def test_criterion_01_polygon_index_agreement():
    with criterion(1, "cyclic index formula equals oracle inertia on 50 random "
                      "polygons, n in {4,5,6}", budget_s=300):
        rng = np.random.default_rng(101)
        checked = 0
        for k in range(50):
            n = 4 + k % 3
            g, gamma = sample_polygon(rng, n)
            oracle = area_oracle(g, gamma)
            sols = enumerate_cyclic(list(g.lengths()))
            assert sols, "generic polygon must have cyclic configurations"
            for p in sols:
                from linkmorse.geometry import Configuration
                cfg = Configuration({v: tuple(q) for v, q in
                                     zip(gamma.vertices, p.vertices)})
                x = oracle.chart.reduce(oracle.chart.theta_from_configuration(cfg))
                tri = oracle.inertia(x)
                assert tri.negative == cyclic_index(p)
                assert tri.zero == 0
                checked += 1
        assert checked >= 100


def test_criterion_02_three_chain_completeness():
    with criterion(2, "symbolic [2,2;2] records complete vs 1000-seed oracle "
                      "sweeps on 25 random instances, exact indices", budget_s=600):
        rng = np.random.default_rng(202)
        for _ in range(25):
            g, gamma, recs = sample_three_chain_with_records(
                rng, enumerate_critical_three_chain)
            struct = detect_polygon_with_chains(g, gamma)
            oracle = area_oracle(g, gamma)
            found = oracle.find_critical(1000, seed=77)
            seen = set()
            for x, tri, cfg in found:
                rec = match_record(struct, recs, cfg)
                assert rec is not None, \
                    f"oracle point outside record list (S={oracle.f(x)!r})"
                assert tri.negative == rec.index.index
                assert tri.zero == rec.manifold_dim
                seen.add(rec.key())
            assert seen == {r.key() for r in recs}, "some record not found"


def test_criterion_03_sixteen_point_witness():
    with criterion(3, "randomized search over [2,2;2] lengths reaches an "
                      "instance with exactly 16 verified critical points",
                   budget_s=900):
        rng = np.random.default_rng(2024)
        witness = None
        for _ in range(5000):
            arms = [rng.uniform(0.4, 1.6, 2) for _ in range(3)]
            try:
                g, gamma = make_three_chain(*[list(a) for a in arms])
            except ValueError:
                continue
            if wall_check(g).min_margin < 0.02 * g.total_length():
                continue
            try:
                recs = enumerate_critical_three_chain(g, gamma)
            except NonGenericError:
                continue
            if sum(r.point_count or 0 for r in recs) == 16:
                witness = (g, gamma, recs)
                break
        assert witness is not None, "no 16-point instance found in the search"
        g, gamma, recs = witness
        struct = detect_polygon_with_chains(g, gamma)
        oracle = area_oracle(g, gamma)
        found = oracle.find_critical(1000, seed=88)
        assert len(found) == 16
        seen = set()
        for x, tri, cfg in found:
            rec = match_record(struct, recs, cfg)
            assert rec is not None
            assert tri.negative == rec.index.index
            seen.add(rec.key())
        assert seen == {r.key() for r in recs}


def test_criterion_04_bott_morse_zero_counts():
    with criterion(4, "generic [2,2;3]: circular records have one zero "
                      "eigenvalue, aligned records none"):
        g, gamma = bott_morse_three_chain()
        recs = enumerate_critical_three_chain(g, gamma)
        oracle = area_oracle(g, gamma)
        circular = [r for r in recs if r.chain_status[0].kind == "free"]
        aligned = [r for r in recs if r.chain_status[0].kind == "aligned"]
        assert circular and aligned
        for rec in recs:
            x = oracle.chart.reduce(
                oracle.chart.theta_from_configuration(rec.representative))
            tri = oracle.inertia(x)
            expect_zero = 1 if rec.chain_status[0].kind == "free" else 0
            assert tri.zero == expect_zero
            assert rec.manifold_dim == expect_zero
            assert tri.negative == rec.index.index


def test_criterion_05_pitchfork_reproduction():
    with criterion(5, "[2,2;2] family: one aligned maximum splits into an "
                      "aligned minimum plus two circular maxima at the "
                      "concyclic parameter"):
        g, gamma, edge, (lo, hi) = pitchfork_family()
        cfg = RunConfig(n_seeds=250, seed=11)
        diagram = continue_family(g, edge, lo, hi, 18, gamma, cfg,
                                  n_seeds_step=120)
        splits = [e for e in diagram.events if e.type == "PitchforkSplit"]
        max_splits = [e for e in splits
                      if e.meta["signature"]["center_before"] == "max"
                      and e.meta["signature"]["center_after"] == "min"
                      and e.meta["signature"]["companions"] == ["max", "max"]]
        assert len(max_splits) == 1
        t_star = pitchfork_concyclic_parameter()
        zeros = [e for e in diagram.events if e.type == "HessianZero"
                 and e.branch == max_splits[0].branch]
        assert zeros and abs(zeros[0].param - t_star) <= 1e-6


def test_criterion_06_worked_example_index_8():
    with criterion(6, "three-cell linkage admits a critical record of index "
                      "8 = 1+0+5+1+1, oracle-verified"):
        from linkmorse.enumeration import enumerate_critical_pnd
        g, gamma, rep = worked_example()
        rep.validate(g)
        cls = classify_configuration(g, gamma, rep)
        assert cls.critical
        rec = cls.record
        assert rec.index.index == 8
        parts = dict(rec.index.breakdown)
        cells = sorted(v for k, v in parts.items() if k.startswith("cell"))
        chains = sorted(v for k, v in parts.items() if k.startswith("chain"))
        assert cells == [0, 1, 5] and chains == [1, 1]
        # the symbolic enumeration reaches the same record
        recs = enumerate_critical_pnd(g, gamma)
        struct = detect_polygon_with_chains(g, gamma)
        found = match_record(struct, recs, rep)
        assert found is not None and found.index.index == 8
        # oracle inertia confirms the index on the 9-dimensional chart
        oracle = area_oracle(g, gamma)
        x = oracle.chart.reduce(oracle.chart.theta_from_configuration(rep))
        tri = oracle.inertia(x)
        assert tri.as_tuple() == (8, 0, 1)


def test_criterion_07_euler_bookkeeping():
    with criterion(7, "sum of (-1)^index over all critical points vanishes "
                      "on one-dimensional configuration spaces"):
        rng = np.random.default_rng(707)
        for _ in range(10):
            g, gamma = sample_polygon(rng, 4)
            total = sum((-1) ** cyclic_index(p)
                        for p in enumerate_cyclic(list(g.lengths())))
            assert total == 0
        for _ in range(10):
            _, _, recs = sample_three_chain_with_records(
                rng, enumerate_critical_three_chain)
            rep = euler_sum(recs)
            assert rep.known and rep.value == 0


def test_criterion_08_determinant_identity():
    with criterion(8, "closed-form Lagrange determinant equals the numeric "
                      "3x3 determinant on 10^4 random inputs to 1e-12"):
        rng = np.random.default_rng(808)
        for _ in range(10_000):
            a1, a2, b1, b2, c1, c2 = rng.uniform(0.2, 3.0, 6)
            al, be, ga = rng.uniform(0.0, math.pi, 3)
            M = lagrange_matrix_222(a1, a2, b1, b2, c1, c2, al, be, ga)
            closed = lagrange_det_222(a1, a2, b1, b2, c1, c2, al, be, ga)
            num = float(np.linalg.det(M))
            assert abs(closed - num) <= 1e-12 * max(1.0, abs(num))


def test_criterion_09_finite_difference_hygiene():
    with criterion(9, "analytic gradients/Hessians pass central-difference "
                      "audits on 100 random feasible configurations"):
        rng = np.random.default_rng(909)
        cases = []
        for n in (4, 5, 6):
            cases.append(sample_polygon(rng, n))
        cases.append(make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75]))
        cases.append(make_three_chain([1.03, 1.31], [0.79, 1.12],
                                      [0.58, 0.71, 0.92]))
        g6, gamma6, _ = worked_example()
        cases.append((g6, gamma6))
        done = 0
        while done < 100:
            g, gamma = cases[done % len(cases)]
            oracle = area_oracle(g, gamma)
            x0 = rng.uniform(-math.pi, math.pi, oracle.chart.n_vars)
            try:
                x = oracle.project(x0)
            except Exception:
                continue
            report = oracle.fd_check(x)
            assert report["ok"]
            assert report["grad_err"] <= 1e-6
            assert report["hess_err"] <= 1e-4
            done += 1


def test_criterion_10_recognition():
    with criterion(10, "recognition on 200 random SP graphs and 50 subdivided "
                       "K4 graphs, with SP-tree round trips", budget_s=60):
        rng = np.random.default_rng(1010)
        for _ in range(200):
            g, i, t = random_sp_graph(rng)
            assert is_partial_two_tree(g)
            tree = sp_decompose(g, i, t)
            back = evaluate_sp_tree(tree)
            assert sorted(back.vertices) == sorted(g.vertices)
            assert sorted(tuple(sorted(e[:2])) + (e[2],) for e in back.edges) \
                == sorted(tuple(sorted(e[:2])) + (e[2],) for e in g.edges)
        for _ in range(50):
            assert not is_partial_two_tree(random_subdivided_k4(rng))
