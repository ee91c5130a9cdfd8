"""Oriented area, cyclic polygons, reach, and genericity checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkmorse.config import Tolerances
from linkmorse.errors import (
    DegenerateTriangleError,
    NotConcyclicError,
    NotPTTError,
)
from linkmorse.geometry import (
    Configuration,
    aligned_distance,
    area_derivative_wrt_side,
    chain_reach,
    circle_data,
    cyclic_data_from_points,
    enumerate_cyclic,
    is_aligned,
    oriented_area,
    solve_cyclic,
    triangle_area,
    wall_check,
)
from linkmorse.graphs import DistinguishedCycle, LinkageGraph, make_polygon, make_three_chain

SQ = DistinguishedCycle(("a", "b", "c", "d"))


def square_config(ccw=True):
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    if not ccw:
        pts = [pts[0]] + pts[1:][::-1]
    return Configuration(dict(zip("abcd", pts)))


class TestOrientedArea:
    def test_unit_square_ccw(self):
        assert oriented_area(square_config(), SQ) == pytest.approx(1.0, abs=1e-15)

    def test_unit_square_cw(self):
        assert oriented_area(square_config(ccw=False), SQ) == pytest.approx(-1.0, abs=1e-15)

    def test_degenerate_collinear(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (2, 0), "d": (3, 0)})
        assert oriented_area(c, SQ) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(phi=st.floats(-math.pi, math.pi), tx=st.floats(-5, 5), ty=st.floats(-5, 5))
    def test_rigid_motion_invariance(self, phi, tx, ty):
        base = square_config()
        R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        moved = Configuration({v: tuple(R @ np.array(p) + [tx, ty])
                               for v, p in base.coords.items()})
        assert oriented_area(moved, SQ) == pytest.approx(1.0, rel=1e-12, abs=1e-12)

    def test_reflection_negates(self):
        base = square_config()
        refl = Configuration({v: (x, -y) for v, (x, y) in base.coords.items()})
        assert oriented_area(refl, SQ) == pytest.approx(-1.0, abs=1e-12)


class TestIsAligned:
    def test_collinear(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (3, 0)})
        assert is_aligned(c, ["a", "b", "c"], 1e-9)

    def test_bent(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (1, 1)})
        assert not is_aligned(c, ["a", "b", "c"], 1e-9)

    def test_tolerance_semantics(self):
        c = Configuration({"a": (0, 0), "b": (1, 1e-12), "c": (2, 0)})
        assert is_aligned(c, ["a", "b", "c"], 1e-9)


class TestSolveCyclic:
    def test_equilateral_triangle(self):
        p = solve_cyclic([1, 1, 1], [1, 1, 1], 1)
        assert p.radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert (p.e, p.omega) == (3, 1)
        p.validate()

    def test_unit_square(self):
        p = solve_cyclic([1, 1, 1, 1], [1, 1, 1, 1], 1)
        assert p.radius == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_triangle_circumradius_oracle(self):
        # closed form R = abc / 4K computed first, then matched by the solver;
        # the largest angle is obtuse so the center sits outside: its edge
        # sign is -1 and the winding is 0
        a, b, c = 2.0, 1.5, 1.0
        s = 0.5 * (a + b + c)
        K = math.sqrt(s * (s - a) * (s - b) * (s - c))
        oracle_r = a * b * c / (4 * K)
        assert oracle_r == pytest.approx(1.0327955589886446, abs=1e-12)
        p = solve_cyclic([a, b, c], [-1, 1, 1], 0)
        assert p is not None
        assert p.radius == pytest.approx(oracle_r, abs=1e-9)
        # the all-positive winding-one cell has no root for an obtuse triangle
        assert solve_cyclic([a, b, c], [1, 1, 1], 1) is None

    def test_invalid_lengths(self):
        with pytest.raises(ValueError):
            solve_cyclic([5, 1, 1], [1, 1, 1], 1)

    def test_no_solution_cell(self):
        assert solve_cyclic([1, 1, 1], [1, -1, 1], 1) is None


class TestEnumerateCyclic:
    def test_equilateral_triangle_two_mirrors(self):
        sols = enumerate_cyclic([1, 1, 1])
        assert len(sols) == 2
        keys = {(p.eps, p.omega) for p in sols}
        assert keys == {((1, 1, 1), 1), ((-1, -1, -1), -1)}

    def test_square_includes_convex_pair(self):
        sols = enumerate_cyclic([1, 1, 1, 1])
        keys = {(p.eps, p.omega) for p in sols}
        assert ((1, 1, 1, 1), 1) in keys
        assert ((-1, -1, -1, -1), -1) in keys

    def test_equilateral_pentagon_golden_count(self):
        # golden value 14, re-verified by a dense independent scan of the
        # closure function over every sign vector
        sols = enumerate_cyclic([1, 1, 1, 1, 1])
        assert len(sols) == 14
        assert _dense_scan_count([1, 1, 1, 1, 1]) == 14

    def test_generic_count_agrees_with_dense_scan(self, rng):
        for _ in range(5):
            lens = list(rng.uniform(0.5, 2.0, 5))
            if 2 * max(lens) >= sum(lens) * 0.97:
                continue
            assert len(enumerate_cyclic(lens)) == _dense_scan_count(lens)


def _dense_scan_count(lengths, grid=200_000):
    """Solution count via brute-force sign changes of the closure function."""
    lengths = np.asarray(lengths, float)
    n = len(lengths)
    total = float(lengths.sum())
    r = np.geomspace(lengths.max() / 2, 50.0 * total, grid)
    count = 0
    for mask in range(2 ** (n - 1)):
        eps = np.array([1.0] + [1.0 if (mask >> k) & 1 == 0 else -1.0
                                for k in range(n - 1)])
        vals = (np.arcsin(np.minimum(1.0, lengths[:, None] / (2 * r[None, :])))
                * eps[:, None]).sum(axis=0)
        for omega in range(-(n // 2), n // 2 + 1):
            d = vals - math.pi * omega
            if np.max(np.abs(d)) < 1e-12:
                continue
            sign = np.sign(d)
            sign[sign == 0] = 1
            hits = int(np.count_nonzero(sign[:-1] != sign[1:]))
            if abs(d[0]) < 1e-13:
                hits += 1
            count += 2 * hits  # mirror solutions counted too
    return count


class TestCircleData:
    def test_unit_square(self):
        poly = circle_data(square_config(), SQ)
        assert poly.center == pytest.approx((0.5, 0.5))
        assert poly.radius == pytest.approx(math.sqrt(2) / 2)
        assert poly.eps == (1, 1, 1, 1)
        assert poly.omega == 1 and poly.e == 4
        assert poly.alphas == pytest.approx((math.pi / 4,) * 4)

    def test_unit_square_cw(self):
        poly = circle_data(square_config(ccw=False), SQ)
        assert poly.eps == (-1, -1, -1, -1)
        assert (poly.omega, poly.e) == (-1, 0)

    def test_perturbed_square_rejected(self):
        c = square_config()
        coords = dict(c.coords)
        coords["c"] = (1.0 + 1e-3, 1.0)
        tight = Tolerances(concyclicity=1e-6)
        with pytest.raises(NotConcyclicError) as exc:
            circle_data(Configuration(coords), SQ, tight)
        assert exc.value.max_deviation > 1e-4

    def test_center_on_edge_degenerate(self):
        # right triangle: the hypotenuse is a diameter, so the circumcenter
        # sits on that edge and its sign is undefined
        from linkmorse.errors import DegenerateCenterError
        tri = DistinguishedCycle(("a", "b", "c"))
        c = Configuration({"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)})
        with pytest.raises(DegenerateCenterError):
            circle_data(c, tri)

    def test_round_trip_with_solver(self, rng):
        # (eps, omega, e, R) reproduced exactly / to 1e-9 from the vertices
        for _ in range(10):
            lens = list(rng.uniform(0.5, 2.0, 5))
            if 2 * max(lens) >= 0.97 * sum(lens):
                continue
            for p in enumerate_cyclic(lens):
                if "diameter_edge" in p.flags:
                    continue
                back = cyclic_data_from_points(p.vertex_array())
                assert back.eps == p.eps
                assert back.omega == p.omega
                assert back.e == p.e
                assert back.radius == pytest.approx(p.radius, abs=1e-9)


class TestAreaDerivative:
    def test_right_isoceles_zero(self):
        assert area_derivative_wrt_side(1, 1, math.sqrt(2)) == pytest.approx(0, abs=1e-12)

    def test_equilateral(self):
        # (c/2) cot(pi/3) = 1 / (2 sqrt 3)
        val = area_derivative_wrt_side(1, 1, 1)
        assert val == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)

    def test_obtuse_negative(self):
        assert area_derivative_wrt_side(1, 1, 1.9) < 0

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateTriangleError):
            area_derivative_wrt_side(1, 1, 2.5)

    @settings(max_examples=120, deadline=None)
    @given(a=st.floats(0.5, 2.0), b=st.floats(0.5, 2.0), frac=st.floats(0.05, 0.95))
    def test_matches_finite_difference(self, a, b, frac):
        lo, hi = abs(a - b), a + b
        c = lo + frac * (hi - lo)
        if min(c - lo, hi - c) < 1e-3:
            return
        h = 1e-6
        fd = (triangle_area(a, b, c + h) - triangle_area(a, b, c - h)) / (2 * h)
        val = area_derivative_wrt_side(a, b, c)
        assert val == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestChainReach:
    @pytest.mark.parametrize("lens,expect", [
        ((1, 1), (0, 2)),
        ((3, 1), (2, 4)),
        ((1, 1, 1), (0, 3)),
    ])
    def test_examples(self, lens, expect):
        r = chain_reach(lens)
        assert (r.dmin, r.dmax) == expect

    def test_against_random_sampling(self, rng):
        lens = [0.9, 1.4, 0.6]
        r = chain_reach(lens)
        seen_lo, seen_hi = math.inf, 0.0
        for _ in range(4000):
            phi = rng.uniform(-math.pi, math.pi, len(lens))
            end = np.array([np.cos(phi) @ lens, np.sin(phi) @ lens])
            d = float(np.hypot(*end))
            assert r.dmin - 1e-12 <= d <= r.dmax + 1e-12
            seen_lo, seen_hi = min(seen_lo, d), max(seen_hi, d)
        assert seen_lo <= r.dmin + 1e-1 or r.dmin == 0
        assert seen_hi >= r.dmax - 1e-1


class TestWallCheck:
    def test_triangle_clean(self):
        g, _ = make_polygon([1, 1, 1])
        report = wall_check(g)
        assert report.clean
        assert report.min_margin == pytest.approx(1.0)

    def test_quadrilateral_wall_hit(self):
        g, _ = make_polygon([1, 1, 1, 3])
        report = wall_check(g)
        assert not report.clean
        assert report.min_margin == pytest.approx(0.0, abs=1e-12)

    def test_three_chain_ab_wall(self):
        # a1 + a2 = b1 + b2 puts the AB cycle on a wall
        g, _ = make_three_chain([1.0, 1.2], [0.9, 1.3], [0.8, 0.9])
        report = wall_check(g)
        assert not report.clean
        hit = min(report.entries, key=lambda e: abs(e.value))
        assert abs(hit.value) == pytest.approx(0.0, abs=1e-12)
        assert len(hit.edge_indices) == 4

    def test_three_chain_has_three_cycles(self):
        g, _ = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        report = wall_check(g)
        assert len(report.entries) == 3

    def test_k4_refused(self):
        # a block with no SP decomposition has no cycle list to check
        pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
        g = LinkageGraph(("a", "b", "c", "d"), tuple((u, v, 1.0) for u, v in pairs))
        with pytest.raises(NotPTTError):
            wall_check(g)


def test_aligned_distance_detects_rigid_match(rng):
    pts = rng.uniform(-1, 1, (5, 2))
    phi = 0.7
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    moved = pts @ R.T + np.array([0.3, -0.8])
    assert aligned_distance(pts, moved) < 1e-12
    reflected = pts * np.array([1.0, -1.0])
    assert aligned_distance(reflected, moved) > 0.1
