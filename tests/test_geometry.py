"""Oriented area, cyclic polygons, reach, and genericity checks."""

import dataclasses
import logging
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
from linkmorse import geometry
from linkmorse.geometry import (
    Configuration,
    _cyclic_roots,
    _fill_block,
    _flag_coincident,
    _lstsq_svd,
    aligned_distance,
    area_derivative_wrt_side,
    chain_reach,
    circle_data,
    cyclic_data_from_points,
    enumerate_cyclic,
    is_aligned,
    lstsq_stack,
    oriented_area,
    shoelace,
    simple_cycles_via_sp,
    solve_cyclic,
    solve_cyclic_all,
    triangle_area,
    wall_check,
)
from linkmorse.graphs import DistinguishedCycle, LinkageGraph, make_polygon, make_three_chain

from conftest import random_sp_graph

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

    def test_json_built_once_and_copied(self):
        # the dict is built once per polygon; each call hands out a fresh
        # top-level dict with the values of a fresh build
        p = enumerate_cyclic([1.0, 1.3, 0.8, 1.4])[0]
        d = p.to_json_dict()
        assert d is not p.to_json_dict()
        assert d["vertices"] is p.to_json_dict()["vertices"]
        d["area"] = None
        fresh = dataclasses.replace(p)
        assert p.to_json_dict() == fresh.to_json_dict()
        assert fresh.to_json_dict()["area"] == fresh.area == shoelace(fresh.vertex_array())

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


# ---------------------------------------------------------------------------
# the closure roots of one sign vector at a time, as scalar code: the
# reference the stacked root kernel must reproduce exactly
# ---------------------------------------------------------------------------

def _reference_roots(lengths, eps, n_grid=10_000):
    """(omega, R) roots of one sign vector and its degenerate-closure count."""
    lmax, total, n = float(lengths.max()), float(lengths.sum()), len(lengths)
    r_min = lmax / 2.0
    r_crit = lmax / (2.0 * math.sin(math.pi / (4.0 * n * n)))
    d = max(abs(float(np.dot(eps, lengths))), 1e-9 * total)
    r_tail = 0.75 * lmax * math.sqrt(total / d)
    grid = np.geomspace(r_min, max(r_crit, r_tail, 4.0 * r_min), n_grid)
    vals = (np.arcsin(np.minimum(1.0, lengths[:, None] / (2.0 * grid[None, :])))
            * eps[:, None]).sum(axis=0)

    def F(r):
        return float(np.dot(eps, np.arcsin(np.minimum(1.0, lengths / (2.0 * r)))))

    def bisect(lo, hi, target):
        flo = F(lo) - target
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = F(mid) - target
            if fm == 0.0:
                return mid
            if (flo < 0) == (fm < 0):
                lo, flo = mid, fm
            else:
                hi = mid
            if hi - lo <= 1e-15 * hi:
                break
        return 0.5 * (lo + hi)

    roots, flat = [], 0
    for omega in range(-(n // 2), n // 2 + 1):
        target = math.pi * omega
        diff = vals - target
        if np.max(np.abs(diff)) < 1e-12:
            flat += 1
            continue
        if abs(diff[0]) < 1e-13:
            roots.append((omega, float(grid[0])))
        sign = np.sign(diff)
        sign[sign == 0] = 1
        for idx in np.nonzero(sign[:-1] != sign[1:])[0]:
            roots.append((omega, bisect(float(grid[idx]), float(grid[idx + 1]), target)))
    out = []
    for omega, r in sorted(roots):
        if not any(o == omega and abs(r - r0) <= 1e-11 * r for o, r0 in out):
            out.append((omega, r))
    return out, flat


def _mask_eps(n, mask):
    return np.array([1.0] + [1.0 if (mask >> k) & 1 == 0 else -1.0 for k in range(n - 1)])


def _random_lengths(rng, n):
    while True:
        lens = rng.uniform(0.3, 2.0, n)
        if 2 * lens.max() < 0.98 * lens.sum():
            return lens


class TestStackedRoots:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_stack_equals_rows(self, n):
        lens = _random_lengths(np.random.default_rng(1000 + n), n)
        masks = range(2 ** (n - 1))
        stacked = _cyclic_roots(lens, masks, Tolerances())
        assert stacked == [_reference_roots(lens, _mask_eps(n, m))[0] for m in masks]
        assert sum(map(len, stacked)) > 0
        # enumerate_cyclic keeps every root and adds its mirror
        radii = sorted(p.radius for p in enumerate_cyclic(list(lens)))
        assert radii == sorted(2 * [r for roots in stacked for _, r in roots])

    @pytest.mark.parametrize("n", [3, 5, 8, 11])
    def test_block_values_sum_in_row_order(self, n):
        # bit for bit the row sums of the scalar code, block by block
        lens = _random_lengths(np.random.default_rng(2000 + n), n)
        grid = np.geomspace(lens.max() / 2, 40 * lens.sum(), 500)
        A = np.arcsin(np.minimum(1.0, lens[:, None] / (2.0 * grid[None, :])))
        b = min(geometry.ROOT_BLOCK, 2 ** (n - 1)).bit_length() - 1
        P = np.empty((2 ** b, len(grid)))
        for high in range(2 ** (n - 1 - b)):
            eps = [_mask_eps(n, (high << b) + j) for j in range(2 ** b)]
            _fill_block(P, A, high)
            assert np.array_equal(P, [(A * e[:, None]).sum(axis=0) for e in eps])

    def test_degenerate_closure_warned_per_cell(self, caplog):
        # (+,+,-,-), (+,-,+,-) and (+,-,-,+) sum to exactly 0 at every radius
        lens = np.ones(4)
        ref = [_reference_roots(lens, _mask_eps(4, m)) for m in range(8)]
        assert sum(flat for _, flat in ref) == 3
        with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
            stacked = _cyclic_roots(lens, range(8), Tolerances())
        assert stacked == [roots for roots, _ in ref]
        assert [r.getMessage() for r in caplog.records].count(
            "degenerate closure: F is identically pi*omega; skipping cell") == 3

    def test_triangle_with_diameter_edge(self):
        # 3-4-5: the hypotenuse is a diameter, a root at the first grid point
        lens = np.array([3.0, 4.0, 5.0])
        stacked = _cyclic_roots(lens, range(4), Tolerances())
        assert stacked == [_reference_roots(lens, _mask_eps(3, m))[0] for m in range(4)]
        assert (0, 2.5) in stacked[2] and (1, 2.5) in stacked[0]
        sols = enumerate_cyclic([3, 4, 5])
        assert all({"diameter_edge", "coincident"} <= p.flags for p in sols)

    def test_solve_cyclic_all_is_a_stack_of_one(self):
        rng = np.random.default_rng(7)
        for n in (3, 4, 5, 7):
            lens = _random_lengths(rng, n)
            for _ in range(4):
                eps = rng.choice([-1, 1], n)
                roots, _ = _reference_roots(lens, eps.astype(float))
                for omega in range(-(n // 2), n // 2 + 1):
                    sols = solve_cyclic_all(list(lens), list(eps), omega)
                    assert [p.radius for p in sols] == [r for o, r in roots if o == omega]
                    assert all(p.eps == tuple(eps) and p.omega == omega for p in sols)

    def test_block_size_does_not_change_roots(self, monkeypatch):
        lens = _random_lengths(np.random.default_rng(3), 7)
        before = _cyclic_roots(lens, range(64), Tolerances())
        for block in (8, 64):
            monkeypatch.setattr(geometry, "ROOT_BLOCK", block)
            assert _cyclic_roots(lens, range(64), Tolerances()) == before


def _reference_flag_coincident(sols, scale):
    """The pair loop over all solutions; returns the warning count."""
    warned = 0
    for a in range(len(sols)):
        for b in range(a + 1, len(sols)):
            pa, pb = sols[a], sols[b]
            if abs(pa.radius - pb.radius) > 1e-7 * scale:
                continue
            if np.max(np.abs(pa.vertex_array() - pb.vertex_array())) <= 1e-7 * scale:
                warned += 1
                sols[a] = dataclasses.replace(pa, flags=pa.flags | {"coincident"})
                sols[b] = dataclasses.replace(pb, flags=pb.flags | {"coincident"})
    return warned


@pytest.mark.parametrize("lens, coincide", [
    ([3, 4, 5], True), ([1] * 4, True), ([1] * 6, True), ([1.0, 1.3, 0.8, 1.4, 1.1], False)])
def test_flag_coincident_matches_pair_loop(lens, coincide, caplog):
    sols = [dataclasses.replace(p, flags=p.flags - {"coincident"})
            for p in enumerate_cyclic(lens)]
    ref = list(sols)
    warned = _reference_flag_coincident(ref, sum(lens))
    with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
        _flag_coincident(sols, sum(lens))
    assert [p.flags for p in sols] == [p.flags for p in ref]
    assert len(caplog.records) == warned
    assert (warned > 0) == coincide


def test_flag_coincident_radius_window(caplog):
    # copies of one polygon at radius offsets (in units of the tolerance):
    # only pairs within the tolerance in radius are compared
    lens = [1.0, 1.3, 0.8, 1.4, 1.1]
    p = enumerate_cyclic(lens)[0]
    scale = sum(lens)
    sols = [dataclasses.replace(p, radius=p.radius + k * 1e-7 * scale)
            for k in (0.0, 1.7, 0.5, 3.0, 2.4)]
    ref = list(sols)
    warned = _reference_flag_coincident(ref, scale)
    with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
        _flag_coincident(sols, scale)
    assert [p.flags for p in sols] == [p.flags for p in ref]
    assert len(caplog.records) == warned == 3


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


def brute_force_cycles(g: LinkageGraph) -> list[tuple[int, ...]]:
    """Edge-index sets in which every vertex has degree 0 or 2 and whose
    edges form one connected piece."""
    out = []
    m = len(g.edges)
    for mask in range(1, 2 ** m):
        ks = [k for k in range(m) if mask >> k & 1]
        adj: dict[str, list[str]] = {}
        for k in ks:
            u, v, _ = g.edges[k]
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
        if any(len(nbrs) != 2 for nbrs in adj.values()):
            continue
        seen, stack = set(), [g.edges[ks[0]][0]]
        while stack:
            x = stack.pop()
            if x not in seen:
                seen.add(x)
                stack.extend(adj[x])
        if seen == set(adj):
            out.append(tuple(ks))
    return sorted(out)


class TestSimpleCycles:
    def test_random_sp_graphs_match_brute_force(self, rng):
        for _ in range(40):
            g, _, _ = random_sp_graph(rng)
            assert simple_cycles_via_sp(g) == brute_force_cycles(g)

    def test_equal_length_parallel_and_antiparallel_edges(self):
        g = LinkageGraph(("a", "b", "c", "d"), (
            ("a", "b", 1.0), ("b", "a", 1.0), ("a", "b", 1.0), ("b", "c", 1.0),
            ("c", "a", 1.0), ("a", "c", 1.0), ("c", "d", 2.0), ("d", "a", 2.0)))
        cycles = simple_cycles_via_sp(g)
        assert cycles == brute_force_cycles(g)
        assert (0, 1) in cycles and (1, 3, 4) in cycles


def test_aligned_distance_detects_rigid_match(rng):
    pts = rng.uniform(-1, 1, (5, 2))
    phi = 0.7
    R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    moved = pts @ R.T + np.array([0.3, -0.8])
    assert aligned_distance(pts, moved) < 1e-12
    reflected = pts * np.array([1.0, -1.0])
    assert aligned_distance(reflected, moved) > 0.1


def conditioned_stack(rng, shape, conds):
    """One (m, n) matrix per condition number, with singular values spaced
    geometrically from 1 to it between random orthogonal factors."""
    m, n = shape
    k = min(m, n)
    out = []
    for c in conds:
        u, _ = np.linalg.qr(rng.normal(size=(m, k)))
        v, _ = np.linalg.qr(rng.normal(size=(n, k)))
        out.append((u * np.geomspace(1.0, 1.0 / c, k)) @ v.T)
    return np.array(out)


class TestLstsqStack:
    SHAPES = [(4, 5), (5, 4), (4, 4), (2, 3)]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_matches_lstsq_on_well_conditioned_rows(self, rng, shape):
        # these rows take the Gram path; the tall ones have a residual
        A = conditioned_stack(rng, shape, np.geomspace(1.0, 1e2, 200))
        A *= rng.uniform(0.1, 10.0, (len(A), 1, 1))
        b = rng.normal(size=(len(A), shape[0]))
        x = lstsq_stack(A, b)
        for Ai, bi, xi in zip(A, b, x):
            ref = np.linalg.lstsq(Ai, bi, rcond=None)[0]
            assert np.linalg.norm(xi - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("shape", SHAPES[:3])
    def test_ill_conditioned_rows_take_the_svd(self, rng, shape):
        # rows of cond 1e3 and above, singular rows and a NaN right-hand
        # side, mixed among well-conditioned rows, return the SVD formula's
        # values bit for bit; every row's value is its own
        conds = [1.0, 1e3, 3.0, 1e5, 1e10, 30.0, 1e3, 1e2]
        A = conditioned_stack(rng, shape, conds + [1.0, 1.0, 1.0, 2.0])
        A[8] = 0.0                   # G exactly singular
        if shape[0] <= shape[1]:     # two equal rows or columns on the short side
            A[9, 1] = A[9, 0]
        else:
            A[9, :, 1] = A[9, :, 0]
        A[10] = np.outer(A[10, :, 0], A[10, 0])  # rank one
        b = rng.normal(size=(len(A), shape[0]))
        b[11, 0] = np.nan
        ill = np.array([c >= 1e3 for c in conds] + [True] * 4)
        x = lstsq_stack(A, b)
        assert np.array_equal(x[ill], _lstsq_svd(A, b)[ill], equal_nan=True)
        assert not np.array_equal(x[~ill], _lstsq_svd(A, b)[~ill])
        for i in range(len(A)):
            assert np.array_equal(lstsq_stack(A[i:i + 1], b[i:i + 1])[0], x[i],
                                  equal_nan=True)

    def test_empty_stack_and_single_system(self, rng):
        assert lstsq_stack(np.zeros((0, 4, 5)), np.zeros((0, 4))).shape == (0, 5)
        A = conditioned_stack(rng, (5, 4), [2.0, 1e6])
        b = rng.normal(size=(2, 5))
        x = lstsq_stack(A, b)
        for i in range(2):
            xi = lstsq_stack(A[i], b[i])
            assert xi.shape == (4,)
            assert np.array_equal(xi, x[i])
