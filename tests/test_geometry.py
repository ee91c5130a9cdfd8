"""Oriented area, cyclic polygons, reach, and genericity checks."""

import collections
import json
import logging
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linkmorse.config import Tolerances
from linkmorse.errors import NonGenericError, NotConcyclicError, NotPTTError
from linkmorse import enumeration, geometry
from linkmorse.geometry import (
    Configuration,
    _cyclic_roots,
    _flag_coincident,
    _lstsq_svd,
    aligned_distance,
    aligned_residual,
    chain_reach,
    cyclic_data_from_points,
    enumerate_cyclic,
    lstsq_stack,
    place_chain,
    shoelace,
    simple_cycles_via_sp,
    wall_check,
)
from linkmorse.enumeration import CriticalRecord, enumerate_critical_pnd
from linkmorse.graphs import (
    DistinguishedCycle,
    LinkageGraph,
    detect_polygon_with_chains,
    make_polygon,
    make_three_chain,
)
from linkmorse.instances import max16_three_chain, worked_example

from conftest import (
    area_derivative_wrt_side,
    cyclic_solution,
    random_sp_graph,
    signs_and_winding,
    triangle_area,
)

SQ = DistinguishedCycle(("a", "b", "c", "d"))


def square_config(ccw=True):
    pts = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
    if not ccw:
        pts = [pts[0]] + pts[1:][::-1]
    return Configuration(dict(zip("abcd", pts)))


def square_area(c):
    return shoelace(c.points(SQ.vertices))


class TestConfiguration:
    def test_names_sorted_whatever_the_insertion_order(self):
        pts = {"b": (1.0, 2.0), "a": (3.0, 4.0), "c": (5.0, 6.0)}
        c = Configuration(pts)
        d = Configuration(dict(reversed(pts.items())))
        assert c.names == d.names == ("a", "b", "c")
        assert c.xy.tolist() == [[3.0, 4.0], [1.0, 2.0], [5.0, 6.0]]
        assert c.to_json_dict() == d.to_json_dict()
        assert list(c.to_json_dict()["coords"]) == ["a", "b", "c"]

    def test_equality_by_value(self):
        c = square_config()
        assert c == Configuration(dict(c.coords))
        assert c == Configuration.from_rows(c.names, c.xy.copy())
        assert c != square_config(ccw=False)
        assert c != Configuration({"a": (0.0, 0.0)})
        # records are equal when their fields are, row view or one-row table
        base = enumerate_critical_pnd(*max16_three_chain())[0]

        def with_representative(c):
            return CriticalRecord(chain_status=base.chain_status, cells=base.cells,
                                  representative=c, index=base.index,
                                  factors=base.factors, area=base.area)

        again = with_representative(Configuration(dict(base.representative.coords)))
        assert again == base
        assert again != with_representative(Configuration(
            {v: (x, y + 1e-9) for v, (x, y) in base.representative.coords.items()}))

    def test_xy_read_only(self):
        c = square_config()
        with pytest.raises(ValueError):
            c.xy[0, 0] = 1.0
        rows = np.zeros((2, 2))
        d = Configuration.from_rows(("a", "b"), rows)
        assert not d.xy.flags.writeable and np.shares_memory(d.xy, rows)
        assert rows.flags.writeable  # the caller's array is left as it was
        with pytest.raises(ValueError):
            Configuration.from_rows(("a", "b", "c"), rows)

    def test_point_is_a_copy_and_unknown_vertex_raises(self):
        c = square_config()
        p = c.point("c")
        p[0] = 7.0
        assert c.point("c").tolist() == [1.0, 1.0]
        assert c.points(["d", "a"]).tolist() == [[0.0, 1.0], [0.0, 0.0]]
        for v in ("e", "0", "bb"):
            with pytest.raises(KeyError):
                c.point(v)
            with pytest.raises(KeyError):
                c.points(["a", v])

    def test_integers_come_back_as_floats(self):
        c = Configuration({"a": (0, 1), "b": (2, 3)})
        assert c.xy.dtype == np.float64
        assert c.coords == {"a": (0.0, 1.0), "b": (2.0, 3.0)}
        assert all(type(x) is float for xy in c.to_json_dict()["coords"].values()
                   for x in xy)


class TestOrientedArea:
    def test_unit_square_ccw(self):
        assert square_area(square_config()) == pytest.approx(1.0, abs=1e-15)

    def test_unit_square_cw(self):
        assert square_area(square_config(ccw=False)) == pytest.approx(-1.0, abs=1e-15)

    def test_degenerate_collinear(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (2, 0), "d": (3, 0)})
        assert square_area(c) == pytest.approx(0.0, abs=1e-15)

    @settings(max_examples=80, deadline=None)
    @given(phi=st.floats(-math.pi, math.pi), tx=st.floats(-5, 5), ty=st.floats(-5, 5))
    def test_rigid_motion_invariance(self, phi, tx, ty):
        base = square_config()
        R = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
        moved = Configuration({v: tuple(R @ np.array(p) + [tx, ty])
                               for v, p in base.coords.items()})
        assert square_area(moved) == pytest.approx(1.0, rel=1e-12, abs=1e-12)

    def test_reflection_negates(self):
        base = square_config()
        refl = Configuration({v: (x, -y) for v, (x, y) in base.coords.items()})
        assert square_area(refl) == pytest.approx(-1.0, abs=1e-12)


class TestIsAligned:
    def test_collinear(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (3, 0)})
        assert aligned_residual(c.points(["a", "b", "c"])) <= 1e-9

    def test_bent(self):
        c = Configuration({"a": (0, 0), "b": (1, 0), "c": (1, 1)})
        assert aligned_residual(c.points(["a", "b", "c"])) > 1e-9

    def test_tolerance_semantics(self):
        c = Configuration({"a": (0, 0), "b": (1, 1e-12), "c": (2, 0)})
        assert aligned_residual(c.points(["a", "b", "c"])) <= 1e-9


class TestSolveCyclic:
    def test_equilateral_triangle(self):
        sols, i = cyclic_solution([1, 1, 1], [1, 1, 1], 1)
        radius, eps, alphas = float(sols.radius[i]), sols.eps[i], sols.alphas[i]
        assert radius == pytest.approx(1 / math.sqrt(3), abs=1e-12)
        assert (sols.to_json_dict(i)["e"], sols.omega[i]) == (3, 1)
        # the vertices lie on the circle, each edge spans its half-angle, the
        # signed half-angles sum to pi * omega and the last edge closes
        pts, lengths = sols.vertices[i], np.array(sols.lengths)
        assert np.abs(np.hypot(*(pts - sols.center).T) - radius).max() <= 1e-8 * radius
        assert np.abs(lengths - 2 * radius * np.sin(alphas)).max() <= \
            Tolerances().rel_length * lengths.sum()
        assert abs(float(eps @ alphas) - math.pi * sols.omega[i]) <= 1e-7
        assert abs(np.hypot(*(pts[0] - pts[-1])) - lengths[-1]) <= 1e-9 * lengths.sum()

    def test_unit_square(self):
        sols, i = cyclic_solution([1, 1, 1, 1], [1, 1, 1, 1], 1)
        assert sols.radius[i] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)

    def test_triangle_circumradius_oracle(self):
        # closed form R = abc / 4K computed first, then matched by the solver;
        # the largest angle is obtuse so the center sits outside: its edge
        # sign is -1 and the winding is 0
        a, b, c = 2.0, 1.5, 1.0
        s = 0.5 * (a + b + c)
        K = math.sqrt(s * (s - a) * (s - b) * (s - c))
        oracle_r = a * b * c / (4 * K)
        assert oracle_r == pytest.approx(1.0327955589886446, abs=1e-12)
        sols, i = cyclic_solution([a, b, c], [-1, 1, 1], 0)
        assert sols.radius[i] == pytest.approx(oracle_r, abs=1e-9)
        # the all-positive winding-one cell has no root for an obtuse triangle
        assert cyclic_solution([a, b, c], [1, 1, 1], 1) is None

    def test_invalid_lengths(self):
        # the longest edge exceeds the sum of the others: no closed polygon
        assert len(enumerate_cyclic([5, 1, 1])) == 0

    def test_no_solution_cell(self):
        assert cyclic_solution([1, 1, 1], [1, -1, 1], 1) is None


class TestEnumerateCyclic:
    def test_equilateral_triangle_two_mirrors(self):
        sols = enumerate_cyclic([1, 1, 1])
        assert len(sols) == 2
        keys = {signs_and_winding(sols, i) for i in range(len(sols))}
        assert keys == {((1, 1, 1), 1), ((-1, -1, -1), -1)}

    def test_square_includes_convex_pair(self):
        sols = enumerate_cyclic([1, 1, 1, 1])
        keys = {signs_and_winding(sols, i) for i in range(len(sols))}
        assert ((1, 1, 1, 1), 1) in keys
        assert ((-1, -1, -1, -1), -1) in keys

    @pytest.mark.parametrize("lens", [[1.2, -0.5, 1.0, 0.9], [1, 0, 1], [1, math.nan, 1],
                                      [1, math.inf, 1]])
    def test_lengths_must_be_positive_and_finite(self, lens):
        with pytest.raises(ValueError, match="positive and finite"):
            enumerate_cyclic(lens)

    def test_json_equals_fresh_build(self):
        # every call builds the row's JSON afresh from the table
        sols = enumerate_cyclic([1.0, 1.3, 0.8, 1.4])
        d = sols.to_json_dict(0)
        eps = sols.eps[0].tolist()
        assert d == {
            "lengths": list(sols.lengths), "center": [0.0, 0.0],
            "radius": float(sols.radius[0]), "vertices": sols.vertices[0].tolist(),
            "eps": eps, "alphas": sols.alphas[0].tolist(), "omega": int(sols.omega[0]),
            "e": eps.count(1), "area": shoelace(sols.vertices[0]),
            "flags": sorted(sols.flags[0])}
        d["area"] = None
        assert sols.to_json_dict(0)["area"] == shoelace(sols.vertices[0])

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

    @pytest.mark.parametrize("grid_points", [1, 2.5])
    def test_grid_points_must_be_an_int_of_two_or_more(self, grid_points):
        # one grid point brackets no root: [1.0, 1.3, 0.8, 1.4, 1.1] would
        # silently lose all 10 solutions; 2.5 would fail inside np.geomspace
        with pytest.raises(ValueError, match="grid_points"):
            Tolerances(grid_points=grid_points)


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


def _eps_table(n, masks):
    return np.array([_mask_eps(n, m) for m in masks])


def _random_lengths(rng, n):
    while True:
        lens = rng.uniform(0.3, 2.0, n)
        if 2 * lens.max() < 0.98 * lens.sum():
            return lens


def _closure_by_columns(lengths, eps, r):
    """geometry._closure as a loop over the columns, one addition at a time."""
    v = np.arcsin(np.minimum(1.0, lengths / (2.0 * r[:, None])))
    f = v[:, 0] * eps[:, 0]
    for k in range(1, len(lengths)):
        f = f + v[:, k] * eps[:, k]
    return f


def _stack_roots(lens, table, tols=Tolerances()):
    """The root kernel's roots of the sign vectors ``table`` of one length
    vector, and its count of degenerate windings."""
    roots, flats, _ = _cyclic_roots([(lens, table)], tols)
    return roots[0], flats[0]


class TestStackedRoots:
    @pytest.mark.parametrize("n", range(3, 12))
    def test_stack_equals_rows(self, n):
        lens = _random_lengths(np.random.default_rng(1000 + n), n)
        table = _eps_table(n, range(2 ** (n - 1)))
        stacked, _ = _stack_roots(lens, table)
        assert stacked == [_reference_roots(lens, eps)[0] for eps in table]
        assert sum(map(len, stacked)) > 0
        # enumerate_cyclic keeps every root and adds its mirror
        radii = sorted(enumerate_cyclic(list(lens)).radius.tolist())
        assert radii == sorted(2 * [r for roots in stacked for _, r in roots])

    @pytest.mark.parametrize("n", [7, 9])
    @pytest.mark.parametrize("block", [1, 3, 16])
    def test_shuffled_rows_in_blocks(self, n, block, monkeypatch):
        # half the sign vectors in random order: the rows sharing a grid top
        # are not adjacent, and blocks of 3 and 16 leave a partial last block.
        # Near-wall lengths (ones and a two, perturbed) give the sign vectors
        # close to a wall winding-0 tails above r_crit, so grid tops differ
        rng = np.random.default_rng(4000 + n)
        lens = np.r_[np.ones(n - 1), 2.0] + rng.uniform(-1e-3, 1e-3, n)
        masks = rng.permutation(2 ** (n - 1))[:2 ** (n - 2)]
        table = _eps_table(n, masks)
        _, tops = geometry._radius_tops(lens, table)
        assert len(set(tops.tolist())) > 1
        monkeypatch.setattr(geometry, "SCAN_BLOCK", block)
        stacked, _ = _stack_roots(lens, table)
        assert stacked == [_reference_roots(lens, eps)[0] for eps in table]
        assert sum(map(len, stacked)) > 0

    @pytest.mark.parametrize("n", range(3, 12))
    def test_closure_is_the_column_by_column_sum(self, n):
        # one running sum makes the additions of the column loop in its
        # order, so the closure values agree bit for bit
        rng = np.random.default_rng(6000 + n)
        lens = _random_lengths(rng, n)
        eps = _eps_table(n, rng.integers(0, 2 ** (n - 1), 50))
        r = float(lens.max()) * rng.uniform(0.5, 20.0, 50)
        assert geometry._closure(lens, eps, r).tobytes() == \
            _closure_by_columns(lens, eps, r).tobytes()
        # the scan's sums add in the same order, at shared or per-row radii
        table = geometry._half_angles(lens, r)
        assert geometry._signed_sum(eps, table[:, :, None]).ravel().tobytes() == \
            _closure_by_columns(lens, eps, r).tobytes()
        assert geometry._signed_sum(eps[:1], table).ravel().tobytes() == \
            _closure_by_columns(lens, np.repeat(eps[:1], 50, axis=0), r).tobytes()

    def test_degenerate_closure_warned_per_cell(self, caplog, monkeypatch):
        # (+,+,-,-), (+,-,+,-) and (+,-,-,+) sum to exactly 0 at every radius
        lens = np.ones(4)
        table = _eps_table(4, range(8))
        ref = [_reference_roots(lens, eps) for eps in table]
        assert sum(flat for _, flat in ref) == 3
        for block in (1, 3, geometry.SCAN_BLOCK):
            monkeypatch.setattr(geometry, "SCAN_BLOCK", block)
            assert _stack_roots(lens, table) == ([roots for roots, _ in ref], 3)
            # the warnings come with the table, once per degenerate winding
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
                enumerate_cyclic(lens)
            assert [r.getMessage() for r in caplog.records].count(
                "degenerate closure: F is identically pi*omega; skipping cell") == 3

    def test_triangle_with_diameter_edge(self):
        # 3-4-5: the hypotenuse is a diameter, a root at the first grid point
        lens = np.array([3.0, 4.0, 5.0])
        table = _eps_table(3, range(4))
        stacked, _ = _stack_roots(lens, table)
        assert stacked == [_reference_roots(lens, eps)[0] for eps in table]
        assert (0, 2.5) in stacked[2] and (1, 2.5) in stacked[0]
        sols = enumerate_cyclic([3, 4, 5])
        assert all({"diameter_edge", "coincident"} <= f for f in sols.flags)

    def test_block_size_does_not_change_roots(self, monkeypatch):
        lens = _random_lengths(np.random.default_rng(3), 7)
        table = _eps_table(7, range(64))
        before = _stack_roots(lens, table)
        for block in (8, 64):
            monkeypatch.setattr(geometry, "SCAN_BLOCK", block)
            assert _stack_roots(lens, table) == before

    @pytest.mark.parametrize("stride", [1, 7, 9_999, 10_000, 50_000])
    def test_stride_does_not_change_roots(self, stride, monkeypatch):
        # 10,000 grid points make 9,999 steps: strides 7 and the default 100
        # leave a partial last interval, and from 9,999 on the grid is one
        # interval, scanned as one window
        lens = _random_lengths(np.random.default_rng(3), 7)
        table = _eps_table(7, range(64))
        ref = [_reference_roots(lens, eps)[0] for eps in table]
        assert 9_999 % 7 and 9_999 % geometry.SCAN_STRIDE
        monkeypatch.setattr(geometry, "SCAN_STRIDE", stride)
        assert _stack_roots(lens, table) == (ref, 0)

    def test_root_pair_inside_one_node_interval(self):
        # the first length is tuned so that (+,-,+,-,-) has a local maximum
        # 1e-7 above 0 between grid points 1,000 and 1,100: its two winding-0
        # roots lie between grid points 1,024 and 1,034, and the closure is
        # negative at both nodes, so only the tan-sum test keeps the window
        lens = np.array([1.3150240166838731, 0.7000120938348868, 1.663744562423422,
                         1.774467038132105, 0.5188914410873467])
        table = _eps_table(5, range(16))
        ref = [_reference_roots(lens, eps)[0] for eps in table]
        assert ref[13] == [(0, 1.2649284163007795), (0, 1.2686312099621906)]
        _, tops = geometry._radius_tops(lens, table[13:14])
        grid = np.geomspace(lens.max() / 2.0, tops[0], 10_000)
        assert np.searchsorted(grid, [r for _, r in ref[13]]).tolist() == [1025, 1034]
        assert (geometry._closure(lens, table[[13, 13]], grid[[1000, 1100]]) < 0).all()
        assert _stack_roots(lens, table) == (ref, 0)

    def test_few_grid_points(self):
        # grids shorter than one stride: one interval of every point
        lens = _random_lengths(np.random.default_rng(5), 6)
        table = _eps_table(6, range(32))
        for points in (2, 3, 101, 250):
            stacked, _ = _stack_roots(lens, table, Tolerances(grid_points=points))
            assert stacked == [_reference_roots(lens, eps, points)[0] for eps in table]

    def test_many_length_vectors_in_one_stack(self):
        # vectors of 3 to 9 edges in one pass: every bracket is bisected with
        # its own lengths, zero-padded, and every root is that of a pass of
        # its vector alone
        rng = np.random.default_rng(8)
        jobs = [(_random_lengths(rng, n), _eps_table(n, range(2 ** (n - 1))))
                for n in (9, 3, 6, 4, 8)]
        together, _, counts = _cyclic_roots(jobs, Tolerances())
        assert together == [_stack_roots(lens, table)[0] for lens, table in jobs]
        assert counts["brackets"] > 0 and counts["bisect_steps"] <= geometry.BISECT_MAX_ITER


class TestRootPassFootprint:
    def test_first_call_imports_no_module(self):
        # a numpy function used for the first time can import a submodule
        # (np.unique imports numpy.ma), which the process then keeps
        code = ("import sys, linkmorse; before = set(sys.modules); "
                "linkmorse.enumerate_cyclic([1.0, 1.3, 0.8, 1.4, 1.1]); "
                "linkmorse.enumerate_cyclic([1.0, 1.0, 1.0, 1.0]); "
                "print(sorted(set(sys.modules) - before))")
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=path), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[-2] == "[]"

    def test_worked_example_polygon_peak(self):
        # the 11-gon's 1,024 sign vectors: a scan of every grid point peaked
        # at 1.92 MB (tracemalloc), the arcsin table of 11 * 10,000 radii and
        # a block of closure values; the windowed scan stays within 10% of it
        lens = detect_polygon_with_chains(*worked_example()[:2]).gamma_lengths()
        assert len(lens) == 11
        enumerate_cyclic(lens)  # numpy's and the interpreter's first-use caches
        tracemalloc.start()
        try:
            enumerate_cyclic(lens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 1_918_700, peak


# a cyclic solution as plain Python values: the signs and half-angles as
# tuples, the vertices as a tuple of (x, y) and the flags as a frozenset
Row = collections.namedtuple("Row", "eps omega radius alphas vertices flags")


def table_rows(sols):
    """The rows of a ``CyclicSolutions`` table as ``Row`` tuples."""
    return [Row(tuple(e), w, r, tuple(a), tuple(map(tuple, v)), f) for e, w, r, a, v, f in
            zip(sols.eps.tolist(), sols.omega.tolist(), sols.radius.tolist(),
                sols.alphas.tolist(), sols.vertices.tolist(), sols.flags)]


def _reference_flag_coincident(rows, scale):
    """The pair loop over all solutions, flagging ``rows`` in place; returns
    the warning count."""
    warned = 0
    for a in range(len(rows)):
        for b in range(a + 1, len(rows)):
            pa, pb = rows[a], rows[b]
            if abs(pa.radius - pb.radius) > 1e-7 * scale:
                continue
            if np.max(np.abs(np.array(pa.vertices) - np.array(pb.vertices))) <= 1e-7 * scale:
                warned += 1
                rows[a] = pa._replace(flags=pa.flags | {"coincident"})
                rows[b] = pb._replace(flags=pb.flags | {"coincident"})
    return warned


@pytest.mark.parametrize("lens, coincide", [
    ([3, 4, 5], True), ([1] * 4, True), ([1] * 6, True), ([1.0, 1.3, 0.8, 1.4, 1.1], False)])
def test_flag_coincident_matches_pair_loop(lens, coincide, caplog):
    sols = enumerate_cyclic(lens)
    ref = [p._replace(flags=p.flags - {"coincident"}) for p in table_rows(sols)]
    warned = _reference_flag_coincident(ref, sum(lens))
    with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
        flagged = _flag_coincident(sols.radius, sols.vertices, sum(lens))
    assert flagged.tolist() == ["coincident" in p.flags for p in ref]
    assert list(sols.flags) == [p.flags for p in ref]
    assert len(caplog.records) == warned
    assert (warned > 0) == coincide


def test_flag_coincident_radius_window(caplog):
    # copies of one polygon at radius offsets (in units of the tolerance):
    # only pairs within the tolerance in radius are compared
    lens = [1.0, 1.3, 0.8, 1.4, 1.1]
    p = table_rows(enumerate_cyclic(lens))[0]
    scale = sum(lens)
    rows = [p._replace(radius=p.radius + k * 1e-7 * scale) for k in (0.0, 1.7, 0.5, 3.0, 2.4)]
    ref = list(rows)
    warned = _reference_flag_coincident(ref, scale)
    with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
        flagged = _flag_coincident(np.array([q.radius for q in rows]),
                                   np.array([q.vertices for q in rows]), scale)
    assert flagged.tolist() == ["coincident" in q.flags for q in ref]
    assert len(caplog.records) == warned == 3


# ---------------------------------------------------------------------------
# the solution table against solutions built one at a time, entry by entry
# ---------------------------------------------------------------------------

def _reference_row(lengths, eps, omega, radius):
    """One cyclic solution built with ``math`` one entry at a time."""
    total = sum(lengths)
    flags = set()
    if omega == 0:
        flags.add("omega_zero")
    if any(abs(l - 2 * radius) <= 1e-12 * total for l in lengths):
        flags.add("diameter_edge")
    alphas = tuple(math.asin(min(1.0, length / (2.0 * radius))) for length in lengths)
    phi = 0.0
    verts = []
    for k in range(len(lengths)):
        verts.append((radius * math.cos(phi), radius * math.sin(phi)))
        phi += 2.0 * eps[k] * alphas[k]
    end = np.array([radius * math.cos(phi), radius * math.sin(phi)])
    assert np.hypot(*(end - np.asarray(verts[0]))) <= 1e-9 * total
    return Row(tuple(int(s) for s in eps), int(omega), float(radius), alphas, tuple(verts),
               frozenset(flags))


def _reference_solutions(lengths):
    """enumerate_cyclic's solutions, each root and its mirror built on its
    own, sorted by (omega, sign bitmask, radius), coincident ones flagged."""
    lengths = [float(x) for x in lengths]
    n = len(lengths)
    table = _eps_table(n, range(2 ** (n - 1)))
    rows = []
    for eps, roots in zip(table.tolist(), _stack_roots(np.asarray(lengths), table)[0]):
        for omega, r in roots:
            rows.append(_reference_row(lengths, eps, omega, r))
            rows.append(_reference_row(lengths, [-s for s in eps], -omega, r))
    rows.sort(key=lambda p: (p.omega, sum(1 << k for k, s in enumerate(p.eps) if s > 0),
                             p.radius))
    _reference_flag_coincident(rows, sum(lengths))
    return rows


def _reference_json(lengths, p):
    """The JSON of the reference row ``p`` of a table about the origin."""
    return {"lengths": list(lengths), "center": [0.0, 0.0], "radius": p.radius,
            "vertices": [list(v) for v in p.vertices], "eps": list(p.eps),
            "alphas": list(p.alphas), "omega": p.omega, "e": p.eps.count(1),
            "area": shoelace(np.asarray(p.vertices)), "flags": sorted(p.flags)}


def worked_example_length_vectors():
    """The cell length vectors whose tables the worked example's enumeration
    builds."""
    seen = []

    def recorded(roots):
        seen.append(roots.lengths)
        return geometry.cyclic_table(roots)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "cyclic_table", recorded)
        enumerate_critical_pnd(*worked_example()[:2])
    return seen


class TestSolutionTable:
    @pytest.mark.parametrize("n", range(3, 10))
    def test_random_polygons_equal_reference(self, n):
        rng = np.random.default_rng(5000 + n)
        for _ in range(3):
            lens = [float(x) for x in _random_lengths(rng, n)]
            sols = enumerate_cyclic(lens)
            assert len(sols) > 0
            assert table_rows(sols) == _reference_solutions(lens)

    def test_worked_example_length_vectors_equal_reference(self):
        solved = [lens for lens in worked_example_length_vectors() if enumerate_cyclic(lens)]
        assert len(solved) == 17
        for lens in solved:
            assert table_rows(enumerate_cyclic(lens)) == _reference_solutions(lens)

    @pytest.mark.parametrize("lens, flags", [
        ([3, 4, 5], {"coincident", "diameter_edge", "omega_zero"}),
        ([1.0, 1.3, 0.8, 1.4, 1.1], {"omega_zero"})])
    def test_flags_and_mirrors_equal_reference(self, lens, flags):
        rows = table_rows(enumerate_cyclic(lens))
        assert rows == _reference_solutions(lens)
        assert set().union(*(p.flags for p in rows)) == flags
        # every solution's mirror is in the table: signs and winding negated
        keys = [(p.eps, p.omega, p.radius) for p in rows]
        assert sorted(keys) == sorted((tuple(-s for s in e), -w, r) for e, w, r in keys)

    def test_rows_are_the_polygons(self):
        # one read-only table about the origin holds every solution
        lens = [1.0, 1.3, 0.8, 1.4, 1.1]
        sols = enumerate_cyclic(lens)
        assert sols.lengths == tuple(lens) and sols.center == (0.0, 0.0)
        assert len(sols) == len(sols.flags) == 10
        assert [a.shape for a in (sols.radius, sols.omega, sols.eps, sols.alphas,
                                  sols.vertices)] == [(10,), (10,), (10, 5), (10, 5), (10, 5, 2)]
        for a in (sols.radius, sols.omega, sols.eps, sols.alphas, sols.vertices):
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("lens", [[3, 4, 5], [1.0, 1.3, 0.8, 1.4, 1.1]])
    def test_row_json_and_signature_are_the_polygons(self, lens):
        # a row's JSON text and key part are those of its reference solution
        sols = enumerate_cyclic(lens)
        ref = _reference_solutions(lens)
        assert [json.dumps(sols.to_json_dict(i), sort_keys=True) for i in range(len(sols))] == \
            [json.dumps(_reference_json(sols.lengths, p), sort_keys=True) for p in ref]
        assert [sols.signature(i) for i in range(len(sols))] == [
            "".join("+" if s > 0 else "-" for s in p.eps) + f"w{p.omega}r{p.radius:.9e}"
            for p in ref]

    @pytest.mark.parametrize("lens", [[1.0, 1.0, 3.0], [1.0, 2.0, 0.5, 0.5], [0.1, 0.1, 5.0, 0.2]])
    def test_flat_lengths_give_the_empty_table_unsolved(self, lens, monkeypatch):
        # only flat polygons: the empty table _solve_rows would make, without
        # forming sign vectors or solving rows
        n = len(lens)
        ref = geometry._solve_rows(tuple(map(float, lens)), np.empty((0, n)),
                                   np.empty(0, dtype=int), np.empty(0))

        def refuse(*args, **kwargs):
            raise AssertionError("a flat length vector was solved")

        monkeypatch.setattr(geometry, "_sign_rows", refuse)
        monkeypatch.setattr(geometry, "_solve_rows", refuse)
        sols = enumerate_cyclic(lens)
        assert len(sols) == 0 and sols.flags == ref.flags == ()
        assert sols.lengths == ref.lengths
        for name in ("radius", "omega", "eps", "alphas", "vertices"):
            a, b = getattr(sols, name), getattr(ref, name)
            assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), name
        assert [a.shape for a in (sols.radius, sols.eps, sols.vertices)] == \
            [(0,), (0, n), (0, n, 2)]

    def test_closure_failure_on_any_root_refuses(self, monkeypatch):
        # one root of the last sign vector moved off its closure radius: the
        # enumeration is refused, though nothing reads that solution
        roots = geometry._cyclic_roots

        def moved(jobs, tols):
            out, flats, counts = roots(jobs, tols)
            (job,) = out
            last = next(k for k in range(len(job) - 1, -1, -1) if job[k])
            omega, r = job[last][-1]
            job[last][-1] = (omega, 1.01 * r)
            return out, flats, counts

        monkeypatch.setattr(geometry, "_cyclic_roots", moved)
        with pytest.raises(NonGenericError, match="failed closure residual check"):
            enumerate_cyclic([1.0, 1.3, 0.8, 1.4, 1.1])


class TestCircleData:
    def test_unit_square(self):
        sols = cyclic_data_from_points(square_config().points(SQ.vertices))
        assert len(sols) == 1
        assert sols.center == pytest.approx((0.5, 0.5))
        assert sols.radius[0] == pytest.approx(math.sqrt(2) / 2)
        assert signs_and_winding(sols, 0) == ((1, 1, 1, 1), 1)
        assert sols.to_json_dict(0)["e"] == 4
        assert sols.alphas[0].tolist() == pytest.approx([math.pi / 4] * 4)

    def test_unit_square_cw(self):
        sols = cyclic_data_from_points(square_config(ccw=False).points(SQ.vertices))
        assert signs_and_winding(sols, 0) == ((-1, -1, -1, -1), -1)
        assert sols.to_json_dict(0)["e"] == 0

    def test_perturbed_square_rejected(self):
        c = square_config()
        coords = dict(c.coords)
        coords["c"] = (1.0 + 1e-3, 1.0)
        tight = Tolerances(concyclicity=1e-6)
        with pytest.raises(NotConcyclicError) as exc:
            cyclic_data_from_points(Configuration(coords).points(SQ.vertices), tight)
        assert exc.value.max_deviation > 1e-4

    def test_center_on_edge_degenerate(self):
        # right triangle: the hypotenuse is a diameter, so the circumcenter
        # sits on that edge and its sign is undefined
        from linkmorse.errors import DegenerateCenterError
        tri = DistinguishedCycle(("a", "b", "c"))
        c = Configuration({"a": (0.0, 0.0), "b": (1.0, 0.0), "c": (0.0, 1.0)})
        with pytest.raises(DegenerateCenterError):
            cyclic_data_from_points(c.points(tri.vertices))

    def test_round_trip_with_solver(self, rng):
        # (eps, omega, e, R) reproduced exactly / to 1e-9 from the vertices,
        # moved off the origin; the one-row table sits at the moved center
        for _ in range(10):
            lens = list(rng.uniform(0.5, 2.0, 5))
            if 2 * max(lens) >= 0.97 * sum(lens):
                continue
            sols = enumerate_cyclic(lens)
            for i in range(len(sols)):
                if "diameter_edge" in sols.flags[i]:
                    continue
                back = cyclic_data_from_points(sols.vertices[i] + [0.5, -2.0])
                assert signs_and_winding(back, 0) == signs_and_winding(sols, i)
                assert back.to_json_dict(0)["e"] == sols.to_json_dict(i)["e"]
                assert back.radius[0] == pytest.approx(sols.radius[i], abs=1e-9)
                assert back.center == pytest.approx((0.5, -2.0), abs=1e-9)


class TestAreaDerivative:
    def test_right_isoceles_zero(self):
        assert area_derivative_wrt_side(1, 1, math.sqrt(2)) == pytest.approx(0, abs=1e-12)

    def test_equilateral(self):
        # (c/2) cot(pi/3) = 1 / (2 sqrt 3)
        val = area_derivative_wrt_side(1, 1, 1)
        assert val == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)

    def test_obtuse_negative(self):
        assert area_derivative_wrt_side(1, 1, 1.9) < 0

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


class TestPlaceChain:
    @settings(max_examples=200, deadline=None)
    @given(lengths=st.lists(st.floats(0.05, 3.0), min_size=2, max_size=8),
           frac=st.floats(0.0, 1.0), phi=st.floats(-math.pi, math.pi),
           x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0))
    def test_edges_hold(self, lengths, frac, phi, x0, y0):
        # end distances 1e-7 of the total length inside either end of the
        # reach and in between: every edge holds, every joint is finite and
        # a second call gives the same bits
        total = sum(lengths)
        reach = chain_reach(lengths)
        lo, hi = reach.dmin + 1e-7 * total, reach.dmax - 1e-7 * total
        w = np.array([lo, hi, lo + frac * (hi - lo)])
        start = np.tile([x0, y0], (3, 1))
        end = start + w[:, None] * np.array([math.cos(phi), math.sin(phi)])
        joints = place_chain(lengths, start, end)
        assert joints.shape == (3, len(lengths) - 1, 2)
        assert np.isfinite(joints).all()
        path = np.concatenate((start[:, None], joints, end[:, None]), axis=1)
        edges = np.hypot(*np.diff(path, axis=1).transpose(2, 0, 1))
        assert np.abs(edges - lengths).max() <= 1e-12 * total
        assert place_chain(lengths, start, end).tobytes() == joints.tobytes()

    @pytest.mark.parametrize("a,b,w", [(1.0, 1.2, 0.5), (1.0, 1.2, 2.1), (0.7, 0.7, 1.3)])
    def test_two_edges_is_triangle_apex(self, a, b, w):
        # the joint of a two-edge chain is the triangle apex left of the line
        # from start to end
        (joint,) = place_chain([a, b], np.zeros((1, 2)), np.array([[w, 0.0]]))[0]
        x = (w * w + a * a - b * b) / (2 * w)
        assert joint == pytest.approx([x, math.sqrt(a * a - x * x)], abs=1e-15)
        rotated = place_chain([a, b], np.array([[1.0, 2.0]]), np.array([[1.0, 2.0 + w]]))
        assert rotated[0, 0] == pytest.approx([1.0 - joint[1], 2.0 + joint[0]], abs=1e-15)

    @pytest.mark.parametrize("w", [0.45, 1.0, 2.4])
    def test_first_joint_at_midpoint(self, w):
        # the rest of the chain spans the middle of the end distances that
        # both the first edge and the rest can make
        lengths = [0.8, 1.1, 0.6]
        rest = chain_reach(lengths[1:])
        lo, hi = max(rest.dmin, abs(w - 0.8)), min(rest.dmax, w + 0.8)
        end = np.array([[0.3 * w, -0.4 * w]]) / 0.5
        first = place_chain(lengths, np.zeros((1, 2)), end)[0, 0]
        assert np.hypot(*(end[0] - first)) == pytest.approx(0.5 * (lo + hi), abs=1e-15)


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
