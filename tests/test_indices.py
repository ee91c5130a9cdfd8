"""Closed-form index formulas and the Lagrange determinant identity."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from linkmorse.config import Tolerances
from linkmorse.errors import CoincidingCentersError, NonGenericError, NotAlignedError
from linkmorse.geometry import enumerate_cyclic, solve_cyclic
from linkmorse.indices import (
    OpenChainCritical,
    aligned_nu,
    cyclic_index,
    lagrange_det_222,
    lagrange_matrix_222,
    open_chain_index,
    ptt_index,
    three_chain_aligned_index,
)


class TestOpenChainIndex:
    @pytest.mark.parametrize("r,f,expect", [(4, 4, 3), (4, 1, 0), (3, 2, 1)])
    def test_formula(self, r, f, expect):
        crit = OpenChainCritical(r, f, (1.0, 0.0))
        assert open_chain_index(crit) == expect

    def test_f_zero_impossible(self):
        with pytest.raises(NotAlignedError):
            OpenChainCritical(3, 0, (1.0, 0.0))


class TestCyclicIndex:
    def test_equilateral_triangle(self):
        p = solve_cyclic([1, 1, 1], [1, 1, 1], 1)
        assert cyclic_index(p) == 0

    def test_unit_square_ccw_is_max(self):
        p = solve_cyclic([1, 1, 1, 1], [1, 1, 1, 1], 1)
        assert cyclic_index(p) == 1  # e - 1 - 2 omega = 4 - 1 - 2

    def test_unit_square_cw_is_min(self):
        p = solve_cyclic([1, 1, 1, 1], [-1, -1, -1, -1], -1)
        assert cyclic_index(p) == 0  # e - 2 - 2 omega = 0 - 2 + 2

    def test_obtuse_triangle_center_outside(self):
        p = solve_cyclic([2, 1.5, 1], [-1, 1, 1], 0)
        assert cyclic_index(p) == 0

    def test_diameter_edge(self):
        # the hypotenuse of [3, 4, 5] is a diameter: its half-angle is pi/2,
        # and its infinite tan term takes both signs over the four solutions
        sols = enumerate_cyclic([3, 4, 5])
        assert len(sols) == 4
        assert all(abs(p.alphas[2] - 0.5 * math.pi) < 1e-9 for p in sols)
        assert {p.eps[2] for p in sols} == {-1, 1}
        assert [cyclic_index(p) for p in sols] == [0, 0, 0, 0]

    def test_guard_band_raises(self):
        # mixed signs: |sum| is strictly below the term scale, so a huge
        # guard band must refuse to pick a branch
        p = solve_cyclic([2, 1.5, 1], [-1, 1, 1], 0)
        huge_guard = Tolerances(sign_guard=0.99999)
        with pytest.raises(NonGenericError):
            cyclic_index(p, huge_guard)

    def test_index_outside_morse_bound_is_logged(self, caplog):
        # the equilateral triangle relabelled with winding 0: e - 1 - 2w = 2,
        # outside [0, n - 3] = [0, 0]
        p = dataclasses.replace(solve_cyclic([1, 1, 1], [1, 1, 1], 1), omega=0)
        with caplog.at_level(logging.WARNING, logger="linkmorse.indices"):
            assert cyclic_index(p) == 2
        (rec,) = caplog.records
        assert (rec.name, rec.levelno) == ("linkmorse.indices", logging.WARNING)
        assert rec.getMessage().startswith("cyclic index 2 escapes the Morse bound [0, 0]")

    def test_mirror_indices_complement(self, rng):
        # empirical relation: mu(P) + mu(mirror P) = n - 3 for generic
        # lengths; if an instance ever refutes it, the oracle arbitrates:
        # the test is inconclusive unless the formula itself is wrong
        violations = []
        for _ in range(6):
            lens = list(rng.uniform(0.5, 2.0, 5))
            if 2 * max(lens) >= 0.97 * sum(lens):
                continue
            sols = enumerate_cyclic(lens)
            by_key = {(p.eps, p.omega): p for p in sols}
            for p in sols:
                mirror = by_key.get((tuple(-s for s in p.eps), -p.omega))
                assert mirror is not None
                if cyclic_index(p) + cyclic_index(mirror) != len(lens) - 3:
                    violations.append((lens, p, mirror))
        if violations:
            from linkmorse.geometry import Configuration
            from linkmorse.graphs import make_polygon
            from linkmorse.oracle import area_oracle
            for lens, p, mirror in violations:
                g, gamma = make_polygon(lens)
                o = area_oracle(g, gamma)
                for poly in (p, mirror):
                    cfg = Configuration({v: tuple(q) for v, q in
                                         zip(gamma.vertices, poly.vertices)})
                    x = o.chart.reduce(o.chart.theta_from_configuration(cfg))
                    assert o.inertia(x).negative == cyclic_index(poly), \
                        "formula disagrees with the oracle"
            pytest.skip("mirror relation refuted, but the formula matches "
                        "the oracle on the counterexample")


class TestAlignedNu:
    def test_r2_f2_positive(self):
        z = OpenChainCritical(2, 2, (1.0, 0.0))
        assert aligned_nu(z, (0.5, -1.0), (0.5, 1.0)) == 1  # f - 1

    def test_r2_f2_negative(self):
        z = OpenChainCritical(2, 2, (1.0, 0.0))
        assert aligned_nu(z, (0.5, 1.0), (0.5, -1.0)) == 0  # r - f

    def test_r3_f1_positive(self):
        z = OpenChainCritical(3, 1, (1.0, 0.0))
        assert aligned_nu(z, (0.5, -1.0), (0.5, 1.0)) == 0

    def test_coinciding_centers(self):
        z = OpenChainCritical(2, 2, (1.0, 0.0))
        with pytest.raises(CoincidingCentersError):
            aligned_nu(z, (0.5, 1.0), (0.5, 1.0))


class TestSums:
    def test_three_chain_sum(self):
        assert three_chain_aligned_index(0, 0, 1) == 1
        assert three_chain_aligned_index(1, 0, 0) == 1

    def test_ptt_sum_worked_example(self):
        assert ptt_index([1, 0, 5], [1, 1]) == 8

    def test_ptt_sum_trivial(self):
        assert ptt_index([0, 0], []) == 0
        assert ptt_index([1], []) == 1


class TestLagrangeDet:
    def test_aligned_type_vanishes(self):
        assert lagrange_det_222(1, 1, 1, 1, 1, 1, 0.7, 0.9, 0.0) == pytest.approx(0.0)

    def test_circular_type_vanishes(self):
        val = lagrange_det_222(1, 1, 1, 1, 1, 1, 1.1, math.pi - 1.1, 0.8)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_unit_lengths_equilateral_angles(self):
        val = lagrange_det_222(1, 1, 1, 1, 1, 1, math.pi / 3, math.pi / 3, math.pi / 3)
        closed = 4 * math.sin(math.pi / 3) * math.sin(2 * math.pi / 3)
        assert closed == pytest.approx(3.0, abs=1e-15)
        assert val == pytest.approx(3.0, abs=1e-12)
        M = lagrange_matrix_222(1, 1, 1, 1, 1, 1, math.pi / 3, math.pi / 3, math.pi / 3)
        assert np.linalg.det(M) == pytest.approx(3.0, rel=1e-12)

    def test_closed_form_equals_numeric_determinant(self, rng):
        for _ in range(2000):
            a1, a2, b1, b2, c1, c2 = rng.uniform(0.2, 3.0, 6)
            al, be, ga = rng.uniform(0.0, math.pi, 3)
            M = lagrange_matrix_222(a1, a2, b1, b2, c1, c2, al, be, ga)
            closed = lagrange_det_222(a1, a2, b1, b2, c1, c2, al, be, ga)
            num = float(np.linalg.det(M))
            assert abs(closed - num) <= 1e-12 * max(1.0, abs(num))
