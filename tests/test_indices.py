"""Closed-form index formulas and the Lagrange determinant identity."""

import dataclasses
import logging
import math

import numpy as np
import pytest

from linkmorse.config import Tolerances
from linkmorse.errors import CoincidingCentersError, NonGenericError, NotAlignedError
from linkmorse.geometry import enumerate_cyclic
from linkmorse.indices import (
    OpenChainCritical,
    aligned_nu,
    cyclic_index,
    open_chain_index,
    ptt_index,
)

from conftest import cyclic_solution, lagrange_det_222, lagrange_matrix_222, signs_and_winding


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
        assert cyclic_index(*cyclic_solution([1, 1, 1], [1, 1, 1], 1)) == 0

    def test_unit_square_ccw_is_max(self):
        sols, i = cyclic_solution([1, 1, 1, 1], [1, 1, 1, 1], 1)
        assert cyclic_index(sols, i) == 1  # e - 1 - 2 omega = 4 - 1 - 2

    def test_unit_square_cw_is_min(self):
        sols, i = cyclic_solution([1, 1, 1, 1], [-1, -1, -1, -1], -1)
        assert cyclic_index(sols, i) == 0  # e - 2 - 2 omega = 0 - 2 + 2

    def test_obtuse_triangle_center_outside(self):
        assert cyclic_index(*cyclic_solution([2, 1.5, 1], [-1, 1, 1], 0)) == 0

    def test_diameter_edge(self):
        # the hypotenuse of [3, 4, 5] is a diameter: its half-angle is pi/2,
        # and its infinite tan term takes both signs over the four solutions
        sols = enumerate_cyclic([3, 4, 5])
        assert len(sols) == 4
        assert (np.abs(sols.alphas[:, 2] - 0.5 * math.pi) < 1e-9).all()
        assert set(sols.eps[:, 2].tolist()) == {-1, 1}
        assert [cyclic_index(sols, i) for i in range(len(sols))] == [0, 0, 0, 0]

    def test_guard_band_raises(self):
        # mixed signs: |sum| is strictly below the term scale, so a huge
        # guard band must refuse to pick a branch
        sols, i = cyclic_solution([2, 1.5, 1], [-1, 1, 1], 0)
        huge_guard = Tolerances(sign_guard=0.99999)
        with pytest.raises(NonGenericError):
            cyclic_index(sols, i, huge_guard)

    def test_index_outside_morse_bound_is_logged(self, caplog):
        # the equilateral triangle relabelled with winding 0: e - 1 - 2w = 2,
        # outside [0, n - 3] = [0, 0]
        sols, i = cyclic_solution([1, 1, 1], [1, 1, 1], 1)
        sols = dataclasses.replace(sols, omega=np.zeros_like(sols.omega))
        with caplog.at_level(logging.WARNING, logger="linkmorse.indices"):
            assert cyclic_index(sols, i) == 2
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
            by_key = {signs_and_winding(sols, i): i for i in range(len(sols))}
            for i in range(len(sols)):
                eps, omega = signs_and_winding(sols, i)
                mirror = by_key.get((tuple(-s for s in eps), -omega))
                assert mirror is not None
                if cyclic_index(sols, i) + cyclic_index(sols, mirror) != len(lens) - 3:
                    violations.append((lens, sols, i, mirror))
        if violations:
            from linkmorse.geometry import Configuration
            from linkmorse.graphs import make_polygon
            from linkmorse.oracle import area_oracle
            for lens, sols, i, mirror in violations:
                g, gamma = make_polygon(lens)
                o = area_oracle(g, gamma)
                for row in (i, mirror):
                    cfg = Configuration(dict(zip(gamma.vertices, sols.vertices[row].tolist())))
                    x = o.chart.reduce(o.chart.theta_from_configuration(cfg))
                    assert o.inertia(x).negative == cyclic_index(sols, row), \
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
