"""Symbolic critical-point enumeration, classification, and Euler sums."""

import hashlib
import logging
import math

import numpy as np
import pytest

from linkmorse import enumeration
from linkmorse.enumeration import (
    classify_configuration,
    enumerate_critical_pnd,
    enumerate_critical_three_chain,
    euler_sum,
    match_record,
)
from linkmorse.errors import NonGenericError, NotPTTError
from linkmorse.geometry import Configuration, enumerate_cyclic
from linkmorse.graphs import detect_polygon_with_chains, make_polygon, make_three_chain
from linkmorse.indices import cyclic_index
from linkmorse.instances import (
    bott_morse_three_chain,
    max16_three_chain,
    non_ptt_example,
    worked_example,
)
from linkmorse.oracle import area_oracle

from conftest import sample_three_chain_with_records

THREE_CHAIN = ([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])


class TestThreeChainEnumeration:
    def test_record_set_structure(self):
        g, gamma = make_three_chain(*THREE_CHAIN)
        recs = enumerate_critical_three_chain(g, gamma)
        aligned = [r for r in recs if r.chain_status[0].kind == "aligned"]
        circular = [r for r in recs if r.chain_status[0].kind == "free"]
        assert len(aligned) == 4  # only the stretched pattern is feasible here
        assert len(circular) == 4
        for r in circular:
            assert r.manifold_dim == 0 and r.point_count == 2
            assert len(r.cells) == 1
        for r in aligned:
            assert r.manifold_dim == 0 and r.point_count == 1
            assert len(r.cells) == 2

    def test_wall_instance_rejected(self):
        g, gamma = make_three_chain([1.0, 1.2], [0.9, 1.3], [0.8, 0.9])
        with pytest.raises(NonGenericError):
            enumerate_critical_three_chain(g, gamma)

    def test_indices_match_oracle(self):
        g, gamma = make_three_chain(*THREE_CHAIN)
        recs = enumerate_critical_three_chain(g, gamma)
        struct = detect_polygon_with_chains(g, gamma)
        o = area_oracle(g, gamma)
        seen = set()
        for x, tri, cfg in o.find_critical(400, seed=3):
            rec = match_record(struct, recs, cfg)
            assert rec is not None, "oracle found a point outside the record list"
            assert tri.negative == rec.index.index
            assert tri.zero == rec.manifold_dim
            seen.add(rec.key())
        assert seen == {r.key() for r in recs}

    def test_pnd_entry_point_equivalent(self):
        g, gamma = make_three_chain(*THREE_CHAIN)
        a = enumerate_critical_three_chain(g, gamma)
        b = enumerate_critical_pnd(g, gamma)
        assert [r.key() for r in a] == [r.key() for r in b]

    def test_plain_polygon_reduces_to_cyclic_enumeration(self):
        lens = [1.0, 1.3, 0.8, 1.4, 1.1]
        g, gamma = make_polygon(lens)
        recs = enumerate_critical_pnd(g, gamma)
        sols = enumerate_cyclic(lens)
        assert len(recs) == len(sols)
        rec_keys = sorted((r.cells[0].poly.eps, r.cells[0].poly.omega) for r in recs)
        sol_keys = sorted((p.eps, p.omega) for p in sols)
        assert rec_keys == sol_keys
        by_key = {(p.eps, p.omega): p for p in sols}
        for r in recs:
            p = by_key[(r.cells[0].poly.eps, r.cells[0].poly.omega)]
            assert r.index.index == cyclic_index(p)
            assert r.manifold_dim == 0

    def test_representatives_realize_lengths(self):
        g, gamma = make_three_chain(*THREE_CHAIN)
        for r in enumerate_critical_three_chain(g, gamma):
            r.representative.validate(g)


class TestMax16Instance:
    def test_sixteen_points(self):
        g, gamma = max16_three_chain()
        recs = enumerate_critical_three_chain(g, gamma)
        assert sum(r.point_count for r in recs) == 16

    def test_euler_sum_zero(self):
        g, gamma = max16_three_chain()
        recs = enumerate_critical_three_chain(g, gamma)
        rep = euler_sum(recs)
        assert rep.known and rep.value == 0


class TestBottMorse223:
    def test_circular_records_are_circles(self):
        g, gamma = bott_morse_three_chain()
        recs = enumerate_critical_three_chain(g, gamma)
        circ = [r for r in recs if r.chain_status[0].kind == "free"]
        assert circ and all(r.manifold_dim == 1 for r in circ)
        assert all(f.chi == 0 for r in circ for f in r.factors)
        alg = [r for r in recs if r.chain_status[0].kind == "aligned"]
        assert alg and all(r.manifold_dim == 0 for r in alg)


class TestClassification:
    def test_round_trip_on_records(self):
        # classifying a record's representative rebuilds the same record
        for g, gamma in (max16_three_chain(), bott_morse_three_chain()):
            scale = g.total_length()
            for r in enumerate_critical_three_chain(g, gamma):
                cls = classify_configuration(g, gamma, r.representative)
                assert cls.critical
                back = cls.record
                assert back.index == r.index
                assert back.manifold_dim == r.manifold_dim
                assert back.factors == r.factors
                assert [(s.kind, s.sigma, s.f) for s in back.chain_status] == \
                    [(s.kind, s.sigma, s.f) for s in r.chain_status]
                assert [(pc.poly.eps, pc.poly.omega) for pc in back.cells] == \
                    [(pc.poly.eps, pc.poly.omega) for pc in r.cells]
                assert back.area == pytest.approx(r.area, rel=0, abs=1e-12 * scale ** 2)

    def test_free_chain_out_of_reach(self):
        from linkmorse.enumeration import _place_free_chain
        from linkmorse.graphs import AttachedChain

        chain = AttachedChain(("A1", "A2"), (1.0, 0.9, 1.1), 0, 3)
        target = np.array([3.5, 0.0])  # beyond the chain's total length 3.0
        assert _place_free_chain(chain, np.zeros(2), target, 10.0) is None

    def test_random_feasible_not_critical(self, rng):
        g, gamma = make_three_chain(*THREE_CHAIN)
        o = area_oracle(g, gamma)
        hits = 0
        for _ in range(10):
            x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
            if o.stationarity_residual(x) < 1e-6:
                continue  # landed on a critical point by chance
            cfg = o.chart.configuration(o.chart.full_theta(x))
            cls = classify_configuration(g, gamma, cfg)
            assert not cls.critical
            assert any(not v.concyclic for v in cls.cell_verdicts) \
                or all(s.kind == "free" for s in cls.chain_status)
            hits += 1
        assert hits >= 5

    def test_aligned_chain_but_bad_cells_not_critical(self):
        # aligned Z forces two cells: with a 3-edge arm A the A-cell is a
        # quadrilateral, so a generic placement of A is not concyclic even
        # though the chain condition holds
        from linkmorse.enumeration import _place_free_chain
        from linkmorse.graphs import AttachedChain

        a = (1.0, 0.9, 1.1)
        b = (0.8, 1.1)
        z = (0.7, 0.75)
        g, gamma = make_three_chain(a, b, z)
        w = sum(z)
        pi, pt = np.zeros(2), np.array([w, 0.0])
        from linkmorse.geometry import triangle_apex
        b_apex = triangle_apex(b[0], b[1], w, up=False)
        chain_a = AttachedChain(("A1", "A2"), a, 0, 3)
        phis = _place_free_chain(chain_a, pi, pt, g.total_length())
        assert phis is not None
        coords = {"I": (0.0, 0.0), "T": (w, 0.0), "Z1": (z[0], 0.0),
                  "B1": (float(b_apex[0]), float(b_apex[1]))}
        q = pi.copy()
        for name, ln, phi in zip(("A1", "A2"), a, phis):
            q = q + ln * np.array([math.cos(phi), math.sin(phi)])
            coords[name] = (float(q[0]), float(q[1]))
        cfg = Configuration(coords)
        cfg.validate(g)
        cls = classify_configuration(g, gamma, cfg)
        z_status = cls.chain_status[0]
        assert z_status.kind == "aligned"
        assert not cls.critical
        assert any(not v.concyclic for v in cls.cell_verdicts)

    def test_non_ptt_rejected(self):
        g, gamma = non_ptt_example()
        c = Configuration({v: (0.0, 0.0) for v in g.vertices})
        with pytest.raises(NotPTTError):
            classify_configuration(g, gamma, c)


class TestWorkedExample:
    def test_constructed_configuration_is_critical_with_index_8(self):
        g, gamma, cfg = worked_example()
        cfg.validate(g)
        cls = classify_configuration(g, gamma, cfg)
        assert cls.critical
        rec = cls.record
        assert rec.index.index == 8
        parts = dict(rec.index.breakdown)
        assert sorted(v for k, v in parts.items() if k.startswith("cell")) == [0, 1, 5]
        assert sorted(v for k, v in parts.items() if k.startswith("chain")) == [1, 1]

    def test_enumeration_counts_and_memoised_cells(self, caplog, monkeypatch):
        # 34 cell lookups on 18 distinct length tuples; each tuple is solved
        # once, and the digest of the records' keys, indices and dimensions
        # is that of an enumeration solving every lookup afresh
        calls = []

        def counted(lens, tols):
            calls.append(tuple(lens))
            return enumerate_cyclic(lens, tols)

        monkeypatch.setattr(enumeration, "enumerate_cyclic", counted)
        g, gamma, _ = worked_example()
        with caplog.at_level(logging.DEBUG, logger="linkmorse.enumeration"):
            recs = enumerate_critical_pnd(g, gamma)
        assert len(calls) == len(set(calls)) == 18
        (rec,) = [r for r in caplog.records if r.name == "linkmorse.enumeration"]
        assert rec.levelno == logging.DEBUG
        assert rec.args == {
            "branches": 15, "empty_branches": 4, "two_edge_cell": 0,
            "no_cyclic_root": 3, "cyclic_lookups": 34, "cyclic_solved": 18,
            "picks": 8158, "glue_mismatch": 0, "outside_reach": 2842,
            "no_representative": 0, "records": 5316}
        digest = hashlib.sha256(repr([(r.key(), r.index.index, r.manifold_dim)
                                      for r in recs]).encode()).hexdigest()
        assert digest == "97e990efdd1ac21b60ed578d795743ccf51a2cd26e968b1b44012455b80cccb9"


class TestEulerSum:
    def test_quadrilateral_balance(self, rng):
        lens = [1.0, 1.3, 0.8, 1.4]
        g, gamma = make_polygon(lens)
        recs = enumerate_critical_pnd(g, gamma)
        rep = euler_sum(recs)
        assert rep.known and rep.value == 0

    def test_unknown_factor_reported(self):
        # a free chain with 4 edges has an unknown factor characteristic
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1],
                                    [0.53, 0.56, 0.61, 0.67])
        recs = enumerate_critical_three_chain(g, gamma)
        free = [r for r in recs if r.chain_status[0].kind == "free"]
        if not free:
            pytest.skip("no circular records for this instance")
        rep = euler_sum(recs)
        assert not rep.known and rep.value is None
        assert rep.unknown_keys


class TestRandomInstances:
    def test_completeness_on_random_222(self, rng):
        g, gamma, recs = sample_three_chain_with_records(
            rng, enumerate_critical_three_chain)
        struct = detect_polygon_with_chains(g, gamma)
        o = area_oracle(g, gamma)
        for x, tri, cfg in o.find_critical(300, seed=17):
            rec = match_record(struct, recs, cfg)
            assert rec is not None
            assert tri.negative == rec.index.index
