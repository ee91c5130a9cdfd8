"""Symbolic critical-point enumeration, classification, and Euler sums."""

import dataclasses
import gc
import hashlib
import itertools
import json
import logging
import math
import tracemalloc

import numpy as np
import pytest

from linkmorse import enumeration, geometry
from linkmorse.cli import main
from linkmorse.enumeration import (
    CriticalRecord,
    classify_configuration,
    determined_vertices,
    enumerate_critical_pnd,
    enumerate_critical_structure,
    enumerate_critical_three_chain,
    euler_sum,
    match_record,
)
from linkmorse.errors import NonGenericError, NotPTTError
from linkmorse.geometry import (
    Configuration,
    cyclic_table,
    enumerate_cyclic,
    place_chain,
    rotation,
    transform_mapping_segment,
    wall_check,
)
from linkmorse.graphs import (
    DistinguishedCycle,
    LinkageGraph,
    detect_polygon_with_chains,
    elementary_cycles,
    make_polygon,
    make_three_chain,
)
from linkmorse.indices import COINCIDING_CENTERS, aligned_nus, cyclic_index
from linkmorse.instances import (
    bott_morse_three_chain,
    max16_three_chain,
    non_ptt_example,
    worked_example,
)
from linkmorse.oracle import area_oracle

from conftest import sample_three_chain_with_records, signs_and_winding

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

    def test_rejects_polygon_with_two_chains(self):
        g, gamma, _ = worked_example()
        with pytest.raises(NotPTTError, match="not a three-chain"):
            enumerate_critical_three_chain(g, gamma)

    def test_rejects_cycle_not_starting_at_i(self):
        g, gamma = make_three_chain(*THREE_CHAIN)
        rotated = DistinguishedCycle(gamma.vertices[1:] + gamma.vertices[:1])
        with pytest.raises(NotPTTError, match="must start at the chain attachment I"):
            enumerate_critical_three_chain(g, rotated)

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
        rec_keys = sorted(signs_and_winding(*r.cell_keys()[0]) for r in recs)
        sol_keys = sorted(signs_and_winding(sols, i) for i in range(len(sols)))
        assert rec_keys == sol_keys
        by_key = {signs_and_winding(sols, i): i for i in range(len(sols))}
        for r in recs:
            i = by_key[signs_and_winding(*r.cell_keys()[0])]
            assert r.index.index == cyclic_index(sols, i)
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
        # classifying a record's representative rebuilds the same record; on
        # the worked example (every 53rd record, most with both chains
        # aligned) this checks the chain terms of two diagonals
        g, gamma, _ = worked_example()
        worked = enumerate_critical_pnd(g, gamma)[::53]
        assert len(worked) == 101
        assert sum(all(s.kind == "aligned" for s in r.chain_status) for r in worked) == 81
        cases = [(g, gamma, worked)] + [
            (g, gamma, enumerate_critical_three_chain(g, gamma))
            for g, gamma in (max16_three_chain(), bott_morse_three_chain())]
        for g, gamma, recs in cases:
            scale = g.total_length()
            for r in recs:
                cls = classify_configuration(g, gamma, r.representative)
                assert cls.critical
                back = cls.record
                assert back.index == r.index
                assert back.manifold_dim == r.manifold_dim
                assert back.factors == r.factors
                assert [(s.kind, s.sigma, s.f) for s in back.chain_status] == \
                    [(s.kind, s.sigma, s.f) for s in r.chain_status]
                assert [signs_and_winding(*k) for k in back.cell_keys()] == \
                    [signs_and_winding(*k) for k in r.cell_keys()]
                assert back.area == pytest.approx(r.area, rel=0, abs=1e-12 * scale ** 2)

    def test_random_feasible_not_critical(self, rng):
        g, gamma = make_three_chain(*THREE_CHAIN)
        o = area_oracle(g, gamma)
        hits = 0
        for _ in range(10):
            x = o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))
            if np.linalg.norm(o.multipliers(x)[1]) < 1e-6:
                continue  # landed on a critical point by chance
            cfg = o.chart.configuration(o.chart.full_theta(x))
            cls = classify_configuration(g, gamma, cfg)
            assert not cls.critical
            assert None in cls.cell_verdicts \
                or all(s.kind == "free" for s in cls.chain_status)
            hits += 1
        assert hits >= 5

    def test_aligned_chain_but_bad_cells_not_critical(self):
        # aligned Z forces two cells: with a 3-edge arm A the A-cell is a
        # quadrilateral, so a generic placement of A is not concyclic even
        # though the chain condition holds
        a = (1.0, 0.9, 1.1)
        b = (0.8, 1.1)
        z = (0.7, 0.75)
        g, gamma = make_three_chain(a, b, z)
        w = sum(z)
        pi, pt = np.zeros(2), np.array([w, 0.0])
        (b_apex,) = place_chain(b[::-1], pt[None], pi[None])[0]  # placed from T: below
        coords = {"I": (0.0, 0.0), "T": (w, 0.0), "Z1": (z[0], 0.0),
                  "B1": tuple(b_apex.tolist())}
        (joints,) = place_chain(a, pi[None], pt[None])
        coords.update(zip(("A1", "A2"), map(tuple, joints.tolist())))
        cfg = Configuration(coords)
        cfg.validate(g)
        cls = classify_configuration(g, gamma, cfg)
        z_status = cls.chain_status[0]
        assert z_status.kind == "aligned"
        assert not cls.critical
        assert None in cls.cell_verdicts

    def test_non_ptt_rejected(self):
        g, gamma = non_ptt_example()
        c = Configuration({v: (0.0, 0.0) for v in g.vertices})
        with pytest.raises(NotPTTError):
            classify_configuration(g, gamma, c)


def polygon6():
    """A hexagon with a two-edge and a three-edge chain, drawn the way the
    benchmark's record workload draws its polygons."""
    cycle = [1.6205234759959084, 1.5195619916085088, 1.6008460244063398,
             1.0181280773853723, 1.3136296383644845, 1.6153735546119234]
    g, gamma = make_polygon(cycle)
    g = LinkageGraph(g.vertices + ("c0_1", "c1_1", "c1_2"), g.edges + (
        ("v0", "c0_1", 1.1459695544283266), ("c0_1", "v4", 0.5847110784118409),
        ("v2", "c1_1", 0.6327473072627077), ("c1_1", "c1_2", 1.5073966831634338),
        ("c1_2", "v4", 1.99817030459763)))
    return g, gamma


REPRESENTATIVE_INSTANCES = {
    "worked": lambda: worked_example()[:2],
    "max16": max16_three_chain,
    "bm223": bott_morse_three_chain,
    "free_four_chain": lambda: make_three_chain([1.0, 1.2], [0.8, 1.1],
                                                [0.53, 0.56, 0.61, 0.67]),
    "polygon6": polygon6,
}
# test_determined_fields_unchanged: digests of the records as enumerated
# before free chains were placed in closed form
MAX16_DIGEST = "1ea89f419f3a051911413416cde65ed037804cbab411cf8c0bbad01ad1a29c11"
BM223_DIGEST = "d7fd35e83e32b937fa90b09c5723120683bab6dcbda196960059a83f22fd4a70"
POLYGON6_DIGEST = "32d17e13194142d60cd0dbdc1f7734f3259f785ad480e91d30e556566560a61b"


class TestStackedPlacement:
    def test_rows_equal_one_pick_at_a_time(self):
        # one stack of end vectors, short, long and in between, placed
        # together equals each row placed on its own, bit for bit
        lengths = (1.3, 0.7, 0.9)
        rng = np.random.default_rng(11)
        start = rng.normal(size=(40, 2))
        w = np.linspace(0.05, 2.85, 40)
        phi = rng.uniform(-math.pi, math.pi, 40)
        end = start + w[:, None] * np.stack([np.cos(phi), np.sin(phi)], axis=1)
        joints = place_chain(lengths, start, end)
        assert joints.shape == (40, 2, 2)
        for row in range(40):
            one = place_chain(lengths, start[row:row + 1], end[row:row + 1])
            assert one[0].tolist() == joints[row].tolist()

    def test_worked_example_representatives(self):
        # every free chain of a worked-example record sits where place_chain
        # puts it from the record's own glued chain ends
        g, gamma, _ = worked_example()
        struct = detect_polygon_with_chains(g, gamma)
        recs = [r for r in enumerate_critical_pnd(g, gamma)
                if any(s.kind == "free" for s in r.chain_status)]
        assert len(recs) == 996
        for rec in recs[::7]:
            for ch, s in zip(struct.chains, rec.chain_status):
                if s.kind != "free":
                    continue
                ends = rec.representative.points(
                    [gamma.vertices[ch.i_pos], gamma.vertices[ch.t_pos]])
                (joints,) = place_chain(ch.lengths, ends[:1], ends[1:])
                assert rec.representative.points(ch.joints).tolist() == joints.tolist()

    @pytest.mark.parametrize("instance", ["max16", "bm223", "free_four_chain", "worked"])
    def test_representatives_pass_the_oracle(self, instance):
        # every representative (every 5th on the worked example) realizes
        # the lengths, and the oracle's inertia there is the record's index
        # and manifold dimension
        g, gamma = REPRESENTATIVE_INSTANCES[instance]()
        recs = enumerate_critical_pnd(g, gamma)
        if instance == "worked":
            recs = recs[::5]
        assert any(r.manifold_dim > 0 for r in recs) or instance == "max16"
        o = area_oracle(g, gamma)
        for r in recs:
            r.representative.validate(g)
            tri = o.inertia(o.chart.reduce(o.chart.theta_from_configuration(r.representative)))
            assert (tri.negative, tri.zero) == (r.index.index, r.manifold_dim), r.key()

    @pytest.mark.parametrize("instance,digest", [
        ("max16", MAX16_DIGEST), ("bm223", BM223_DIGEST), ("polygon6", POLYGON6_DIGEST)])
    def test_determined_fields_unchanged(self, instance, digest):
        # every record field but the representative, and the representative's
        # cycle vertices and aligned joints, bit for bit as they were when
        # free chains were placed by a seeded Gauss-Newton search
        g, gamma = REPRESENTATIVE_INSTANCES[instance]()
        struct = detect_polygon_with_chains(g, gamma)
        fields = [(r.key(), r.index, r.manifold_dim, r.area, r.chain_status,
                   [(sols.to_json_dict(s), c) for sols, s, c in r.cells], r.factors,
                   [(v, r.representative.coords[v])
                    for v in determined_vertices(struct, r.chain_status)])
                  for r in enumerate_critical_pnd(g, gamma)]
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == digest


def glue_one_pick(struct, aligned_list, cells, picked, scale):
    """Cycle positions and glued circumcenters of one pick, each cell's
    (solutions, row) in ``picked``, glued on its own breadth-first from cell
    0 as the enumeration did before it glued the picks of a branch
    together."""
    pos, centers = {}, {}

    def place(ci, R, t):
        sols, s = picked[ci]
        verts = sols.vertices[s] @ R.T + t
        center = R @ np.asarray(sols.center) + t
        for j, p in enumerate(cells[ci].positions):
            if p in pos:
                assert np.max(np.abs(pos[p] - verts[j])) <= 1e-6 * scale
            else:
                pos[p] = verts[j]
        centers[ci] = (float(center[0]), float(center[1]))

    place(0, np.eye(2), np.zeros(2))
    queue = [0]
    while queue:
        ci = queue.pop(0)
        for e in cells[ci].edges:
            if e.kind != "diag":
                continue
            for cj in [c for c, cell in enumerate(cells)
                       if any(f.kind == "diag" and f.index == e.index for f in cell.edges)]:
                if cj in centers:
                    continue
                ch = struct.chains[aligned_list[e.index]]
                sols, s = picked[cj]
                q = sols.vertices[s]
                j1 = cells[cj].positions.index(ch.i_pos)
                j2 = cells[cj].positions.index(ch.t_pos)
                a, b = q[j2] - q[j1], pos[ch.t_pos] - pos[ch.i_pos]
                R = rotation(math.atan2(b[1], b[0]) - math.atan2(a[1], a[0]))
                place(cj, R, pos[ch.i_pos] - R @ q[j1])
                queue.append(cj)
    return [pos[p].tolist() for p in range(len(struct.gamma))], \
        [centers[ci] for ci in range(len(cells))]


def two_chain_hexagon():
    """A hexagon whose chains v0-v2 and v2-v4 share v2, so three cells can
    meet there."""
    g, gamma = make_polygon([1.9, 0.81, 1.45, 0.95, 1.61, 1.58])
    g = LinkageGraph(g.vertices + ("c1", "d1", "d2"), g.edges + (
        ("v0", "c1", 0.83), ("c1", "v2", 1.74),
        ("v2", "d1", 1.49), ("d1", "d2", 1.52), ("d2", "v4", 1.73)))
    return g, gamma


GLUING_INSTANCES = {
    "worked": lambda: worked_example()[:2],
    "max16": max16_three_chain,
    "bm223": bott_morse_three_chain,
    "two_chain_hexagon": two_chain_hexagon,
}


def enumerate_with_counts(caplog, g, gamma):
    """The records of an enumeration and its DEBUG record's counts."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="linkmorse.enumeration"):
        recs = enumerate_critical_pnd(g, gamma)
    (rec,) = [r for r in caplog.records if r.name == "linkmorse.enumeration"]
    return recs, rec.args


class TestStackedGluing:
    @pytest.mark.parametrize("instance", ["worked", "bm223", "two_chain_hexagon"])
    def test_records_equal_one_pick_at_a_time(self, instance):
        # every record's cycle positions and glued centers are those of its
        # pick glued on its own, bit for bit
        g, gamma = GLUING_INSTANCES[instance]()
        struct = detect_polygon_with_chains(g, gamma)
        scale = g.total_length()
        recs = enumerate_critical_pnd(g, gamma)
        assert recs
        if instance == "two_chain_hexagon":
            assert any(len(r.cells) == 3 for r in recs)
        for rec in recs[::5]:
            aligned_list = [k for k, s in enumerate(rec.chain_status) if s.kind == "aligned"]
            diags = [(gamma.vertices[struct.chains[k].i_pos],
                      gamma.vertices[struct.chains[k].t_pos]) for k in aligned_list]
            cells = elementary_cycles(gamma, diags)
            pos, centers = glue_one_pick(struct, aligned_list, cells, rec.cell_keys(), scale)
            assert rec.representative.points(gamma.vertices).tolist() == pos
            assert [c for _, _, c in rec.cells] == centers

    @pytest.mark.parametrize("instance", sorted(GLUING_INSTANCES))
    def test_every_pick_counted_once(self, caplog, instance):
        # each pick ends as exactly one of: glue mismatch, free chain out of
        # reach, record
        recs, counts = enumerate_with_counts(caplog, *GLUING_INSTANCES[instance]())
        assert counts["records"] == len(recs)
        assert counts["picks"] == (counts["glue_mismatch"] + counts["outside_reach"]
                                   + counts["records"])

    def test_glue_mismatch_drops_picks(self, caplog, monkeypatch):
        # the solutions of one triangle cell are moved 1e-3 of their radius
        # outward, so their diagonal no longer fits the neighbouring cell's:
        # every pick using them is a glue mismatch and yields no record
        g, gamma = max16_three_chain()
        base, base_counts = enumerate_with_counts(caplog, g, gamma)
        assert base_counts["glue_mismatch"] == 0
        moved = []

        def shifted(roots):
            sols = cyclic_table(roots)
            if len(roots.lengths) == 3 and not moved:
                moved.append(roots.lengths)
                sols = dataclasses.replace(sols, vertices=1.001 * sols.vertices)
            return sols

        monkeypatch.setattr(enumeration, "cyclic_table", shifted)
        recs, counts = enumerate_with_counts(caplog, g, gamma)
        assert moved and counts["glue_mismatch"] > 0
        assert len(recs) == len(base) - counts["glue_mismatch"]
        assert {r.key() for r in recs} < {r.key() for r in base}
        assert counts["picks"] == (counts["glue_mismatch"] + counts["outside_reach"]
                                   + counts["records"])

    @pytest.mark.parametrize("short", [1e-9, -1e-9, 0.9e-7, -0.9e-7])
    def test_pick_near_reach_bound_still_raises(self, short):
        # a free chain whose reach ends just short of (or just past) its end
        # distance in one cyclic solution of the quadrilateral, by a fraction
        # of the 1e-7 guard band: the glued checks refuse that pick
        lens = [1.0, 1.3, 0.8, 1.4]
        q = enumerate_cyclic(lens).vertices[0]
        d = float(np.hypot(*(q[2] - q[0])))
        g, gamma = make_polygon(lens)
        a = 0.4 * d
        g = LinkageGraph(g.vertices + ("c1",), g.edges + (
            ("v0", "c1", a), ("c1", "v2", d - a - short * (sum(lens) + d))))
        assert wall_check(g).clean
        with pytest.raises(NonGenericError, match="hits the reach boundary"):
            enumerate_critical_pnd(g, gamma)

    @pytest.mark.parametrize("short", [1e-9, -1e-9])
    def test_pick_near_alignment_still_raises(self, short):
        # in the first cyclic solution of the pentagon, chain a (v0-v2) can
        # just about align (0.6 - 0.3 + 0.7 of its end distance d) while
        # chain b (v2-v4) is far out of reach: the glued checks refuse
        # chain a before they look at chain b
        lens = [1.0, 1.3, 0.8, 1.4, 1.1]
        q = enumerate_cyclic(lens).vertices[0]
        d = float(np.hypot(*(q[2] - q[0])))
        g, gamma = make_polygon(lens)
        scale = sum(lens) + 1.6 * d + 0.4
        g = LinkageGraph(g.vertices + ("a1", "a2", "b1"), g.edges + (
            ("v0", "a1", 0.6 * d), ("a1", "a2", 0.3 * d),
            ("a2", "v2", 0.7 * d + short * scale),
            ("v2", "b1", 0.2), ("b1", "v4", 0.2)))
        assert wall_check(g).clean
        with pytest.raises(NonGenericError, match="simultaneously circular and aligned"):
            enumerate_critical_pnd(g, gamma)

    @pytest.mark.parametrize("align_pick,bound_pick,message", [
        (0, 2, "simultaneously circular and aligned"),
        (2, 0, "hits the reach boundary"),
        (None, 2, "hits the reach boundary"),
        (2, None, "simultaneously circular and aligned"),
    ])
    def test_first_failing_pick_raises(self, align_pick, bound_pick, message):
        # the pentagon's branch with both chains free has one pick per cyclic
        # solution.  Chain a (v0-v2) can just about align in pick align_pick
        # and chain b's (v2-v4) reach ends at its end distance in pick
        # bound_pick; pick 1 is kept or dropped as out of reach.  Whatever
        # the two failures are, the earlier pick's raises
        lens = [1.0, 1.3, 0.8, 1.4, 1.1]
        q = enumerate_cyclic(lens).vertices
        d_a = [float(np.hypot(*(v[2] - v[0]))) for v in q]
        d_b = [float(np.hypot(*(v[4] - v[2]))) for v in q]
        short = 1e-9 * (sum(lens) + 4.0)
        a = 1.2 if align_pick is None else d_a[align_pick]
        b = 0.9 if bound_pick is None else d_b[bound_pick]
        g, gamma = make_polygon(lens)
        g = LinkageGraph(g.vertices + ("a1", "a2", "b1"), g.edges + (
            ("v0", "a1", 0.6 * a), ("a1", "a2", 0.3 * a), ("a2", "v2", 0.7 * a + short),
            ("v2", "b1", 0.5 * b), ("b1", "v4", 0.5 * b - short)))
        assert wall_check(g).clean
        with pytest.raises(NonGenericError, match=message):
            enumerate_critical_pnd(g, gamma)

    def test_kept_pick_with_index_too_close_to_call_raises(self, monkeypatch):
        # the bar v0-v2 splits the pentagon into a triangle and a
        # quadrilateral; one quadrilateral solution's index is too close to
        # call, and the first kept pick using it raises that solution's error
        refused = {}
        solution_index = enumeration.cyclic_index

        def index(sols, s, tols):
            if len(sols.lengths) == 4 and refused.setdefault("sol", (sols, s)) == (sols, s):
                raise NonGenericError(f"index of {sols.signature(s)} too close to call")
            return solution_index(sols, s, tols)

        monkeypatch.setattr(enumeration, "cyclic_index", index)
        g, gamma = make_polygon([1.0, 1.1, 1.3, 1.2, 0.9])
        g = LinkageGraph(g.vertices, g.edges + (("v0", "v2", 1.45),))
        with pytest.raises(NonGenericError) as exc:
            enumerate_critical_pnd(g, gamma)
        sols, s = refused["sol"]
        assert str(exc.value) == f"index of {sols.signature(s)} too close to call"

    def test_kept_pick_with_coinciding_centers_raises(self, monkeypatch):
        # with every pair of circumcenters counted as coinciding, the first
        # kept pick with an aligned two-edge chain has no chain term
        def nus(r, f, w, oa, ob, tol):
            return aligned_nus(r, f, w, oa, ob, math.inf)

        monkeypatch.setattr(enumeration, "aligned_nus", nus)
        with pytest.raises(NonGenericError, match=COINCIDING_CENTERS):
            enumerate_critical_pnd(*max16_three_chain())


class TestMatchRecord:
    def test_not_critical(self, rng):
        g, gamma = max16_three_chain()
        struct = detect_polygon_with_chains(g, gamma)
        o = area_oracle(g, gamma)
        c = o.chart.configuration(o.chart.full_theta(
            o.project(rng.uniform(-math.pi, math.pi, o.chart.n_vars))))
        assert not classify_configuration(g, gamma, c).critical
        assert match_record(struct, enumerate_critical_pnd(g, gamma), c) is None

    def test_chain_kind_or_count_mismatch(self):
        # an aligned record's own representative matches no free record, nor
        # an aligned one with another number of chains
        g, gamma = max16_three_chain()
        struct = detect_polygon_with_chains(g, gamma)
        recs = enumerate_critical_pnd(g, gamma)
        rec = next(r for r in recs if r.chain_status[0].kind == "aligned")
        free = [r for r in recs if r.chain_status[0].kind == "free"]
        other_count = CriticalRecord(
            chain_status=rec.chain_status * 2, cells=rec.cells,
            representative=rec.representative, index=rec.index, factors=rec.factors,
            area=rec.area)
        assert match_record(struct, [rec], rec.representative) is rec
        assert match_record(struct, free + [other_count], rec.representative) is None

    def test_no_record_within_match_tolerance(self):
        g, gamma = max16_three_chain()
        struct = detect_polygon_with_chains(g, gamma)
        recs = enumerate_critical_pnd(g, gamma)
        for rec in recs:
            others = [r for r in recs if r is not rec]
            assert match_record(struct, others, rec.representative) is None


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
        # 34 cell lookups on 18 distinct length tuples; each tuple's table is
        # built once, and the digest of the records' keys, indices and
        # dimensions is that of an enumeration solving every lookup afresh
        calls = []

        def counted(roots):
            calls.append(roots.lengths)
            return cyclic_table(roots)

        monkeypatch.setattr(enumeration, "cyclic_table", counted)
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
            "records": 5316}
        digest = hashlib.sha256(repr([(r.key(), r.index.index, r.manifold_dim)
                                      for r in recs]).encode()).hexdigest()
        assert digest == "97e990efdd1ac21b60ed578d795743ccf51a2cd26e968b1b44012455b80cccb9"

    def test_cells_placed_and_indexed_once(self, monkeypatch):
        # 8,158 glued picks of up to three cells: a cell other than cell 0
        # is moved once per pick (11,840 moves in 17 stacks, one per such
        # cell and branch), and each cyclic solution used by a record is
        # indexed once
        moves, indexed = [], []
        solution_index = enumeration.cyclic_index

        def move(*args):
            moves.append(len(args[0]))
            return transform_mapping_segment(*args)

        def index(sols, s, tols):
            indexed.append((id(sols), s))
            return solution_index(sols, s, tols)

        monkeypatch.setattr(enumeration, "transform_mapping_segment", move)
        monkeypatch.setattr(enumeration, "cyclic_index", index)
        g, gamma, _ = worked_example()
        recs = enumerate_critical_pnd(g, gamma)
        assert (len(moves), sum(moves)) == (17, 11840)
        assert len(indexed) == len(set(indexed)) == 934
        assert set(indexed) == {(id(sols), s) for r in recs for sols, s in r.cell_keys()}

    def test_records_memory(self):
        # the records are row views of one table per branch: the worked
        # example's 5,316 keep at most half of the 6.46 MB they kept as
        # objects (tracemalloc, records alive after the call)
        g, gamma, _ = worked_example()
        enumerate_critical_pnd(g, gamma)  # numpy's and the interpreter's first-use caches
        gc.collect()
        tracemalloc.start()
        try:
            recs = enumerate_critical_pnd(g, gamma)
            gc.collect()
            alive, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(recs) == 5316
        assert alive <= 6_460_000 / 2, alive

    def test_keys_in_record_order(self):
        # the keys the sort builds come back with the records
        keys = []
        recs = enumerate_critical_structure(
            detect_polygon_with_chains(*max16_three_chain()), keys=keys)
        assert keys == [r.key() for r in recs]

    def test_representatives_are_rows_of_one_array_per_branch(self, caplog):
        # each representative's xy is a row view, and the records of a branch
        # share its base array and names tuple; one table per branch
        g, gamma, _ = worked_example()
        with caplog.at_level(logging.DEBUG, logger="linkmorse.enumeration"):
            recs = enumerate_critical_pnd(g, gamma)
        (log,) = [r for r in caplog.records if r.name == "linkmorse.enumeration"]
        branches = log.args["branches"] - log.args["empty_branches"]
        reps = [r.representative for r in recs]
        assert len(reps) == 5316
        shape = (len(g.vertices), 2)
        assert all(c.xy.shape == shape and c.xy.base is not None
                   and c.xy.base.shape[1:] == shape for c in reps)
        assert len({id(c.xy.base) for c in reps}) <= branches == 11
        assert len({id(c.names) for c in reps}) <= branches
        assert len({id(r.table) for r in recs}) == branches


def solved_and_reached(g, gamma):
    """An enumeration's records, the length vectors it solves ahead and
    those whose tables it builds, in order."""
    solved, reached = [], []

    def solve(vectors, tols):
        out = geometry.solve_cyclic(vectors, tols)
        solved.extend(out.roots)
        return out

    def table(roots):
        reached.append(roots.lengths)
        return cyclic_table(roots)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "solve_cyclic", solve)
        mp.setattr(enumeration, "cyclic_table", table)
        recs = enumerate_critical_pnd(g, gamma)
    return recs, solved, reached


def refuse_vector(monkeypatch, lengths):
    """Make the root pass move the last root of ``lengths`` off its closure
    radius, so that its table is refused, and count two degenerate windings
    for it, so that its table warns twice first."""
    roots = geometry._cyclic_roots

    def moved(jobs, tols):
        out, flats, counts = roots(jobs, tols)
        for j, (lens, _) in enumerate(jobs):
            if tuple(lens.tolist()) == lengths:
                last = max(k for k, rs in enumerate(out[j]) if rs)
                omega, r = out[j][last][-1]
                out[j][last][-1] = (omega, 1.01 * r)
                flats[j] += 2
        return out, flats, counts

    monkeypatch.setattr(geometry, "_cyclic_roots", moved)


def root_pass_records(caplog, g, gamma):
    """An enumeration's records and the counts of its root pass's DEBUG records."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="linkmorse.geometry"):
        recs = enumerate_critical_pnd(g, gamma)
    return recs, [r.args for r in caplog.records
                  if r.name == "linkmorse.geometry" and r.levelno == logging.DEBUG]


class TestSolveAhead:
    def test_every_branch_vector_solved_in_one_pass(self):
        # the worked example's 21 cell length vectors are solved together;
        # 18 are reached, the other 3 sit in branches that end at an
        # earlier cell without cyclic solutions
        recs, solved, reached = solved_and_reached(*worked_example()[:2])
        assert (len(solved), len(set(solved))) == (21, 21)
        assert len(reached) == len(set(reached)) == 18
        assert set(reached) < set(solved)
        assert all(len(enumerate_cyclic(v)) for v in set(solved) - set(reached))

    def test_refusal_of_an_unreached_vector_changes_nothing(self, caplog, monkeypatch):
        g, gamma, _ = worked_example()
        base, solved, reached = solved_and_reached(g, gamma)
        unreached = [v for v in solved if v not in reached]
        refuse_vector(monkeypatch, unreached[0])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"):
            recs = enumerate_critical_pnd(g, gamma)
        assert [(r.key(), r.index.index, r.area) for r in recs] == \
            [(r.key(), r.index.index, r.area) for r in base]
        assert not [r for r in caplog.records if r.name == "linkmorse.geometry"]

    def test_refusal_of_a_reached_vector_raises_when_reached(self, caplog, monkeypatch):
        # the refused vector's warnings come when its branch reaches it, and
        # its refusal is the error that building its table alone raises
        g, gamma, _ = worked_example()
        _, _, reached = solved_and_reached(g, gamma)
        refuse_vector(monkeypatch, reached[-1])
        with pytest.raises(NonGenericError, match="failed closure residual check"):
            enumerate_cyclic(reached[-1])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="linkmorse.geometry"), \
                pytest.raises(NonGenericError, match="failed closure residual check"):
            enumerate_critical_pnd(g, gamma)
        assert [r.getMessage() for r in caplog.records if r.name == "linkmorse.geometry"] == \
            2 * ["degenerate closure: F is identically pi*omega; skipping cell"]

    def test_root_pass_debug_record(self, caplog):
        # one DEBUG record per enumeration, the same in two runs: one
        # bisection stack, and under a million closure values where a scan
        # of every grid point forms 4,636 * 10,000
        g, gamma, _ = worked_example()
        _, first = root_pass_records(caplog, g, gamma)
        _, again = root_pass_records(caplog, g, gamma)
        assert first == again
        (counts,) = first
        assert {k: counts[k] for k in ("vectors", "unreached", "sign_vectors", "brackets")} == \
            {"vectors": 21, "unreached": 3, "sign_vectors": 4636, "brackets": 1565}
        assert counts["intervals"] == 100 * counts["sign_vectors"]
        assert counts["values"] < 1_000_000
        assert 0 < counts["bisect_steps"] <= geometry.BISECT_MAX_ITER

    def test_reached_vectors_give_the_parent_bracket_count(self, caplog):
        # the 18 reached vectors, each in a pass of its own, bisect the
        # 1,263 brackets a scan of every grid point finds; the 3 unreached
        # ones add the rest of the enumeration's pass
        _, solved, reached = solved_and_reached(*worked_example()[:2])

        def brackets(vectors):
            caplog.clear()
            with caplog.at_level(logging.DEBUG, logger="linkmorse.geometry"):
                for v in vectors:
                    enumerate_cyclic(v)
            return sum(r.args["brackets"] for r in caplog.records
                       if r.name == "linkmorse.geometry" and r.levelno == logging.DEBUG)

        assert brackets(reached) == 1263
        assert brackets(solved) == 1565


def _verify(tmp_path, g, gamma, capsys):
    """The CLI's verdict on the linkage's own ``critical`` records, 400 seeds."""
    path = tmp_path / "linkage.json"
    path.write_text(json.dumps(g.to_json_dict(gamma=gamma)))
    records = tmp_path / "records.json"
    assert main(["--out", str(records), "critical", str(path)]) == 0
    assert main(["--seed", "77", "--n-seeds", "400", "verify", str(path),
                 str(records)]) == 0
    return json.loads(capsys.readouterr().out)


class TestChainShapes:
    def test_rigid_one_edge_chain(self, tmp_path, capsys):
        # a bar v0-v2 is a chain aligned in every configuration, with no
        # index term of its own
        g, gamma = make_polygon([1.0, 1.1, 1.3, 1.2, 0.9])
        g = LinkageGraph(g.vertices, g.edges + (("v0", "v2", 1.45),))
        recs = enumerate_critical_pnd(g, gamma)
        assert len(recs) == 8
        assert all(r.chain_status[0].kind == "aligned" and len(r.cells) == 2
                   for r in recs)
        assert all(dict(r.index.breakdown)["chain0"] == 0 for r in recs)
        verdict = _verify(tmp_path, g, gamma, capsys)
        assert (verdict["agreement"], verdict["oracle_points"]) == (True, 8)

    def test_chain_between_adjacent_vertices(self, tmp_path, capsys, caplog):
        # aligning the chain v0-c-v1 cuts off a two-edge cell, which cannot be
        # cyclic: those branches are empty and the chain stays free
        g, gamma = make_polygon([1.0, 1.17, 1.19, 1.18, 1.5])
        g = LinkageGraph(g.vertices + ("c",),
                         g.edges + (("v0", "c", 1.16), ("c", "v1", 0.44)))
        with caplog.at_level(logging.DEBUG, logger="linkmorse.enumeration"):
            recs = enumerate_critical_pnd(g, gamma)
        (rec,) = [r for r in caplog.records if r.name == "linkmorse.enumeration"]
        assert rec.args["two_edge_cell"] == 2
        assert len(recs) == 10
        assert all(r.chain_status[0].kind == "free" for r in recs)
        verdict = _verify(tmp_path, g, gamma, capsys)
        assert (verdict["agreement"], verdict["oracle_points"]) == (True, 20)


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


def _farber_schutz_betti(lengths) -> list[int]:
    """Betti numbers b_0 .. b_{n-3} of the planar polygon space of a generic
    length vector (Farber and Schütz, "Homology of planar polygon spaces",
    Geom. Dedicata 125, 2007): b_k = a_k + a_{n-3-k}, where a_k counts the
    subsets of k+1 sides that hold a longest side and sum to less than half
    the perimeter."""
    n = len(lengths)
    j = max(range(n), key=lengths.__getitem__)
    others = lengths[:j] + lengths[j + 1:]
    half = sum(lengths) / 2
    a = [sum(1 for rest in itertools.combinations(others, k)
             if lengths[j] + sum(rest) < half) for k in range(n - 2)]
    return [a[k] + a[n - 3 - k] for k in range(n - 2)]


class TestEulerAgainstBetti:
    """The symbolic records' Morse count against a topology they do not
    compute: sum of (-1)^index equals chi of the polygon space."""

    def test_formula_on_equilateral_pentagon(self):
        # a genus-4 surface
        assert _farber_schutz_betti([1.0] * 5) == [1, 8, 1]

    def test_index_sum_is_chi(self):
        rng = np.random.default_rng(2007)
        checked = 0
        while checked < 20:
            n = 4 + checked % 6
            lens = [float(x) for x in rng.uniform(0.5, 2.0, n)]
            if 2 * max(lens) >= sum(lens):
                continue
            g, gamma = make_polygon(lens)
            if not wall_check(g).clean:
                continue
            chi = sum((-1) ** k * b for k, b in enumerate(_farber_schutz_betti(lens)))
            recs = enumerate_critical_pnd(g, gamma)
            assert sum((-1) ** r.index.index for r in recs) == chi, lens
            checked += 1


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


def _random_222(seed):
    g, gamma, _ = sample_three_chain_with_records(np.random.default_rng(seed),
                                                  enumerate_critical_three_chain)
    return g, gamma


INVARIANCE_INSTANCES = {
    "max16": max16_three_chain,
    "bm223": bott_morse_three_chain,
    "random222_1": lambda: _random_222(1),
    "random222_2": lambda: _random_222(2),
    "random222_3": lambda: _random_222(3),
}


def _same_multiset(got, want, tol):
    """Whether the (area, index, manifold_dim) triples pair off one to one,
    areas within ``tol`` and the two counts equal."""
    want = list(want)
    for area, index, dim in got:
        match = next((k for k, (a, i, d) in enumerate(want)
                      if (i, d) == (index, dim) and abs(a - area) <= tol), None)
        if match is None:
            return False
        want.pop(match)
    return not want


class TestInvariances:
    """Properties the theory guarantees for any generic instance."""

    @pytest.mark.parametrize("c", [0.5, 2.5, 1000.0])
    @pytest.mark.parametrize("name", sorted(INVARIANCE_INSTANCES))
    def test_scaling(self, name, c):
        # scaling every bar by c keeps each index and dimension and scales
        # each area by c^2 (keys carry the radius, so compare multisets)
        g, gamma = INVARIANCE_INSTANCES[name]()
        scaled = LinkageGraph(g.vertices, tuple((u, v, c * length)
                                                for u, v, length in g.edges))
        want = [(c * c * r.area, r.index.index, r.manifold_dim)
                for r in enumerate_critical_pnd(g, gamma)]
        got = [(r.area, r.index.index, r.manifold_dim)
               for r in enumerate_critical_pnd(scaled, gamma)]
        assert want and _same_multiset(got, want, 1e-9 * c * c * g.total_length() ** 2)

    @pytest.mark.parametrize("name", sorted(INVARIANCE_INSTANCES))
    def test_mirroring(self, name):
        # reversing gamma negates the area, so a critical manifold of
        # dimension k and index mu in a d-dimensional space gets index d - k - mu
        g, gamma = INVARIANCE_INSTANCES[name]()
        reverse = DistinguishedCycle(gamma.vertices[:1] + gamma.vertices[:0:-1])
        d = 2 * len(g.vertices) - len(g.edges) - 3
        want = [(-r.area, d - r.manifold_dim - r.index.index, r.manifold_dim)
                for r in enumerate_critical_pnd(g, gamma)]
        got = [(r.area, r.index.index, r.manifold_dim)
               for r in enumerate_critical_pnd(g, reverse)]
        assert want and _same_multiset(got, want, 1e-9 * g.total_length() ** 2)

    @pytest.mark.parametrize("name", sorted(INVARIANCE_INSTANCES))
    def test_rotating_gamma(self, name):
        # the same cycle read from another start vertex encloses the same
        # signed area, so records keep their area, index and dimension
        g, gamma = INVARIANCE_INSTANCES[name]()
        want = [(r.area, r.index.index, r.manifold_dim)
                for r in enumerate_critical_pnd(g, gamma)]
        assert want
        vs = gamma.vertices
        for k in range(1, len(vs)):
            rotated = DistinguishedCycle(vs[k:] + vs[:k])
            got = [(r.area, r.index.index, r.manifold_dim)
                   for r in enumerate_critical_pnd(g, rotated)]
            assert _same_multiset(got, want, 1e-9 * g.total_length() ** 2), k
