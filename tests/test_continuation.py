"""One-parameter continuation and bifurcation events."""

import math

import pytest

import linkmorse.oracle
from linkmorse.config import RunConfig
from linkmorse.graphs import make_polygon, make_three_chain
from linkmorse.instances import (
    pitchfork_concyclic_parameter,
    pitchfork_family,
)
from linkmorse.oracle import area_oracle, continue_family


@pytest.fixture(scope="module")
def pitchfork_diagram():
    g, gamma, edge, (lo, hi) = pitchfork_family()
    cfg = RunConfig(n_seeds=250, seed=11)
    return continue_family(g, edge, lo, hi, 18, gamma, cfg, n_seeds_step=120)


class TestPitchfork:
    def test_one_max_splitting_event(self, pitchfork_diagram):
        splits = [e for e in pitchfork_diagram.events if e.type == "PitchforkSplit"]
        max_sig = [e for e in splits
                   if e.meta["signature"]["center_before"] == "max"
                   and e.meta["signature"]["center_after"] == "min"
                   and e.meta["signature"]["companions"] == ["max", "max"]]
        assert len(max_sig) == 1
        # the mirror event swaps maxima and minima
        min_sig = [e for e in splits
                   if e.meta["signature"]["center_before"] == "min"]
        assert len(min_sig) == 1

    def test_event_parameter_matches_concyclic_condition(self, pitchfork_diagram):
        t_star = pitchfork_concyclic_parameter()
        zeros = [e for e in pitchfork_diagram.events if e.type == "HessianZero"]
        assert zeros
        assert min(abs(e.param - t_star) for e in zeros) <= 1e-6

    def test_branch_counts_one_to_three(self, pitchfork_diagram):
        split = next(e for e in pitchfork_diagram.events
                     if e.type == "PitchforkSplit"
                     and e.meta["signature"]["center_before"] == "max")
        assert len(split.meta["companions"]) == 2

    def test_inertia_flips_across_event(self, pitchfork_diagram):
        split = next(e for e in pitchfork_diagram.events
                     if e.type == "PitchforkSplit")
        br = pitchfork_diagram.branches[split.branch]
        before = [p for p in br.points if p.param < split.param]
        after = [p for p in br.points if p.param > split.param]
        assert before[-1].inertia.negative != after[0].inertia.negative

    def test_events_only_at_zero_count_changes(self, pitchfork_diagram):
        # every event parameter lies in a step where the flipping branch
        # changes its (negative, zero) signature
        for e in pitchfork_diagram.events:
            br = pitchfork_diagram.branches[e.branch]
            spans = [
                (a.param, b.param, a.inertia.as_tuple(), b.inertia.as_tuple())
                for a, b in zip(br.points, br.points[1:])
            ]
            hit = [s for s in spans if s[0] <= e.param <= s[1]]
            assert any(s[2] != s[3] for s in hit)


class TestReverseDirection:
    def test_merge_event_when_traversed_backward(self):
        # running the family downward through the degeneracy, the two
        # circular branches die into the aligned one: a PitchforkMerge
        g, gamma, edge, (lo, hi) = pitchfork_family()
        cfg = RunConfig(n_seeds=250, seed=19)
        diag = continue_family(g, edge, hi, lo, 18, gamma, cfg, n_seeds_step=120)
        merges = [e for e in diag.events if e.type == "PitchforkMerge"]
        assert len(merges) == 2  # the event and its mirror
        t_star = pitchfork_concyclic_parameter()
        assert all(abs(e.param - t_star) <= 1e-6 for e in merges)
        # the dying branches end inside the diagram, reported as lost/merged
        assert diag.warnings


class TestQuietFamily:
    def test_no_events_away_from_degeneracy(self):
        g, gamma, edge, _ = pitchfork_family()
        cfg = RunConfig(n_seeds=200, seed=7)
        diag = continue_family(g, edge, 0.62, 0.70, 6, gamma, cfg, n_seeds_step=100)
        assert diag.events == []
        assert all(b.lost_at is None for b in diag.branches)

    def test_null_range_single_column(self):
        g, gamma, edge, (lo, _) = pitchfork_family()
        cfg = RunConfig(n_seeds=150, seed=7)
        diag = continue_family(g, edge, lo, lo, 5, gamma, cfg, n_seeds_step=100)
        assert diag.params == [lo]
        assert all(len(b.points) == 1 for b in diag.branches)


class TestRescuePath:
    def test_substepped_rescue_stays_critical(self, monkeypatch):
        # on this pentagon family some Newton corrections fail outright, so
        # the substepped rescue runs and some branches end inside the range
        calls = []
        substep = linkmorse.oracle._substep_correct

        def counted(*args):
            calls.append(args)
            return substep(*args)

        monkeypatch.setattr(linkmorse.oracle, "_substep_correct", counted)
        g, gamma = make_polygon([1.0, 1.1, 1.2, 1.3, 1.0])
        diag = continue_family(g, 4, 0.3, 2.0, 4, gamma,
                               RunConfig(n_seeds=80, seed=5), n_seeds_step=80)
        assert calls
        for br in diag.branches:
            for p in br.points:
                o = area_oracle(g.with_edge_length(4, p.param), gamma)
                assert o.stationarity_residual(p.x) <= 1e-6 * max(1.0, o.scale ** 2)
                assert p.area == o.f(p.x)
                assert o.inertia(p.x).as_tuple() == p.inertia.as_tuple()
        ended = [b for b in diag.branches if b.lost_at is not None]
        assert ended
        for b in ended:
            assert b.lost_at in diag.params
            assert sum(w.startswith(f"branch {b.id} ") for w in diag.warnings) == 1


class TestGeneralizedPitchfork223:
    def test_aligned_max_becomes_min_plus_circle(self):
        # [2,2;3] with the stretched alignment: on one side an isolated
        # maximum, past the degeneracy a minimum plus a circle of maxima
        a, b = (1.0, 1.2), (0.8, 1.1)
        from linkmorse.enumeration import enumerate_critical_three_chain
        from linkmorse.oracle import area_oracle

        def records(c3):
            g, gamma = make_three_chain(a, b, (0.45, 0.5, c3))
            return g, gamma, enumerate_critical_three_chain(g, gamma)

        # the relevant quad diagonal (fixed by a, b): reuse the closed form
        a1, a2 = a
        b1, b2 = b
        w_star = math.sqrt(((a1 ** 2 + a2 ** 2) * b1 * b2
                            + (b1 ** 2 + b2 ** 2) * a1 * a2) / (a1 * a2 + b1 * b2))
        c3_star = w_star - 0.95
        for c3, expect_circle in ((c3_star - 0.03, False), (c3_star + 0.03, True)):
            g, gamma, recs = records(c3)
            stretched = [r for r in recs
                         if r.chain_status[0].kind == "aligned"
                         and r.chain_status[0].sigma == (1, 1, 1)]
            assert stretched
            circ = [r for r in recs if r.chain_status[0].kind == "free"
                    and abs(r.chain_status[0].w - w_star) < 1e-6]
            assert bool(circ) == expect_circle
            if expect_circle:
                assert all(r.manifold_dim == 1 for r in circ)
                o = area_oracle(g, gamma)
                x = o.chart.reduce(
                    o.chart.theta_from_configuration(circ[0].representative))
                tri = o.inertia(x)
                assert tri.zero == 1
                assert tri.negative == circ[0].index.index


def test_range_below_float_spacing():
    # np.linspace repeats a value when the range is narrower than the float
    # spacing: the branch predictor must not divide by the zero step
    g, gamma, edge, _ = pitchfork_family()
    diagram = continue_family(g, edge, 0.65, 0.6500000000000001, 3, gamma,
                              RunConfig(n_seeds=1))
    assert diagram.params[0] == diagram.params[1]
    assert diagram.branches and not diagram.warnings
    assert all(len(b.points) == 4 for b in diagram.branches)
