"""Graph model, SP decomposition, and cycle combinatorics."""

import numpy as np
import pytest

from linkmorse.errors import CrossingDiagonalsError, NotPTTError, NotSPError
from linkmorse.graphs import (
    DistinguishedCycle,
    LinkageGraph,
    SPEdge,
    SPParallel,
    SPSeries,
    biconnected_blocks,
    detect_polygon_with_chains,
    elementary_cycles,
    is_partial_two_tree,
    linkage_from_json_dict,
    make_polygon,
    make_three_chain,
    relative_decomposition,
    sp_decompose,
    sp_tree_to_json,
)
from linkmorse.instances import non_ptt_example

from conftest import (
    evaluate_sp_tree,
    random_multigraph,
    random_sp_graph,
    random_subdivided_k4,
    sp_tree_from_json,
)


def _decomposes(g, i, t):
    try:
        sp_decompose(g, i, t)
    except NotSPError:
        return False
    return True


def k4(length=1.0):
    pairs = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    return LinkageGraph(("a", "b", "c", "d"),
                        tuple((u, v, length) for u, v in pairs))


def sp_leaves(node):
    if isinstance(node, SPEdge):
        return [node]
    return [leaf for c in node.children for leaf in sp_leaves(c)]


class TestLinkageGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            LinkageGraph(("a", "b"), (("a", "a", 1.0),))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            LinkageGraph(("a", "b"), (("a", "b", 0.0),))

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            LinkageGraph(("a", "b", "c", "d"),
                         (("a", "b", 1.0), ("c", "d", 1.0)))

    def test_parallel_edges_allowed(self):
        g = LinkageGraph(("a", "b"), (("a", "b", 1.0), ("a", "b", 2.0)))
        assert len(g.edges) == 2

    def test_cycle_must_use_graph_edges(self):
        g, _ = make_polygon([1, 1, 1, 1])
        bad = DistinguishedCycle(("v0", "v2", "v1"))
        with pytest.raises(ValueError):
            bad.validate(g)


class TestSPDecompose:
    def test_single_edge(self):
        g = LinkageGraph(("I", "T"), (("I", "T", 2.0),))
        tree = sp_decompose(g, "I", "T")
        assert tree == SPEdge("I", "T", 2.0)

    def test_triangle(self):
        g = LinkageGraph(("I", "T", "X"),
                         (("I", "T", 1.0), ("I", "X", 1.0), ("X", "T", 1.0)))
        tree = sp_decompose(g, "I", "T")
        assert isinstance(tree, SPParallel)
        kinds = {type(c) for c in tree.children}
        assert kinds == {SPEdge, SPSeries}

    def test_k4_not_sp(self):
        g = k4()
        for u, v in [("a", "b"), ("c", "d")]:
            with pytest.raises(NotSPError) as exc:
                sp_decompose(g, u, v)
            assert exc.value.kernel  # irreducible kernel reported

    def test_round_trip_exact(self, rng):
        for _ in range(60):
            g, i, t = random_sp_graph(rng)
            tree = sp_decompose(g, i, t)
            back = evaluate_sp_tree(tree)
            assert sorted(back.vertices) == sorted(g.vertices)
            assert sorted(tuple(sorted(e[:2])) + (e[2],) for e in back.edges) \
                == sorted(tuple(sorted(e[:2])) + (e[2],) for e in g.edges)
            assert (tree.i, tree.t) == (i, t)

    def test_leaves_carry_edge_index(self, rng):
        for _ in range(40):
            g, i, t = random_sp_graph(rng)
            found = sp_leaves(sp_decompose(g, i, t))
            assert sorted(e.index for e in found) == list(range(len(g.edges)))
            for e in found:
                u, v, length = g.edges[e.index]
                assert {e.u, e.v} == {u, v} and e.length == length
        # the index is not part of equality, but the JSON form carries it
        assert SPEdge("I", "T", 2.0, 0) == SPEdge("I", "T", 2.0)
        assert sp_tree_to_json(SPEdge("I", "T", 2.0, 0)) == \
            {"op": "E", "u": "I", "v": "T", "len": 2.0, "edge": 0}

    def test_json_round_trip(self, rng):
        g, i, t = random_sp_graph(rng)
        tree = sp_decompose(g, i, t)
        back = sp_tree_from_json(sp_tree_to_json(tree))
        assert back == tree
        assert [e.index for e in sp_leaves(back)] == [e.index for e in sp_leaves(tree)]


class TestIsPartialTwoTree:
    def test_three_chain_true(self):
        g, _ = make_three_chain([1, 1], [1, 1.2], [0.8, 1.1])
        assert is_partial_two_tree(g)

    def test_k4_false(self):
        assert not is_partial_two_tree(k4())

    def test_non_ptt_example_false(self):
        g, _ = non_ptt_example()
        assert not is_partial_two_tree(g)

    def test_random_sp_graphs_true(self, rng):
        for _ in range(40):
            g, _, _ = random_sp_graph(rng)
            assert is_partial_two_tree(g)

    def test_subdivided_k4_false(self, rng):
        for _ in range(20):
            assert not is_partial_two_tree(random_subdivided_k4(rng))

    def test_first_pair_decides_every_block(self, rng):
        # a block decomposes with its first adjacent pair as terminals exactly
        # when it decomposes with every adjacent pair, so one reduction per
        # block decides recognition
        graphs = ([random_sp_graph(rng)[0] for _ in range(100)]
                  + [random_subdivided_k4(rng) for _ in range(40)]
                  + [random_multigraph(rng) for _ in range(160)])
        seen = set()
        for g in graphs:
            verdicts = []
            for block in biconnected_blocks(g):
                if len(block) == 1:
                    continue
                vs = sorted({v for k in block for v in g.edges[k][:2]})
                sub = LinkageGraph(tuple(vs), tuple(g.edges[k] for k in block))
                pairs = sorted({tuple(sorted(e[:2])) for e in sub.edges})
                ok = [_decomposes(sub, u, v) for u, v in pairs]
                assert all(ok) or not any(ok), (sub, ok)
                verdicts.append(ok[0])
            assert is_partial_two_tree(g) == all(verdicts)
            seen.update(verdicts)
        assert seen == {True, False}


class TestRelativeDecomposition:
    def test_three_chain(self):
        g, gamma = make_three_chain([1, 1], [1, 1.2], [0.8, 1.1])
        rel = relative_decomposition(g, gamma)
        assert len(rel) == 1
        assert rel[0].attachments == ("I", "T")

    def test_polygon_alone_empty(self):
        g, gamma = make_polygon([1, 1.2, 0.9, 1.4])
        rel = relative_decomposition(g, gamma)
        assert rel == ()

    def test_two_noncrossing_paths(self):
        g, gamma = _hexagon_with_two_paths()
        rel = relative_decomposition(g, gamma)
        attach = sorted(c.attachments for c in rel)
        assert attach == [("v0", "v3"), ("v4", "v6")] or \
            attach == sorted([("v0", "v3"), ("v4", "v6")])

    def test_components_partition_non_cycle_edges(self, rng):
        g, gamma = _hexagon_with_two_paths()
        rel = relative_decomposition(g, gamma)
        cyc = set(gamma.edge_indices(g))
        covered = [k for c in rel for k in c.edge_indices]
        assert sorted(covered) == sorted(set(range(len(g.edges))) - cyc)
        assert len(covered) == len(set(covered))

    def test_pendant_bar_stays_in_its_component(self):
        # a bar hanging off the chain's joint: the component is no chain, so
        # the symbolic class rejects it, but it is still one attached piece
        g, gamma = make_three_chain([1.0, 1.2], [0.8, 1.1], [0.7, 0.75])
        g = LinkageGraph(g.vertices + ("P",), g.edges + (("Z1", "P", 0.5),))
        (comp,) = relative_decomposition(g, gamma)
        assert comp.attachments == ("I", "T")
        assert comp.vertices == ("I", "P", "T", "Z1")
        assert is_partial_two_tree(g)
        assert detect_polygon_with_chains(g, gamma) is None

    def test_triple_attachment_rejected(self):
        g, gamma = make_polygon([1, 1, 1, 1, 1, 1], prefix="w")
        edges = g.edges + (("w0", "hub", 0.7), ("w2", "hub", 0.7), ("w4", "hub", 0.7))
        bad = LinkageGraph(g.vertices + ("hub",), edges)
        with pytest.raises(NotPTTError):
            relative_decomposition(bad, gamma)


class TestDetectPolygonWithChains:
    def test_one_attachment_refused(self):
        # a bar hanging off a cycle vertex meets the cycle once: no chain
        g, gamma = make_polygon([1.0, 1.1, 0.9, 1.2, 1.05], prefix="w")
        g = LinkageGraph(g.vertices + ("P",), g.edges + (("w2", "P", 0.5),))
        assert detect_polygon_with_chains(g, gamma) is None

    def test_crossing_chains_refused(self):
        # two path chains whose ends interleave on the cycle
        g, gamma = make_polygon([1.0, 1.1, 0.9, 1.2, 1.05, 0.95])
        edges = g.edges + (("v0", "p", 0.8), ("p", "v3", 0.85),
                           ("v1", "q", 0.7), ("q", "v4", 0.75))
        g = LinkageGraph(g.vertices + ("p", "q"), edges)
        assert detect_polygon_with_chains(g, gamma) is None


def _hexagon_with_two_paths():
    # heptagon-like: hexagon cycle, one 2-edge path on (v0,v3), one on (v4,v6)
    g, gamma = make_polygon([1.0, 1.1, 0.9, 1.2, 1.05, 0.95, 1.15])
    edges = g.edges + (
        ("v0", "p", 0.8), ("p", "v3", 0.85),
        ("v4", "q", 0.7), ("q", "v6", 0.75),
    )
    return LinkageGraph(g.vertices + ("p", "q"), edges), gamma


class TestElementaryCycles:
    def test_no_diagonals(self):
        gamma = DistinguishedCycle(tuple(f"v{k}" for k in range(5)))
        cells = elementary_cycles(gamma, [])
        assert len(cells) == 1
        assert cells[0].positions == (0, 1, 2, 3, 4)

    def test_hexagon_one_diagonal(self):
        gamma = DistinguishedCycle(tuple(f"v{k}" for k in range(6)))
        cells = elementary_cycles(gamma, [("v1", "v4")])
        assert len(cells) == 2
        assert sorted(len(c.positions) for c in cells) == [4, 4]

    def test_heptagon_two_shared_endpoint_diagonals(self):
        gamma = DistinguishedCycle(tuple(f"v{k}" for k in range(7)))
        cells = elementary_cycles(gamma, [("v0", "v3"), ("v3", "v6")])
        assert len(cells) == 3

    def test_crossing_rejected(self):
        gamma = DistinguishedCycle(tuple(f"v{k}" for k in range(6)))
        with pytest.raises(CrossingDiagonalsError):
            elementary_cycles(gamma, [("v0", "v3"), ("v1", "v4")])

    def test_edge_multiset_property(self, rng):
        # cycle edges once, each diagonal twice with opposite directions
        for _ in range(25):
            n = int(rng.integers(4, 10))
            gamma = DistinguishedCycle(tuple(f"v{k}" for k in range(n)))
            diags = _random_noncrossing(rng, n)
            cells = elementary_cycles(gamma, [(f"v{a}", f"v{b}") for a, b in diags])
            assert len(cells) == len(diags) + 1
            gamma_used = sorted(e.index for c in cells for e in c.edges
                                if e.kind == "gamma")
            assert gamma_used == list(range(n))
            for d in range(len(diags)):
                dirs = [e.forward for c in cells for e in c.edges
                        if e.kind == "diag" and e.index == d]
                assert sorted(dirs) == [False, True]


def _random_noncrossing(rng, n, tries=30):
    diags = []
    for _ in range(tries):
        a, b = sorted(rng.choice(n, size=2, replace=False).tolist())
        if b - a < 2 and not (a == 0 and b == n - 1):
            continue
        crossing = any((a < c < b < d) or (c < a < d < b) for c, d in diags)
        if not crossing and (a, b) not in diags:
            diags.append((a, b))
        if len(diags) >= 3:
            break
    return diags


def test_linkage_json_round_trip():
    g, gamma = make_three_chain([1, 1.2], [0.8, 1.1], [0.7, 0.75])
    d = g.to_json_dict(gamma=gamma, terminals=("I", "T"))
    g2, gamma2, term = linkage_from_json_dict(d)
    assert g2 == g
    assert gamma2 == gamma
    assert term == ("I", "T")
