"""Shared generators for random linkages and graphs, and closed forms of
the paper that only the tests compute."""

import logging
import math

import numpy as np
import pytest

from linkmorse.errors import NonGenericError
from linkmorse.geometry import chain_reach, enumerate_cyclic, wall_check
from linkmorse.graphs import (
    LinkageGraph,
    SPEdge,
    SPParallel,
    SPSeries,
    make_polygon,
    make_three_chain,
)

logging.getLogger("linkmorse").setLevel(logging.ERROR)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sample_polygon(rng, n, margin=0.03):
    """Random generic polygon lengths: off walls, closure with slack."""
    while True:
        lens = rng.uniform(0.5, 2.0, n)
        total = lens.sum()
        if 2 * lens.max() > total - margin * total:
            continue
        g, gamma = make_polygon([float(x) for x in lens])
        if wall_check(g).min_margin < margin * total:
            continue
        return g, gamma


def sample_three_chain(rng, shape=(2, 2, 2), margin=0.03):
    """Random generic three-chain with a nonempty configuration space."""
    p, q, r = shape
    while True:
        a = rng.uniform(0.4, 1.6, p)
        b = rng.uniform(0.4, 1.6, q)
        c = rng.uniform(0.4, 1.6, r)
        reaches = [chain_reach(list(v)) for v in (a, b, c)]
        lo = max(x.dmin for x in reaches)
        hi = min(x.dmax for x in reaches)
        scale = float(a.sum() + b.sum() + c.sum())
        if lo + margin * scale >= hi:
            continue
        g, gamma = make_three_chain(list(a), list(b), list(c))
        if wall_check(g).min_margin < margin * scale:
            continue
        return g, gamma


def sample_three_chain_with_records(rng, enumerate_fn, shape=(2, 2, 2),
                                    margin=0.03):
    """Resample until the symbolic enumeration is generic and nonempty."""
    while True:
        g, gamma = sample_three_chain(rng, shape, margin)
        try:
            records = enumerate_fn(g, gamma)
        except NonGenericError:
            continue
        if records:
            return g, gamma, records


# ---------------------------------------------------------------------------
# random graph families for recognition tests
# ---------------------------------------------------------------------------

class _Names:
    def __init__(self):
        self.k = 0

    def fresh(self):
        self.k += 1
        return f"n{self.k}"


def random_sp_graph(rng, max_size=12):
    """Random two-terminal series-parallel multigraph with terminals."""
    names = _Names()
    i, t = names.fresh(), names.fresh()
    edges = _random_ttg(rng, i, t, names, int(rng.integers(1, max_size)))
    vs = sorted({v for e in edges for v in e[:2]})
    return LinkageGraph(tuple(vs), tuple(edges)), i, t


def _random_ttg(rng, i, t, names, budget):
    if budget <= 1:
        return [(i, t, float(rng.uniform(0.3, 2.0)))]
    kind = rng.choice(["series", "parallel"])
    left = int(rng.integers(1, budget))
    if kind == "series":
        mid = names.fresh()
        return (_random_ttg(rng, i, mid, names, left)
                + _random_ttg(rng, mid, t, names, budget - left))
    return (_random_ttg(rng, i, t, names, left)
            + _random_ttg(rng, i, t, names, budget - left))


def random_subdivided_k4(rng):
    """K4 with each edge subdivided into a random path (keeps the minor)."""
    base = [("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")]
    names = _Names()
    edges = []
    for u, v in base:
        path = [u] + [names.fresh() for _ in range(int(rng.integers(0, 3)))] + [v]
        for x, y in zip(path, path[1:]):
            edges.append((x, y, float(rng.uniform(0.3, 2.0))))
    vs = sorted({v for e in edges for v in e[:2]})
    return LinkageGraph(tuple(vs), tuple(edges))


def random_multigraph(rng):
    """Random connected multigraph on 3-7 vertices: a random spanning tree
    plus random extra edges, parallel ones included."""
    n = int(rng.integers(3, 8))
    vs = tuple(f"x{k}" for k in range(n))
    pairs = [(int(rng.integers(0, k)), k) for k in range(1, n)]
    pairs += [tuple(rng.choice(n, 2, replace=False).tolist())
              for _ in range(int(rng.integers(0, 2 * n)))]
    edges = tuple((vs[a], vs[b], float(rng.uniform(0.3, 2.0))) for a, b in pairs)
    return LinkageGraph(vs, edges)


# ---------------------------------------------------------------------------
# closed forms and inverses that the program does not compute
# ---------------------------------------------------------------------------

def cyclic_solution(lengths, eps, omega):
    """The row of ``enumerate_cyclic(lengths)`` with signs ``eps`` and
    winding ``omega`` of the smallest radius, or None when there is none."""
    sols = enumerate_cyclic(lengths)
    rows = [i for i in range(len(sols))
            if sols.eps[i].tolist() == list(eps) and sols.omega[i] == omega]
    return sols[rows[0]] if rows else None  # rows are in radius order


def triangle_area(a, b, c):
    """Heron's formula; ValueError unless the triangle inequality is strict."""
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    if val <= 0:
        raise ValueError(f"({a},{b},{c}) violates the triangle inequality")
    return math.sqrt(val)


def area_derivative_wrt_side(a, b, c):
    """d(area)/dc for a triangle with fixed sides a, b and variable side c.

    Equals the distance from the circumcenter to the midpoint of c, signed
    positive while the opposite angle is acute: (c/2) * cot(gamma).
    """
    if a + b <= c or a + c <= b or b + c <= a:
        raise ValueError(f"({a},{b},{c}) violates the triangle inequality")
    cos_g = (a * a + b * b - c * c) / (2.0 * a * b)
    return 0.5 * c * cos_g / math.sqrt(1.0 - cos_g * cos_g)


def lagrange_matrix_222(a1, a2, b1, b2, c1, c2, alpha, beta, gamma):
    """Lagrange multiplier matrix of the [2,2;2] three-chain at angles alpha,
    beta, gamma of the arms."""
    return np.array([
        [a1 * a2 * math.cos(alpha), b1 * b2 * math.cos(beta), 0.0],
        [2 * a1 * a2 * math.sin(alpha), -2 * b1 * b2 * math.sin(beta), 0.0],
        [2 * a1 * a2 * math.sin(alpha), 0.0, -2 * c1 * c2 * math.sin(gamma)],
    ])


def lagrange_det_222(a1, a2, b1, b2, c1, c2, alpha, beta, gamma):
    """Closed form 4 c1 c2 a1 a2 b1 b2 sin(gamma) sin(alpha+beta).

    Vanishes exactly at aligned type (sin gamma = 0) and circular type
    (sin(alpha+beta) = 0).
    """
    return (4.0 * c1 * c2 * a1 * a2 * b1 * b2
            * math.sin(gamma) * math.sin(alpha + beta))


def sp_tree_from_json(d):
    """The SP tree that ``graphs.sp_tree_to_json`` wrote as ``d``."""
    if d["op"] == "E":
        return SPEdge(d["u"], d["v"], d["len"], d["edge"])
    children = tuple(sp_tree_from_json(c) for c in d["children"])
    return SPSeries(children) if d["op"] == "S" else SPParallel(children)


def evaluate_sp_tree(node):
    """The multigraph that an SP tree describes, with its vertex names."""
    edges = []

    def walk(n):
        if isinstance(n, SPEdge):
            edges.append((n.u, n.v, n.length))
        else:
            for c in n.children:
                walk(c)

    walk(node)
    return LinkageGraph(tuple(sorted({x for u, v, _ in edges for x in (u, v)})), tuple(edges))
