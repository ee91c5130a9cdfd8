"""Shared generators for random linkages and graphs."""

import logging

import numpy as np
import pytest

from linkmorse.errors import NonGenericError
from linkmorse.geometry import chain_reach, wall_check
from linkmorse.graphs import LinkageGraph, make_polygon, make_three_chain

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
