"""Seeded instance generators and linkage-file writing.

The three-chain sampler draws exactly as the acceptance suite's criterion-2
sampler does, so generator seed 202 yields criterion 2's instances in order.
"""

from __future__ import annotations

import json

import numpy as np

from linkmorse.enumeration import enumerate_critical_pnd, enumerate_critical_three_chain
from linkmorse.errors import NonGenericError
from linkmorse.geometry import chain_reach, wall_check
from linkmorse.graphs import DistinguishedCycle, LinkageGraph, make_three_chain


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


def sample_three_chain_with_records(rng, shape=(2, 2, 2), margin=0.03):
    """Resample until the symbolic enumeration is generic and nonempty."""
    while True:
        g, gamma = sample_three_chain(rng, shape, margin)
        try:
            records = enumerate_critical_three_chain(g, gamma)
        except NonGenericError:
            continue
        if records:
            return g, gamma, records


def _random_chords(rng, n):
    """Two distinct, non-crossing chords of an n-gon joining non-adjacent vertices."""
    while True:
        a = tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False)))
        b = tuple(sorted(int(v) for v in rng.choice(n, 2, replace=False)))
        if a == b or any(q - p in (1, n - 1) for p, q in (a, b)):
            continue
        (p, q), (r, s) = a, b
        if len({p, q, r, s}) == 4 and (p < r < q < s or r < p < s < q):
            continue
        return a, b


def sample_polygon_with_chains(rng, n, chain_edges, margin=1e-3):
    """Random n-gon with two non-crossing attached chains of the given edge
    counts, at least ``margin`` (relative to total length) off every wall.

    Returns (graph, gamma, records, rejected): samples that raise
    NonGenericError or have no critical records are drawn again and counted.
    """
    cycle = tuple(f"v{k}" for k in range(n))
    rejected = 0
    while True:
        chords = _random_chords(rng, n)
        lens = rng.uniform(0.5, 2.0, n)
        vertices = list(cycle)
        edges = [(cycle[k], cycle[(k + 1) % n], float(lens[k])) for k in range(n)]
        for c, ((i, t), r) in enumerate(zip(chords, chain_edges)):
            joints = [f"c{c}_{j}" for j in range(1, r)]
            vertices += joints
            path = [cycle[i]] + joints + [cycle[t]]
            edges += [(path[j], path[j + 1], float(x))
                      for j, x in enumerate(rng.uniform(0.5, 2.0, r))]
        g = LinkageGraph(tuple(vertices), tuple(edges))
        gamma = DistinguishedCycle(cycle)
        if wall_check(g).min_margin < margin * g.total_length():
            rejected += 1
            continue
        try:
            records = enumerate_critical_pnd(g, gamma)
        except NonGenericError:
            rejected += 1
            continue
        if not records:
            rejected += 1
            continue
        return g, gamma, records, rejected


def write_linkage(path, g, gamma) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(g.to_json_dict(gamma=gamma), fh)
    return str(path)
