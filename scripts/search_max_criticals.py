#!/usr/bin/env python3
"""Randomized search for three-chain length vectors with many critical points.

Samples [2,2;2] arm lengths, enumerates the critical records symbolically,
and tracks the largest verified critical-point count (the theoretical
maximum is 16).  The best instance is re-verified against the oracle.
"""

import argparse
import logging

import numpy as np

from linkmorse.enumeration import enumerate_critical_three_chain, match_record
from linkmorse.errors import NonGenericError
from linkmorse.geometry import wall_check
from linkmorse.graphs import detect_polygon_with_chains, make_three_chain
from linkmorse.oracle import area_oracle


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--trials", type=int, default=5000)
    ap.add_argument("--target", type=int, default=16)
    ap.add_argument("--verify-seeds", type=int, default=1000)
    args = ap.parse_args()
    logging.disable(logging.WARNING)

    rng = np.random.default_rng(args.seed)
    best = None
    for trial in range(args.trials):
        arms = [rng.uniform(0.4, 1.6, 2) for _ in range(3)]
        try:
            g, gamma = make_three_chain(*[list(a) for a in arms])
        except ValueError:
            continue
        if wall_check(g).min_margin < 0.02 * g.total_length():
            continue
        try:
            recs = enumerate_critical_three_chain(g, gamma)
        except NonGenericError:
            continue
        pts = sum(r.point_count or 0 for r in recs)
        if best is None or pts > best[0]:
            best = (pts, [tuple(a.tolist()) for a in arms])
            print(f"trial {trial}: {pts} critical points, arms = {best[1]}")
        if pts >= args.target:
            break
    if best is None:
        print("no feasible instance sampled")
        return

    pts, arms = best
    print(f"\nbest instance: {pts} points, arms = {arms}")
    g, gamma = make_three_chain(*arms)
    recs = enumerate_critical_three_chain(g, gamma)
    struct = detect_polygon_with_chains(g, gamma)
    oracle = area_oracle(g, gamma)
    found = oracle.find_critical(args.verify_seeds, seed=88)
    ok = 0
    for x, tri, cfg in found:
        rec = match_record(struct, recs, cfg)
        if rec is not None and tri.negative == rec.index.index:
            ok += 1
    print(f"oracle sweep: {len(found)} critical points, {ok} verified against records")


if __name__ == "__main__":
    main()
