#!/usr/bin/env python3
"""Analysis of the three-cell worked example (top index 8 = 1+0+5+1+1).

Classifies the constructed configuration, confirms the index with the
Lagrangian-Hessian inertia, and optionally dumps the linkage file for the
command-line tools.
"""

import argparse
import json
import logging

from linkmorse.enumeration import classify_configuration
from linkmorse.geometry import wall_check
from linkmorse.instances import worked_example
from linkmorse.oracle import area_oracle


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--dump-linkage", metavar="PATH",
                    help="write the linkage JSON file for the CLI")
    args = ap.parse_args()
    logging.disable(logging.WARNING)

    g, gamma, rep = worked_example()
    report = wall_check(g)
    print(f"edges: {len(g.edges)}, wall margin: {report.min_margin!r}")

    cls = classify_configuration(g, gamma, rep)
    rec = cls.record
    print(f"critical: {cls.critical}")
    print(f"index: {rec.index.index}  breakdown: {list(rec.index.breakdown)}")
    print(f"chains: {[s.key() for s in rec.chain_status]}")
    cells = [(tuple(sols.eps[s].tolist()), int(sols.omega[s]), round(float(sols.radius[s]), 6))
             for sols, s, _ in rec.cells]
    print(f"cells (eps, omega, R): {cells}")

    oracle = area_oracle(g, gamma)
    x = oracle.chart.reduce(oracle.chart.theta_from_configuration(rep))
    tri = oracle.inertia(x)
    print(f"chart dimension: {oracle.chart.dim}")
    print(f"oracle inertia (neg, zero, pos): {tri.as_tuple()}")

    if args.dump_linkage:
        with open(args.dump_linkage, "w", encoding="utf-8") as fh:
            json.dump(g.to_json_dict(gamma=gamma), fh, indent=2, sort_keys=True)
        print(f"wrote {args.dump_linkage}")


if __name__ == "__main__":
    main()
