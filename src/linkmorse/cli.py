"""Command-line interface: recognize | critical | verify | continue.

Exit codes: 0 success, 2 parse/usage error (malformed linkage or records
file, invalid flag value), 3 not a partial two-tree, 4 wall hit under
--strict, 5 verification disagreement.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from typing import NoReturn

from .config import DEFAULT_TOLS, RunConfig, Tolerances
from .enumeration import enumerate_critical_structure, match_record
from .errors import LinkmorseError, NonGenericError, NotCriticalError, NotSPError
from .geometry import Configuration, wall_check
from .graphs import (
    LinkageGraph,
    detect_polygon_with_chains,
    is_partial_two_tree,
    load_linkage,
    relative_decomposition,
    sp_decompose,
    sp_tree_to_json,
)
from .oracle import area_oracle, continue_family

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PTT = 3
EXIT_WALL = 4
EXIT_DIFF = 5


def _parse_error(message: str) -> NoReturn:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE)


@contextmanager
def _output(path: str | None):
    """The file at ``path`` opened for writing, or stdout without a path.
    A failed open or write exits 2 with one error line."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        _parse_error(f"cannot write {path!r}: {exc}")


def _dump_json(obj, path: str | None) -> None:
    """Write ``obj`` as it is encoded, so the whole text never exists at once."""
    with _output(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(path: str):
    try:
        return load_linkage(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        _parse_error(f"cannot parse linkage file {path!r}: {exc}")


def _load_records(path: str, g: LinkageGraph) -> list[tuple]:
    """(key, representative, index, manifold_dim) of every record of a
    symbolic ``critical`` output file for the linkage ``g``.

    Each representative must place exactly the linkage's vertices at finite
    coordinates; whether it closes up is for verification to judge.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _parse_error(f"cannot read records file: {exc}")
    if not isinstance(payload, dict) or payload.get("mode") != "symbolic":
        _parse_error("verify expects symbolic records")
    try:
        claims = [(rec.get("key", f"record{k}"),
                   Configuration.from_json_dict(rec["representative"]),
                   rec["index"]["index"], rec["index"]["manifold_dim"])
                  for k, rec in enumerate(payload.get("records", []))]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        _parse_error(f"malformed records file: {exc!r}")
    for k, (_, c, _, _) in enumerate(claims):
        if set(c.coords) != set(g.vertices):
            _parse_error(f"malformed records file: record {k}'s representative "
                         "does not place exactly the linkage's vertices")
        if not all(math.isfinite(x) for xy in c.coords.values() for x in xy):
            _parse_error(f"malformed records file: record {k}'s representative "
                         "has a non-finite coordinate")
    return claims


def _config_from_args(args) -> RunConfig:
    try:
        tols = Tolerances(
            rel_length=args.tol_length,
            collinearity=args.tol_collinearity,
            concyclicity=args.tol_concyclicity,
            gradient=args.tol_gradient,
            eigen_zero_band=args.tol_eigen_zero,
        )
        return RunConfig(tols=tols, seed=args.seed, n_seeds=args.n_seeds)
    except ValueError as exc:
        _parse_error(f"invalid flag value: {exc}")


def cmd_recognize(args) -> int:
    g, gamma, terminals = _load(args.file)
    report: dict = {"ptt": is_partial_two_tree(g)}
    pairs = [terminals] if terminals else \
        sorted({tuple(sorted((u, v))) for u, v, _ in g.edges})
    tree = None
    for i, t in pairs:
        try:
            tree = sp_decompose(g, i, t)
            report["terminals"] = {"I": i, "T": t}
            break
        except NotSPError as exc:
            report["kernel"] = exc.kernel
    report["sp_tree"] = sp_tree_to_json(tree) if tree else None
    if gamma is not None and report["ptt"]:
        rel = relative_decomposition(g, gamma)
        report["relative_decomposition"] = [
            {"vertices": list(c.vertices), "edges": list(c.edge_indices),
             "attachments": list(c.attachments)} for c in rel.components]
    _dump_json(report, args.out)
    return EXIT_OK if report["ptt"] else EXIT_NOT_PTT


def cmd_critical(args) -> int:
    g, gamma, _ = _load(args.file)
    if gamma is None:
        print("error: the critical command needs a distinguished cycle (gamma)",
              file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args)
    try:
        walls = wall_check(g, tols=cfg.tols)
    except LinkmorseError:
        walls = None  # wall analysis needs a partial two-tree
    if walls is not None and not walls.clean and args.strict:
        print("error: wall proximity detected and --strict set", file=sys.stderr)
        _dump_json({"wall_check": walls.to_json_dict()}, args.out)
        return EXIT_WALL
    out: dict = {"wall_check": walls.to_json_dict() if walls else None}
    struct = detect_polygon_with_chains(g, gamma)
    if struct is not None and walls is not None and walls.clean:
        records = enumerate_critical_structure(struct, cfg.tols)
        out["mode"] = "symbolic"
        out["records"] = [r.to_json_dict() for r in records]
    else:
        if struct is None:
            out["warning"] = ("linkage outside the symbolic class; "
                              "falling back to numeric search")
            print("warning: numeric-only fallback", file=sys.stderr)
        else:
            out["warning"] = "wall proximity; numeric-only fallback"
            print("warning: wall proximity; numeric-only fallback", file=sys.stderr)
        oracle = area_oracle(g, gamma, cfg.tols)
        found = oracle.find_critical(cfg.n_seeds, cfg.seed)
        out["mode"] = "numeric"
        out["records"] = [{
            "area": oracle.f(x),
            "inertia": tri.to_json_dict(),
            "representative": c.to_json_dict(),
        } for x, tri, c in found]
    _dump_json(out, args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    g, gamma, _ = _load(args.file)
    if gamma is None:
        print("error: verify needs a distinguished cycle (gamma)", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args)
    claims = _load_records(args.records, g)

    struct = detect_polygon_with_chains(g, gamma)
    if struct is None:
        print("error: linkage outside the symbolic class", file=sys.stderr)
        return EXIT_PARSE
    records = enumerate_critical_structure(struct, cfg.tols)
    by_key = {r.key(): r for r in records}

    diffs: list[str] = []
    oracle = area_oracle(g, gamma, cfg.tols)
    for k, (key, c, claimed, claimed_dim) in enumerate(claims):
        rec = by_key.get(key)
        if rec is None:
            diffs.append(f"record {k} ({key}): no matching enumerated record")
            continue
        x = oracle.chart.reduce(oracle.chart.theta_from_configuration(c))
        try:
            tri = oracle.inertia(x)
        except NotCriticalError as exc:
            diffs.append(f"record {k} ({key}): representative {exc}")
            continue
        if tri.negative != claimed:
            diffs.append(f"record {k} ({key}): index mismatch "
                         f"oracle={tri.negative} recorded={claimed}")
        if tri.zero != claimed_dim:
            diffs.append(f"record {k} ({key}): zero-count mismatch "
                         f"oracle={tri.zero} recorded={claimed_dim}")

    found = oracle.find_critical(cfg.n_seeds, cfg.seed)
    matched_keys = set()
    for x, tri, c in found:
        rec = match_record(struct, records, c, cfg.tols)
        if rec is None:
            diffs.append(f"oracle critical point at S={oracle.f(x)!r} "
                         "matches no symbolic record")
        else:
            matched_keys.add(rec.key())
            if tri.negative != rec.index.index:
                diffs.append(f"record ({rec.key()}): oracle index {tri.negative} "
                             f"!= formula {rec.index.index}")
    for r in records:
        if r.key() not in matched_keys:
            diffs.append(f"record ({r.key()}): not found by the oracle sweep")

    verdict = {"agreement": not diffs, "diffs": diffs,
               "oracle_points": len(found), "records": len(records)}
    _dump_json(verdict, args.out)
    return EXIT_OK if not diffs else EXIT_DIFF


def cmd_continue(args) -> int:
    g, gamma, _ = _load(args.file)
    if gamma is None:
        print("error: continue needs a distinguished cycle (gamma)", file=sys.stderr)
        return EXIT_PARSE
    cfg = _config_from_args(args)
    if args.edge < 0 or args.edge >= len(g.edges):
        print(f"error: edge index {args.edge} out of range", file=sys.stderr)
        return EXIT_PARSE
    if not (0 < args.start < math.inf and 0 < args.stop < math.inf) or args.steps < 0:
        print("error: bad parameter range", file=sys.stderr)
        return EXIT_PARSE
    diagram = continue_family(g, args.edge, args.start, args.stop, args.steps,
                              gamma, cfg)
    # --out writes both files; without it --format picks one for stdout
    if args.out or args.format == "json":
        _dump_json(diagram.to_json_dict(), args.out and args.out + ".json")
    if args.out or args.format == "csv":
        with _output(args.out and args.out + ".csv") as fh:
            fh.write(diagram.to_csv())
    for w in diagram.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="linkmorse", allow_abbrev=False,
                                 description="critical points of the oriented "
                                             "area on linkage configuration spaces")
    ap.add_argument("--tol-length", type=float, default=DEFAULT_TOLS.rel_length)
    ap.add_argument("--tol-collinearity", type=float, default=DEFAULT_TOLS.collinearity)
    ap.add_argument("--tol-concyclicity", type=float, default=DEFAULT_TOLS.concyclicity)
    ap.add_argument("--tol-gradient", type=float, default=DEFAULT_TOLS.gradient)
    ap.add_argument("--tol-eigen-zero", type=float, default=DEFAULT_TOLS.eigen_zero_band)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--n-seeds", type=int, default=1000)
    ap.add_argument("--strict", action="store_true")
    ap.add_argument("--out", type=str, default=None)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="partial-two-tree recognition and SP tree")
    p.add_argument("file")
    p.set_defaults(func=cmd_recognize)

    p = sub.add_parser("critical", help="enumerate critical records")
    p.add_argument("file")
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("verify", help="cross-check records against the oracle")
    p.add_argument("file")
    p.add_argument("records")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("continue", help="one-parameter bifurcation diagram")
    p.add_argument("file")
    p.add_argument("--edge", type=int, required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(func=cmd_continue)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonGenericError as exc:
        print(f"error: non-generic lengths: {exc}", file=sys.stderr)
        return EXIT_WALL
    except LinkmorseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
