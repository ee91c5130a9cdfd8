"""Command-line interface: recognize | critical | verify | continue.

Exit codes: 0 success, 2 parse/usage error (malformed linkage or records
file, invalid flag value), 3 not a partial two-tree, 4 wall hit under
--strict or non-generic lengths, 5 verification disagreement.  ``main`` returns each of them (a
refusal is raised as a ``LinkmorseError``); only argparse's flag errors exit.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import sys
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .config import DEFAULT_TOLS, RunConfig, Tolerances
from .enumeration import enumerate_critical_structure, match_record
from .errors import LinkmorseError, NonGenericError, NotCriticalError, NotPTTError, NotSPError
from .geometry import Configuration, wall_check
from .graphs import (
    LinkageGraph,
    detect_polygon_with_chains,
    load_linkage,
    relative_decomposition,
    sp_decompose,
    sp_decompose_blocks,
    sp_tree_to_json,
)
from .oracle import area_oracle, continue_family

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NOT_PTT = 3
EXIT_WALL = 4
EXIT_DIFF = 5
RECORDS_FORMAT = 2  # symbolic critical output with a shared cell table

logger = logging.getLogger(__name__)


@contextmanager
def _output(path: str | None):
    """The file at ``path`` opened for writing, or stdout without a path.
    A failed open or write is refused (exit 2)."""
    if not path:
        yield sys.stdout
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise LinkmorseError(f"cannot write {path!r}: {exc}") from exc


def _dump_json(obj, path: str | None) -> int:
    """Write ``obj`` as ``json.dump(obj, fh, indent=2, sort_keys=True)`` would,
    plus a newline, so the whole text never exists at once; returns the number
    of characters written, which is that of bytes since the text is ASCII."""
    with _output(path) as fh:
        n = _write_json(obj, fh, 0)
        fh.write("\n")
    return n + 1


# containers shallower than this are written one item at a time (a record
# list goes out a record at a time); deeper ones are built as one string each
_STREAM_DEPTH = 2


def _write_json(o, fh, depth: int) -> int:
    """Write ``o``, which sits ``depth`` containers deep; returns the number of
    characters written."""
    nl = "\n" + "  " * depth
    if isinstance(o, _Streamed):
        return o.write(fh, nl)
    if depth >= _STREAM_DEPTH or not isinstance(o, (list, tuple, dict)) or not o:
        text = _encode_json(o, nl)
        fh.write(text)
        return len(text)
    if isinstance(o, dict):
        opener, closer = "{", "}"
        items = ((_encode_str(k) + ": ", v) for k, v in sorted(o.items()))
    else:
        opener, closer = "[", "]"
        items = (("", v) for v in o)
    n = 0
    for prefix, v in items:
        head = opener + nl + "  " + prefix
        fh.write(head)
        n += len(head) + _write_json(v, fh, depth + 1)
        opener = ","
    fh.write(nl + closer)
    return n + len(nl) + 1


def _encode_json(o, nl: str) -> str:
    """The text ``json.dumps(indent=2, sort_keys=True)`` gives ``o`` on a line
    whose indentation follows the newline ``nl``; tuples are lists, and dict
    keys must be str."""
    scalar = _SCALARS.get(type(o))
    if scalar is not None:
        return scalar(o)
    if isinstance(o, (list, tuple)):
        return _encode_list(o, nl)
    if isinstance(o, dict):
        return _encode_dict(o, nl)
    for base, scalar in _SCALARS.items():  # subclasses, in json's order
        if isinstance(o, base):
            return scalar(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _encode_list(o, nl: str) -> str:
    if not o:
        return "[]"
    inner = nl + "  "
    sep = "," + inner
    if type(o[0]) is float:
        try:  # finite floats in one pass; the text of nan and inf holds an "n"
            body = sep.join(map(float.__repr__, o))
            if "n" not in body:
                return "[" + inner + body + nl + "]"
        except TypeError:
            pass
    return "[" + inner + sep.join([s(v) if (s := _SCALARS.get(type(v)))
                                   else _encode_json(v, inner) for v in o]) + nl + "]"


def _encode_dict(o, nl: str) -> str:
    if not o:
        return "{}"
    inner = nl + "  "
    return "{" + inner + ("," + inner).join(
        [_encode_str(k) + ": " + (s(v) if (s := _SCALARS.get(type(v)))
                                  else _encode_json(v, inner))
         for k, v in sorted(o.items())]) + nl + "}"


def _encode_float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


class _Slot:
    """A leaf's place in a record template; encoded as a NUL character, which
    no other encoded text holds (strings go out ASCII-escaped)."""


_SCALARS = {str: _encode_str, int: int.__repr__, float: _encode_float,
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): lambda _: "null", _Slot: lambda _: "\0"}


class _Streamed:
    """A list written once, its items encoded one at a time as it goes out:
    ``encode(*item, nl)`` gives the text of ``item`` on a line whose
    indentation follows the newline ``nl``."""

    def __init__(self, items, encode):
        self.items, self.encode = items, encode

    def write(self, fh, nl: str) -> int:
        """Write the list on a line whose indentation follows the newline
        ``nl``; returns the number of characters written."""
        inner = nl + "  "
        opener, n = "[", 0
        for item in self.items:
            text = opener + inner + self.encode(*item, inner)
            fh.write(text)
            n += len(text)
            opener = ","
        if not n:
            fh.write("[]")
            return 2
        fh.write(nl + "]")
        return n + len(nl) + 1


def _encode_cell(sols, i: int, nl: str) -> str:
    """The text of cyclic solution ``i`` of the table ``sols``."""
    return _encode_json(sols.to_json_dict(i), nl)


class _TemplatedRecords:
    """Symbolic records, each encoded as the text template of its table and
    index report filled with the leaves that vary within them: the area,
    each cell's id and glued center, each free chain's end distance, the key
    and the representative's coordinates.  No record dict is built or walked.

    A template is the generic encoding of its first record's
    ``to_json_dict`` with those leaves slotted, and that record's filled
    template must equal its generic encoding.  A finite float goes in as
    ``%s`` writes it, which is its repr and so its JSON text; a table with a
    non-finite float in those columns has every leaf encoded as the generic
    encoder would.  Cell ids are keyed by ``CriticalRecord.cell_keys``.
    Templates live as long as the object, which serves one ``critical``
    call."""

    def __init__(self, records, keys):
        # each cyclic solution once, in order of first use, known before any
        # record goes out since the cell table sorts first
        self.cell_ids: dict = {}
        for r in records:
            for k in r.cell_keys():
                self.cell_ids.setdefault(k, len(self.cell_ids))
        self.records = _Streamed(zip(records, keys), self.encode)
        self.cells = _Streamed(self.cell_ids, _encode_cell)
        self.templates: dict = {}
        self.finite: dict = {}  # table -> whether its varying floats are all finite

    def encode(self, r, key: str, nl: str) -> str:
        """The text ``_encode_json(r.to_json_dict(self.cell_ids), nl)`` gives;
        ``key`` is ``r.key()``."""
        t, row = r.table, r.row
        head = [float(t.area[row])]
        for k, xy in zip(r.cell_keys(), t.centers[row].tolist()):
            head += (self.cell_ids[k], *xy)
        head += t.free_w[row].tolist()
        coords = t.xy[row].ravel().tolist()
        shape = (nl, t, int(t.report[row]))
        made = self.templates.get(shape)
        fresh = made is None
        if fresh:
            made = self.templates[shape] = self._template(r, nl, len(head) + 1 + len(coords))
        template, finite = made
        if finite:
            text = template % (*head, _encode_str(key), *coords)
        else:
            text = template % tuple([_SCALARS[type(v)](v) for v in (*head, key, *coords)])
        if fresh and text != _encode_json(r.to_json_dict(self.cell_ids), nl):
            raise RuntimeError(f"record {key}: its leaves do not fill its template")
        return text

    def _template(self, r, nl: str, n_leaves: int) -> tuple[str, bool]:
        """The template of the record ``r``'s table and index report, and
        whether the table's varying floats are all finite."""
        t = r.table
        slot = _Slot()
        d = r.to_json_dict(self.cell_ids)
        d["area"] = d["key"] = slot
        for cell in d["cells"]:
            cell["cell"], cell["center_glued"] = slot, [slot, slot]
        for k in t.free:
            d["chains"][k]["w"] = slot
        d["representative"]["coords"] = dict.fromkeys(t.names, [slot, slot])
        # the fixed text's own "%" are doubled, so each leaf text is
        # substituted once and never read as a format
        parts = _encode_json(d, nl).replace("%", "%%").split("\0")
        if len(parts) != n_leaves + 1:
            raise RuntimeError(f"record {r.key()}: {n_leaves} leaves for "
                               f"{len(parts) - 1} slots")
        if t not in self.finite:
            self.finite[t] = all(np.isfinite(a).all()
                                 for a in (t.area, t.centers, t.free_w, t.xy))
        return "%s".join(parts), self.finite[t]


def _load(path: str):
    try:
        return load_linkage(path)
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        raise LinkmorseError(f"cannot parse linkage file {path!r}: {exc}") from exc


def _load_cycle(args):
    """The linkage and its distinguished cycle; refused without one."""
    g, gamma, _ = _load(args.file)
    if gamma is None:
        raise LinkmorseError(f"{args.command} needs a distinguished cycle (gamma)")
    return g, gamma


def _load_records(path: str, g: LinkageGraph) -> list[tuple]:
    """(key, representative, index, manifold_dim) of every record of a symbolic
    ``critical`` output file for the linkage ``g``, in format 2 or without one.

    Each key must be a string and each index and dimension an integer of at
    least 0 (not a bool).  Each representative must place exactly the
    linkage's vertices at finite int or float coordinates (not bools or
    strings); whether it closes up is for verification to judge.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise LinkmorseError(f"cannot read records file: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("mode") != "symbolic":
        raise LinkmorseError("verify expects symbolic records")
    if payload.get("format", RECORDS_FORMAT) != RECORDS_FORMAT:
        raise LinkmorseError(f"malformed records file: unknown format {payload['format']!r}")
    records = payload.get("records", [])
    if not isinstance(records, list):
        raise LinkmorseError(f"malformed records file: records {records!r} is not a list")
    claims = []
    for k, rec in enumerate(records):
        try:
            claims.append((rec.get("key", f"record{k}"),
                           Configuration.from_json_dict(rec["representative"]),
                           rec["index"]["index"], rec["index"]["manifold_dim"]))
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise LinkmorseError(f"malformed records file: record {k}: {exc!r}") from exc
    names = tuple(sorted(g.vertices))
    for k, (key, c, index, dim) in enumerate(claims):
        if not isinstance(key, str):
            raise LinkmorseError(f"malformed records file: record {k}'s key {key!r} "
                                 "is not a string")
        if not all(type(v) is int and v >= 0 for v in (index, dim)):
            raise LinkmorseError(f"malformed records file: record {k}'s index {index!r} "
                                 f"or manifold_dim {dim!r} is not an integer >= 0")
        if c.names != names:
            raise LinkmorseError(f"malformed records file: record {k}'s representative "
                                 "does not place exactly the linkage's vertices")
        if not np.isfinite(c.xy).all():
            raise LinkmorseError(f"malformed records file: record {k}'s representative "
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
        raise LinkmorseError(f"invalid flag value: {exc}") from exc


def cmd_recognize(args) -> int:
    g, gamma, terminals = _load(args.file)
    report: dict = {"ptt": True}
    try:
        report["blocks"] = [{"edges": list(block), "sp_tree": sp_tree_to_json(tree)}
                            for block, tree in sp_decompose_blocks(g)]
    except NotPTTError as exc:
        report.update(ptt=False, kernel=exc.__cause__.kernel)  # the failed block's
    if terminals:
        i, t = terminals
        try:
            report["sp_tree"] = sp_tree_to_json(sp_decompose(g, i, t))
            report["terminals"] = {"I": i, "T": t}
        except NotSPError as exc:
            report.update(sp_tree=None, kernel=exc.kernel)
    if gamma is not None and report["ptt"]:
        report["relative_decomposition"] = [
            {"vertices": list(c.vertices), "edges": list(c.edge_indices),
             "attachments": list(c.attachments)} for c in relative_decomposition(g, gamma)]
    _dump_json(report, args.out)
    return EXIT_OK if report["ptt"] else EXIT_NOT_PTT


def cmd_critical(args) -> int:
    g, gamma = _load_cycle(args)
    cfg = _config_from_args(args)
    try:
        walls = wall_check(g, tols=cfg.tols)
    except NotPTTError:
        walls = None  # wall analysis needs a partial two-tree
    if walls is not None and not walls.clean and args.strict:
        print("error: wall proximity detected and --strict set", file=sys.stderr)
        _dump_json({"wall_check": walls.to_json_dict()}, args.out)
        return EXIT_WALL
    out: dict = {"wall_check": walls.to_json_dict() if walls else None}
    # a cycle with non-crossing chains has no K4 minor, so walls is set
    struct = detect_polygon_with_chains(g, gamma)
    if struct is not None and walls.clean:
        keys: list[str] = []
        records = enumerate_critical_structure(struct, cfg.tols, keys)
        templated = _TemplatedRecords(records, keys)
        out.update(mode="symbolic", format=RECORDS_FORMAT, records=templated.records,
                   cells=templated.cells)
        written = _dump_json(out, args.out)
        logger.debug("critical: %(records)d records, %(cells)d cell-table entries, "
                     "%(shapes)d record templates, %(bytes)d bytes written",
                     {"records": len(records), "cells": len(templated.cell_ids),
                      "shapes": len(templated.templates), "bytes": written})
        return EXIT_OK
    out["warning"] = ("linkage outside the symbolic class; falling back to "
                      "numeric search" if struct is None else
                      "wall proximity; numeric-only fallback")
    print(f"warning: {out['warning']}", file=sys.stderr)
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
    g, gamma = _load_cycle(args)
    cfg = _config_from_args(args)
    claims = _load_records(args.records, g)

    struct = detect_polygon_with_chains(g, gamma)
    if struct is None:
        raise LinkmorseError("linkage outside the symbolic class")
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
    g, gamma = _load_cycle(args)
    cfg = _config_from_args(args)
    if args.edge < 0 or args.edge >= len(g.edges):
        raise LinkmorseError(f"edge index {args.edge} out of range")
    if not (0 < args.start < math.inf and 0 < args.stop < math.inf) or args.steps < 0:
        raise LinkmorseError("bad parameter range")
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
