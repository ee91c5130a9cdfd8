"""Symbolic enumeration of area-critical configurations.

For a polygon with non-crossing attached chains, every critical configuration
designates a subset of chains as aligned (each with a sign pattern giving the
diagonal length), replaces them by straight-line diagonals, and realizes each
elementary cell of the cycle as a cyclic polygon.  Cells glue rigidly along
shared diagonals; chains left free must reach their endpoint distance
strictly inside their reach interval and contribute a critical-manifold
factor.  Indices add up: one cyclic-polygon index per cell plus one chain
term per aligned chain.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    NonGenericError,
    NotConcyclicError,
    NotPTTError,
)
from .geometry import (
    Configuration,
    CyclicSolutions,
    ReachInterval,
    aligned_distance,
    aligned_residual,
    alignment_patterns,
    chain_reach,
    CyclicRootPass,
    cyclic_data_from_points,
    cyclic_table,
    place_chain,
    shoelace,
    solve_cyclic,
    transform_mapping_segment,
    wall_check,
)
from .graphs import (
    AttachedChain,
    Cell,
    DistinguishedCycle,
    LinkageGraph,
    PolygonWithChains,
    cell_lengths,
    detect_polygon_with_chains,
    elementary_cycles,
)
from .indices import (
    COINCIDING_CENTERS,
    IndexReport,
    aligned_nus,
    cyclic_index,
    ptt_index,
)

logger = logging.getLogger(__name__)

# a glued cell's shared vertex counts as mismatched beyond GLUE_TOL * scale
GLUE_TOL = 1e-6
# a pick's fate in record assembly: kept for a record, dropped, or refused
# as non-generic (every fate from AT_REACH_BOUND on)
KEPT, GLUE_MISMATCH, OUTSIDE_REACH, AT_REACH_BOUND, AT_ALIGNMENT = range(5)
# classify_structure floors a chain's extent at EXTENT_FLOOR, so a chain with
# all joints on one point keeps a positive collinearity threshold
EXTENT_FLOOR = 1e-30


@dataclass(frozen=True, slots=True)
class ChainStatus:
    """Whether a chain is aligned (with its sign pattern) or free."""

    kind: str  # "aligned" | "free"
    w: float   # endpoint distance
    sigma: tuple[int, ...] | None = None
    f: int | None = None

    def key(self) -> str:
        if self.kind == "aligned":
            return "A" + "".join("+" if s > 0 else "-" for s in self.sigma)
        return "F"

    def to_json_dict(self) -> dict:
        d = {"kind": self.kind, "w": self.w}
        if self.kind == "aligned":
            d["sigma"] = list(self.sigma)
            d["f"] = self.f
        return d


@dataclass(frozen=True, slots=True)
class ManifoldFactor:
    chain: int
    edges: int
    dim: int
    chi: int | None  # Euler characteristic of the factor when known

    def to_json_dict(self) -> dict:
        return {"chain": self.chain, "edges": self.edges, "dim": self.dim,
                "chi": self.chi}


@dataclass(frozen=True, eq=False, slots=True)
class RecordTable:
    """The critical records of one branch: row i of every column is record i's.

    Shared by the rows: ``statuses`` (each aligned chain's ``ChainStatus``,
    None for a free chain), ``factors``, the distinct ``reports``, each
    cell's cyclic solutions ``sols`` and the sorted vertex ``names``.  The
    read-only columns are ``picks`` (k, cells), each cell's row of its
    solutions; ``centers`` (k, cells, 2), the glued circumcenters;
    ``free_w`` (k, free chains), the free chains' end distances in chain
    order; ``report`` (k,), an index into ``reports``; ``xy`` (k, V, 2),
    the representatives in ``names`` order; and ``area`` (k,).
    """

    statuses: tuple[ChainStatus | None, ...]
    factors: tuple[ManifoldFactor, ...]
    reports: tuple[IndexReport, ...]
    sols: tuple[CyclicSolutions, ...]
    names: tuple[str, ...]
    picks: np.ndarray
    centers: np.ndarray
    free_w: np.ndarray
    report: np.ndarray
    xy: np.ndarray
    area: np.ndarray
    free: tuple[int, ...] = field(init=False)  # the free chains
    chains_key: str = field(init=False)        # the chains' part of every key

    def __post_init__(self):
        for a in (self.picks, self.centers, self.free_w, self.report, self.xy, self.area):
            a.flags.writeable = False
        object.__setattr__(self, "free", tuple(
            k for k, s in enumerate(self.statuses) if s is None))
        object.__setattr__(self, "chains_key", "|".join(
            "F" if s is None else s.key() for s in self.statuses))

    def records(self) -> list[CriticalRecord]:
        """One record per row, in row order."""
        return [CriticalRecord.row_of(self, i) for i in range(len(self.area))]


class CriticalRecord:
    """One critical record, a view of row ``row`` of a ``RecordTable``.

    Built from its fields, a record is the one row of a table of its own;
    each cell is given as (solutions, row, glued circumcenter).  Its cells
    and representative are made when read; records are equal when their
    fields are, with each cell's solution compared by its JSON.
    """

    __slots__ = ("table", "row")

    def __init__(self, chain_status: tuple[ChainStatus, ...],
                 cells: tuple[tuple[CyclicSolutions, int, tuple[float, float]], ...],
                 representative: Configuration, index: IndexReport,
                 factors: tuple[ManifoldFactor, ...], area: float):
        self.table = RecordTable(
            tuple(s if s.kind == "aligned" else None for s in chain_status), tuple(factors),
            (index,), tuple(sols for sols, _, _ in cells), representative.names,
            np.array([[s for _, s, _ in cells]], dtype=np.intp).reshape(1, len(cells)),
            np.array([c for _, _, c in cells], dtype=float).reshape(1, len(cells), 2),
            np.array([[s.w for s in chain_status if s.kind != "aligned"]], dtype=float),
            np.zeros(1, dtype=np.intp), representative.xy[None], np.array([area], dtype=float))
        self.row = 0

    @classmethod
    def row_of(cls, table: RecordTable, row: int) -> CriticalRecord:
        """The record of row ``row`` of ``table``."""
        rec = cls.__new__(cls)
        rec.table, rec.row = table, row
        return rec

    @property
    def chain_status(self) -> tuple[ChainStatus, ...]:
        t = self.table
        statuses = list(t.statuses)
        for k, w in zip(t.free, t.free_w[self.row].tolist()):
            statuses[k] = ChainStatus("free", w)
        return tuple(statuses)

    def cell_keys(self) -> list[tuple[CyclicSolutions, int]]:
        """(solutions, row) of each cell: equal exactly when the polygons are."""
        t = self.table
        return list(zip(t.sols, t.picks[self.row].tolist()))

    @property
    def cells(self) -> tuple[tuple[CyclicSolutions, int, tuple[float, float]], ...]:
        """(solutions, row, glued circumcenter) of each cell."""
        return tuple((sols, s, tuple(c)) for (sols, s), c in
                     zip(self.cell_keys(), self.table.centers[self.row].tolist()))

    @property
    def representative(self) -> Configuration:
        return Configuration.from_rows(self.table.names, self.table.xy[self.row])

    @property
    def index(self) -> IndexReport:
        return self.table.reports[self.table.report[self.row]]

    @property
    def factors(self) -> tuple[ManifoldFactor, ...]:
        return self.table.factors

    @property
    def area(self) -> float:
        return float(self.table.area[self.row])

    def _fields(self) -> tuple:
        cells = [(sols.to_json_dict(s), c) for sols, s, c in self.cells]
        return (self.chain_status, cells, self.representative, self.index, self.factors,
                self.area)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CriticalRecord):
            return NotImplemented
        return self._fields() == other._fields()

    def key(self) -> str:
        return self.table.chains_key + "#" + ";".join(
            sols.signature(s) for sols, s in self.cell_keys())

    @property
    def manifold_dim(self) -> int:
        return self.index.manifold_dim

    @property
    def chi(self) -> int | None:
        """Euler characteristic of the critical manifold (None if unknown)."""
        total = 1
        for f in self.factors:
            if f.chi is None:
                return None
            total *= f.chi
        return total

    @property
    def point_count(self) -> int | None:
        """Number of critical points represented, for zero-dimensional records."""
        return self.chi if self.manifold_dim == 0 else None

    def to_json_dict(self, cell_ids: dict[tuple[CyclicSolutions, int], int]) -> dict:
        """The record; each cell names its ``cell_keys()`` entry's index in
        ``cell_ids``, grown as needed."""
        return {
            "key": self.key(),
            "index": self.index.to_json_dict(),
            "manifold_dim": self.manifold_dim,
            "area": self.area,
            "chains": [s.to_json_dict() for s in self.chain_status],
            "cells": [{"cell": cell_ids.setdefault(k, len(cell_ids)), "center_glued": c}
                      for k, c in zip(self.cell_keys(), self.table.centers[self.row].tolist())],
            "factors": [f.to_json_dict() for f in self.factors],
            "representative": self.representative.to_json_dict(),
        }


def _factor_chi(r: int) -> int | None:
    # reduced configuration space of an (r+1)-gon: two points for a triangle,
    # a union of circles in dimension one, unknown beyond that
    if r == 2:
        return 2
    if r == 3:
        return 0
    return None


# ---------------------------------------------------------------------------
# enumeration engine
# ---------------------------------------------------------------------------

def enumerate_critical_pnd(g: LinkageGraph, gamma: DistinguishedCycle,
                           tols: Tolerances = DEFAULT_TOLS) -> list[CriticalRecord]:
    """All critical records of a polygon-with-non-crossing-diagonals linkage."""
    struct = detect_polygon_with_chains(g, gamma)
    if struct is None:
        raise NotPTTError("linkage is not a polygon with non-crossing attached chains")
    return enumerate_critical_structure(struct, tols)


def enumerate_critical_three_chain(g: LinkageGraph, gamma: DistinguishedCycle,
                                   tols: Tolerances = DEFAULT_TOLS) -> list[CriticalRecord]:
    """Critical records of a three-chain linkage (cycle plus one chain)."""
    struct = detect_polygon_with_chains(g, gamma)
    if struct is None or len(struct.chains) != 1:
        raise NotPTTError("not a three-chain: need the cycle plus exactly one attached chain")
    if struct.chains[0].i_pos != 0:
        raise NotPTTError("three-chain cycle must start at the chain attachment I")
    return enumerate_critical_structure(struct, tols)


@dataclass
class _Enumeration:
    """What the branches of one enumeration share."""

    struct: PolygonWithChains
    tols: Tolerances
    scale: float
    reach: list[ReachInterval]        # per chain
    aligned_ws: list[list[float]]     # per chain: end-to-end lengths of its alignments
    # the roots of every cell length vector of every branch, solved ahead
    roots: CyclicRootPass
    # cell lengths -> (cyclic solutions, their indices, each filled when first needed)
    cyclic: dict[tuple[float, ...], tuple[CyclicSolutions, list[int | None]]]
    counts: dict[str, int]


def enumerate_critical_structure(struct: PolygonWithChains, tols: Tolerances = DEFAULT_TOLS,
                                 keys: list[str] | None = None) -> list[CriticalRecord]:
    """The critical records, sorted by index, key and area.  A list passed
    as ``keys`` receives the records' keys in that order."""
    g = struct.graph
    scale = g.total_length()
    report = wall_check(g, tols=tols)
    if not report.clean:
        raise NonGenericError(
            f"lengths sit on or near a wall (margin {report.min_margin!r})")

    nchains = len(struct.chains)
    rigid = [k for k, ch in enumerate(struct.chains) if ch.r == 1]
    flexible = [k for k in range(nchains) if k not in rigid]

    patterns_by_chain: dict[int, list] = {}
    for k, ch in enumerate(struct.chains):
        patterns_by_chain[k] = alignment_patterns(ch.lengths, tol=tols.wall * scale)

    # every branch's cells and their length vectors, whose roots are solved
    # together before any branch is assembled
    glens = struct.gamma_lengths()
    branches = []
    for d_mask in range(2 ** len(flexible)):
        aligned_list = sorted(set(rigid) | {flexible[i] for i in range(len(flexible))
                                            if (d_mask >> i) & 1})
        cells = elementary_cycles(struct.gamma, [
            (struct.gamma.vertices[struct.chains[k].i_pos],
             struct.gamma.vertices[struct.chains[k].t_pos]) for k in aligned_list])
        for combo in itertools.product(*(patterns_by_chain[k] for k in aligned_list)):
            diag_w = [w for (_, w, _) in combo]
            branches.append((aligned_list, combo, cells,
                             [cell_lengths(cell, glens, diag_w) for cell in cells]))
    en = _Enumeration(
        struct=struct, tols=tols, scale=scale,
        reach=[chain_reach(ch.lengths) for ch in struct.chains],
        aligned_ws=[[w for _, w, _ in alignment_patterns(ch.lengths)]
                    for ch in struct.chains],
        roots=solve_cyclic([lens for *_, cell_lens in branches for lens in cell_lens
                            if len(lens) >= 3], tols),
        cyclic={}, counts=dict.fromkeys(
            ("branches", "empty_branches", "two_edge_cell", "no_cyclic_root",
             "cyclic_lookups", "cyclic_solved", "picks", "glue_mismatch",
             "outside_reach", "records"), 0))
    records: list[CriticalRecord] = []
    for branch in branches:
        table = _records_for_branch(en, *branch)
        if table is None:
            en.counts["empty_branches"] += 1
        else:
            records.extend(table.records())
    en.roots.log(reached=len(en.cyclic))
    sort_keys = [(r.index.index, r.key(), r.area) for r in records]
    order = sorted(range(len(records)), key=sort_keys.__getitem__)
    records = [records[i] for i in order]
    if keys is not None:
        keys.extend(sort_keys[i][1] for i in order)
    counts = en.counts
    counts["cyclic_solved"], counts["records"] = len(en.cyclic), len(records)
    logger.debug(
        "enumerate: %(branches)d branches, %(empty_branches)d empty, "
        "%(two_edge_cell)d with a two-edge cell, %(no_cyclic_root)d with a cell "
        "without cyclic root, %(cyclic_lookups)d cyclic lookups on "
        "%(cyclic_solved)d length vectors, %(picks)d picks, %(glue_mismatch)d glue "
        "mismatches, %(outside_reach)d free chains outside reach, %(records)d records",
        counts)
    return records


def _records_for_branch(en: _Enumeration, aligned_list, combo, cells,
                        cell_lens) -> RecordTable | None:
    """The table of the records of one choice of aligned chains and
    patterns, whose cells ``cells`` have the length vectors ``cell_lens``,
    or None when there are none.

    A pick is one cyclic solution per cell, taken in ``itertools.product``
    order.  All of a branch's picks are glued, checked, indexed and placed
    together as arrays, and the kept ones are the table's rows.  When
    checks fail, the first failing pick raises the ``NonGenericError`` it
    would raise if the picks were assembled one at a time.
    """
    struct, tols, scale, counts = en.struct, en.tols, en.scale, en.counts
    counts["branches"] += 1

    cell_sols = []
    for lens in cell_lens:
        if len(lens) < 3:
            if abs(lens[0] - lens[1]) <= tols.wall * scale:
                raise NonGenericError("degenerate two-edge cell with equal lengths")
            counts["two_edge_cell"] += 1
            return None  # two-edge cell cannot be cyclic: branch infeasible
        counts["cyclic_lookups"] += 1
        key = tuple(lens)
        if key not in en.cyclic:
            # the vector's table, warnings and refusal come when it is first reached
            sols = cyclic_table(en.roots.roots[key])
            en.cyclic[key] = (sols, [None] * len(sols))
        if not en.cyclic[key][0]:
            counts["no_cyclic_root"] += 1
            return None
        cell_sols.append(en.cyclic[key])

    sides = [_cells_of_diagonal(cells, di) for di in range(len(aligned_list))]
    free = [k for k in range(len(struct.chains)) if k not in aligned_list]
    picks = np.array(list(itertools.product(*(range(len(sols)) for sols, _ in cell_sols))),
                     dtype=np.intp)
    counts["picks"] += len(picks)
    pts, centers, mismatch = _glue(struct, aligned_list, cells, sides,
                                   [sols for sols, _ in cell_sols], picks, scale)

    # the checks of every pick, in the order one pick runs them
    fate, d = _free_chain_fates(en, free, pts, mismatch)
    kept = fate == KEPT
    mu = _cell_indices(cell_sols, picks, kept, tols)
    nu = np.zeros((len(picks), len(aligned_list)), dtype=int)
    coincide = np.zeros(nu.shape, dtype=bool)
    for di, (k, (a, b), (_, _, f)) in enumerate(zip(aligned_list, sides, combo)):
        ch = struct.chains[k]
        nu[:, di], coincide[:, di] = _chain_terms(
            ch, f, pts[:, ch.t_pos] - pts[:, ch.i_pos], centers[a], centers[b], tols, scale)
    refused = (fate >= AT_REACH_BOUND) | (kept & ((mu < 0).any(axis=1) | coincide.any(axis=1)))
    if refused.any():
        row = int(np.argmax(refused))
        if fate[row] == AT_REACH_BOUND:  # at the first free chain near its reach bound
            dk = next(x for k, x in zip(free, d[row].tolist())
                      if en.reach[k].near_boundary(x, tols.reach_boundary * scale))
            raise NonGenericError(f"free-chain endpoint distance {dk!r} hits the reach boundary")
        if fate[row] == AT_ALIGNMENT:
            raise NonGenericError("configuration is simultaneously circular and aligned")
        for (sols, _), s in zip(cell_sols, picks[row].tolist()):
            cyclic_index(sols, s, tols)
        raise NonGenericError(COINCIDING_CENTERS)
    counts["glue_mismatch"] += int(np.count_nonzero(fate == GLUE_MISMATCH))
    counts["outside_reach"] += int(np.count_nonzero(fate == OUTSIDE_REACH))

    rows = np.flatnonzero(kept)
    if rows.size == 0:
        return None
    # one IndexReport per distinct tuple of cell indices and chain terms
    factors = _free_factors(struct, aligned_list)
    terms, report_of = np.unique(np.concatenate((mu, nu), axis=1)[rows], axis=0,
                                 return_inverse=True)
    reports = tuple(_index_report(aligned_list, t[:len(cells)], t[len(cells):], factors)
                    for t in terms.tolist())
    statuses: list[ChainStatus | None] = [None] * len(struct.chains)
    for k, (sigma, w, f) in zip(aligned_list, combo):
        statuses[k] = ChainStatus("aligned", w, tuple(sigma), f)
    pts = pts[rows]
    names, xy = _representatives(struct, aligned_list, combo, pts)
    return RecordTable(tuple(statuses), factors, reports, tuple(sols for sols, _ in cell_sols),
                       names, picks[rows], np.stack([c[rows] for c in centers], axis=1),
                       d[rows], report_of.reshape(-1), xy,
                       np.array([shoelace(p) for p in pts]))


def _free_chain_fates(en: _Enumeration, free, pts, mismatch):
    """Check the free chains of every pick whose cells glued (not in
    ``mismatch``), in chain order, from the glued cycle positions ``pts``
    (picks, n, 2).

    A chain left free must reach its ends generically: the first chain that
    does not decides the pick's fate (``AT_REACH_BOUND``, ``OUTSIDE_REACH``
    or ``AT_ALIGNMENT``, tested in that order).  Returns the fates and the
    end distances (picks, free chains).
    """
    guard = en.tols.reach_boundary * en.scale
    fate = np.where(mismatch, GLUE_MISMATCH, KEPT)
    d = np.empty((len(pts), len(free)))
    for j, k in enumerate(free):
        ch, reach = en.struct.chains[k], en.reach[k]
        d[:, j] = dj = np.hypot(*(pts[:, ch.t_pos] - pts[:, ch.i_pos]).T)
        aligned = (np.abs(dj[:, None] - en.aligned_ws[k]) <= guard).any(axis=1)
        now = np.select([reach.near_boundary(dj, guard), ~reach.contains_strictly(dj), aligned],
                        [AT_REACH_BOUND, OUTSIDE_REACH, AT_ALIGNMENT], KEPT)
        fate = np.where(fate == KEPT, now, fate)
    return fate, d


def _cell_indices(cell_sols, picks, kept, tols: Tolerances) -> np.ndarray:
    """The cyclic index of every cell of every kept pick (picks, cells); -1
    where the index is too close to call, and in the rows of other picks.
    Each solution is indexed once per enumeration, in the first branch that
    keeps a pick using it."""
    mu = np.full(picks.shape, -1)
    for c, (sols, mus) in enumerate(cell_sols):
        for s in sorted(set(picks[kept, c].tolist())):  # np.unique would import numpy.ma
            if mus[s] is None:
                try:
                    mus[s] = cyclic_index(sols, s, tols)
                except NonGenericError:
                    mus[s] = -1  # a kept pick uses it, so the enumeration raises
        mu[kept, c] = np.array([-1 if m is None else m for m in mus])[picks[kept, c]]
    return mu


def _glue(struct: PolygonWithChains, aligned_list, cells, sides, sols, picks,
          scale: float):
    """Glue the picks ``picks`` (rows of one solution index per cell) along
    the shared diagonals; ``sols`` holds each cell's table of cyclic
    solutions and ``sides`` the two cells of each diagonal.

    Cell 0 keeps its own frame; the others follow breadth-first, each moved
    rigidly so that its copy of the diagonal to the cell it is reached from
    lands on that cell's.  Returns the cycle positions (picks, n, 2), per
    cell the glued circumcenters (picks, 2), and a mask of the picks whose
    cells disagree on a shared vertex.
    """
    pts = np.empty((len(picks), len(struct.gamma), 2))
    centers = [None] * len(cells)
    mismatch = np.zeros(len(picks), dtype=bool)
    via = {0: None}  # cell -> the chain whose diagonal it is glued along
    order, done = [0], set()  # cells in visiting order; cycle positions placed
    for c in order:  # visits the cells as they are appended
        s, pos = picks[:, c], cells[c].positions
        q = sols[c].vertices[s]
        if via[c] is None:
            R, t = np.tile(np.eye(2), (len(picks), 1, 1)), np.zeros((len(picks), 2))
        else:
            ch = struct.chains[via[c]]
            R, t = transform_mapping_segment(q[:, pos.index(ch.i_pos)], q[:, pos.index(ch.t_pos)],
                                             pts[:, ch.i_pos], pts[:, ch.t_pos])
        verts = q @ R.transpose(0, 2, 1) + t[:, None]
        centers[c] = t  # the table's solutions are centred at the origin
        seen = np.array([p in done for p in pos])
        ps = np.array(pos, dtype=np.intp)
        off = np.abs(pts[:, ps[seen]] - verts[:, seen]).max(axis=2) > GLUE_TOL * scale
        mismatch |= off.any(axis=1)
        pts[:, ps[~seen]] = verts[:, ~seen]
        done.update(pos)
        for e in cells[c].edges:
            if e.kind != "diag":
                continue
            for cj in sides[e.index]:
                if cj not in via:
                    via[cj] = aligned_list[e.index]
                    order.append(cj)
    if len(order) < len(cells):
        raise AssertionError("cells are not connected by their diagonals")
    return pts, centers, mismatch


def _free_factors(struct: PolygonWithChains, aligned_list) -> tuple[ManifoldFactor, ...]:
    """Critical-manifold factor of every free chain."""
    return tuple(ManifoldFactor(k, ch.r, ch.r - 2, _factor_chi(ch.r))
                 for k, ch in enumerate(struct.chains) if k not in aligned_list)


def _chain_terms(ch: AttachedChain, f: int, w_vec, center_a, center_b,
                 tols: Tolerances, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Index terms of an aligned chain with forward count ``f`` at rows of
    endpoint vectors and of the circumcenters of the cells on either side of
    its diagonal (b traverses it forward), and a mask of the rows where the
    two centers coincide and the term is undefined."""
    nu, coincide = aligned_nus(ch.r, f, w_vec, center_a, center_b, tols.reach_boundary * scale)
    return nu, coincide & (ch.r > 1)  # a single rigid edge has f-1 = r-f = 0 anyway


def _index_report(aligned_list, cell_mu, chain_nus, factors) -> IndexReport:
    """IndexReport from one cyclic-polygon index per cell, one term per
    aligned chain and the free chains' factors."""
    breakdown = [(f"cell{ci}", mu) for ci, mu in enumerate(cell_mu)]
    breakdown += [(f"chain{k}", nu) for k, nu in zip(aligned_list, chain_nus)]
    return IndexReport(ptt_index(cell_mu, chain_nus), sum(f.dim for f in factors),
                       tuple(breakdown))


def _cells_of_diagonal(cells, di):
    """(cell_a, cell_b) indices: b traverses the diagonal forward (I -> T)."""
    cell_a = cell_b = None
    for ci, cell in enumerate(cells):
        for e in cell.edges:
            if e.kind == "diag" and e.index == di:
                if e.forward:
                    cell_b = ci
                else:
                    cell_a = ci
    if cell_a is None or cell_b is None:
        raise AssertionError("diagonal does not bound exactly two cells")
    return cell_a, cell_b


def _representatives(struct: PolygonWithChains, aligned_list, combo,
                     pts) -> tuple[tuple[str, ...], np.ndarray]:
    """The sorted vertex names and the representatives (picks, V, 2) in their
    order of a branch's kept picks, from their cycle positions ``pts``
    (picks, n, 2).

    Aligned chains lie along their diagonals; free chains are placed in
    closed form by ``place_chain``.  Joints are laid out for all picks at
    once, with the arithmetic of one pick at a time.
    """
    names = list(struct.gamma.vertices)
    blocks = [pts]  # (picks, vertices, 2) coordinates of the vertices in names
    for k, ch in enumerate(struct.chains):
        pi, pt = pts[:, ch.i_pos], pts[:, ch.t_pos]
        if k not in aligned_list:
            blocks.append(place_chain(ch.lengths, pi, pt))
        elif ch.joints:
            sigma, w, _ = combo[aligned_list.index(k)]
            what = (pt - pi) / w
            s, joints = 0.0, []
            for j in range(len(ch.joints)):
                s += sigma[j] * ch.lengths[j]
                joints.append(pi + s * what)
            blocks.append(np.stack(joints, axis=1))
        names.extend(ch.joints)
    order = sorted(range(len(names)), key=names.__getitem__)
    xy = np.take(np.concatenate(blocks, axis=1), order, axis=1)
    return tuple(names[k] for k in order), xy


# ---------------------------------------------------------------------------
# classification of an explicit configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Classification:
    critical: bool
    chain_status: tuple[ChainStatus, ...]
    cells: tuple[Cell, ...]
    # each cell's one-row table of cyclic solutions; None where not concyclic
    cell_verdicts: tuple[CyclicSolutions | None, ...]
    record: CriticalRecord | None


def classify_configuration(g: LinkageGraph, gamma: DistinguishedCycle,
                           c: Configuration,
                           tols: Tolerances = DEFAULT_TOLS) -> Classification:
    """Alignment/concyclicity verdict for a realized configuration.

    Critical iff, after replacing aligned chains by straight segments, every
    elementary cell of the cycle is concyclic.
    """
    struct = detect_polygon_with_chains(g, gamma)
    if struct is None:
        raise NotPTTError("linkage is not a polygon with non-crossing attached chains")
    return classify_structure(struct, c, tols)


def classify_structure(struct: PolygonWithChains, c: Configuration,
                       tols: Tolerances = DEFAULT_TOLS) -> Classification:
    g = struct.graph
    scale = g.total_length()
    statuses: list[ChainStatus] = []
    aligned_list: list[int] = []
    for k, ch in enumerate(struct.chains):
        vi = struct.gamma.vertices[ch.i_pos]
        vt = struct.gamma.vertices[ch.t_pos]
        path = [vi, *ch.joints, vt]
        pts = c.points(path)
        extent = max(float(np.max(np.ptp(pts, axis=0))), EXTENT_FLOOR)
        w_vec = pts[-1] - pts[0]
        w = float(np.hypot(*w_vec))
        if ch.r == 1 or aligned_residual(pts) <= tols.collinearity * extent:
            what = w_vec / w
            sigma = []
            for j in range(ch.r):
                step = pts[j + 1] - pts[j]
                sigma.append(1 if float(step @ what) > 0 else -1)
            f = sum(1 for s in sigma if s > 0)
            statuses.append(ChainStatus("aligned", w, tuple(sigma), f))
            aligned_list.append(k)
        else:
            statuses.append(ChainStatus("free", w))

    diag_pairs = [(struct.gamma.vertices[struct.chains[k].i_pos],
                   struct.gamma.vertices[struct.chains[k].t_pos])
                  for k in aligned_list]
    cells = elementary_cycles(struct.gamma, diag_pairs)
    verdicts = []
    all_cyclic = True
    for cell in cells:
        pts = np.array([c.point(struct.gamma.vertices[p]) for p in cell.positions])
        try:
            verdicts.append(cyclic_data_from_points(pts, tols))
        except NotConcyclicError:
            verdicts.append(None)
            all_cyclic = False

    record = None
    if all_cyclic:
        record = _record_from_classification(struct, c, statuses, aligned_list,
                                             cells, verdicts, tols)
    return Classification(all_cyclic, tuple(statuses), tuple(cells),
                          tuple(verdicts), record)


def _record_from_classification(struct, c, statuses, aligned_list, cells,
                                verdicts, tols: Tolerances):
    pos_xy = {p: c.point(v) for p, v in enumerate(struct.gamma.vertices)}
    cell_mu = [cyclic_index(sols, 0, tols) for sols in verdicts]
    chain_nus = []
    for di, k in enumerate(aligned_list):
        ch = struct.chains[k]
        a, b = _cells_of_diagonal(cells, di)
        (nu,), (coincide,) = _chain_terms(
            ch, statuses[k].f, [pos_xy[ch.t_pos] - pos_xy[ch.i_pos]], [verdicts[a].center],
            [verdicts[b].center], tols, struct.graph.total_length())
        if coincide:
            raise NonGenericError(COINCIDING_CENTERS)
        chain_nus.append(int(nu))
    factors = _free_factors(struct, aligned_list)
    report = _index_report(aligned_list, cell_mu, chain_nus, factors)
    area = shoelace(np.array(list(pos_xy.values())))
    return CriticalRecord(chain_status=tuple(statuses),
                          cells=tuple((sols, 0, sols.center) for sols in verdicts),
                          representative=c, index=report, factors=factors, area=float(area))


# ---------------------------------------------------------------------------
# matching oracle configurations against records
# ---------------------------------------------------------------------------

def determined_vertices(struct: PolygonWithChains,
                        statuses: tuple[ChainStatus, ...]) -> list[str]:
    """Cycle vertices plus the joints of aligned chains (free joints move)."""
    vs = list(struct.gamma.vertices)
    for k, ch in enumerate(struct.chains):
        if statuses[k].kind == "aligned":
            vs.extend(ch.joints)
    return vs


def match_record(struct: PolygonWithChains, records: list[CriticalRecord],
                 c: Configuration, tols: Tolerances = DEFAULT_TOLS):
    """Record whose determined vertex set matches c up to a rigid motion."""
    scale = struct.graph.total_length()
    thr = tols.match * scale
    cls = classify_structure(struct, c, tols)
    if not cls.critical:
        return None
    for rec in records:
        if len(rec.chain_status) != len(cls.chain_status):
            continue
        if any(a.kind != b.kind for a, b in zip(rec.chain_status, cls.chain_status)):
            continue
        vs = determined_vertices(struct, rec.chain_status)
        src = rec.representative.points(vs)
        dst = c.points(vs)
        if aligned_distance(src, dst) <= thr:
            return rec
    return None


# ---------------------------------------------------------------------------
# Euler bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EulerReport:
    value: int | None
    known: bool
    unknown_keys: tuple[str, ...]


def euler_sum(records: list[CriticalRecord]) -> EulerReport:
    """Sum of (-1)^index * chi(component) over a complete record list.

    Factors with unknown Euler characteristic make the result unknown
    (reported, not fatal).
    """
    total = 0
    unknown = []
    for rec in records:
        chi = rec.chi
        if chi is None:
            unknown.append(rec.key())
            continue
        total += (-1) ** rec.index.index * chi
    if unknown:
        return EulerReport(None, False, tuple(unknown))
    return EulerReport(total, True, ())
