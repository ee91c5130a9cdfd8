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

import hashlib
import itertools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    CoincidingCentersError,
    NonGenericError,
    NotConcyclicError,
    NotPTTError,
)
from .geometry import (
    Configuration,
    CyclicPolygon,
    ReachInterval,
    aligned_distance,
    aligned_residual,
    alignment_patterns,
    chain_reach,
    cyclic_data_from_points,
    enumerate_cyclic,
    gauss_newton,
    shoelace,
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
    IndexReport,
    OpenChainCritical,
    aligned_nu,
    cyclic_index,
    ptt_index,
)

logger = logging.getLogger(__name__)

# a glued cell's shared vertex counts as mismatched beyond GLUE_TOL * scale
GLUE_TOL = 1e-6
# _place_free_chain: seeded starts per chain, Gauss-Newton tolerance (times
# scale) and step budget per start
FREE_CHAIN_TRIES = 25
FREE_CHAIN_TOL = 1e-12
FREE_CHAIN_MAX_ITER = 120
# classify_structure floors a chain's extent at EXTENT_FLOOR, so a chain with
# all joints on one point keeps a positive collinearity threshold
EXTENT_FLOOR = 1e-30


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PlacedCell:
    poly: CyclicPolygon
    center: tuple[float, float]   # circumcenter in the glued frame


@dataclass(frozen=True)
class ManifoldFactor:
    chain: int
    edges: int
    dim: int
    chi: int | None  # Euler characteristic of the factor when known

    def to_json_dict(self) -> dict:
        return {"chain": self.chain, "edges": self.edges, "dim": self.dim,
                "chi": self.chi}


@dataclass(frozen=True)
class CriticalRecord:
    chain_status: tuple[ChainStatus, ...]
    cells: tuple[PlacedCell, ...]
    representative: Configuration
    index: IndexReport
    factors: tuple[ManifoldFactor, ...]
    area: float

    def key(self) -> str:
        chains = "|".join(s.key() for s in self.chain_status)
        cells = ";".join(pc.poly.signature for pc in self.cells)
        return f"{chains}#{cells}"

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

    def to_json_dict(self) -> dict:
        return {
            "key": self.key(),
            "index": self.index.to_json_dict(),
            "manifold_dim": self.manifold_dim,
            "area": self.area,
            "chains": [s.to_json_dict() for s in self.chain_status],
            "cells": [pc.poly.to_json_dict() | {"center_glued": list(pc.center)}
                      for pc in self.cells],
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
    glens: list[float]
    reach: list[ReachInterval]        # per chain
    aligned_ws: list[list[float]]     # per chain: end-to-end lengths of its alignments
    # cell lengths -> (cyclic solutions, their indices, each filled when first needed)
    cyclic: dict[tuple[float, ...], tuple[list[CyclicPolygon], list[int | None]]]
    counts: dict[str, int]


def enumerate_critical_structure(struct: PolygonWithChains,
                                 tols: Tolerances = DEFAULT_TOLS) -> list[CriticalRecord]:
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

    en = _Enumeration(
        struct=struct, tols=tols, scale=scale, glens=struct.gamma_lengths(),
        reach=[chain_reach(ch.lengths) for ch in struct.chains],
        aligned_ws=[[w for _, w, _ in alignment_patterns(ch.lengths)]
                    for ch in struct.chains],
        cyclic={}, counts=dict.fromkeys(
            ("branches", "empty_branches", "two_edge_cell", "no_cyclic_root",
             "cyclic_lookups", "cyclic_solved", "picks", "glue_mismatch",
             "outside_reach", "no_representative", "records"), 0))
    records: list[CriticalRecord] = []
    for d_mask in range(2 ** len(flexible)):
        aligned_set = set(rigid) | {flexible[i] for i in range(len(flexible))
                                    if (d_mask >> i) & 1}
        aligned_list = sorted(aligned_set)
        pattern_choices = [patterns_by_chain[k] for k in aligned_list]
        for combo in itertools.product(*pattern_choices):
            branch = _records_for_branch(en, aligned_list, combo)
            if not branch:
                en.counts["empty_branches"] += 1
            records.extend(branch)
    records.sort(key=lambda r: (r.index.index, r.key(), r.area))
    counts = en.counts
    counts["cyclic_solved"], counts["records"] = len(en.cyclic), len(records)
    logger.debug(
        "enumerate: %(branches)d branches, %(empty_branches)d empty, "
        "%(two_edge_cell)d with a two-edge cell, %(no_cyclic_root)d with a cell "
        "without cyclic root, %(cyclic_lookups)d cyclic lookups on "
        "%(cyclic_solved)d length vectors, %(picks)d picks, %(glue_mismatch)d glue "
        "mismatches, %(outside_reach)d free chains outside reach, "
        "%(no_representative)d without representative, %(records)d records", counts)
    return records


def _records_for_branch(en: _Enumeration, aligned_list, combo) -> list[CriticalRecord]:
    """Records of one choice of aligned chains and patterns.

    A pick is one cyclic solution per cell, taken in ``itertools.product``
    order; all of a branch's picks are glued together as arrays.  Then each
    pick runs the checks that can raise ``NonGenericError``, in pick order,
    so the first non-generic pick raises as if the picks were assembled one
    at a time.  The representatives, which cannot raise, are placed last,
    for all surviving picks at once.
    """
    struct, tols, scale, counts = en.struct, en.tols, en.scale, en.counts
    counts["branches"] += 1
    diag_w = [w for (_, w, _) in combo]
    diag_pairs = [(struct.gamma.vertices[struct.chains[k].i_pos],
                   struct.gamma.vertices[struct.chains[k].t_pos])
                  for k in aligned_list]
    cells = elementary_cycles(struct.gamma, diag_pairs)

    cell_sols = []
    for cell in cells:
        lens = cell_lengths(cell, en.glens, diag_w)
        if len(lens) < 3:
            if abs(lens[0] - lens[1]) <= tols.wall * scale:
                raise NonGenericError("degenerate two-edge cell with equal lengths")
            counts["two_edge_cell"] += 1
            return []  # two-edge cell cannot be cyclic: branch infeasible
        counts["cyclic_lookups"] += 1
        key = tuple(lens)
        if key not in en.cyclic:
            sols = enumerate_cyclic(lens, tols)
            en.cyclic[key] = (sols, [None] * len(sols))
        if not en.cyclic[key][0]:
            counts["no_cyclic_root"] += 1
            return []
        cell_sols.append(en.cyclic[key])

    sides = [_cells_of_diagonal(cells, di) for di in range(len(aligned_list))]
    glue = _Gluing(struct, aligned_list, cells, sides,
                   [sols for sols, _ in cell_sols], scale)
    free = [k for k in range(len(struct.chains)) if k not in aligned_list]
    factors = _free_factors(struct, aligned_list)
    base: list[ChainStatus | None] = [None] * len(struct.chains)
    for k, (sigma, w, f) in zip(aligned_list, combo):
        base[k] = ChainStatus("aligned", w, tuple(sigma), f)

    picks = list(itertools.product(*(range(len(sols)) for sols, _ in cell_sols)))
    counts["picks"] += len(picks)
    pick_rows = np.array(picks, dtype=np.intp)
    pts, placed, mismatch = glue(pick_rows)

    kept = []  # (row, placed cells, statuses, index report)
    for row, pick in enumerate(picks):
        if mismatch[row]:
            counts["glue_mismatch"] += 1
            continue
        statuses = _free_statuses(en, base, free, pts[row])
        if statuses is None:
            counts["outside_reach"] += 1
            continue
        cell_mu = []
        for (sols, mus), s in zip(cell_sols, pick):
            if mus[s] is None:
                mus[s] = cyclic_index(sols[s], tols)
            cell_mu.append(mus[s])
        cells_here = tuple(pcs[which[row]] for pcs, which in placed)
        chain_nus = []
        for k, (a, b) in zip(aligned_list, sides):
            ch = struct.chains[k]
            chain_nus.append(_chain_term(
                ch, statuses[k].f, pts[row, ch.t_pos] - pts[row, ch.i_pos],
                cells_here[a].center, cells_here[b].center, tols, scale))
        report = _index_report(aligned_list, cell_mu, chain_nus, factors)
        kept.append((row, cells_here, statuses, report))

    if not kept:
        return []
    pts = pts[[k[0] for k in kept]]
    reps = _representatives(struct, aligned_list, combo, pts, scale)
    out = []
    for (_, cells_here, statuses, report), p, rep in zip(kept, pts, reps):
        if rep is None:
            counts["no_representative"] += 1
            continue
        out.append(CriticalRecord(tuple(statuses), cells_here, rep, report, factors,
                                  shoelace(p)))
    return out


def _free_statuses(en: _Enumeration, base, free, pts) -> list[ChainStatus] | None:
    """``base`` with the status of every free chain filled in from the glued
    cycle positions ``pts``, or None when a free chain cannot reach its ends.
    A chain left free must reach them generically."""
    guard = en.tols.reach_boundary * en.scale
    statuses = list(base)
    for k in free:
        ch = en.struct.chains[k]
        d = float(np.hypot(*(pts[ch.t_pos] - pts[ch.i_pos])))
        reach = en.reach[k]
        if reach.near_boundary(d, guard):
            raise NonGenericError(
                f"free-chain endpoint distance {d!r} hits the reach boundary")
        if not reach.contains_strictly(d):
            return None
        for w_al in en.aligned_ws[k]:
            if abs(d - w_al) <= guard:
                raise NonGenericError(
                    "configuration is simultaneously circular and aligned")
        statuses[k] = ChainStatus("free", d)
    return statuses


class _Gluing:
    """Glues one solution per cell along the shared diagonals, for all of a
    branch's picks at once.

    Cell 0 keeps its own frame; the others follow breadth-first, each moved
    rigidly so that its copy of the diagonal to the cell it is reached from
    lands on that cell's.  A placement depends only on the cell's solution
    and on those of the cells that placed its shared vertices first, so each
    distinct such choice is placed once.  ``sides`` holds the two cells of
    each diagonal.
    """

    def __init__(self, struct: PolygonWithChains, aligned_list, cells, sides, sols,
                 scale: float):
        self.sols, self.tol, self.n = sols, GLUE_TOL * scale, len(struct.gamma)
        self.verts = [np.array([poly.vertices for poly in s], dtype=float) for s in sols]
        self.centers = [np.array([poly.center for poly in s], dtype=float) for s in sols]
        # per cell: the diagonal it is glued along, as (position, vertex index)
        # of its initial and terminal end; None for cell 0
        self.via: dict[int, tuple | None] = {0: None}
        self.order = [0]
        for ci in self.order:  # visits the cells as they are appended
            for e in cells[ci].edges:
                if e.kind != "diag":
                    continue
                for cj in sides[e.index]:
                    if cj in self.via:
                        continue
                    ch = struct.chains[aligned_list[e.index]]
                    pos = cells[cj].positions
                    self.via[cj] = ((ch.i_pos, pos.index(ch.i_pos)),
                                    (ch.t_pos, pos.index(ch.t_pos)))
                    self.order.append(cj)
        if len(self.order) < len(cells):
            raise AssertionError("cells are not connected by their diagonals")

        first: dict[int, int] = {}  # cycle position -> cell that places it
        self.fresh = {}    # cell -> (positions it places, their vertex indices)
        self.shared = {}   # cell -> the same for the positions placed before it
        self.deps = {}     # cell -> cells whose solutions fix its placement
        for c in self.order:
            fresh, shared, deps = ([], []), ([], []), {c}
            for j, p in enumerate(cells[c].positions):
                if p in first:
                    deps.update(self.deps[first[p]])
                    into = shared
                else:
                    first[p] = c
                    into = fresh
                into[0].append(p)
                into[1].append(j)
            self.fresh[c] = tuple(np.array(x, dtype=np.intp) for x in fresh)
            self.shared[c] = tuple(np.array(x, dtype=np.intp) for x in shared)
            self.deps[c] = sorted(deps)

    def __call__(self, picks: np.ndarray):
        """Glue the picks ``picks`` (rows of one solution index per cell).

        Returns the cycle positions (picks, n, 2), per cell the distinct
        PlacedCells and, per pick, which of them it uses, and a mask of the
        picks whose cells disagree on a shared vertex.
        """
        pts = np.empty((len(picks), self.n, 2))
        placed = [None] * len(self.order)
        mismatch = np.zeros(len(picks), dtype=bool)
        for c in self.order:
            # the picks grouped by their solutions of the cells c depends on:
            # the first pick of each group and the group of each pick
            deps = self.deps[c]
            key = np.ravel_multi_index(picks[:, deps].T, [len(self.sols[d]) for d in deps])
            _, rows, which = np.unique(key, return_index=True, return_inverse=True)
            s = picks[rows, c]
            q = self.verts[c][s]
            if self.via[c] is None:
                R, t = np.tile(np.eye(2), (len(rows), 1, 1)), np.zeros((len(rows), 2))
            else:
                (pa, ja), (pb, jb) = self.via[c]
                R, t = transform_mapping_segment(q[:, ja], q[:, jb],
                                                 pts[rows, pa], pts[rows, pb])
            verts = q @ R.transpose(0, 2, 1) + t[:, None]
            center = (R @ self.centers[c][s][..., None])[..., 0] + t
            ps, js = self.shared[c]
            off = np.abs(pts[rows][:, ps] - verts[:, js]).max(axis=2) > self.tol
            mismatch |= off.any(axis=1)[which]
            ps, js = self.fresh[c]
            pts[:, ps] = verts[which][:, js]
            placed[c] = ([PlacedCell(self.sols[c][si], tuple(xy))
                          for si, xy in zip(s.tolist(), center.tolist())], which.tolist())
        return pts, placed, mismatch


def _free_factors(struct: PolygonWithChains, aligned_list) -> tuple[ManifoldFactor, ...]:
    """Critical-manifold factor of every free chain."""
    return tuple(ManifoldFactor(k, ch.r, ch.r - 2, _factor_chi(ch.r))
                 for k, ch in enumerate(struct.chains) if k not in aligned_list)


def _chain_term(ch: AttachedChain, f: int, w_vec, center_a, center_b,
                tols: Tolerances, scale: float) -> int:
    """Index term of an aligned chain from its forward count ``f``, its
    endpoint vector and the circumcenters of the cells on either side of its
    diagonal (b traverses it forward)."""
    if ch.r == 1:
        return 0  # single rigid edge: f-1 = r-f = 0
    crit = OpenChainCritical(ch.r, f, (float(w_vec[0]), float(w_vec[1])))
    try:
        return aligned_nu(crit, center_a, center_b, tol=tols.reach_boundary * scale)
    except CoincidingCentersError as exc:
        raise NonGenericError(str(exc)) from exc


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


def _representatives(struct: PolygonWithChains, aligned_list, combo, pts,
                     scale: float) -> list[Configuration | None]:
    """Representatives of a branch's glued picks from their cycle positions
    ``pts`` (picks, n, 2), or None where a free chain could not be placed.

    Aligned chains lie along their diagonals; each free chain is placed for
    all picks as one stack.  Joints are laid out for all picks at once, with
    the arithmetic of one pick at a time.
    """
    names = list(struct.gamma.vertices)
    blocks = [pts]  # (picks, vertices, 2) coordinates of the vertices in names
    ok = np.ones(len(pts), dtype=bool)
    for k, ch in enumerate(struct.chains):
        pi, pt = pts[:, ch.i_pos], pts[:, ch.t_pos]
        joints = []
        if k in aligned_list:
            sigma, w, _ = combo[aligned_list.index(k)]
            what = (pt - pi) / w
            s = 0.0
            for j in range(len(ch.joints)):
                s += sigma[j] * ch.lengths[j]
                joints.append(pi + s * what)
        else:
            rows = np.flatnonzero(ok)
            phis = np.zeros((len(pts), ch.r))
            phis[rows], placed = _place_free_chain(ch, (pt - pi)[rows], scale)
            ok[rows[~placed]] = False
            q = pi
            for j in range(len(ch.joints)):
                step = [[math.cos(phi), math.sin(phi)] for phi in phis[:, j]]
                q = q + ch.lengths[j] * np.array(step)
                joints.append(q)
        if joints:
            names.extend(ch.joints)
            blocks.append(np.stack(joints, axis=1))
    coords = np.concatenate(blocks, axis=1).tolist()
    return [Configuration(dict(zip(names, map(tuple, c)))) if good else None
            for c, good in zip(coords, ok)]


def _place_free_chain(ch: AttachedChain, targets: np.ndarray, scale: float):
    """Deterministic seeded interior configurations of a chain with pinned
    ends, one per end-to-end vector in ``targets`` (rows, 2).

    Returns the joint angles (rows, r) and a mask of the rows placed.  Every
    row tries the same FREE_CHAIN_TRIES seeded starts in the same order, the
    k-th try of all rows not yet placed running as one stack, so each row
    gets what a stack of one would.
    """
    lens = np.asarray(ch.lengths)
    key = hashlib.sha256(
        f"{tuple(ch.lengths)}|{ch.i_pos}|{ch.t_pos}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(key[:8], "little"))

    jac = np.array([[-1.0], [1.0]]) * lens

    def ends(phi):
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=-2)
        # the Jacobian rows are (-lens * sin, lens * cos)
        return cs @ lens, cs[..., ::-1, :] * jac

    phis = np.zeros((len(targets), len(lens)))
    placed = np.zeros(len(targets), dtype=bool)
    for _ in range(FREE_CHAIN_TRIES):
        rows = np.flatnonzero(~placed)
        if rows.size == 0:
            break
        phi = rng.uniform(-math.pi, math.pi, len(lens))
        x, converged = gauss_newton(ends, np.tile(phi, (rows.size, 1)),
                                    FREE_CHAIN_TOL * scale, FREE_CHAIN_MAX_ITER,
                                    targets[rows])
        phis[rows[converged]] = x[converged]
        placed[rows[converged]] = True
    return phis, placed


# ---------------------------------------------------------------------------
# classification of an explicit configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellVerdict:
    concyclic: bool
    poly: CyclicPolygon | None


@dataclass(frozen=True)
class Classification:
    critical: bool
    chain_status: tuple[ChainStatus, ...]
    cells: tuple[Cell, ...]
    cell_verdicts: tuple[CellVerdict, ...]
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
            poly = cyclic_data_from_points(pts, tols)
            verdicts.append(CellVerdict(True, poly))
        except NotConcyclicError:
            verdicts.append(CellVerdict(False, None))
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
    placed = [PlacedCell(v.poly, v.poly.center) for v in verdicts]
    cell_mu = [cyclic_index(v.poly, tols) for v in verdicts]
    chain_nus = []
    for di, k in enumerate(aligned_list):
        ch = struct.chains[k]
        a, b = _cells_of_diagonal(cells, di)
        chain_nus.append(_chain_term(ch, statuses[k].f, pos_xy[ch.t_pos] - pos_xy[ch.i_pos],
                                     placed[a].center, placed[b].center, tols,
                                     struct.graph.total_length()))
    factors = _free_factors(struct, aligned_list)
    report = _index_report(aligned_list, cell_mu, chain_nus, factors)
    area = shoelace(np.array(list(pos_xy.values())))
    return CriticalRecord(tuple(statuses), tuple(placed), c, report, factors,
                          float(area))


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
