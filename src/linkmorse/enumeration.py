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
    three_chain_arms,
)
from .indices import (
    IndexReport,
    OpenChainCritical,
    aligned_nu,
    cyclic_index,
    ptt_index,
)

logger = logging.getLogger(__name__)


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
    cell: Cell
    poly: CyclicPolygon
    center: tuple[float, float]   # circumcenter in the glued frame
    vertices: tuple[tuple[float, float], ...]  # glued coords, cell boundary order


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
    manifold_dim: int
    factors: tuple[ManifoldFactor, ...]
    area: float

    def key(self) -> str:
        chains = "|".join(s.key() for s in self.chain_status)
        cells = ";".join(
            "".join("+" if s > 0 else "-" for s in pc.poly.eps)
            + f"w{pc.poly.omega}r{pc.poly.radius:.9e}" for pc in self.cells)
        return f"{chains}#{cells}"

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
                           tols: Tolerances = DEFAULT_TOLS,
                           check_walls: bool = True) -> list[CriticalRecord]:
    """All critical records of a polygon-with-non-crossing-diagonals linkage."""
    struct = detect_polygon_with_chains(g, gamma)
    if struct is None:
        raise NotPTTError("linkage is not a polygon with non-crossing attached chains")
    return enumerate_critical_structure(struct, tols, check_walls=check_walls)


def enumerate_critical_three_chain(g: LinkageGraph, gamma: DistinguishedCycle,
                                   tols: Tolerances = DEFAULT_TOLS,
                                   check_walls: bool = True) -> list[CriticalRecord]:
    """Critical records of a three-chain linkage (cycle plus one chain)."""
    three_chain_arms(g, gamma)  # validates the shape
    return enumerate_critical_pnd(g, gamma, tols, check_walls=check_walls)


def enumerate_critical_structure(struct: PolygonWithChains,
                                 tols: Tolerances = DEFAULT_TOLS,
                                 check_walls: bool = True) -> list[CriticalRecord]:
    g = struct.graph
    scale = g.total_length()
    if check_walls:
        report = wall_check(g, tols=tols)
        if not report.clean:
            raise NonGenericError(
                f"lengths sit on or near a wall (margin {report.min_margin!r})")

    glens = struct.gamma_lengths()
    nchains = len(struct.chains)
    rigid = [k for k, ch in enumerate(struct.chains) if ch.r == 1]
    flexible = [k for k in range(nchains) if k not in rigid]

    patterns_by_chain: dict[int, list] = {}
    for k, ch in enumerate(struct.chains):
        patterns_by_chain[k] = alignment_patterns(ch.lengths, tol=tols.wall * scale)

    records: list[CriticalRecord] = []
    cyclic: dict[tuple[float, ...], list[CyclicPolygon]] = {}  # by cell lengths
    counts = dict.fromkeys(
        ("branches", "empty_branches", "two_edge_cell", "no_cyclic_root",
         "cyclic_lookups", "cyclic_solved", "picks", "glue_mismatch", "outside_reach",
         "no_representative", "records"), 0)
    for d_mask in range(2 ** len(flexible)):
        aligned_set = set(rigid) | {flexible[i] for i in range(len(flexible))
                                    if (d_mask >> i) & 1}
        aligned_list = sorted(aligned_set)
        pattern_choices = [patterns_by_chain[k] for k in aligned_list]
        for combo in itertools.product(*pattern_choices):
            branch = _records_for_branch(struct, glens, aligned_list, combo,
                                         tols, scale, cyclic, counts)
            if not branch:
                counts["empty_branches"] += 1
            records.extend(branch)
    records.sort(key=lambda r: (r.index.index, r.key(), r.area))
    counts["cyclic_solved"], counts["records"] = len(cyclic), len(records)
    logger.debug(
        "enumerate: %(branches)d branches, %(empty_branches)d empty, "
        "%(two_edge_cell)d with a two-edge cell, %(no_cyclic_root)d with a cell "
        "without cyclic root, %(cyclic_lookups)d cyclic lookups on "
        "%(cyclic_solved)d length vectors, %(picks)d picks, %(glue_mismatch)d glue "
        "mismatches, %(outside_reach)d free chains outside reach, "
        "%(no_representative)d without representative, %(records)d records", counts)
    return records


def _records_for_branch(struct: PolygonWithChains, glens, aligned_list, combo,
                        tols: Tolerances, scale: float, cyclic: dict,
                        counts: dict[str, int]) -> list[CriticalRecord]:
    """Records of one choice of aligned chains and patterns.

    ``cyclic`` holds the cyclic solutions of every cell length tuple solved
    so far in the enumeration; ``counts`` collects its statistics.
    """
    counts["branches"] += 1
    diag_w = [w for (_, w, _) in combo]
    diag_pairs = [(struct.gamma.vertices[struct.chains[k].i_pos],
                   struct.gamma.vertices[struct.chains[k].t_pos])
                  for k in aligned_list]
    cells = elementary_cycles(struct.gamma, diag_pairs)

    cell_sols = []
    for cell in cells:
        lens = cell_lengths(cell, glens, diag_w)
        if len(lens) < 3:
            if abs(lens[0] - lens[1]) <= tols.wall * scale:
                raise NonGenericError("degenerate two-edge cell with equal lengths")
            counts["two_edge_cell"] += 1
            return []  # two-edge cell cannot be cyclic: branch infeasible
        counts["cyclic_lookups"] += 1
        key = tuple(lens)
        if key not in cyclic:
            cyclic[key] = enumerate_cyclic(lens, tols)
        if not cyclic[key]:
            counts["no_cyclic_root"] += 1
            return []
        cell_sols.append(cyclic[key])

    out = []
    for pick in itertools.product(*cell_sols):
        counts["picks"] += 1
        rec = _assemble_record(struct, aligned_list, combo, cells, pick, tols, scale)
        if isinstance(rec, str):
            counts[rec] += 1
        else:
            out.append(rec)
    return out


def _glue_cells(struct: PolygonWithChains, aligned_list, cells, pick, scale):
    """Glue cell solutions along shared diagonals; positions per cycle position.

    Returns (gamma position -> coords, list of PlacedCell) or None when the
    cells disagree (should not happen for consistent diagonal lengths).
    """
    placed: dict[int, PlacedCell | None] = {ci: None for ci in range(len(cells))}
    pos_xy: dict[int, np.ndarray] = {}

    by_diag: dict[int, list[int]] = {}
    for ci, cell in enumerate(cells):
        for e in cell.edges:
            if e.kind == "diag":
                by_diag.setdefault(e.index, []).append(ci)

    def place(ci, R, t):
        cell, poly = cells[ci], pick[ci]
        verts = poly.vertex_array() @ R.T + t
        center = R @ np.asarray(poly.center) + t
        for j, p in enumerate(cell.positions):
            if p in pos_xy:
                if np.max(np.abs(pos_xy[p] - verts[j])) > 1e-6 * scale:
                    return False
            else:
                pos_xy[p] = verts[j]
        placed[ci] = PlacedCell(cell, poly, (float(center[0]), float(center[1])),
                                tuple(map(tuple, verts)))
        return True

    if not place(0, np.eye(2), np.zeros(2)):
        return None
    queue = [0]
    while queue:
        ci = queue.pop(0)
        for e in cells[ci].edges:
            if e.kind != "diag":
                continue
            for cj in by_diag[e.index]:
                if placed[cj] is not None:
                    continue
                k = aligned_list[e.index]
                pa = struct.chains[k].i_pos
                pb = struct.chains[k].t_pos
                cellj, polyj = cells[cj], pick[cj]
                j1 = cellj.positions.index(pa)
                j2 = cellj.positions.index(pb)
                q = polyj.vertex_array()
                R, t = transform_mapping_segment(q[j1], q[j2], pos_xy[pa], pos_xy[pb])
                if not place(cj, R, t):
                    return None
                queue.append(cj)
    if any(p is None for p in placed.values()):
        return None
    return pos_xy, [placed[ci] for ci in range(len(cells))]


def _assemble_record(struct: PolygonWithChains, aligned_list, combo, cells, pick,
                     tols: Tolerances, scale: float) -> CriticalRecord | str:
    """The record of one cell solution per cell, or why the pick is dropped:
    "glue_mismatch", "outside_reach" or "no_representative"."""
    glued = _glue_cells(struct, aligned_list, cells, pick, scale)
    if glued is None:
        return "glue_mismatch"
    pos_xy, placed_cells = glued

    # chain statuses; a chain left free must reach its ends generically
    statuses: list[ChainStatus] = []
    for k, ch in enumerate(struct.chains):
        if k in aligned_list:
            sigma, w, f = combo[aligned_list.index(k)]
            statuses.append(ChainStatus("aligned", w, tuple(sigma), f))
            continue
        d = float(np.hypot(*(pos_xy[ch.t_pos] - pos_xy[ch.i_pos])))
        reach = chain_reach(ch.lengths)
        guard = tols.reach_boundary * scale
        if reach.near_boundary(d, guard):
            raise NonGenericError(
                f"free-chain endpoint distance {d!r} hits the reach boundary")
        if not reach.contains_strictly(d):
            return "outside_reach"
        for _, w_al, _ in alignment_patterns(ch.lengths):
            if abs(d - w_al) <= guard:
                raise NonGenericError(
                    "configuration is simultaneously circular and aligned")
        statuses.append(ChainStatus("free", d))

    report, factors = _index_report(struct, statuses, aligned_list, cells,
                                    placed_cells, pos_xy, tols, scale)
    rep = _representative(struct, pos_xy, aligned_list, combo, scale)
    if rep is None:
        return "no_representative"
    area = shoelace(np.array([pos_xy[p] for p in range(len(struct.gamma))]))
    return CriticalRecord(tuple(statuses), tuple(placed_cells), rep, report,
                          report.manifold_dim, factors, float(area))


def _index_report(struct: PolygonWithChains, statuses, aligned_list, cells,
                  placed_cells, pos_xy, tols: Tolerances, scale: float):
    """IndexReport and free-chain factors of a critical configuration.

    One cyclic-polygon index per cell, then one term per aligned chain from
    its forward count and endpoint vector; pos_xy maps cycle positions to
    coordinates.
    """
    cell_mu = [cyclic_index(pc.poly, tols) for pc in placed_cells]
    breakdown = [(f"cell{ci}", mu) for ci, mu in enumerate(cell_mu)]
    chain_nus = []
    for di, k in enumerate(aligned_list):
        ch = struct.chains[k]
        if ch.r == 1:
            nu = 0  # single rigid edge: f-1 = r-f = 0
        else:
            cell_a, cell_b = _cells_of_diagonal(cells, di)
            w_vec = pos_xy[ch.t_pos] - pos_xy[ch.i_pos]
            crit = OpenChainCritical(ch.r, statuses[k].f, (float(w_vec[0]), float(w_vec[1])))
            try:
                nu = aligned_nu(crit, placed_cells[cell_a].center,
                                placed_cells[cell_b].center,
                                tol=tols.reach_boundary * scale)
            except CoincidingCentersError as exc:
                raise NonGenericError(str(exc)) from exc
        chain_nus.append(nu)
        breakdown.append((f"chain{k}", nu))
    free = [k for k in range(len(struct.chains)) if k not in aligned_list]
    dim = sum(struct.chains[k].r - 2 for k in free)
    factors = tuple(ManifoldFactor(k, struct.chains[k].r, struct.chains[k].r - 2,
                                   _factor_chi(struct.chains[k].r)) for k in free)
    return IndexReport(ptt_index(cell_mu, chain_nus), dim, tuple(breakdown)), factors


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


def _representative(struct: PolygonWithChains, pos_xy, aligned_list, combo,
                    scale) -> Configuration | None:
    coords: dict[str, tuple[float, float]] = {}
    for p, v in enumerate(struct.gamma.vertices):
        coords[v] = (float(pos_xy[p][0]), float(pos_xy[p][1]))
    for k, ch in enumerate(struct.chains):
        pi, pt = pos_xy[ch.i_pos], pos_xy[ch.t_pos]
        if k in aligned_list:
            sigma, w, _ = combo[aligned_list.index(k)]
            what = (pt - pi) / w
            s = 0.0
            for j, joint in enumerate(ch.joints):
                s += sigma[j] * ch.lengths[j]
                q = pi + s * what
                coords[joint] = (float(q[0]), float(q[1]))
        else:
            phis = _place_free_chain(ch, pi, pt, scale)
            if phis is None:
                return None
            q = pi.copy()
            for j, joint in enumerate(ch.joints):
                q = q + ch.lengths[j] * np.array([math.cos(phis[j]), math.sin(phis[j])])
                coords[joint] = (float(q[0]), float(q[1]))
    return Configuration(coords)


def _place_free_chain(ch: AttachedChain, pi: np.ndarray, pt: np.ndarray,
                      scale: float, tries: int = 25):
    """Deterministic seeded interior configuration of a chain with pinned ends."""
    target = pt - pi
    lens = np.asarray(ch.lengths)
    key = hashlib.sha256(
        f"{tuple(ch.lengths)}|{ch.i_pos}|{ch.t_pos}".encode()).digest()
    rng = np.random.default_rng(int.from_bytes(key[:8], "little"))

    jac = np.array([[-1.0], [1.0]]) * lens

    def residual(phi):
        cs = np.stack([np.cos(phi), np.sin(phi)], axis=-2)
        # the Jacobian rows are (-lens * sin, lens * cos)
        return cs @ lens - target, cs[..., ::-1, :] * jac

    for _ in range(tries):
        phi = rng.uniform(-math.pi, math.pi, len(lens))
        x, converged = gauss_newton(residual, phi[None], 1e-12 * scale, 120)
        if converged[0]:
            return x[0]
    return None


# ---------------------------------------------------------------------------
# classification of an explicit configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CellVerdict:
    concyclic: bool
    poly: CyclicPolygon | None
    residual: float


@dataclass(frozen=True)
class Classification:
    critical: bool
    chain_status: tuple[ChainStatus, ...]
    cells: tuple[Cell, ...]
    cell_verdicts: tuple[CellVerdict, ...]
    record: CriticalRecord | None

    def to_json_dict(self) -> dict:
        return {
            "critical": self.critical,
            "chains": [s.to_json_dict() for s in self.chain_status],
            "cells": [{"concyclic": v.concyclic, "residual": v.residual}
                      for v in self.cell_verdicts],
        }


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
        extent = max(float(np.max(np.ptp(pts, axis=0))), 1e-30)
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
            verdicts.append(CellVerdict(True, poly, 0.0))
        except NotConcyclicError as exc:
            verdicts.append(CellVerdict(False, None, float(exc.max_deviation or math.inf)))
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
    placed = []
    for cell, v in zip(cells, verdicts):
        pts = np.array([pos_xy[p] for p in cell.positions])
        placed.append(PlacedCell(cell, v.poly, v.poly.center, tuple(map(tuple, pts))))
    report, factors = _index_report(struct, statuses, aligned_list, cells, placed,
                                    pos_xy, tols, struct.graph.total_length())
    area = shoelace(np.array(list(pos_xy.values())))
    return CriticalRecord(tuple(statuses), tuple(placed), c, report,
                          report.manifold_dim, factors, float(area))


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

    def to_json_dict(self) -> dict:
        return {"value": self.value, "known": self.known,
                "unknown_records": list(self.unknown_keys)}


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
