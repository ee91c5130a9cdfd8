"""Plane configurations, oriented area, and the cyclic-polygon machinery.

A cyclic polygon with edge lengths l_i inscribed in a circle of radius R has
half-angles alpha_i = arcsin(l_i / 2R) in (0, pi/2] and edge signs eps_i = +1
when the center lies strictly left of the directed edge.  Closure reads

    F(R) = sum_i eps_i * arcsin(l_i / 2R) - pi * omega = 0

for an integer winding omega, and every labeled cyclic configuration with no
edge through the center appears for exactly one (eps, omega) pair.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import DegenerateCenterError, NonGenericError, NotConcyclicError
from .graphs import (
    LinkageGraph,
    SPEdge,
    SPSeries,
    SPTree,
    sp_decompose_blocks,
)

logger = logging.getLogger(__name__)

_EPS = float(np.finfo(float).eps)
# a cyclic solution's last edge closes within CLOSURE_TOL * total length
CLOSURE_TOL = 1e-9
# cyclic_data_from_points reads a winding within WINDING_ROUND_TOL of an integer
WINDING_ROUND_TOL = 1e-6
# an edge within DIAMETER_TOL * total length of the diameter is flagged
DIAMETER_TOL = 1e-12
# |sum(eps * lengths)| is floored at TAIL_WALL_GUARD * total length, so the
# winding-0 grid top stays finite for a sign vector on a wall
TAIL_WALL_GUARD = 1e-9
# bisection stops at a bracket of BISECT_REL_TOL * radius, near rounding, or
# after BISECT_MAX_ITER halvings
BISECT_REL_TOL = 1e-15
BISECT_MAX_ITER = 200
# closure values within FLAT_CLOSURE_TOL of pi * omega over the whole grid are
# a degenerate (identically closed) sign vector, not a root
FLAT_CLOSURE_TOL = 1e-12
# a closure value within FIRST_GRID_ROOT_TOL of pi * omega at the smallest
# radius is a root there, which no sign change would bracket
FIRST_GRID_ROOT_TOL = 1e-13
# roots of one winding within DUPLICATE_ROOT_TOL * radius are one root
DUPLICATE_ROOT_TOL = 1e-11
# a longest edge within a relative DEGENERATE_TOL of half the perimeter leaves
# only flat polygons, which are not cyclic solutions
DEGENERATE_TOL = 1e-12
# two solutions with vertices within COINCIDENT_TOL * total length coincide
COINCIDENT_TOL = 1e-7
# lstsq_stack solves a row through its Gram matrix G when |G|_F |G^-1|_F is at
# most GRAM_COND_CUT (so cond <= 1e3), and by SVD otherwise
GRAM_COND_CUT = 1e6


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False, init=False, slots=True)
class Configuration:
    """Plane coordinates for every vertex of a linkage: row k of the read-only
    float64 array ``xy`` (V, 2) places vertex ``names[k]``, and ``names`` is
    sorted.  Built from a mapping of vertex to point, or from rows."""

    names: tuple[str, ...]
    xy: np.ndarray

    def __init__(self, coords: Mapping[str, Sequence[float]]):
        names = tuple(sorted(coords))
        xy = np.array([coords[v] for v in names], dtype=float).reshape(len(names), 2)
        xy.flags.writeable = False
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "xy", xy)

    @classmethod
    def from_rows(cls, names: tuple[str, ...], xy: np.ndarray) -> "Configuration":
        """The configuration whose row k of the float64 array ``xy`` places
        ``names[k]``; ``names`` must be sorted.  ``xy`` is kept, not copied
        (as a read-only view when it is writeable)."""
        if xy.shape != (len(names), 2):
            raise ValueError(f"{len(names)} names and rows of shape {xy.shape}")
        if xy.flags.writeable:
            xy = xy.view()
            xy.flags.writeable = False
        c = cls.__new__(cls)
        object.__setattr__(c, "names", names)
        object.__setattr__(c, "xy", xy)
        return c

    def __eq__(self, other) -> bool:
        if not isinstance(other, Configuration):
            return NotImplemented
        return self.names == other.names and bool(np.array_equal(self.xy, other.xy))

    @property
    def coords(self) -> dict[str, tuple[float, float]]:
        """A fresh dict of vertex to (x, y)."""
        return dict(zip(self.names, map(tuple, self.xy.tolist())))

    def _row(self, v: str) -> int:
        try:
            return self.names.index(v)
        except ValueError:
            raise KeyError(v) from None

    def point(self, v: str) -> np.ndarray:
        return self.xy[self._row(v)].copy()

    def points(self, vs: Sequence[str]) -> np.ndarray:
        return self.xy[[self._row(v) for v in vs]]

    def validate(self, g: LinkageGraph, tols: Tolerances = DEFAULT_TOLS) -> None:
        for u, v, length in g.edges:
            d = float(np.hypot(*(self.point(u) - self.point(v))))
            if abs(d - length) > tols.rel_length * max(1.0, length):
                raise ValueError(
                    f"edge ({u},{v}) has length {d!r}, expected {length!r}")

    def to_json_dict(self) -> dict:
        return {"coords": dict(zip(self.names, self.xy.tolist()))}

    @staticmethod
    def from_json_dict(d: dict) -> "Configuration":
        return Configuration({str(v): (float(x), float(y))
                              for v, (x, y) in d["coords"].items()})


def shoelace(pts: np.ndarray) -> float:
    """Signed area of the polygon with vertices ``pts`` (n, 2) in order; it
    flips under orientation reversal."""
    x, y = pts[:, 0], pts[:, 1]
    # the next vertex's coordinates as contiguous copies, the layout np.roll
    # gives, so np.dot adds the same products in the same order
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.dot(x, yn) - np.dot(y, xn))


def aligned_residual(pts: np.ndarray) -> float:
    """Largest perpendicular distance to the least-squares line."""
    if len(pts) <= 2:
        return 0.0
    centered = pts - pts.mean(axis=0)
    # principal direction of the 2x2 scatter matrix
    _, svecs = np.linalg.eigh(centered.T @ centered)
    normal = svecs[:, 0]  # eigenvector of the smaller eigenvalue
    return float(np.max(np.abs(centered @ normal)))


# ---------------------------------------------------------------------------
# rigid motions
# ---------------------------------------------------------------------------

def rigid_align(src: np.ndarray, dst: np.ndarray):
    """Best rotation+translation (no reflection) mapping src onto dst.

    Returns (R, t) with R a 2x2 rotation so that src @ R.T + t ~ dst.
    """
    sc, dc = src.mean(axis=0), dst.mean(axis=0)
    a, b = src - sc, dst - dc
    num = float(np.sum(a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]))
    den = float(np.sum(a * b))
    phi = math.atan2(num, den)
    R = rotation(phi)
    t = dc - R @ sc
    return R, t


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def aligned_distance(src: np.ndarray, dst: np.ndarray) -> float:
    """Max pointwise distance after optimal orientation-preserving alignment."""
    R, t = rigid_align(src, dst)
    moved = src @ R.T + t
    return float(np.max(np.hypot(*(moved - dst).T)))


def transform_mapping_segment(p_from: np.ndarray, q_from: np.ndarray,
                              p_to: np.ndarray, q_to: np.ndarray):
    """Rotations R (rows, 2, 2) and translations t (rows, 2) taking each
    segment (p_from, q_from) to (p_to, q_to); all four are (rows, 2)."""
    a = (q_from - p_from).tolist()
    b = (q_to - p_to).tolist()
    R = np.array([rotation(math.atan2(by, bx) - math.atan2(ay, ax))
                  for (ax, ay), (bx, by) in zip(a, b)]).reshape(-1, 2, 2)
    t = p_to - (R @ p_from[..., None])[..., 0]
    return R, t


# ---------------------------------------------------------------------------
# Gauss-Newton projection
# ---------------------------------------------------------------------------

def lstsq_stack(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of A[i] x = b[i] over a stack.

    ``A`` is (..., m, n) and ``b`` (..., m); a 2-D ``A`` is one system.
    Each row is solved through the Gram matrix G of its shorter side, with
    one batched inverse for the stack: x = A^T G^-1 b with G = A A^T when
    m <= n, and x = G^-1 A^T b with G = A^T A otherwise.  A row takes the
    SVD formula of ``_lstsq_svd`` instead when its bound |G|_F |G^-1|_F,
    which is at least cond(G) = cond(A)^2, exceeds GRAM_COND_CUT, when G
    has no LU inverse, or when its solution is not finite.

    The SVD formula treats singular values at or below eps * max(m, n)
    times the largest as zero, which takes cond(A) above about 1e15.  A row
    that passes the Gram cut has cond(A) <= 1e3, so there the SVD would cut
    nothing and both formulas solve the same full-rank problem; rows near
    or at the rcond cut always take the SVD.  Each row's result depends on
    that row alone.
    """
    m, n = A.shape[-2:]
    lead = A.shape[:-2]
    # matmul on stacks is several times slower on transposed views
    A, b = np.ascontiguousarray(A.reshape(-1, m, n)), b.reshape(-1, m, 1)
    At = np.ascontiguousarray(np.swapaxes(A, 1, 2))
    G = A @ At if m <= n else At @ A
    try:
        Ginv = np.linalg.inv(G)
        ok = True
    except np.linalg.LinAlgError:
        # an exactly zero LU pivot in some row: those rows take the SVD
        det = np.linalg.det(G)
        ok = np.isfinite(det) & (det != 0.0)
        G[~ok] = np.eye(G.shape[1])
        Ginv = np.linalg.inv(G)
    x = (At @ (Ginv @ b) if m <= n else Ginv @ (At @ b))[:, :, 0]
    # a NaN bound (a non-finite G) fails the cut too
    ok &= (np.einsum("sij,sij->s", G, G) * np.einsum("sij,sij->s", Ginv, Ginv)
           <= GRAM_COND_CUT ** 2) & np.isfinite(x).all(axis=1)
    if not ok.all():
        x[~ok] = _lstsq_svd(A[~ok], b[~ok, :, 0])
    return x.reshape(lead + (n,))


def _lstsq_svd(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``lstsq_stack`` by SVD: singular values at or below eps * max(m, n)
    times the largest count as zero, the cut of
    ``np.linalg.lstsq(rcond=None)``."""
    u, s, vt = np.linalg.svd(A, full_matrices=False)
    # a cut singular value acts as infinite, so its component vanishes
    s[s <= s[..., :1] * (max(A.shape[-2:]) * _EPS)] = np.inf
    return (((b[..., None, :] @ u) / s[..., None, :]) @ vt)[..., 0, :]


def gauss_newton(residual, x0: np.ndarray, tol: float, max_iter: int):
    """Solve residual(x) = 0 for a stack of starts by least-squares steps
    clamped to norm 1.

    ``x0`` has one start per row.  ``residual`` maps a stack of rows to the
    values G (rows, m) and Jacobians J (rows, m, n).  Each row stops at its
    first iterate with |G| <= tol.  Returns the final iterates and a boolean
    array marking the rows that converged within ``max_iter`` steps.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))  # rows of x still iterating, held in xa
    xa = x.copy()
    for _ in range(max_iter):
        G, J = residual(xa)
        hit = np.linalg.norm(G, axis=1) <= tol
        if hit.any():
            x[rows[hit]] = xa[hit]
            converged[rows[hit]] = True
            rows, xa, G, J = rows[~hit], xa[~hit], G[~hit], J[~hit]
            if rows.size == 0:
                return x, converged
        step = lstsq_stack(J, G)  # the step is -step, clamped to norm 1
        xa = xa - step / np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1.0)
    G, _ = residual(xa)
    x[rows] = xa
    converged[rows] = np.linalg.norm(G, axis=1) <= tol
    return x, converged


# ---------------------------------------------------------------------------
# cyclic polygons
# ---------------------------------------------------------------------------

_ORIGIN = (0.0, 0.0)


@dataclass(frozen=True, eq=False, slots=True)
class CyclicSolutions:
    """The cyclic solutions of one length vector, on circles about ``center``
    (the origin, unless the table holds the one polygon of a realized cycle).

    Row i of the read-only arrays ``radius`` (S,), ``omega`` (S,), ``eps``
    (S, n), ``alphas`` (S, n) and ``vertices`` (S, n, 2), and ``flags[i]``,
    describe solution i: ``signature(i)`` is its part of a record key and
    ``to_json_dict(i)`` its JSON.
    """

    lengths: tuple[float, ...]
    radius: np.ndarray
    omega: np.ndarray
    eps: np.ndarray
    alphas: np.ndarray
    vertices: np.ndarray
    flags: tuple[frozenset[str], ...]
    center: tuple[float, float] = _ORIGIN
    _signatures: list = field(init=False, repr=False)

    def __post_init__(self):
        for a in (self.radius, self.omega, self.eps, self.alphas, self.vertices):
            a.flags.writeable = False
        object.__setattr__(self, "_signatures", [None] * len(self.radius))

    def __len__(self) -> int:
        return len(self.radius)

    def signature(self, i: int) -> str:
        """Solution i's edge signs, winding and radius, its part of a record
        key; made once."""
        sig = self._signatures[i]
        if sig is None:
            sig = self._signatures[i] = "".join(
                "+" if s > 0 else "-" for s in self.eps[i].tolist()
            ) + f"w{int(self.omega[i])}r{float(self.radius[i]):.9e}"
        return sig

    def to_json_dict(self, i: int) -> dict:
        """Solution i as JSON, with its count ``e`` of positive edge signs
        and its signed ``area``."""
        eps = self.eps[i].tolist()
        return {
            "lengths": list(self.lengths),
            "center": list(self.center),
            "radius": float(self.radius[i]),
            "vertices": self.vertices[i].tolist(),
            "eps": eps,
            "alphas": self.alphas[i].tolist(),
            "omega": int(self.omega[i]),
            "e": sum(1 for s in eps if s > 0),
            "area": shoelace(self.vertices[i]),
            "flags": sorted(self.flags[i]),
        }


def _solve_rows(lengths: tuple[float, ...], eps: np.ndarray, omega: np.ndarray,
                radius: np.ndarray, flag_coincident: bool = False) -> CyclicSolutions:
    """The solutions with sign vectors ``eps`` (rows of +1.0/-1.0), windings
    ``omega`` and radii ``radius``, each computed as one polygon on its own
    would be: half-angles by ``math.asin`` per entry, vertex angles as the
    running sums of 2 eps alpha.  Refuses the lot when any polygon does not
    close within CLOSURE_TOL * total length."""
    total = sum(lengths)
    ratio = np.minimum(1.0, np.array(lengths) / (2.0 * radius[:, None]))
    alphas = np.array(list(map(math.asin, ratio.ravel().tolist()))).reshape(ratio.shape)
    turn = np.cumsum(2.0 * eps * alphas, axis=1)  # the angle after each edge
    phi = np.concatenate((np.zeros((len(radius), 1)), turn[:, :-1]), axis=1)
    vertices = radius[:, None, None] * np.stack((np.cos(phi), np.sin(phi)), axis=2)
    # closure residual must sit well inside the stated budget
    end = turn[:, -1]
    gap = np.hypot(radius * np.cos(end) - vertices[:, 0, 0],
                   radius * np.sin(end) - vertices[:, 0, 1])
    if (gap > CLOSURE_TOL * total).any():
        raise NonGenericError("cyclic solution failed closure residual check")
    on = {"omega_zero": omega == 0,
          "diameter_edge": (np.abs(np.array(lengths) - 2.0 * radius[:, None])
                            <= DIAMETER_TOL * total).any(axis=1)}
    if flag_coincident:
        on["coincident"] = _flag_coincident(radius, vertices, total)
    rows = list(zip(*(v.tolist() for v in on.values())))
    # one frozenset per combination of flags
    sets = {row: frozenset(name for name, x in zip(on, row) if x) for row in set(rows)}
    flags = tuple(sets[row] for row in rows)
    return CyclicSolutions(lengths, radius, omega, eps.astype(int), alphas, vertices, flags)


# sign vectors whose closure values (one float per grid point each) _scan_grid
# forms at once, as one product with the arcsin table.  On the 90 root calls of
# perfbench's symbolic_records instances (5,400 sign vectors, 2-core VM, medians
# of 7 in two rounds) 16 rows took 0.56 and 0.47 s against 0.53 and 0.45 s for
# 4, so the smaller block stays.
ROOT_BLOCK = 4


def _omega_range(n: int) -> range:
    return range(-(n // 2), n // 2 + 1)


def _radius_tops(lengths: np.ndarray, eps: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest radius and, per sign vector (row of eps), the largest radius
    of a log-spaced grid covering every closure root."""
    lmax = float(lengths.max())
    total = float(lengths.sum())
    n = len(lengths)
    r_min = lmax / 2.0
    # beyond r_crit the arcsin part stays below pi/(4n), so windings != 0 are done
    r_crit = lmax / (2.0 * math.sin(math.pi / (4.0 * n * n)))
    # for winding 0 the root tail is bounded via sum(eps*l); guard the wall case
    d = np.abs([float(np.dot(e, lengths)) for e in eps])
    d = np.maximum(d, TAIL_WALL_GUARD * total)
    r_tail = 0.75 * lmax * np.sqrt(total / d)
    return r_min, np.maximum(np.maximum(r_crit, r_tail), 4.0 * r_min)


def _sign_rows(n: int, masks: np.ndarray) -> np.ndarray:
    """Sign vectors of the masks: entry 0 is +1, entry k+1 is -1 when bit k is set."""
    bits = (masks[:, None] >> np.arange(n - 1)) & 1
    return np.hstack([np.ones((len(masks), 1)), 1.0 - 2.0 * bits])


def _closure(lengths: np.ndarray, eps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """F(r[i]) for the sign vectors eps[i], summed column by column as np.dot does."""
    v = np.arcsin(np.minimum(1.0, lengths / (2.0 * r[:, None])))
    # unlike np.sum, which adds pairwise, cumsum adds one column at a time
    return np.cumsum(v * eps, axis=1)[:, -1]


def _bisect_stack(lengths: np.ndarray, eps: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Roots of F - target bracketed by [lo, hi], one per row, bisected together.

    A row stops when F(mid) hits the target exactly (returning mid) or when
    its bracket shrinks to BISECT_REL_TOL relative (returning the bracket midpoint).
    """
    out = np.empty(len(lo))
    rows = np.arange(len(lo))  # rows still bisecting
    flo = _closure(lengths, eps, lo) - target
    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = _closure(lengths, eps, mid) - target
        left = (flo < 0) == (fm < 0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fm, flo), np.where(left, hi, mid)
        exact = fm == 0.0
        done = exact | (hi - lo <= BISECT_REL_TOL * hi)
        out[rows[done]] = np.where(exact, mid, 0.5 * (lo + hi))[done]
        keep = ~done
        rows, lo, hi, flo, eps, target = (rows[keep], lo[keep], hi[keep], flo[keep],
                                          eps[keep], target[keep])
        if rows.size == 0:
            return out
    out[rows] = 0.5 * (lo + hi)
    return out


def _cyclic_roots(lengths: np.ndarray, eps: np.ndarray,
                  tols: Tolerances) -> list[list[tuple[int, float]]]:
    """(omega, R) roots of the closure condition for a stack of sign vectors.

    Each row of eps is a +1/-1 sign vector with first entry +1; the result
    lists the roots of each in (omega, R) order, numerically identical roots
    of one winding collapsed.  Sign vectors with the same grid top share one
    radius grid; all brackets are bisected together.
    """
    r_min, tops = _radius_tops(lengths, eps)
    roots: list[list[tuple[int, float]]] = [[] for _ in eps]
    brackets = []  # (row, omega, lo, hi) arrays
    for top in sorted(set(tops.tolist())):
        grid = np.geomspace(r_min, top, tols.grid_points)
        brackets += _scan_grid(lengths, grid, eps, np.nonzero(tops == top)[0], roots)
    if brackets:
        rows, omegas, lo, hi = (np.concatenate(parts) for parts in zip(*brackets))
        radii = _bisect_stack(lengths, eps[rows], lo, hi, math.pi * omegas)
        for i, om, r in zip(rows, omegas, radii):
            roots[i].append((int(om), float(r)))
    return [_collapse(rs) for rs in roots]


def _scan_grid(lengths: np.ndarray, grid: np.ndarray, eps: np.ndarray,
               rows: np.ndarray, roots: list) -> list:
    """Sign-change brackets of the sign vectors eps[rows] on one grid.

    Closure values are formed ROOT_BLOCK rows at a time as one product with
    an arcsin table, and only rows whose value range spans pi * omega are
    scanned.  They only choose brackets: the roots are bisected on _closure.
    Roots at the first grid point go straight into roots[row].
    """
    n = len(lengths)
    omegas = np.array(list(_omega_range(n)))
    targets = math.pi * omegas
    # in place: the table and the block are the largest arrays held
    A = lengths[:, None] / (2.0 * grid[None, :])
    np.arcsin(np.minimum(A, 1.0, out=A), out=A)
    brackets = []
    for start in range(0, len(rows), ROOT_BLOCK):
        block = rows[start:start + ROOT_BLOCK]
        P = eps[block] @ A
        vmin = P.min(axis=1, keepdims=True)
        vmax = P.max(axis=1, keepdims=True)
        # max |v - t| sits at a row extreme: rounding v - t is monotone in v
        flat = np.maximum(np.abs(vmax - targets), np.abs(vmin - targets)) < FLAT_CLOSURE_TOL
        for _ in range(np.count_nonzero(flat)):
            logger.warning("degenerate closure: F is identically pi*omega; skipping cell")
        first = np.abs(P[:, :1] - targets) < FIRST_GRID_ROOT_TOL
        for i, w in zip(*np.nonzero(first & ~flat)):
            roots[block[i]].append((int(omegas[w]), float(grid[0])))
        # a sign change needs values on both sides (a zero counts as +)
        span = (vmin < targets) & (targets <= vmax) & ~flat
        for w in np.nonzero(span.any(axis=0))[0]:
            side = P[span[:, w]] >= targets[w]
            q, idx = np.nonzero(side[:, :-1] != side[:, 1:])
            brackets.append((block[span[:, w]][q], np.full(len(q), omegas[w]),
                             grid[idx], grid[idx + 1]))
    return brackets


def _collapse(roots: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """Sorted roots with numerically identical roots of one winding merged."""
    out: list[tuple[int, float]] = []
    for omega, r in sorted(roots):
        if not any(o == omega and abs(r - r0) <= DUPLICATE_ROOT_TOL * r for o, r0 in out):
            out.append((omega, r))
    return out


def enumerate_cyclic(lengths: Sequence[float],
                     tols: Tolerances = DEFAULT_TOLS) -> CyclicSolutions:
    """All cyclic configurations of a polygonal linkage, as one table.

    Scans every sign vector with first entry +1 and derives the mirror
    solutions (eps -> -eps, omega -> -omega, equal radius), so both
    orientations are kept.  Rows are sorted by (omega, sign bitmask,
    radius).  Solutions whose vertices coincide within tolerance are all
    kept and flagged "coincident": a diameter edge fits both signs, so each
    solution of the 3-4-5 triangle comes twice.
    """
    lengths = tuple(float(x) for x in lengths)
    n = len(lengths)
    if n < 3:
        raise ValueError("need at least 3 edges")
    if not all(0.0 < x < math.inf for x in lengths):
        raise ValueError(f"lengths must be positive and finite, got {lengths}")
    total = sum(lengths)
    if 2 * max(lengths) >= total * (1 - DEGENERATE_TOL):  # only flat polygons
        return CyclicSolutions(lengths, np.empty(0), np.empty(0, dtype=int),
                               np.empty((0, n), dtype=int), np.empty((0, n)),
                               np.empty((0, n, 2)), ())
    signs = _sign_rows(n, np.arange(2 ** (n - 1)))
    roots = _cyclic_roots(np.asarray(lengths), signs, tols)
    sign_row = np.array([i for i, rs in enumerate(roots) for _ in rs], dtype=np.intp)
    omega = np.array([om for rs in roots for om, _ in rs], dtype=int)
    radius = np.array([r for rs in roots for _, r in rs], dtype=float)
    # each root, then its mirror: eps -> -eps, omega -> -omega, equal radius
    eps = np.repeat(signs[sign_row], 2, axis=0)
    eps[1::2] *= -1.0
    omega = np.repeat(omega, 2)
    omega[1::2] *= -1
    radius = np.repeat(radius, 2)
    bitmask = (eps > 0).astype(np.intp) @ (1 << np.arange(n))
    order = np.lexsort((radius, bitmask, omega))  # stable: a tie keeps root before mirror
    return _solve_rows(lengths, eps[order], omega[order], radius[order], flag_coincident=True)


def _flag_coincident(radius: np.ndarray, vertices: np.ndarray, scale: float) -> np.ndarray:
    """Mask of the solutions (rows of ``radius`` and ``vertices``) that have
    a partner whose vertices agree within COINCIDENT_TOL * scale.

    Only pairs whose radii agree that closely are compared: in radius order,
    the solutions that follow each one until the gap exceeds the tolerance.
    """
    tol = COINCIDENT_TOL * scale
    order = np.argsort(radius, kind="stable")
    radii = radius[order].tolist()
    verts = vertices[order]
    flagged = np.zeros(len(radius), dtype=bool)
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if radii[b] - radii[a] > tol:
                break
            if np.max(np.abs(verts[a] - verts[b])) <= tol:
                logger.warning("two cyclic solutions coincide within tolerance")
                flagged[order[[a, b]]] = True
    return flagged


def cyclic_data_from_points(pts: np.ndarray,
                            tols: Tolerances = DEFAULT_TOLS) -> CyclicSolutions:
    """The realized cycle with vertices ``pts`` (n, 2) as a one-row table of
    cyclic solutions, centred at its fitted circle's center.

    Fits the circle exactly through the first three vertices and verifies the
    rest; raises NotConcyclicError (with the worst deviation) otherwise, and
    DegenerateCenterError when the center sits on an edge line.
    """
    n = len(pts)
    center = _circumcenter(pts[0], pts[1], pts[2])
    radius = float(np.hypot(*(pts[0] - center)))
    dev = np.abs(np.hypot(*(pts - center).T) - radius)
    max_dev = float(dev.max())
    if max_dev > tols.concyclicity * radius:
        raise NotConcyclicError(
            f"vertices deviate from the circle by up to {max_dev!r}", max_deviation=max_dev)
    lengths, eps, alphas = [], [], []
    for k in range(n):
        p, q = pts[k], pts[(k + 1) % n]
        edge = q - p
        ln = float(np.hypot(*edge))
        cross = edge[0] * (center[1] - p[1]) - edge[1] * (center[0] - p[0])
        if abs(cross) <= tols.concyclicity * radius * ln:
            raise DegenerateCenterError("circle center lies on an edge line")
        lengths.append(ln)
        eps.append(1 if cross > 0 else -1)
        alphas.append(math.asin(min(1.0, ln / (2.0 * radius))))
    w = sum(e * a for e, a in zip(eps, alphas)) / math.pi
    omega = round(w)
    if abs(w - omega) > WINDING_ROUND_TOL:
        raise NotConcyclicError(f"winding {w!r} is not an integer", max_deviation=max_dev)
    flags = frozenset({"omega_zero"} if omega == 0 else ())
    return CyclicSolutions(tuple(lengths), np.array([radius]), np.array([omega]),
                           np.array([eps]), np.array([alphas]),
                           np.array(pts, dtype=float).reshape(1, n, 2), (flags,),
                           (float(center[0]), float(center[1])))


def _circumcenter(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        raise NotConcyclicError("first three vertices are collinear")
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])


# ---------------------------------------------------------------------------
# open chains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReachInterval:
    """Attainable endpoint distances of an open chain.  Its tests take one
    distance or an array of them."""

    dmin: float
    dmax: float

    def contains_strictly(self, d):
        return (self.dmin < d) & (d < self.dmax)

    def near_boundary(self, d, tol: float):
        return (abs(d - self.dmin) <= tol) | (abs(d - self.dmax) <= tol)


def chain_reach(lengths: Sequence[float]) -> ReachInterval:
    if not lengths:
        raise ValueError("need at least one edge")
    total = float(sum(lengths))
    dmin = max(0.0, 2.0 * float(max(lengths)) - total)
    return ReachInterval(dmin, total)


def place_chain(lengths: Sequence[float], start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Joints of a chain of edges ``lengths`` pinned at ``start`` and ``end``
    (rows of 2), one configuration per row: an array (rows, len(lengths) - 1, 2).

    Every end distance must lie strictly inside the chain's reach.  The first
    joint is the apex, left of the line toward ``end``, of the triangle on the
    first edge, the end distance w and the distance w' from the joint to
    ``end``.  w' is the midpoint of the distances both that triangle and the
    rest of the chain can make, so the rest is placed the same way at w'.
    """
    lengths = [float(x) for x in lengths]
    end = np.asarray(end, dtype=float)
    p = np.asarray(start, dtype=float)
    w = np.hypot(*(end - p).T)
    joints = np.empty((len(p), len(lengths) - 1, 2))
    for j, a in enumerate(lengths[:-1]):
        rest = chain_reach(lengths[j + 1:])
        b = 0.5 * (np.maximum(rest.dmin, np.abs(w - a)) + np.minimum(rest.dmax, w + a))
        u = (end - p) / w[:, None]
        x = (w * w + a * a - b * b) / (2.0 * w)
        h = np.sqrt(np.maximum(a * a - x * x, 0.0))
        p = p + x[:, None] * u + h[:, None] * np.stack([-u[:, 1], u[:, 0]], axis=1)
        joints[:, j] = p
        w = b
    return joints


def alignment_patterns(lengths: Sequence[float],
                       tol: float = 0.0) -> list[tuple[tuple[int, ...], float, int]]:
    """(sign pattern, endpoint distance w, forward count f) for every alignment.

    Patterns are kept only when the signed sum is strictly positive, which
    fixes the representative of each {sigma, -sigma} pair.
    """
    r = len(lengths)
    out = []
    for mask in range(2 ** r):
        sigma = tuple(1 if (mask >> k) & 1 == 0 else -1 for k in range(r))
        w = sum(s * l for s, l in zip(sigma, lengths))
        if w > tol:
            out.append((sigma, w, sum(1 for s in sigma if s > 0)))
    out.sort(key=lambda t: (-t[2], t[0]))
    return out


# ---------------------------------------------------------------------------
# wall / genericity report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WallEntry:
    edge_indices: tuple[int, ...]
    signs: tuple[int, ...]
    value: float


@dataclass(frozen=True)
class GenericityReport:
    entries: tuple[WallEntry, ...]  # one per simple cycle: the closest wall
    tol: float

    @property
    def clean(self) -> bool:
        return all(abs(e.value) >= self.tol for e in self.entries)

    @property
    def min_margin(self) -> float:
        return min((abs(e.value) for e in self.entries), default=math.inf)

    def to_json_dict(self) -> dict:
        return {
            "clean": self.clean,
            "tol": self.tol,
            "min_margin": self.min_margin,
            "cycles": [{"edges": list(e.edge_indices), "signs": list(e.signs),
                        "value": e.value} for e in self.entries],
        }


def wall_check(g: LinkageGraph, tols: Tolerances = DEFAULT_TOLS) -> GenericityReport:
    """Closest signed length sum to zero over every simple cycle of g.

    A clean report certifies the working genericity assumption that no cycle
    can fit a straight line.
    """
    cycles = simple_cycles_via_sp(g)
    entries = []
    for cyc in sorted(cycles, key=lambda c: (len(c), c)):
        lens = np.array([g.edges[k][2] for k in cyc])
        m = len(lens)
        signs = _sign_rows(m, np.arange(2 ** (m - 1)))
        sums = signs @ lens
        best = int(np.argmin(np.abs(sums)))
        entries.append(WallEntry(tuple(cyc), tuple(int(s) for s in signs[best]),
                                 float(sums[best])))
    return GenericityReport(tuple(entries), tols.wall * g.total_length())


def simple_cycles_via_sp(g: LinkageGraph) -> list[tuple[int, ...]]:
    """Edge-index sets of all simple cycles, from the SP structure.

    Cycles live inside biconnected blocks, so each block's own SP tree
    yields its cycles.
    """
    out: list[tuple[int, ...]] = []
    for block, tree in sp_decompose_blocks(g):
        for cyc in _block_cycles(tree):
            out.append(tuple(sorted(block[k] for k in cyc)))
    return sorted(set(out))


def _block_cycles(tree: SPTree) -> list[tuple[int, ...]]:
    """Cycles of one block's SP tree, as indices into the block's edges."""
    cycles: list[frozenset[int]] = []

    def paths(node) -> list[frozenset[int]]:
        if isinstance(node, SPEdge):
            return [frozenset((node.index,))]
        if isinstance(node, SPSeries):
            acc = [frozenset()]
            for child in node.children:
                child_paths = paths(child)
                acc = [a | p for a in acc for p in child_paths]
            return acc
        child_paths = [paths(child) for child in node.children]
        for i in range(len(child_paths)):
            for j in range(i + 1, len(child_paths)):
                for p in child_paths[i]:
                    for q in child_paths[j]:
                        cycles.append(p | q)
        return [p for group in child_paths for p in group]

    paths(tree)
    uniq = sorted({tuple(sorted(c)) for c in cycles})
    return [c for c in uniq if len(c) >= 2]
