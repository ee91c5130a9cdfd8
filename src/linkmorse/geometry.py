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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import (
    DegenerateCenterError,
    DegenerateTriangleError,
    NonGenericError,
    NotConcyclicError,
)
from .graphs import (
    DistinguishedCycle,
    LinkageGraph,
    SPEdge,
    SPSeries,
    SPTree,
    sp_decompose_blocks,
)

logger = logging.getLogger(__name__)

TWO_PI = 2.0 * math.pi
_EPS = float(np.finfo(float).eps)
# a cyclic polygon's vertices lie within ON_CIRCLE_TOL * radius of its circle
ON_CIRCLE_TOL = 1e-8
# ... its signed half-angles sum to pi * omega within WINDING_TOL (radians)
WINDING_TOL = 1e-7
# ... and its last edge closes within CLOSURE_TOL * total length
CLOSURE_TOL = 1e-9
# cyclic_data_from_points reads a winding within WINDING_ROUND_TOL of an integer
WINDING_ROUND_TOL = 1e-6
# an edge within DIAMETER_TOL * total length of the diameter is flagged
DIAMETER_TOL = 1e-12
# |sum(eps * lengths)| is floored at TAIL_WALL_GUARD * total length, so the
# winding-0 grid top stays finite for a sign vector on a wall
TAIL_WALL_GUARD = 1e-9
# bisection stops at a bracket of BISECT_REL_TOL * radius, near rounding
BISECT_REL_TOL = 1e-15
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

@dataclass(frozen=True)
class Configuration:
    """Plane coordinates for every vertex of a linkage."""

    coords: dict[str, tuple[float, float]]

    def point(self, v: str) -> np.ndarray:
        return np.asarray(self.coords[v], dtype=float)

    def points(self, vs: Sequence[str]) -> np.ndarray:
        return np.array([self.coords[v] for v in vs], dtype=float)

    def validate(self, g: LinkageGraph, tols: Tolerances = DEFAULT_TOLS) -> None:
        for u, v, length in g.edges:
            d = float(np.hypot(*(self.point(u) - self.point(v))))
            if abs(d - length) > tols.rel_length * max(1.0, length):
                raise ValueError(
                    f"edge ({u},{v}) has length {d!r}, expected {length!r}")

    def to_json_dict(self) -> dict:
        return {"coords": {v: [x, y] for v, (x, y) in sorted(self.coords.items())}}

    @staticmethod
    def from_json_dict(d: dict) -> "Configuration":
        return Configuration({str(v): (float(x), float(y))
                              for v, (x, y) in d["coords"].items()})


def oriented_area(c: Configuration, cycle: DistinguishedCycle) -> float:
    """Signed shoelace area of the cycle; flips under orientation reversal."""
    pts = c.points(cycle.vertices)
    return shoelace(pts)


def shoelace(pts: np.ndarray) -> float:
    x, y = pts[:, 0], pts[:, 1]
    # the next vertex's coordinates as contiguous copies, the layout np.roll
    # gives, so np.dot adds the same products in the same order
    xn, yn = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
    return 0.5 * float(np.dot(x, yn) - np.dot(y, xn))


def is_aligned(c: Configuration, path: Sequence[str], tol: float) -> bool:
    """True when all path vertices lie within tol of their least-squares line."""
    pts = c.points(path)
    return aligned_residual(pts) <= tol


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


def gauss_newton(residual, x0: np.ndarray, tol: float, max_iter: int,
                 target: np.ndarray | None = None):
    """Solve residual(x) = target for a stack of starts by least-squares
    steps clamped to norm 1.

    ``x0`` has one start per row.  ``residual`` maps a stack of rows to the
    values F (rows, m) and Jacobians J (rows, m, n); ``target`` is zero
    (None) or one row of m values per start, and G = F - target.  Each row
    stops at its first iterate with |G| <= tol.  Returns the final iterates
    and a boolean array marking the rows that converged within ``max_iter``
    steps.
    """
    x = np.array(x0, dtype=float)
    converged = np.zeros(len(x), dtype=bool)
    rows = np.arange(len(x))  # rows of x still iterating, held in xa
    xa = x.copy()

    def misfit(xa, rows):
        F, J = residual(xa)
        return (F if target is None else F - target[rows]), J

    for _ in range(max_iter):
        G, J = misfit(xa, rows)
        hit = np.linalg.norm(G, axis=1) <= tol
        if hit.any():
            x[rows[hit]] = xa[hit]
            converged[rows[hit]] = True
            rows, xa, G, J = rows[~hit], xa[~hit], G[~hit], J[~hit]
            if rows.size == 0:
                return x, converged
        step = lstsq_stack(J, G)  # the step is -step, clamped to norm 1
        xa = xa - step / np.maximum(np.linalg.norm(step, axis=1, keepdims=True), 1.0)
    G, _ = misfit(xa, rows)
    x[rows] = xa
    converged[rows] = np.linalg.norm(G, axis=1) <= tol
    return x, converged


# ---------------------------------------------------------------------------
# cyclic polygons
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CyclicPolygon:
    """Polygon inscribed in a circle, with the sign/half-angle/winding data."""

    lengths: tuple[float, ...]
    center: tuple[float, float]
    radius: float
    vertices: tuple[tuple[float, float], ...]
    eps: tuple[int, ...]
    alphas: tuple[float, ...]
    omega: int
    flags: frozenset[str] = frozenset()

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def e(self) -> int:
        return sum(1 for s in self.eps if s > 0)

    @cached_property
    def area(self) -> float:
        return shoelace(np.asarray(self.vertices))

    @cached_property
    def signature(self) -> str:
        """Edge signs, winding and radius: the polygon's part of a record key."""
        return ("".join("+" if s > 0 else "-" for s in self.eps)
                + f"w{self.omega}r{self.radius:.9e}")

    def vertex_array(self) -> np.ndarray:
        return np.asarray(self.vertices, dtype=float)

    def validate(self, tols: Tolerances = DEFAULT_TOLS) -> None:
        pts = self.vertex_array()
        o = np.asarray(self.center)
        scale = sum(self.lengths)
        if np.max(np.abs(np.hypot(*(pts - o).T) - self.radius)) \
                > ON_CIRCLE_TOL * self.radius:
            raise ValueError("vertices not on the circle")
        for k in range(self.n):
            if abs(self.lengths[k] - 2 * self.radius * math.sin(self.alphas[k])) \
                    > tols.rel_length * scale:
                raise ValueError("length/half-angle mismatch")
        if abs(sum(e * a for e, a in zip(self.eps, self.alphas)) - math.pi * self.omega) \
                > WINDING_TOL:
            raise ValueError("winding mismatch")
        closure = pts[0] - pts[-1]
        edge = np.hypot(*closure)
        if abs(edge - self.lengths[-1]) > CLOSURE_TOL * scale:
            raise ValueError("closure edge off tolerance")

    def to_json_dict(self) -> dict:
        return dict(self._json)

    @cached_property
    def _json(self) -> dict:
        # built once per polygon; the records that share the polygon share
        # its lists, which nothing mutates
        return {
            "lengths": list(self.lengths),
            "center": list(self.center),
            "radius": self.radius,
            "vertices": [list(p) for p in self.vertices],
            "eps": list(self.eps),
            "alphas": list(self.alphas),
            "omega": self.omega,
            "e": self.e,
            "area": self.area,
            "flags": sorted(self.flags),
        }


def _build_cyclic(lengths, eps, omega, radius) -> CyclicPolygon:
    lengths = tuple(float(x) for x in lengths)
    total = sum(lengths)
    flags = set()
    if omega == 0:
        flags.add("omega_zero")
    if any(abs(l - 2 * radius) <= DIAMETER_TOL * total for l in lengths):
        flags.add("diameter_edge")
    alphas = tuple(math.asin(min(1.0, length / (2.0 * radius))) for length in lengths)
    phi = 0.0
    verts = []
    for k in range(len(lengths)):
        verts.append((radius * math.cos(phi), radius * math.sin(phi)))
        phi += 2.0 * eps[k] * alphas[k]
    poly = CyclicPolygon(lengths, (0.0, 0.0), float(radius), tuple(verts),
                         tuple(int(s) for s in eps), alphas, int(omega), frozenset(flags))
    # closure residual must sit well inside the stated budget
    end = np.array([radius * math.cos(phi), radius * math.sin(phi)])
    if np.hypot(*(end - np.asarray(verts[0]))) > CLOSURE_TOL * total:
        raise NonGenericError("cyclic solution failed closure residual check")
    return poly


# sign vectors whose closure values (one float per grid point each) are held
# at once by _scan_grid; a power of two.  Four rows keep the peak memory of a
# quadrilateral cell near that of one sign vector at a time; eight rows took
# 45% more there and ran no faster.
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


def _fill_block(P: np.ndarray, A: np.ndarray, high: int) -> None:
    """Fill P (2**b rows) with sum_k eps_k * A[k] for the sign vectors with
    masks high * 2**b + j.

    The low bits are spread by prefix doubling, P <- [P + A[k]; P - A[k]],
    and the high bits added after them, so every row sums A[0], A[1], ...
    in order like ``(A * eps[:, None]).sum(axis=0)``.
    """
    b = len(P).bit_length() - 1
    P[0] = A[0]
    for k in range(1, b + 1):
        h = 2 ** (k - 1)
        np.subtract(P[:h], A[k], out=P[h:2 * h])
        P[:h] += A[k]
    for k in range(b + 1, len(A)):
        if (high >> (k - 1 - b)) & 1:
            P -= A[k]
        else:
            P += A[k]


def _closure(lengths: np.ndarray, eps: np.ndarray, r: np.ndarray) -> np.ndarray:
    """F(r[i]) for the sign vectors eps[i], summed column by column as np.dot does."""
    v = np.arcsin(np.minimum(1.0, lengths / (2.0 * r[:, None])))
    f = v[:, 0] * eps[:, 0]
    for k in range(1, len(lengths)):
        f = f + v[:, k] * eps[:, k]
    return f


def _bisect_stack(lengths: np.ndarray, eps: np.ndarray, lo: np.ndarray,
                  hi: np.ndarray, target: np.ndarray, iters: int = 200) -> np.ndarray:
    """Roots of F - target bracketed by [lo, hi], one per row, bisected together.

    A row stops when F(mid) hits the target exactly (returning mid) or when
    its bracket shrinks to BISECT_REL_TOL relative (returning the bracket midpoint).
    """
    out = np.empty(len(lo))
    rows = np.arange(len(lo))  # rows still bisecting
    flo = _closure(lengths, eps, lo) - target
    for _ in range(iters):
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


def _cyclic_roots(lengths: np.ndarray, masks: Sequence[int],
                  tols: Tolerances) -> list[list[tuple[int, float]]]:
    """(omega, R) roots of the closure condition for a stack of sign vectors.

    masks[i] names the sign vector of _sign_rows; the result lists the roots
    of each in (omega, R) order, numerically identical roots of one winding
    collapsed.  Sign vectors with the same grid top share one radius grid;
    all brackets are bisected together.
    """
    n = len(lengths)
    masks = np.asarray(masks, dtype=np.int64)
    eps = _sign_rows(n, masks)
    r_min, tops = _radius_tops(lengths, eps)
    roots: list[list[tuple[int, float]]] = [[] for _ in masks]
    brackets = []  # (row, omega, lo, hi) arrays
    for top in sorted(set(tops.tolist())):
        grid = np.geomspace(r_min, top, tols.grid_points)
        brackets += _scan_grid(lengths, grid, masks, np.nonzero(tops == top)[0], roots)
    if brackets:
        rows, omegas, lo, hi = (np.concatenate(parts) for parts in zip(*brackets))
        radii = _bisect_stack(lengths, eps[rows], lo, hi, math.pi * omegas)
        for i, om, r in zip(rows, omegas, radii):
            roots[i].append((int(om), float(r)))
    return [_collapse(rs) for rs in roots]


def _scan_grid(lengths: np.ndarray, grid: np.ndarray, masks: np.ndarray,
               rows: np.ndarray, roots: list) -> list:
    """Sign-change brackets of the sign vectors masks[rows] on one grid.

    Closure values are formed ROOT_BLOCK rows at a time from one arcsin
    table, and only rows whose value range spans pi * omega are scanned.
    Roots at the first grid point go straight into roots[row].
    """
    n = len(lengths)
    omegas = np.array(list(_omega_range(n)))
    targets = math.pi * omegas
    # in place: the table and the block are the largest arrays held
    A = lengths[:, None] / (2.0 * grid[None, :])
    np.arcsin(np.minimum(A, 1.0, out=A), out=A)
    b = min(ROOT_BLOCK, 2 ** (n - 1)).bit_length() - 1
    P = np.empty((2 ** b, len(grid)))
    brackets = []
    for high in sorted(set((masks[rows] >> b).tolist())):
        block = rows[masks[rows] >> b == high]
        _fill_block(P, A, high)
        local = masks[block] & ((1 << b) - 1)  # rows of P
        vmin = P.min(axis=1)[local, None]
        vmax = P.max(axis=1)[local, None]
        # max |v - t| sits at a row extreme: rounding v - t is monotone in v
        flat = np.maximum(np.abs(vmax - targets), np.abs(vmin - targets)) < FLAT_CLOSURE_TOL
        for _ in range(np.count_nonzero(flat)):
            logger.warning("degenerate closure: F is identically pi*omega; skipping cell")
        first = np.abs(P[local, :1] - targets) < FIRST_GRID_ROOT_TOL
        for i, w in zip(*np.nonzero(first & ~flat)):
            roots[block[i]].append((int(omegas[w]), float(grid[0])))
        # a sign change needs values on both sides (a zero counts as +)
        span = (vmin < targets) & (targets <= vmax) & ~flat
        for w in np.nonzero(span.any(axis=0))[0]:
            side = (P >= targets[w])[local[span[:, w]]]
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


def solve_cyclic(lengths: Sequence[float], eps: Sequence[int], omega: int,
                 tols: Tolerances = DEFAULT_TOLS) -> CyclicPolygon | None:
    """Cyclic polygon for one (eps, omega) cell, or None when no root exists.

    When the closure function has several roots in the cell the one with the
    smallest radius is returned; enumerate_cyclic reports them all.
    """
    sols = solve_cyclic_all(lengths, eps, omega, tols)
    return sols[0] if sols else None


def solve_cyclic_all(lengths: Sequence[float], eps: Sequence[int], omega: int,
                     tols: Tolerances = DEFAULT_TOLS) -> list[CyclicPolygon]:
    lengths = [float(x) for x in lengths]
    n = len(lengths)
    if n < 3:
        raise ValueError("need at least 3 edges")
    if any(l <= 0 for l in lengths):
        raise ValueError("lengths must be positive")
    if len(eps) != n or any(s not in (-1, 1) for s in eps):
        raise ValueError("eps must be a vector of +1/-1 of matching size")
    total = sum(lengths)
    if 2 * max(lengths) >= total + tols.rel_length * total:
        raise ValueError("longest edge exceeds the sum of the others; no closed polygon")
    # F is odd in eps, so a sign vector starting with -1 has the roots of its
    # negation at -omega
    s0 = eps[0]
    mask = sum(1 << (k - 1) for k in range(1, n) if eps[k] != s0)
    (roots,) = _cyclic_roots(np.asarray(lengths), [mask], tols)
    return [_build_cyclic(lengths, eps, omega, r) for om, r in roots if s0 * om == omega]


def enumerate_cyclic(lengths: Sequence[float],
                     tols: Tolerances = DEFAULT_TOLS) -> list[CyclicPolygon]:
    """All cyclic configurations of a polygonal linkage.

    Scans every sign vector with first entry +1 and derives the mirror
    solutions (eps -> -eps, omega -> -omega, equal radius), so both
    orientations are kept.  Results are sorted by (omega, sign bitmask,
    radius) and deduplicated up to rotation about the center.
    """
    lengths = [float(x) for x in lengths]
    n = len(lengths)
    if n < 3:
        raise ValueError("need at least 3 edges")
    total = sum(lengths)
    if 2 * max(lengths) >= total * (1 - DEGENERATE_TOL):
        return []
    masks = range(2 ** (n - 1))
    sols: list[CyclicPolygon] = []
    for mask, roots in zip(masks, _cyclic_roots(np.asarray(lengths), masks, tols)):
        eps = [1] + [1 if (mask >> k) & 1 == 0 else -1 for k in range(n - 1)]
        for omega, r in roots:
            sols.append(_build_cyclic(lengths, eps, omega, r))
            sols.append(_build_cyclic(lengths, [-s for s in eps], -omega, r))

    sols.sort(key=_cyclic_sort_key)
    _flag_coincident(sols, total)
    return sols


def _cyclic_sort_key(p: CyclicPolygon):
    bitmask = sum((1 << k) for k, s in enumerate(p.eps) if s > 0)
    return (p.omega, bitmask, p.radius)


def _flag_coincident(sols: list[CyclicPolygon], scale: float) -> None:
    """Flag both solutions of every pair whose vertices agree within COINCIDENT_TOL * scale.

    Only pairs whose radii agree that closely are compared: in radius order,
    the solutions that follow each one until the gap exceeds the tolerance.
    """
    tol = COINCIDENT_TOL * scale
    order = sorted(range(len(sols)), key=lambda i: sols[i].radius)
    radii = [sols[i].radius for i in order]
    verts = [sols[i].vertex_array() for i in order]
    flagged = set()
    for a in range(len(order)):
        for b in range(a + 1, len(order)):
            if radii[b] - radii[a] > tol:
                break
            if np.max(np.abs(verts[a] - verts[b])) <= tol:
                logger.warning("two cyclic solutions coincide within tolerance")
                flagged.update((order[a], order[b]))
    for i in flagged:
        sols[i] = _with_flag(sols[i], "coincident")


def _with_flag(p: CyclicPolygon, flag: str) -> CyclicPolygon:
    return CyclicPolygon(p.lengths, p.center, p.radius, p.vertices, p.eps,
                         p.alphas, p.omega, p.flags | {flag})


def circle_data(c: Configuration, cycle: DistinguishedCycle,
                tols: Tolerances = DEFAULT_TOLS) -> CyclicPolygon:
    """Extract the cyclic-polygon data of a realized cycle.

    Fits the circle exactly through the first three vertices and verifies the
    rest; raises NotConcyclicError (with the worst deviation) otherwise, and
    DegenerateCenterError when the center sits on an edge line.
    """
    pts = c.points(cycle.vertices)
    return cyclic_data_from_points(pts, tols)


def cyclic_data_from_points(pts: np.ndarray,
                            tols: Tolerances = DEFAULT_TOLS) -> CyclicPolygon:
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
    flags = {"omega_zero"} if omega == 0 else set()
    return CyclicPolygon(tuple(lengths), (float(center[0]), float(center[1])),
                         radius, tuple(map(tuple, pts)), tuple(eps), tuple(alphas),
                         int(omega), frozenset(flags))


def _circumcenter(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = 2.0 * (a[0] * (b[1] - c[1]) + b[0] * (c[1] - a[1]) + c[0] * (a[1] - b[1]))
    if d == 0.0:
        raise NotConcyclicError("first three vertices are collinear")
    ux = ((a @ a) * (b[1] - c[1]) + (b @ b) * (c[1] - a[1]) + (c @ c) * (a[1] - b[1])) / d
    uy = ((a @ a) * (c[0] - b[0]) + (b @ b) * (a[0] - c[0]) + (c @ c) * (b[0] - a[0])) / d
    return np.array([ux, uy])


# ---------------------------------------------------------------------------
# triangles and chains
# ---------------------------------------------------------------------------

def area_derivative_wrt_side(a: float, b: float, c: float) -> float:
    """d(area)/dc for a triangle with fixed sides a, b and variable side c.

    Equals the distance from the circumcenter to the midpoint of c, signed
    positive while the opposite angle is acute: (c/2) * cot(gamma).
    """
    for s in (a, b, c):
        if s <= 0:
            raise DegenerateTriangleError("sides must be positive")
    if a + b <= c or a + c <= b or b + c <= a:
        raise DegenerateTriangleError(f"({a},{b},{c}) violates the triangle inequality")
    cos_g = (a * a + b * b - c * c) / (2.0 * a * b)
    sin_g = math.sqrt(max(0.0, 1.0 - cos_g * cos_g))
    if sin_g == 0.0:
        raise DegenerateTriangleError("flat triangle")
    return 0.5 * c * cos_g / sin_g


def triangle_area(a: float, b: float, c: float) -> float:
    s = 0.5 * (a + b + c)
    val = s * (s - a) * (s - b) * (s - c)
    if val <= 0:
        raise DegenerateTriangleError(f"({a},{b},{c}) violates the triangle inequality")
    return math.sqrt(val)


def triangle_apex(a: float, b: float, w: float, up: bool = True) -> np.ndarray:
    """Apex of the triangle with base (0,0)-(w,0), |apex| = a, |apex-(w,0)| = b."""
    x = (w * w + a * a - b * b) / (2.0 * w)
    y2 = a * a - x * x
    if y2 <= 0:
        raise DegenerateTriangleError("apex does not exist for these sides")
    y = math.sqrt(y2)
    return np.array([x, y if up else -y])


@dataclass(frozen=True)
class ReachInterval:
    """Attainable endpoint distances of an open chain."""

    dmin: float
    dmax: float

    def contains_strictly(self, d: float) -> bool:
        return self.dmin < d < self.dmax

    def near_boundary(self, d: float, tol: float) -> bool:
        return abs(d - self.dmin) <= tol or abs(d - self.dmax) <= tol


def chain_reach(lengths: Sequence[float]) -> ReachInterval:
    if not lengths:
        raise ValueError("need at least one edge")
    total = float(sum(lengths))
    dmin = max(0.0, 2.0 * float(max(lengths)) - total)
    return ReachInterval(dmin, total)


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
