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
        """The configuration of ``{"coords": {vertex: [x, y], ...}}``; every
        coordinate must be an int or a float (not a bool), else TypeError."""
        coords = {}
        for v, (x, y) in d["coords"].items():
            if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in (x, y)):
                raise TypeError(f"vertex {v!r} has a coordinate that is not a number: {[x, y]!r}")
            coords[str(v)] = (float(x), float(y))
        return Configuration(coords)


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
                radius: np.ndarray) -> CyclicSolutions:
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
                            <= DIAMETER_TOL * total).any(axis=1),
          "coincident": _flag_coincident(radius, vertices, total)}
    rows = list(zip(*(v.tolist() for v in on.values())))
    # one frozenset per combination of flags
    sets = {row: frozenset(name for name, x in zip(on, row) if x) for row in set(rows)}
    flags = tuple(sets[row] for row in rows)
    return CyclicSolutions(lengths, radius, omega, eps.astype(int), alphas, vertices, flags)


# the root scan forms closure values at every SCAN_STRIDE-th point of a radius
# grid (the nodes), and at every grid point only inside the node intervals
# that its bounds leave open for a sign change (the windows)
SCAN_STRIDE = 100
# sign vectors whose node values are formed at once: their (rows, nodes)
# arrays stay well below one grid's arcsin table (n, grid points)
SCAN_BLOCK = 64
# the scan's bounds are widened by SCAN_MARGIN_ULPS * n * eps times the sums
# they bound, more than the rounding of the table entries and of each sum
SCAN_MARGIN_ULPS = 16


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
    """F(r[i]) for the sign vectors eps[i], summed column by column as np.dot
    does; ``lengths`` is one vector or one row per radius."""
    v = np.arcsin(np.minimum(1.0, lengths / (2.0 * r[:, None])))
    # unlike np.sum, which adds pairwise, cumsum adds one column at a time
    return np.cumsum(v * eps, axis=1)[:, -1]


def _half_angles(lengths: np.ndarray, r: np.ndarray) -> np.ndarray:
    """arcsin(min(1, l_k / 2r)) for each edge k (axis 0) and each radius of
    the array ``r`` (the other axes)."""
    a = lengths.reshape((-1,) + (1,) * r.ndim) / (2.0 * r)
    return np.arcsin(np.minimum(a, 1.0, out=a), out=a)


def _signed_sum(eps: np.ndarray, table: np.ndarray) -> np.ndarray:
    """sum_k eps[:, k] * table[k], added one edge at a time in order, as one
    row of ``_closure`` adds them: the closure values of each row of eps at
    the radii of ``table``, shared by the rows or one row of radii each."""
    out = eps[:, :1] * table[0]
    for k in range(1, len(table)):
        out += eps[:, k:k + 1] * table[k]
    return out


def _bisect_brackets(lengths: np.ndarray, eps: np.ndarray, lo: np.ndarray,
                     hi: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, int]:
    """Roots of F - target bracketed by [lo, hi], one per row, bisected
    together; row i has its own ``lengths[i]`` and ``eps[i]``, where zero
    lengths with sign +1 pad a shorter vector without changing its sums.

    A row stops when F(mid) hits the target exactly (returning mid) or when
    its bracket shrinks to BISECT_REL_TOL relative (returning the bracket
    midpoint).  Also returns the number of halving steps the stack took.
    """
    out = np.empty(len(lo))
    rows = np.arange(len(lo))  # rows still bisecting
    flo = _closure(lengths, eps, lo) - target
    for step in range(1, BISECT_MAX_ITER + 1):
        mid = 0.5 * (lo + hi)
        fm = _closure(lengths, eps, mid) - target
        left = (flo < 0) == (fm < 0)
        lo, flo, hi = np.where(left, mid, lo), np.where(left, fm, flo), np.where(left, hi, mid)
        exact = fm == 0.0
        done = exact | (hi - lo <= BISECT_REL_TOL * hi)
        out[rows[done]] = np.where(exact, mid, 0.5 * (lo + hi))[done]
        keep = ~done
        rows, lo, hi, flo, lengths, eps, target = (
            a[keep] for a in (rows, lo, hi, flo, lengths, eps, target))
        if rows.size == 0:
            return out, step
    out[rows] = 0.5 * (lo + hi)
    return out, BISECT_MAX_ITER


def _scan_windows(lengths: np.ndarray, grid: np.ndarray, eps: np.ndarray, counts: dict):
    """Where the closure of each sign vector (row of eps) meets a winding on
    one radius grid, as a scan of every grid point finds it, without forming
    most grid values.

    Returns the (row, omega) roots at the first grid point; the (rows, omega,
    lo, hi) arrays of the brackets, the adjacent grid points whose values
    lie on either side of pi * omega; and a mask (rows, windings) of the
    windings at which a row's values all lie within FLAT_CLOSURE_TOL of
    pi * omega (degenerate: identically closed), which have neither.

    Values are formed at every SCAN_STRIDE-th grid point, the nodes.  On a
    node interval [a, b] the arcsin sums P and N over the edges with
    eps = +1 and -1 both fall as R grows, so F = P - N lies in
    [P(b) - N(a), P(a) - N(b)]; at omega = 0, R F is bounded the same way,
    since each R arcsin(l / 2R) falls too.  Where the tan sum, bounded the
    same way, keeps one sign, F is monotone on the interval and meets a
    winding only if its node values do.  Every value at every point of an
    interval that these bounds, widened for rounding, leave open for some
    winding (a window) is then formed.  Each value is a sum over the edges
    in order, the value a scan of every point forms, so the brackets are
    that scan's.  Counts go to ``counts``.
    """
    n, size = len(lengths), len(grid)
    omegas = np.array(list(_omega_range(n)))
    targets = math.pi * omegas
    levels = targets[:, None, None]
    nodes = np.append(np.arange(0, size - 1, SCAN_STRIDE), size - 1)
    width = int(nodes[1]) + 1  # grid points per window
    a, b = grid[nodes[:-1]], grid[nodes[1:]]
    half = _half_angles(lengths, grid[nodes])
    tan = np.tan(half)
    tan_sum = tan.sum(axis=0)
    unit = SCAN_MARGIN_ULPS * n * _EPS
    # margins for the bounds on the table's sums, on F itself (whose table
    # entries carry the rounding of l / 2R, up to eps * tan per edge) and on
    # the tan sum (whose entries carry tan's growth near pi/2)
    m_sum = unit * half.sum(axis=0)[:-1]
    m_true = m_sum + unit * tan_sum[:-1]
    m_tan = unit * ((1.0 + tan) * (1.0 + tan * tan)).sum(axis=0)[:-1]
    counts["intervals"] += len(eps) * (len(nodes) - 1)
    first, brackets = [], []
    flat = np.zeros((len(eps), len(omegas)), dtype=bool)
    full = None  # the arcsin table of every grid point, for rows that may be flat
    for start in range(0, len(eps), SCAN_BLOCK):
        e = eps[start:start + SCAN_BLOCK]
        pos = (e > 0).astype(float)
        f = e @ half
        p = pos @ half
        q = p - f  # N
        tp = pos @ tan
        tq = tan_sum - tp
        counts["values"] += f.size
        # a flat row's node values are all within the tolerance: check every point
        lo_f, hi_f = f.min(axis=1, keepdims=True), f.max(axis=1, keepdims=True)
        maybe = np.maximum(np.abs(hi_f - targets), np.abs(lo_f - targets)) < \
            FLAT_CLOSURE_TOL + m_sum[0]
        for i in np.flatnonzero(maybe.any(axis=1)):
            if full is None:
                full = _half_angles(lengths, grid)
            v = _signed_sum(e[i:i + 1], full)
            counts["values"] += v.size
            flat[start + i] = np.maximum(np.abs(v.max() - targets),
                                         np.abs(v.min() - targets)) < FLAT_CLOSURE_TOL
        fl = flat[start:start + len(e)]
        f0 = _signed_sum(e, half[:, :1])[:, 0]  # the first grid value, as the scan forms it
        hit = (np.abs(f0[:, None] - targets) < FIRST_GRID_ROOT_TOL) & ~fl
        first += [(start + i, int(omegas[w])) for i, w in zip(*np.nonzero(hit))]
        # the windings each interval leaves open, as (windings, rows, intervals)
        lo, hi = p[:, 1:] - q[:, :-1], p[:, :-1] - q[:, 1:]
        open_ = ((lo - m_sum) < levels) & ((hi + m_sum) >= levels)
        # R F's bounds carry the errors of two node terms and of a fine value,
        # each within m_true of its exact value, times R <= b
        m_r = 8.0 * b * m_true
        open_[n // 2] &= (b * p[:, 1:] - a * q[:, :-1] < m_r) & (a * p[:, :-1] - b * q[:, 1:] > -m_r)
        t_lo, t_hi = tp[:, 1:] - tq[:, :-1], tp[:, :-1] - tq[:, 1:]
        monotone = (t_lo > m_tan) | (t_hi < -m_tan)
        # node and fine values each lie within m_true of F
        m_node = 2.0 * m_true
        f_lo, f_hi = np.minimum(f[:, :-1], f[:, 1:]), np.maximum(f[:, :-1], f[:, 1:])
        apart = ((f_lo - m_node) > levels) | ((f_hi + m_node) < levels)
        open_ &= ~(monotone & apart) & ~fl.T[:, :, None]
        rows, ivs = np.nonzero(open_.any(axis=0))
        counts["windows"] += len(rows)
        wanted = open_[:, rows, ivs].T
        # windows at once: their arcsin tables together stay within one grid's
        chunk = max(1, size // width)
        for s in range(0, len(rows), chunk):
            r, iv = rows[s:s + chunk], ivs[s:s + chunk]
            cols = np.minimum(nodes[iv, None] + np.arange(width), nodes[iv + 1, None])
            v = _signed_sum(e[r], _half_angles(lengths, grid[cols]))
            counts["values"] += v.size
            k, w = np.nonzero(wanted[s:s + chunk])
            side = v[k] >= targets[w, None]
            j, off = np.nonzero(side[:, :-1] != side[:, 1:])
            idx = cols[k[j], off]
            brackets.append((start + r[k[j]], omegas[w[j]], grid[idx], grid[idx + 1]))
    return first, brackets, flat


def _cyclic_roots(jobs: Sequence[tuple[np.ndarray, np.ndarray]], tols: Tolerances):
    """(omega, R) roots of the closure condition for stacks of sign vectors
    of several length vectors, in one pass.

    ``jobs`` holds (lengths, eps) pairs; each row of eps is a +1/-1 sign
    vector with first entry +1.  Sign vectors of one job with the same grid
    top share one radius grid, scanned by ``_scan_windows``, and the
    brackets of every job are bisected in one stack.  Returns per job the
    roots of each row in (omega, R) order, numerically identical roots of
    one winding collapsed; per job the number of degenerate (row, winding)
    pairs; and the pass's counts.
    """
    counts = dict.fromkeys(("sign_vectors", "intervals", "windows", "values",
                            "brackets", "bisect_steps"), 0)
    roots = [[[] for _ in eps] for _, eps in jobs]
    flats = []
    width = max((len(lengths) for lengths, _ in jobs), default=0)
    parts = []  # per bracket: lengths and signs padded to width, omega, lo, hi
    for j, (lengths, eps) in enumerate(jobs):
        counts["sign_vectors"] += len(eps)
        r_min, tops = _radius_tops(lengths, eps)
        padded = np.zeros(width)
        padded[:len(lengths)] = lengths
        flat = 0
        for top in sorted(set(tops.tolist())):
            rows = np.nonzero(tops == top)[0]
            grid = np.geomspace(r_min, top, tols.grid_points)
            first, brackets, degenerate = _scan_windows(lengths, grid, eps[rows], counts)
            flat += int(np.count_nonzero(degenerate))
            for i, omega in first:
                roots[j][rows[i]].append((omega, float(grid[0])))
            for r, omegas, lo, hi in brackets:
                signs = np.ones((len(r), width))
                signs[:, :len(lengths)] = eps[rows[r]]
                parts.append((np.full(len(r), j), rows[r], np.tile(padded, (len(r), 1)),
                              signs, omegas, lo, hi))
        flats.append(flat)
    if parts:
        job, row, lengths, signs, omegas, lo, hi = (np.concatenate(x) for x in zip(*parts))
        radii, counts["bisect_steps"] = _bisect_brackets(lengths, signs, lo, hi,
                                                         math.pi * omegas)
        counts["brackets"] = len(radii)
        for j, i, omega, r in zip(job.tolist(), row.tolist(), omegas.tolist(), radii.tolist()):
            roots[j][i].append((omega, r))
    return [[_collapse(rs) for rs in job] for job in roots], flats, counts


def _collapse(roots: list[tuple[int, float]]) -> list[tuple[int, float]]:
    """Sorted roots with numerically identical roots of one winding merged."""
    out: list[tuple[int, float]] = []
    for omega, r in sorted(roots):
        if not any(o == omega and abs(r - r0) <= DUPLICATE_ROOT_TOL * r for o, r0 in out):
            out.append((omega, r))
    return out


@dataclass(frozen=True, eq=False, slots=True)
class CyclicRoots:
    """The closure roots of one length vector, ahead of its table: row i of
    ``eps`` (S, n), ``omega`` and ``radius`` is the table's solution i (each
    root and its mirror, in table order), and ``flat`` counts the (sign
    vector, winding) pairs whose closure is identically pi * omega."""

    lengths: tuple[float, ...]
    eps: np.ndarray
    omega: np.ndarray
    radius: np.ndarray
    flat: int


@dataclass(frozen=True, eq=False, slots=True)
class CyclicRootPass:
    """The closure roots of several length vectors from one root pass, by
    lengths, and what the pass did (``counts``)."""

    roots: dict[tuple[float, ...], CyclicRoots]
    counts: dict[str, int]

    def log(self, reached: int) -> None:
        """The pass's DEBUG record, once ``reached`` of its length vectors
        have had their tables built."""
        logger.debug(
            "cyclic roots: %(vectors)d length vectors (%(unreached)d solved ahead and "
            "never reached), %(sign_vectors)d sign vectors, %(intervals)d node "
            "intervals, %(windows)d windows, %(values)d closure values, %(brackets)d "
            "brackets, %(bisect_steps)d bisection steps",
            {**self.counts, "vectors": len(self.roots), "unreached": len(self.roots) - reached})


def solve_cyclic(vectors: Sequence[Sequence[float]],
                 tols: Tolerances = DEFAULT_TOLS) -> CyclicRootPass:
    """The closure roots of every length vector of ``vectors``, in one pass
    of ``_cyclic_roots`` over every sign vector with first entry +1.

    Refuses a vector with fewer than three lengths, or lengths that are not
    positive and finite, with ``ValueError``.  A vector that only closes
    flat gets no roots, without any solving.  A vector's warnings and
    refusal wait for its ``cyclic_table``.
    """
    vectors = list(dict.fromkeys(tuple(float(x) for x in v) for v in vectors))
    for lengths in vectors:
        if len(lengths) < 3:
            raise ValueError("need at least 3 edges")
        if not all(0.0 < x < math.inf for x in lengths):
            raise ValueError(f"lengths must be positive and finite, got {lengths}")
    keys = [k for k in vectors if 2 * max(k) < sum(k) * (1 - DEGENERATE_TOL)]
    signs = [_sign_rows(len(k), np.arange(2 ** (len(k) - 1))) for k in keys]
    roots, flats, counts = _cyclic_roots([(np.asarray(k), s) for k, s in zip(keys, signs)], tols)
    found = dict(zip(keys, zip(signs, roots, flats)))
    solved = {}
    for lengths in vectors:
        # a vector that only closes flat has no sign vectors and no roots
        table, rs, flat = found.get(lengths, (np.empty((0, len(lengths))), [], 0))
        sign_row = np.array([i for i, r in enumerate(rs) for _ in r], dtype=np.intp)
        omega = np.array([om for r in rs for om, _ in r], dtype=int)
        radius = np.array([x for r in rs for _, x in r], dtype=float)
        # each root, then its mirror: eps -> -eps, omega -> -omega, equal radius
        eps = np.repeat(table[sign_row], 2, axis=0)
        eps[1::2] *= -1.0
        omega = np.repeat(omega, 2)
        omega[1::2] *= -1
        radius = np.repeat(radius, 2)
        bitmask = (eps > 0).astype(np.intp) @ (1 << np.arange(len(lengths)))
        order = np.lexsort((radius, bitmask, omega))  # stable: a tie keeps root before mirror
        solved[lengths] = CyclicRoots(lengths, eps[order], omega[order], radius[order], flat)
    return CyclicRootPass(solved, counts)


def cyclic_table(roots: CyclicRoots) -> CyclicSolutions:
    """The table of the solutions of ``roots``.  Warns once per degenerate
    closure, then builds the rows with ``_solve_rows``, which flags and
    warns about coinciding solutions and refuses the table when a polygon
    does not close: a vector warns and refuses only when its table is made."""
    for _ in range(roots.flat):
        logger.warning("degenerate closure: F is identically pi*omega; skipping cell")
    if len(roots.radius) == 0:  # the empty table, without solving
        n = len(roots.lengths)
        return CyclicSolutions(roots.lengths, np.empty(0), np.empty(0, dtype=int),
                               np.empty((0, n), dtype=int), np.empty((0, n)),
                               np.empty((0, n, 2)), ())
    return _solve_rows(roots.lengths, roots.eps, roots.omega, roots.radius)


def enumerate_cyclic(lengths: Sequence[float],
                     tols: Tolerances = DEFAULT_TOLS) -> CyclicSolutions:
    """All cyclic configurations of a polygonal linkage, as one table: the
    root pass of ``solve_cyclic`` on this vector alone, then its
    ``cyclic_table``.

    Scans every sign vector with first entry +1 and derives the mirror
    solutions (eps -> -eps, omega -> -omega, equal radius), so both
    orientations are kept.  Rows are sorted by (omega, sign bitmask,
    radius).  Solutions whose vertices coincide within tolerance are all
    kept and flagged "coincident": a diameter edge fits both signs, so each
    solution of the 3-4-5 triangle comes twice.
    """
    solved = solve_cyclic([lengths], tols)
    (roots,) = solved.roots.values()
    solved.log(reached=1)
    return cyclic_table(roots)


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
