"""Independent numerical verification engine.

Works in an edge-angle chart: one absolute angle per edge, one gauge edge
frozen at angle zero (killing rotations), the root vertex at the origin
(killing translations), and a pair of closure equations per fundamental
cycle.  The chart dimension 2|V| - |E| - 3 equals the dimension of the
reduced configuration space at smooth points.

Objectives (oriented area of a cycle, distance of a vertex pair) carry
analytic gradients and Hessians; critical points come from Newton iteration
on the KKT system with least-squares multipliers, and indices from the
inertia of the Lagrangian Hessian restricted to the constraint tangent space.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_TOLS, RunConfig, Tolerances
from .errors import (
    CheckFailedError,
    NoConvergenceError,
    NotCriticalError,
)
from .geometry import Configuration, gauss_newton, lstsq_stack
from .graphs import DistinguishedCycle, LinkageGraph

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# chart
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngleChart:
    """Edge-angle coordinates with closure constraints from fundamental cycles."""

    graph: LinkageGraph
    gauge_edge: int
    # signed tree-path indicator: path_matrix[vi, e] = +-1 when edge e lies on
    # the root-to-vertex path, with +1 for canonical (u -> v) traversal
    path_matrix: np.ndarray
    # constraint coefficients: cycle_matrix[j, e] signed membership of edge e
    # in fundamental cycle j
    cycle_matrix: np.ndarray
    lengths: np.ndarray

    @property
    def n_edges(self) -> int:
        return len(self.graph.edges)

    @property
    def n_constraints(self) -> int:
        return 2 * self.cycle_matrix.shape[0]

    @property
    def n_vars(self) -> int:
        return self.n_edges - 1

    @property
    def dim(self) -> int:
        return self.n_vars - self.n_constraints

    @cached_property
    def var_indices(self) -> np.ndarray:
        return np.array([e for e in range(self.n_edges) if e != self.gauge_edge])

    def full_theta(self, x: np.ndarray) -> np.ndarray:
        theta = np.zeros(x.shape[:-1] + (self.n_edges,))
        theta[..., self.var_indices] = x
        return theta

    def reduce(self, theta: np.ndarray) -> np.ndarray:
        return theta[self.var_indices]

    def points(self, theta: np.ndarray) -> np.ndarray:
        """Vertex positions (|V|, 2) in graph vertex order; a stack of angle
        vectors (S, |E|) gives (S, |V|, 2)."""
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return self.path_matrix @ (self.lengths[:, None] * u)

    def configuration(self, theta: np.ndarray) -> Configuration:
        return Configuration({v: (float(p[0]), float(p[1]))
                              for v, p in zip(self.graph.vertices, self.points(theta))})

    def theta_from_configuration(self, c: Configuration) -> np.ndarray:
        """Edge angles of a configuration, rotated so the gauge edge is at zero."""
        theta = np.empty(self.n_edges)
        for k, (a, b, _) in enumerate(self.graph.edges):
            d = c.point(b) - c.point(a)
            theta[k] = math.atan2(d[1], d[0])
        theta -= theta[self.gauge_edge]
        return np.arctan2(np.sin(theta), np.cos(theta))

    def constraints(self, theta: np.ndarray):
        """Residual vector G (length 2 per cycle) and Jacobian J (m x |E|).

        ``theta`` may be one angle vector (|E|,) or a stack (S, |E|); G and J
        then gain the leading stack axis.
        """
        ct, st = np.cos(theta), np.sin(theta)
        bl = self.cycle_matrix * self.lengths[None, :]
        G = np.concatenate([ct @ bl.T, st @ bl.T], axis=-1)
        J = np.concatenate([-bl * st[..., None, :], bl * ct[..., None, :]], axis=-2)
        return G, J

    def constraint_hessian_combo(self, theta: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """sum_j lam_j Hess(G_j); each Hessian is diagonal in the angles.

        Stacks of angle vectors and multipliers give a stack of matrices.
        """
        ncyc = self.cycle_matrix.shape[0]
        bl = self.cycle_matrix * self.lengths[None, :]
        diag = -(lam[..., :ncyc] @ bl) * np.cos(theta) - (lam[..., ncyc:] @ bl) * np.sin(theta)
        return _diag_stack(diag)

    def closure(self, x: np.ndarray):
        """Residual G and Jacobian J in the reduced angles x (gauge angle
        dropped); one point (n,) or a stack (S, n)."""
        G, J = self.constraints(self.full_theta(x))
        return G, J[..., self.var_indices]

    def project_stack(self, x0: np.ndarray):
        """Gauss-Newton projection of each row of ``x0`` (reduced angles)
        onto the closure set; returns the iterates and a mask of the rows
        that converged."""
        return gauss_newton(self.closure, x0, PROJECT_TOL * self.graph.total_length(),
                            PROJECT_MAX_ITER)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Gauss-Newton projection of one point onto the closure set."""
        xs, converged = self.project_stack(x[None])
        if not converged[0]:
            G, _ = self.closure(xs[0])
            raise NoConvergenceError(f"Gauss-Newton stalled at |G| = {float(np.linalg.norm(G))!r}")
        return xs[0]


def build_chart(g: LinkageGraph, gauge_edge: int | None = None) -> AngleChart:
    """Spanning-tree chart with the lexicographically smallest edge as gauge."""
    n_e, n_v = len(g.edges), len(g.vertices)
    root = min(g.vertices)
    adj = g.adjacency()
    parent_edge: dict[str, tuple[int, int]] = {}  # vertex -> (edge index, sign)
    order = {root: 0}
    queue = [root]
    tree: list[int] = []
    while queue:
        x = queue.pop(0)
        for y, k in sorted(adj[x]):
            if y in order or k in tree:
                continue
            order[y] = len(order)
            u, v, _ = g.edges[k]
            parent_edge[y] = (k, 1 if (u, v) == (x, y) else -1)
            tree.append(k)
            queue.append(y)
    vidx = {v: i for i, v in enumerate(g.vertices)}
    M = np.zeros((n_v, n_e))
    for v in g.vertices:
        x = v
        while x != root:
            k, s = parent_edge[x]
            M[vidx[v], k] += s
            a, b, _ = g.edges[k]
            x = a if s == 1 else b
    tree_set = set(tree)
    cycles = []
    for k in range(n_e):
        if k in tree_set:
            continue
        u, v, _ = g.edges[k]
        row = np.zeros(n_e)
        row[k] = 1.0
        row += M[vidx[u]] - M[vidx[v]]
        cycles.append(row)
    C = np.array(cycles) if cycles else np.zeros((0, n_e))
    if gauge_edge is None:
        gauge_edge = min(range(n_e),
                         key=lambda k: (min(g.edges[k][:2]), max(g.edges[k][:2]), k))
    chart = AngleChart(g, gauge_edge, M, C, np.array(g.lengths()))
    assert chart.n_vars == n_e - 1
    assert chart.n_constraints == 2 * (n_e - n_v + 1)
    return chart


# ---------------------------------------------------------------------------
# objectives
# ---------------------------------------------------------------------------

def _diag_stack(d: np.ndarray) -> np.ndarray:
    """Diagonal matrices with the last axis of ``d`` on their diagonals."""
    k = d.shape[-1]
    out = np.zeros(d.shape + (k,))
    out[..., np.arange(k), np.arange(k)] = d
    return out


class CycleAreaObjective:
    """Oriented (shoelace) area of a distinguished cycle, in chart angles.

    ``grad`` and ``hess`` take one angle vector or a stack (S, |E|).
    """

    def __init__(self, chart: AngleChart, gamma: DistinguishedCycle):
        self.chart = chart
        vidx = {v: i for i, v in enumerate(chart.graph.vertices)}
        M = chart.path_matrix
        n = len(gamma.vertices)
        C = np.zeros((chart.n_edges, chart.n_edges))
        for i in range(n):
            a = vidx[gamma.vertices[i]]
            b = vidx[gamma.vertices[(i + 1) % n]]
            C += np.outer(M[a], M[b])
        ll = np.outer(chart.lengths, chart.lengths)
        self.A = 0.5 * (C - C.T) * ll  # antisymmetric pairwise coefficients

    def value(self, theta: np.ndarray) -> float:
        diff = theta[None, :] - theta[:, None]
        return 0.5 * float(np.sum(self.A * np.sin(diff)))

    def grad(self, theta: np.ndarray) -> np.ndarray:
        # diff[..., e, g] = theta_g - theta_e
        diff = theta[..., None, :] - theta[..., :, None]
        return np.sum(self.A * np.cos(diff), axis=-2)

    def hess(self, theta: np.ndarray) -> np.ndarray:
        diff = theta[..., None, :] - theta[..., :, None]
        B = self.A * np.sin(diff)
        H = np.swapaxes(B, -1, -2).copy()
        k = theta.shape[-1]
        H[..., np.arange(k), np.arange(k)] = -B.sum(axis=-2)
        return H


class VertexDistanceObjective:
    """Euclidean distance between two vertices, in chart angles.

    ``grad`` and ``hess`` take one angle vector or a stack (S, |E|).
    """

    def __init__(self, chart: AngleChart, x: str, y: str):
        self.chart = chart
        vidx = {v: i for i, v in enumerate(chart.graph.vertices)}
        b = chart.path_matrix[vidx[y]] - chart.path_matrix[vidx[x]]
        self.bl = b * chart.lengths

    def _vec(self, theta):
        """Separation (vx, vy), each with a trailing axis for broadcasting."""
        return ((np.cos(theta) @ self.bl)[..., None],
                (np.sin(theta) @ self.bl)[..., None])

    def value(self, theta: np.ndarray) -> float:
        vx, vy = self._vec(theta)
        return float(np.hypot(vx, vy)[0])

    def grad(self, theta: np.ndarray) -> np.ndarray:
        vx, vy = self._vec(theta)
        d = np.hypot(vx, vy)
        gq = 2.0 * (vx * (-self.bl * np.sin(theta)) + vy * (self.bl * np.cos(theta)))
        return gq / (2.0 * d)

    def hess(self, theta: np.ndarray) -> np.ndarray:
        vx, vy = self._vec(theta)
        d = np.hypot(vx, vy)[..., None]
        dx = -self.bl * np.sin(theta)
        dy = self.bl * np.cos(theta)
        gq = 2.0 * (vx * dx + vy * dy)
        hq = 2.0 * (dx[..., :, None] * dx[..., None, :] + dy[..., :, None] * dy[..., None, :])
        hq += _diag_stack(2.0 * (vx * (-self.bl * np.cos(theta))
                                 + vy * (-self.bl * np.sin(theta))))
        return hq / (2.0 * d) - gq[..., :, None] * gq[..., None, :] / (4.0 * d ** 3)


# ---------------------------------------------------------------------------
# inertia
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InertiaTriple:
    negative: int
    zero: int
    positive: int
    eigenvalues: tuple[float, ...] = ()
    zero_band: float = 0.0

    def as_tuple(self):
        return (self.negative, self.zero, self.positive)

    def to_json_dict(self):
        return {"neg": self.negative, "zero": self.zero, "pos": self.positive,
                "eigenvalues": list(self.eigenvalues), "zero_band": self.zero_band}


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

PROJECT_MAX_ITER = 100  # Gauss-Newton steps before a projection gives up
PROJECT_TOL = 1e-12     # a projection converges at |G| <= PROJECT_TOL * total length
NEWTON_MAX_ITER = 80    # KKT Newton steps before a seed counts as failed
NEWTON_FEAS_TOL = 1e-11  # a Newton row converges only at |G| <= NEWTON_FEAS_TOL * scale
# with the stall exit on, a row still at |G| > NEWTON_STALL_FEAS * scale after
# NEWTON_STALL_ITER steps stops.  Converging cold-start rows sat at least 3x
# below it on every instance measured; warm-started corrector runs reached
# 0.065 * scale and converged, so continuation keeps the full budget
NEWTON_STALL_ITER = 20
NEWTON_STALL_FEAS = 0.03
# inertia refuses a point with |rho| > CRITICAL_GRAD_TOL * max(1, scale**2)
# or |G| > CRITICAL_FEAS_TOL * scale
CRITICAL_GRAD_TOL = 1e-6
CRITICAL_FEAS_TOL = 1e-8
RANK_CUT = 1e-10  # singular values of J up to RANK_CUT * max(s_max, 1) count as zero
# inertia's zero band scales with max(|eig|), floored at EIG_SCALE_FLOOR
EIG_SCALE_FLOOR = 1e-300
# fd_check: central-difference steps for the gradient and the Hessian, and the
# largest entry errors it accepts, relative to max(1, largest analytic entry)
FD_GRAD_STEP = 1e-6
FD_HESS_STEP = 1e-4
FD_GRAD_TOL = 1e-6
FD_HESS_TOL = 1e-4
# seeds per stacked block in find_critical; bounds the sweep's peak memory
SWEEP_BLOCK = 250

# per-row outcome of ChartOracle.newton_stack
NEWTON_CONVERGED, NEWTON_NONFINITE, NEWTON_BUDGET, NEWTON_STALLED = 0, 1, 2, 3


def _dist(p: np.ndarray, q: np.ndarray) -> float:
    """Max-norm distance between two position vectors."""
    return float(np.max(np.abs(p - q)))


def _kkt_solve(K: np.ndarray, rhs: np.ndarray):
    """Solve K[i] sol[i] = rhs[i] over a stack; a singular K[i] gets the
    least-squares solution.  Returns the solutions and a mask of the rows
    whose solution is finite."""
    try:
        sol = np.linalg.solve(K, rhs[..., None])[..., 0]
    except np.linalg.LinAlgError:
        # one singular matrix fails the whole stacked call: redo row by row
        sol = np.empty_like(rhs)
        for i in range(len(K)):
            try:
                sol[i] = np.linalg.solve(K[i], rhs[i])
            except np.linalg.LinAlgError:
                sol[i] = np.linalg.lstsq(K[i], rhs[i], rcond=None)[0]
    return sol, np.all(np.isfinite(sol), axis=1)


def _cluster(pos: np.ndarray, resid: np.ndarray, thr: float) -> list[int]:
    """Greedy clustering of converged points, taken in row order.

    A point joins the first representative whose position vector lies within
    ``thr`` (max-norm) and replaces it when its stationarity residual is
    lower; otherwise it starts a cluster.  Returns the representatives' rows.
    """
    reps: list[int] = []
    for i in range(len(pos)):
        if reps:
            near = np.flatnonzero(np.max(np.abs(pos[reps] - pos[i]), axis=1) <= thr)
            if near.size:
                j = near[0]
                if resid[i] < resid[reps[j]]:
                    reps[j] = i
                continue
        reps.append(i)
    return reps


class ChartOracle:
    """Constrained critical-point machinery for one linkage and objective."""

    def __init__(self, g: LinkageGraph, gamma: DistinguishedCycle | None = None,
                 tols: Tolerances = DEFAULT_TOLS, gauge_edge: int | None = None,
                 objective=None):
        self.graph = g
        self.tols = tols
        self.chart = build_chart(g, gauge_edge)
        if objective is not None:
            self.objective = objective(self.chart)
        elif gamma is not None:
            self.objective = CycleAreaObjective(self.chart, gamma)
        else:
            raise ValueError("need a cycle or an objective factory")
        self.scale = g.total_length()
        self._vi = self.chart.var_indices

    # reduced-variable wrappers: each takes one point (n,) or a stack (S, n) -----
    def f(self, x: np.ndarray) -> float:
        return self.objective.value(self.chart.full_theta(x))

    def g(self, x: np.ndarray) -> np.ndarray:
        return self.objective.grad(self.chart.full_theta(x))[..., self._vi]

    def h(self, x: np.ndarray) -> np.ndarray:
        return self.objective.hess(self.chart.full_theta(x))[..., self._vi, :][..., self._vi]

    def constraints(self, x: np.ndarray):
        return self.chart.closure(x)

    def lagrangian_hess(self, x: np.ndarray, lam: np.ndarray) -> np.ndarray:
        theta = self.chart.full_theta(x)
        HL = self.objective.hess(theta) - self.chart.constraint_hessian_combo(theta, lam)
        return HL[..., self._vi, :][..., self._vi]

    def multipliers(self, x: np.ndarray):
        """Least-squares multipliers lam, stationarity residual rho = g - J^T lam,
        constraint residual G and Jacobian J."""
        gS = self.g(x)
        G, J = self.constraints(x)
        if J.shape[-2] == 0:
            return np.zeros(G.shape), gS, G, J
        JT = np.swapaxes(J, -1, -2)
        lam = lstsq_stack(JT, gS)
        return lam, gS - (JT @ lam[..., None])[..., 0], G, J

    def stationarity_residual(self, x: np.ndarray) -> float:
        _, rho, _, _ = self.multipliers(x)
        return float(np.linalg.norm(rho))

    # manifold operations -------------------------------------------------------
    def project(self, x: np.ndarray) -> np.ndarray:
        """Gauss-Newton projection onto the closure constraint set."""
        return self.chart.project(x)

    def newton_stack(self, x0: np.ndarray, drop_stalled: bool = False):
        """Newton iteration on the KKT system for each row of ``x0``.

        Returns the final iterates, their multipliers, the stationarity
        residual |rho| at convergence (nan elsewhere) and a status per row:
        NEWTON_CONVERGED, NEWTON_NONFINITE (a step was not finite),
        NEWTON_BUDGET (NEWTON_MAX_ITER steps without converging) or, with
        ``drop_stalled``, NEWTON_STALLED (still infeasible after
        NEWTON_STALL_ITER steps).  Rows are independent: leaving the stack
        early does not change any other row's arithmetic.
        """
        grad_tol = self.tols.gradient * max(1.0, self.scale ** 2)
        feas_tol = NEWTON_FEAS_TOL * self.scale
        n, m = self.chart.n_vars, self.chart.n_constraints
        x = np.array(x0, dtype=float)
        lam = np.zeros((len(x), m))
        rho_norm = np.full(len(x), np.nan)
        status = np.full(len(x), NEWTON_BUDGET)
        rows = np.arange(len(x))  # rows of x still iterating, held in xa
        xa = x.copy()
        for it in range(NEWTON_MAX_ITER + 1):
            lam_a, rho, G, J = self.multipliers(xa)
            rn, gn = np.linalg.norm(rho, axis=1), np.linalg.norm(G, axis=1)
            hit = (rn <= grad_tol) & (gn <= feas_tol)
            done = rows[hit]
            x[done], lam[done], rho_norm[done] = xa[hit], lam_a[hit], rn[hit]
            status[done] = NEWTON_CONVERGED
            if drop_stalled and it == NEWTON_STALL_ITER:
                stalled = gn > NEWTON_STALL_FEAS * self.scale  # never a hit row
                x[rows[stalled]] = xa[stalled]
                status[rows[stalled]] = NEWTON_STALLED
                hit |= stalled
            if hit.any():
                keep = ~hit
                rows, xa, lam_a, rho, G, J = (rows[keep], xa[keep], lam_a[keep],
                                              rho[keep], G[keep], J[keep])
            if it == NEWTON_MAX_ITER or rows.size == 0:
                break
            K = np.zeros((rows.size, n + m, n + m))
            K[:, :n, :n] = self.lagrangian_hess(xa, lam_a)
            K[:, :n, n:] = -np.swapaxes(J, 1, 2)
            K[:, n:, :n] = J
            sol, finite = _kkt_solve(K, -np.concatenate([rho, G], axis=1))
            if not finite.all():
                x[rows[~finite]] = xa[~finite]
                status[rows[~finite]] = NEWTON_NONFINITE
                rows, xa, sol = rows[finite], xa[finite], sol[finite]
            dx = sol[:, :n]  # clamped to norm 0.5
            xa = xa + 0.5 * dx / np.maximum(np.linalg.norm(dx, axis=1, keepdims=True), 0.5)
        x[rows] = xa
        return x, lam, rho_norm, status

    def newton_kkt(self, x: np.ndarray):
        """Newton iteration on the KKT system; returns (x, lam) or None."""
        xs, lam, _, status = self.newton_stack(x[None])
        return (xs[0], lam[0]) if status[0] == NEWTON_CONVERGED else None

    def inertia(self, x: np.ndarray, check_critical: bool = True) -> InertiaTriple:
        """Inertia of the Lagrangian Hessian on the constraint tangent space."""
        lam, rho, G, J = self.multipliers(x)
        if check_critical:
            rho_norm, G_norm = float(np.linalg.norm(rho)), float(np.linalg.norm(G))
            if rho_norm > CRITICAL_GRAD_TOL * max(1.0, self.scale ** 2) \
                    or G_norm > CRITICAL_FEAS_TOL * self.scale:
                raise NotCriticalError(
                    f"not critical: |rho| = {rho_norm!r}, |G| = {G_norm!r}")
        HL = self.lagrangian_hess(x, lam)
        if J.shape[0] == 0:
            N = np.eye(J.shape[1])
        else:
            _, sv, vt = np.linalg.svd(J)
            rank = int(np.sum(sv > RANK_CUT * max(sv[0], 1.0)))
            N = vt[rank:].T
        if N.shape[1] == 0:
            return InertiaTriple(0, 0, 0)
        Mred = N.T @ HL @ N
        Mred = 0.5 * (Mred + Mred.T)
        eig = np.linalg.eigvalsh(Mred)
        band = self.tols.eigen_zero_band * max(float(np.max(np.abs(eig))), EIG_SCALE_FLOOR)
        neg = int(np.sum(eig < -band))
        zero = int(np.sum(np.abs(eig) <= band))
        pos = int(np.sum(eig > band))
        return InertiaTriple(neg, zero, pos, tuple(float(v) for v in eig), band)

    def smallest_signed_eigenvalue(self, x: np.ndarray) -> float:
        tri = self.inertia(x, check_critical=False)
        eig = np.asarray(tri.eigenvalues)
        return float(eig[np.argmin(np.abs(eig))]) if eig.size else 0.0

    # global search --------------------------------------------------------------
    def find_critical(self, n_seeds: int, seed: int = 42):
        """Clustered critical points from random feasible seeds.

        The seeds run through projection and Newton-KKT as stacked arrays,
        SWEEP_BLOCK at a time; Newton rows that stall are dropped at
        NEWTON_STALL_ITER.  Returns a list of (x, InertiaTriple,
        Configuration) sorted by area value then chart coordinates.
        """
        rng = np.random.default_rng(seed)
        starts = rng.uniform(-math.pi, math.pi, (n_seeds, self.chart.n_vars))
        xs = [np.zeros((0, self.chart.n_vars))]
        rhos = [np.zeros(0)]
        project_failed = nonfinite = budget = stalled = 0
        for b in range(0, n_seeds, SWEEP_BLOCK):
            x, projected = self.chart.project_stack(starts[b:b + SWEEP_BLOCK])
            project_failed += int(np.sum(~projected))
            x, _, rho_norm, status = self.newton_stack(x[projected], drop_stalled=True)
            nonfinite += int(np.sum(status == NEWTON_NONFINITE))
            budget += int(np.sum(status == NEWTON_BUDGET))
            stalled += int(np.sum(status == NEWTON_STALLED))
            converged = status == NEWTON_CONVERGED
            xs.append(x[converged])
            rhos.append(rho_norm[converged])
        x, rho_norm = np.concatenate(xs), np.concatenate(rhos)
        # lexicographic, stable order of the rounded rows; column 0 leads
        order = np.lexsort(np.round(x, 9).T[::-1])
        x, rho_norm = x[order], rho_norm[order]
        reps = _cluster(self._positions_vector(x), rho_norm,
                        self.tols.match * self.scale)
        logger.debug(
            "find_critical: %(seeds)d seeds, %(project_failed)d projection failures, "
            "%(newton_nonfinite)d Newton non-finite steps, %(newton_budget)d Newton "
            "budgets exhausted, %(newton_stalled)d Newton stalled, %(converged)d "
            "converged, %(clusters)d clusters",
            {"seeds": n_seeds, "project_failed": project_failed,
             "newton_nonfinite": nonfinite, "newton_budget": budget,
             "newton_stalled": stalled, "converged": len(x), "clusters": len(reps)})
        out = [(x[i], self.inertia(x[i]),
                self.chart.configuration(self.chart.full_theta(x[i]))) for i in reps]
        out.sort(key=lambda t: (round(self.f(t[0]), 9), tuple(np.round(t[0], 7))))
        return out

    def _positions_vector(self, x: np.ndarray) -> np.ndarray:
        """Vertex positions (x0, y0, x1, y1, ...) of one point or a stack."""
        pts = self.chart.points(self.chart.full_theta(x))
        return pts.reshape(x.shape[:-1] + (2 * pts.shape[-2],))

    # finite differences ----------------------------------------------------------
    def fd_check(self, x: np.ndarray, grad_fn=None):
        """Central-difference audit of the analytic gradient and Hessian of
        the objective at a feasible point.  Raises CheckFailedError with the
        offending entries."""
        h = FD_GRAD_STEP
        n = self.chart.n_vars
        f = self.f
        ga = (grad_fn or self.g)(x)
        gn = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            gn[i] = (f(x + e) - f(x - e)) / (2 * h)
        gscale = max(1.0, float(np.max(np.abs(ga))))
        bad = [("grad", (i,), float(ga[i]), float(gn[i]))
               for i in range(n) if abs(ga[i] - gn[i]) > FD_GRAD_TOL * gscale]

        # second differences need a larger step: roundoff scales as 1/h^2
        hh = FD_HESS_STEP
        Ha = self.h(x)
        Hn = np.empty((n, n))
        f0 = f(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = hh
            Hn[i, i] = (f(x + 2 * ei) - 2 * f0 + f(x - 2 * ei)) / (4 * hh * hh)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = hh
                val = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4 * hh * hh)
                Hn[i, j] = Hn[j, i] = val
        hscale = max(1.0, float(np.max(np.abs(Ha))))
        bad += [("hess", (i, j), float(Ha[i, j]), float(Hn[i, j]))
                for i in range(n) for j in range(i, n)
                if abs(Ha[i, j] - Hn[i, j]) > FD_HESS_TOL * hscale]
        report = {
            "grad_err": float(np.max(np.abs(ga - gn)) / gscale),
            "hess_err": float(np.max(np.abs(Ha - Hn)) / hscale),
            "ok": not bad,
        }
        if bad:
            raise CheckFailedError(f"{len(bad)} finite-difference mismatches", entries=bad)
        return report


def area_oracle(g: LinkageGraph, gamma: DistinguishedCycle,
                tols: Tolerances = DEFAULT_TOLS) -> ChartOracle:
    return ChartOracle(g, gamma, tols)


def distance_oracle(g: LinkageGraph, x: str, y: str,
                    tols: Tolerances = DEFAULT_TOLS) -> ChartOracle:
    return ChartOracle(g, None, tols,
                       objective=lambda chart: VertexDistanceObjective(chart, x, y))


def project_to_manifold(chart: AngleChart, theta0: np.ndarray) -> np.ndarray:
    """Gauss-Newton projection of a full angle vector onto the closure set.

    The angles are first rotated so the gauge angle is zero; raises
    NoConvergenceError after the iteration budget.
    """
    return chart.full_theta(chart.project(chart.reduce(theta0 - theta0[chart.gauge_edge])))


def find_critical_numeric(g: LinkageGraph, gamma: DistinguishedCycle,
                          n_seeds: int = 1000, seed: int = 42,
                          tols: Tolerances = DEFAULT_TOLS):
    """Critical points of the oriented area from random seeds, with inertia."""
    oracle = area_oracle(g, gamma, tols)
    return [(cfgn, tri) for _, tri, cfgn in oracle.find_critical(n_seeds, seed)]


def constrained_inertia(g: LinkageGraph, gamma: DistinguishedCycle, c: Configuration,
                        tols: Tolerances = DEFAULT_TOLS) -> InertiaTriple:
    oracle = area_oracle(g, gamma, tols)
    x = oracle.chart.reduce(oracle.chart.theta_from_configuration(c))
    return oracle.inertia(x)


# ---------------------------------------------------------------------------
# continuation
# ---------------------------------------------------------------------------

SUBSTEP_MAX_HALVINGS = 10  # a rescue tries at most 2**10 substeps per step
BISECT_ITERS = 48          # eigen-zero bisection steps; 2**-48 of the step
BISECT_STOP = 1e-12        # ... or fewer, once the bracket is BISECT_STOP * max(1, |t|)


@dataclass
class BranchPoint:
    param: float
    x: np.ndarray
    area: float
    inertia: InertiaTriple


@dataclass
class Branch:
    id: int
    points: list[BranchPoint] = field(default_factory=list)
    lost_at: float | None = None

    @property
    def born_at(self) -> float:
        return self.points[0].param


@dataclass(frozen=True)
class Event:
    param: float
    type: str  # PitchforkSplit | PitchforkMerge | HessianZero
    branch: int
    meta: dict


@dataclass
class BranchDiagram:
    edge: int
    params: list[float]
    branches: list[Branch]
    events: list[Event]
    warnings: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "edge": self.edge,
            "params": self.params,
            "branches": [{
                "id": b.id,
                "born_at": b.born_at,
                "lost_at": b.lost_at,
                "points": [{"param": p.param, "area": p.area,
                            "neg": p.inertia.negative, "zero": p.inertia.zero,
                            "pos": p.inertia.positive} for p in b.points],
            } for b in self.branches],
            "events": [{"param": e.param, "type": e.type, "branch": e.branch,
                        "meta": e.meta} for e in self.events],
            "warnings": self.warnings,
        }

    def to_csv(self) -> str:
        lines = ["param,branch,area,neg,zero,pos"]
        rows = []
        for b in self.branches:
            for p in b.points:
                rows.append((p.param, b.id, p.area, p.inertia.negative,
                             p.inertia.zero, p.inertia.positive))
        rows.sort()
        for r in rows:
            lines.append(f"{r[0]!r},{r[1]},{r[2]!r},{r[3]},{r[4]},{r[5]}")
        return "\n".join(lines) + "\n"


def continue_family(g: LinkageGraph, edge: int, start: float, stop: float,
                    steps: int, gamma: DistinguishedCycle,
                    cfg: RunConfig | None = None,
                    n_seeds_step: int = 160) -> BranchDiagram:
    """Predictor-corrector continuation of every critical branch in one edge
    length, with Hessian-zero and pitchfork event detection."""
    cfg = cfg or RunConfig()
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if start == stop or steps == 0:
        params = [float(start)]
    else:
        params = [float(t) for t in np.linspace(start, stop, steps + 1)]

    def oracle_at(t: float) -> ChartOracle:
        return area_oracle(g.with_edge_length(edge, t), gamma, cfg.tols)

    diagram = BranchDiagram(edge, params, [], [])
    o0 = oracle_at(params[0])
    thr = cfg.tols.match * o0.scale
    capture = 0.08 * o0.scale

    clusters = o0.find_critical(max(cfg.n_seeds, n_seeds_step), cfg.seed)
    for x, tri, _ in clusters:
        diagram.branches.append(
            Branch(len(diagram.branches), [BranchPoint(params[0], x, o0.f(x), tri)]))

    for k in range(1, len(params)):
        ok = oracle_at(params[k])
        fresh = ok.find_critical(n_seeds_step, cfg.seed + k)
        _match_step(diagram, oracle_at, ok, fresh, params[k - 1], params[k],
                    thr, capture)

    _detect_events(diagram, oracle_at, capture)
    return diagram


def _match_step(diagram: BranchDiagram, oracle_at, ok: ChartOracle, fresh,
                t_prev: float, t: float, thr: float, capture: float) -> None:
    """Carry every live branch from t_prev to t, then add the births at t.

    ``ok`` is the oracle at t and ``fresh`` its discovery sweep.
    """
    fresh_pos = [ok._positions_vector(xc) for xc, _, _ in fresh]

    # secant predictions plus their Newton corrections; a branch trusts
    # its own corrected continuation (the discovery sweep may miss points
    # whose basins shrink near a degeneracy)
    cands = []  # (drift, bid, xcorr, corr_pos, pred_pos)
    for br in diagram.branches:
        if br.lost_at is not None:
            continue
        xprev = br.points[-1].x
        # np.linspace repeats values on a range narrower than the float spacing
        if len(br.points) >= 2 and br.points[-2].param != br.points[-1].param:
            slope = ((br.points[-1].x - br.points[-2].x)
                     / (br.points[-1].param - br.points[-2].param))
            xpred = xprev + slope * (t - t_prev)
        else:
            xpred = xprev
        xcorr = _correct_branch(ok, xpred)
        if xcorr is None:
            continue
        pv = ok._positions_vector(xcorr)
        if _dist(pv, ok._positions_vector(xprev)) <= capture:
            pred_pos = ok._positions_vector(xpred)
            cands.append((_dist(pv, pred_pos), br.id, xcorr, pv, pred_pos))

    claimed: set[int] = set()  # indices into fresh
    extended: dict[int, np.ndarray] = {}  # bid -> final position

    # pass A: corrected continuations, most confident first
    for _, bid, xcorr, pv, pred_pos in sorted(cands, key=lambda c: (c[0], c[1])):
        br = diagram.branches[bid]
        hit = next((ci for ci, qv in enumerate(fresh_pos) if _dist(pv, qv) <= 3 * thr),
                   None)
        if hit in claimed or any(_dist(pv, q) <= thr for q in extended.values()):
            # the correction jumped onto a neighbor: the branch's true
            # continuation may still sit in the fresh set near the prediction
            hit = _nearest_unclaimed(pred_pos, fresh_pos, claimed, capture)
            if hit is None:
                _end_branch(diagram, br, t, "merged into another branch at")
                continue
        if hit is None:
            xn, tri, pn = xcorr, ok.inertia(xcorr), pv
        else:
            claimed.add(hit)
            (xn, tri, _), pn = fresh[hit], fresh_pos[hit]
        br.points.append(BranchPoint(t, xn, ok.f(xn), tri))
        extended[bid] = pn

    # pass B: substepped rescue for branches whose correction failed
    for br in diagram.branches:
        if br.lost_at is not None or br.id in extended:
            continue
        xnew = _substep_correct(oracle_at, br.points[-1].x, t_prev, t)
        if xnew is None:
            _end_branch(diagram, br, t, "lost at parameter")
            continue
        pv = ok._positions_vector(xnew)
        if any(_dist(pv, q) <= thr for q in extended.values()):
            _end_branch(diagram, br, t, "merged into another branch at")
            continue
        for ci, qv in enumerate(fresh_pos):
            if ci not in claimed and _dist(pv, qv) <= 3 * thr:
                claimed.add(ci)
                break
        br.points.append(BranchPoint(t, xnew, ok.f(xnew), ok.inertia(xnew)))
        extended[br.id] = pv

    # births: fresh clusters nobody claimed or re-derived
    for ci, (xc, tri, _) in enumerate(fresh):
        if ci in claimed or any(_dist(fresh_pos[ci], q) <= thr
                                for q in extended.values()):
            continue
        diagram.branches.append(
            Branch(len(diagram.branches), [BranchPoint(t, xc, ok.f(xc), tri)]))


def _nearest_unclaimed(pv: np.ndarray, fresh_pos, claimed: set[int],
                       capture: float) -> int | None:
    """Index of the unclaimed fresh cluster nearest pv, strictly within capture."""
    best, best_d = None, capture
    for ci, qv in enumerate(fresh_pos):
        if ci in claimed:
            continue
        d = _dist(pv, qv)
        if d < best_d:
            best, best_d = ci, d
    return best


def _end_branch(diagram: BranchDiagram, br: Branch, t: float, why: str) -> None:
    br.lost_at = t
    diagram.warnings.append(f"branch {br.id} {why} {t!r}")


def _correct_branch(oracle: ChartOracle, x: np.ndarray):
    try:
        x = oracle.project(x)
    except NoConvergenceError:
        return None
    res = oracle.newton_kkt(x)
    return None if res is None else res[0]


def _substep_correct(oracle_at, x, t_from, t_to):
    """March toward t_to with step halving (budget 2**SUBSTEP_MAX_HALVINGS substeps)."""
    t, step = t_from, t_to - t_from
    budget = 2 ** SUBSTEP_MAX_HALVINGS
    halvings = 0
    while budget > 0:
        target = t + step
        overshoot = (step > 0 and target > t_to) or (step < 0 and target < t_to)
        if overshoot:
            target = t_to
        xnew = _correct_branch(oracle_at(target), x)
        budget -= 1
        if xnew is not None:
            t, x = target, xnew
            if t == t_to:
                return x
        else:
            if halvings >= SUBSTEP_MAX_HALVINGS:
                return None
            step *= 0.5
            halvings += 1
    return None


def _detect_events(diagram: BranchDiagram, oracle_at, capture):
    """Hessian zeros from inertia flips; pitchforks from flips plus births/deaths."""
    for br in diagram.branches:
        for a, b in zip(br.points, br.points[1:]):
            if (a.inertia.negative, a.inertia.zero) == (b.inertia.negative, b.inertia.zero):
                continue
            t_star = _bisect_eigen_zero(oracle_at, a, b)
            meta = {
                "inertia_before": a.inertia.as_tuple(),
                "inertia_after": b.inertia.as_tuple(),
            }
            diagram.events.append(Event(t_star, "HessianZero", br.id, meta))
            births = _local_companions(diagram, br, a, b, oracle_at, capture, born=True)
            deaths = _local_companions(diagram, br, a, b, oracle_at, capture, born=False)
            if len(births) >= 2:
                meta2 = dict(meta)
                meta2["companions"] = sorted(births)
                meta2["signature"] = _pitchfork_signature(diagram, a, b, births)
                diagram.events.append(Event(t_star, "PitchforkSplit", br.id, meta2))
            elif len(deaths) >= 2:
                meta2 = dict(meta)
                meta2["companions"] = sorted(deaths)
                meta2["signature"] = _pitchfork_signature(diagram, b, a, deaths)
                diagram.events.append(Event(t_star, "PitchforkMerge", br.id, meta2))
    diagram.events.sort(key=lambda e: (e.param, e.type, e.branch))


def _signed_eig(oracle_at, t: float, xw: np.ndarray):
    """(smallest signed eigenvalue, corrected point) at t, warm-started at xw;
    (None, xw) when the correction fails."""
    ok = oracle_at(t)
    xc = _correct_branch(ok, xw)
    if xc is None:
        return None, xw
    return ok.smallest_signed_eigenvalue(xc), xc


def _bisect_eigen_zero(oracle_at, a: BranchPoint, b: BranchPoint) -> float:
    (lo, xa), (hi, xb) = sorted([(a.param, a.x), (b.param, b.x)],
                                key=lambda p: p[0])
    flo, xlo = _signed_eig(oracle_at, lo, xa)
    fhi, _ = _signed_eig(oracle_at, hi, xb)
    if flo is None or fhi is None or flo * fhi > 0:
        return 0.5 * (lo + hi)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        fm, xm = _signed_eig(oracle_at, mid, xlo)
        if fm is None:
            break
        if (fm < 0) == (flo < 0):
            lo, flo, xlo = mid, fm, xm
        else:
            hi = mid
        if hi - lo < BISECT_STOP * max(1.0, abs(hi)):
            break
    return 0.5 * (lo + hi)


def _local_companions(diagram, br, a, b, oracle_at, capture, born):
    """Branch ids born (or dying) in this step near the flipping branch."""
    others = []  # (id, point compared with the flipping branch)
    for other in diagram.branches:
        if other.id == br.id:
            continue
        if born:
            if other.points[0].param == b.param:
                others.append((other.id, other.points[0].x))
        # b.param is the step where a death in this span is recorded
        elif other.lost_at is not None and (
                other.lost_at == b.param
                or min(a.param, b.param) < other.lost_at < max(a.param, b.param)):
            others.append((other.id, other.points[-1].x))
    # births are compared at b, deaths at a
    ok = oracle_at(b.param if born else a.param)
    ref = ok._positions_vector(b.x if born else a.x)
    return [oid for oid, xo in others if _dist(ok._positions_vector(xo), ref) <= capture]


def _pitchfork_signature(diagram, before: BranchPoint, after: BranchPoint, companions):
    dim = before.inertia.negative + before.inertia.zero + before.inertia.positive
    def kind(tri):
        if tri.negative == dim:
            return "max"
        if tri.positive == dim:
            return "min"
        return "saddle"
    return {
        "center_before": kind(before.inertia),
        "center_after": kind(after.inertia),
        "companions": sorted(kind(diagram.branches[cid].points[0].inertia)
                             for cid in companions),
    }
