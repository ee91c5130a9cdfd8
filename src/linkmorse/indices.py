"""Closed-form Morse and Bott-Morse index formulas.

All inputs are exact integer data (edge-sign counts, windings, forward
counts) extracted with tolerances at the geometry layer; this layer is
integer arithmetic plus one guarded sign test.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .config import DEFAULT_TOLS, Tolerances
from .errors import CoincidingCentersError, NonGenericError, NotAlignedError
from .geometry import CyclicPolygon

logger = logging.getLogger(__name__)

# a half-angle within RIGHT_ANGLE_TOL (radians) of pi/2 has an infinite tangent
RIGHT_ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class OpenChainCritical:
    """Aligned critical configuration of an open chain.

    r is the edge count, f the number of forward edges (edges directed the
    same way as the endpoint-to-endpoint vector), direction the unit vector
    of the aligned line from the initial toward the terminal point.
    """

    r: int
    f: int
    direction: tuple[float, float]

    def __post_init__(self):
        if not 1 <= self.f <= self.r:
            raise NotAlignedError(f"forward count f={self.f} outside 1..r={self.r}")


@dataclass(frozen=True)
class IndexReport:
    index: int
    manifold_dim: int
    breakdown: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.index < 0 or self.manifold_dim < 0:
            raise ValueError("index and dimension must be nonnegative")

    def to_json_dict(self) -> dict:
        return {"index": self.index, "manifold_dim": self.manifold_dim,
                "breakdown": [[label, v] for label, v in self.breakdown]}


def open_chain_index(crit: OpenChainCritical) -> int:
    """Morse index of the endpoint distance at an aligned chain: f - 1."""
    return crit.f - 1


def cyclic_index(p: CyclicPolygon, tols: Tolerances = DEFAULT_TOLS) -> int:
    """Morse index of the oriented area at a cyclic polygon.

    e - 1 - 2*omega when sum(eps_i tan alpha_i) > 0, else e - 2 - 2*omega.
    Raises NonGenericError when the sign test is too close to call; a
    half-angle at pi/2 contributes an infinite term whose sign decides the
    branch by limit.
    """
    mu = p.e - 1 - 2 * p.omega if _tan_sum_positive(p, tols) else p.e - 2 - 2 * p.omega
    if not 0 <= mu <= max(p.n - 3, 0):
        logger.warning("cyclic index %d escapes the Morse bound [0, %d]; "
                       "treat this configuration as suspect", mu, p.n - 3)
    return mu


def _tan_sum_positive(p: CyclicPolygon, tols: Tolerances) -> bool:
    terms = []
    inf_signs = []
    for e, a in zip(p.eps, p.alphas):
        if abs(a - 0.5 * math.pi) < RIGHT_ANGLE_TOL:
            inf_signs.append(e)
        else:
            terms.append(e * math.tan(a))
    if inf_signs:
        if all(s > 0 for s in inf_signs):
            return True
        if all(s < 0 for s in inf_signs):
            return False
        raise NonGenericError("diverging half-angle terms of opposite signs")
    total = sum(terms)
    scale = sum(abs(t) for t in terms)
    if abs(total) < tols.sign_guard * scale:
        raise NonGenericError(
            f"sign test sum(eps tan alpha) = {total!r} is below the guard band")
    return total > 0


def aligned_nu(z: OpenChainCritical, oa: Sequence[float], ob: Sequence[float],
               tol: float = 1e-12) -> int:
    """Chain contribution at an aligned critical point.

    f - 1 when (W, O_A O_B) is positively oriented, else r - f, with O_A and
    O_B the circumcenters of the two polygons meeting along the diagonal.
    """
    oa = np.asarray(oa, dtype=float)
    ob = np.asarray(ob, dtype=float)
    if float(np.hypot(*(ob - oa))) < tol:
        raise CoincidingCentersError("circumcenters coincide; orientation undefined")
    w = np.asarray(z.direction, dtype=float)
    cross = w[0] * (ob - oa)[1] - w[1] * (ob - oa)[0]
    return z.f - 1 if cross > 0 else z.r - z.f


def three_chain_aligned_index(mu_a: int, mu_b: int, nu: int) -> int:
    """Total Morse index of an aligned three-chain critical point."""
    return mu_a + mu_b + nu


def ptt_index(cell_indices: Sequence[int], chain_nus: Sequence[int]) -> int:
    """Bott-Morse index for a partial two-tree: cell indices plus chain terms."""
    return sum(cell_indices) + sum(chain_nus)


def lagrange_matrix_222(a1, a2, b1, b2, c1, c2, alpha, beta, gamma) -> np.ndarray:
    """Lagrange multiplier matrix of the [2,2;2] three-chain at angles alpha,
    beta, gamma of the arms."""
    return np.array([
        [a1 * a2 * math.cos(alpha), b1 * b2 * math.cos(beta), 0.0],
        [2 * a1 * a2 * math.sin(alpha), -2 * b1 * b2 * math.sin(beta), 0.0],
        [2 * a1 * a2 * math.sin(alpha), 0.0, -2 * c1 * c2 * math.sin(gamma)],
    ])


def lagrange_det_222(a1, a2, b1, b2, c1, c2, alpha, beta, gamma) -> float:
    """Closed form 4 c1 c2 a1 a2 b1 b2 sin(gamma) sin(alpha+beta).

    Vanishes exactly at aligned type (sin gamma = 0) and circular type
    (sin(alpha+beta) = 0).
    """
    return (4.0 * c1 * c2 * a1 * a2 * b1 * b2
            * math.sin(gamma) * math.sin(alpha + beta))
