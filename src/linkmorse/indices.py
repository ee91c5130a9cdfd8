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
# why an aligned chain's index term is undefined
COINCIDING_CENTERS = "circumcenters coincide; orientation undefined"


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
    return cyclic_index_of(p.eps, p.alphas, p.omega, tols)


def cyclic_index_of(eps: Sequence[int], alphas: Sequence[float], omega: int,
                    tols: Tolerances = DEFAULT_TOLS) -> int:
    """``cyclic_index`` of the cyclic polygon with edge signs ``eps``,
    half-angles ``alphas`` and winding ``omega``."""
    n, e = len(eps), sum(1 for s in eps if s > 0)
    mu = e - 1 - 2 * omega if _tan_sum_positive(eps, alphas, tols) else e - 2 - 2 * omega
    if not 0 <= mu <= max(n - 3, 0):
        logger.warning("cyclic index %d escapes the Morse bound [0, %d]; "
                       "treat this configuration as suspect", mu, n - 3)
    return mu


def _tan_sum_positive(eps: Sequence[int], alphas: Sequence[float], tols: Tolerances) -> bool:
    terms = []
    inf_signs = []
    for e, a in zip(eps, alphas):
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
    (nu,), (coincide,) = aligned_nus(z.r, z.f, [z.direction], [oa], [ob], tol)
    if coincide:
        raise CoincidingCentersError(COINCIDING_CENTERS)
    return int(nu)


def aligned_nus(r: int, f: int, w, oa, ob, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """``aligned_nu`` for a stack of aligned points of one chain shape (r, f):
    rows of endpoint vectors ``w`` and circumcenters ``oa``, ``ob``.

    Returns the terms and a mask of the rows whose circumcenters lie within
    ``tol`` of each other, where the term is undefined.
    """
    w = np.asarray(w, dtype=float)
    d = np.asarray(ob, dtype=float) - np.asarray(oa, dtype=float)
    cross = w[:, 0] * d[:, 1] - w[:, 1] * d[:, 0]
    return np.where(cross > 0, f - 1, r - f), np.hypot(d[:, 0], d[:, 1]) < tol


def ptt_index(cell_indices: Sequence[int], chain_nus: Sequence[int]) -> int:
    """Bott-Morse index for a partial two-tree: cell indices plus chain terms."""
    return sum(cell_indices) + sum(chain_nus)

