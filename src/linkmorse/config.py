"""Run configuration and shared numerical tolerances."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields


@dataclass(frozen=True)
class Tolerances:
    """Default numerical tolerances, overridable per run.

    Lengths are relative; collinearity is absolute per unit diameter;
    concyclicity is relative to the circle radius.
    """

    rel_length: float = 1e-9
    collinearity: float = 1e-8
    concyclicity: float = 1e-8
    wall: float = 1e-6
    gradient: float = 1e-10
    eigen_zero_band: float = 1e-7
    sign_guard: float = 1e-7
    reach_boundary: float = 1e-7
    match: float = 1e-5
    grid_points: int = 10_000

    def __post_init__(self):
        for f in fields(self):
            if not 0 < getattr(self, f.name) < math.inf:
                raise ValueError(f"tolerance {f.name} must be positive and finite")
        # one grid point brackets nothing, and geomspace takes only an int count
        if not isinstance(self.grid_points, int) or self.grid_points < 2:
            raise ValueError("grid_points must be an integer >= 2")


DEFAULT_TOLS = Tolerances()


@dataclass
class RunConfig:
    """What an oracle sweep reads: the tolerances, the random seed and the
    number of random starting points.

    Output choices (``--strict``, ``--out``, ``--format``) stay with the
    CLI's parsed arguments.
    """

    tols: Tolerances = field(default_factory=Tolerances)
    seed: int = 42
    n_seeds: int = 1000

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
