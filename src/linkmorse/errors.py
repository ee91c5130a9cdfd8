"""Exception types shared across the package."""


class LinkmorseError(Exception):
    """Base class for all package errors."""


class NotSPError(LinkmorseError):
    """Graph with the given terminals is not two-terminal series-parallel.

    Carries the irreducible kernel (remaining multigraph edges) for diagnostics.
    """

    def __init__(self, message, kernel=None):
        super().__init__(message)
        self.kernel = kernel


class NotPTTError(LinkmorseError):
    """Graph is not a partial two-tree (or violates a PTT precondition)."""


class CrossingDiagonalsError(LinkmorseError):
    """Two diagonal endpoint pairs interleave in the cyclic order of the cycle."""


class NonGenericError(LinkmorseError):
    """Edge lengths hit a degeneracy the theory excludes (wall, boundary, tie)."""


class NotConcyclicError(LinkmorseError):
    """Cycle vertices do not lie on a common circle within tolerance."""

    def __init__(self, message, max_deviation=None):
        super().__init__(message)
        self.max_deviation = max_deviation


class DegenerateCenterError(LinkmorseError):
    """Circle center lies on an edge line, so the edge sign is undefined."""


class CoincidingCentersError(LinkmorseError):
    """The two circumscribed circles coincide; orientation test undefined."""


class NotAlignedError(LinkmorseError):
    """Chain is not aligned where an aligned-only quantity was requested."""


class NoConvergenceError(LinkmorseError):
    """Iterative solver failed to converge within its iteration budget."""


class NotCriticalError(LinkmorseError):
    """Configuration is not a critical point within tolerance."""


class CheckFailedError(LinkmorseError):
    """Finite-difference consistency check failed.

    Carries the offending entries as a list of (kind, index, analytic, numeric).
    """

    def __init__(self, message, entries=None):
        super().__init__(message)
        self.entries = entries or []
