"""Exception types raised across the package.

Everything derives from StochAnnealError so callers (notably the CLI) can
separate our failures from genuine bugs. Input-shaped problems additionally
derive from ValueError so plain Python code can catch them idiomatically.
"""


class StochAnnealError(Exception):
    """Base class for all package errors."""


class OutOfDomain(StochAnnealError, ValueError):
    """(V, HRS) input outside the fitted surface domain."""


class NonPositiveTime(StochAnnealError, ValueError):
    """A measured Set time must be > 0 to take its log."""


class NonPositivePulse(StochAnnealError, ValueError):
    """Pulse width must be > 0."""


class InvalidParameter(StochAnnealError, ValueError):
    """A setting outside its valid range (a config field, a CLI option)."""


class DegenerateDesign(StochAnnealError, ValueError):
    """Surface fit is under-determined (too few or collinear samples)."""


class Unattainable(StochAnnealError, ValueError):
    """No HRS in range realizes the requested log-time mean."""


class NonMonotone(StochAnnealError, ValueError):
    """Surface is not monotone in HRS along the requested voltage."""


class DimensionMismatch(StochAnnealError, ValueError):
    """Configuration vector length does not match the instance."""


class IndexOutOfRange(StochAnnealError, IndexError):
    """Node index outside [0, n)."""


class Malformed(StochAnnealError, ValueError):
    """Instance file cannot be parsed; message carries the line number."""


class DuplicateEdge(Malformed):
    """Same unordered node pair listed twice."""


class SelfLoop(Malformed):
    """Edge with identical endpoints."""


class TooLarge(StochAnnealError, ValueError):
    """Instance too big: for exhaustive enumeration, or with edge weights
    that put a b_i or W_B entry of its Boltzmann form outside int64."""


class InvalidDegree(StochAnnealError, ValueError):
    """Requested average degree outside (0, n)."""


class MissingBestKnown(StochAnnealError, ValueError):
    """Convergence detection requested but no best-known cut is available."""


class InsufficientTraces(StochAnnealError, ValueError):
    """Ensemble statistic requested from too few traces."""


class IoFailure(StochAnnealError, OSError):
    """Result or manifest file could not be written."""
