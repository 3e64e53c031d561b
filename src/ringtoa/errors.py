"""Exception types shared across the package.

All errors derive from RingToAError so callers can catch the package's
failures with a single except clause; most are also ValueError subclasses
because they signal bad inputs rather than internal faults.
"""


class RingToAError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(RingToAError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidFrameError(DomainError):
    """Rotating frame with |Omega_D * r| >= 1: no timelike Killing vector."""


class CutoffError(RingToAError, ValueError):
    """Mode cutoff too small to contain the requested state or series."""


class SupportError(RingToAError, ValueError):
    """Detector kernel vanishes on modes required by the computation."""


class UnphysicalKernelError(RingToAError, ValueError):
    """Kernel whose localization matrix exceeds 1 (violates positivity)."""


class QuadratureError(RingToAError, RuntimeError):
    """Adaptive integration failed to reach the requested tolerance."""


class SeriesError(RingToAError, RuntimeError):
    """Mode series diverges or its truncation cannot be bounded."""


class StateError(RingToAError, ValueError):
    """State fails a structural requirement (normalization, symmetry...)."""


class TickError(RingToAError, RuntimeError):
    """Tick extraction or quality metrics cannot be computed."""
