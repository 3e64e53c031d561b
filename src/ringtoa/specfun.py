"""Special functions for coherent states and resummations.

Provides the Jacobi theta function theta3, a cancellation-safe sinc, and the
normalization constant of the ring coherent states.  theta3 here is the
series 1 + 2*sum_n y^(n^2) cos(2nx) for real x and nome y in [0, 1); the
nome that actually occurs downstream is exp(-pi^2 alpha^2), which underflows
to zero for alpha >~ 2, so the series is short in practice.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

__all__ = ["theta3", "sinc", "coherent_norm"]

# Series control: |term| < THETA3_TOL stops the sum; the cap guarantees
# termination even for y -> 1 (never reached by physical parameters).
THETA3_TOL = 1e-15
THETA3_MAX_TERMS = 10_000


def theta3(x: float, y: float) -> float:
    """Jacobi theta_3(x, y) = 1 + 2 sum_{n>=1} y^(n^2) cos(2 n x).

    Requires 0 <= y < 1.  Terms are added until |y^(n^2)| < THETA3_TOL, with
    a hard cap of 10^4 terms.
    """
    if not 0.0 <= y < 1.0:
        raise DomainError(f"theta3 nome must satisfy 0 <= y < 1, got y={y}")
    total = 1.0
    for n in range(1, THETA3_MAX_TERMS + 1):
        term = y ** (n * n)
        if term < THETA3_TOL:
            break
        total += 2.0 * term * math.cos(2.0 * n * x)
    return total


def sinc(u) -> np.ndarray | float:
    """sin(u)/u with sinc(0) = 1.

    Below |u| = 1e-4 the 3-term Taylor series 1 - u^2/6 + u^4/120 is used to
    avoid cancellation.  Note the argument is used as-is: callers that want
    the normalized convention pass u = pi*z themselves.
    """
    u = np.asarray(u, dtype=float)
    small = np.abs(u) < 1e-4
    u_safe = np.where(small, 1.0, u)
    with np.errstate(invalid="ignore"):
        out = np.where(small, 1.0 - u**2 / 6.0 + u**4 / 120.0, np.sin(u_safe) / u_safe)
    return float(out) if out.ndim == 0 else out


def coherent_norm(xi: float, alpha: float) -> float:
    """Normalization constant C_xi = (pi alpha^2)^(-1/4) theta3(-pi xi, e^(-pi^2 alpha^2))^(-1/2).

    This makes C_xi^2 * sum_m exp(-(m-xi)^2/alpha^2) = 1 (Poisson summation
    of the Gaussian lattice sum).  For alpha >~ 2 the theta3 factor is 1 to
    machine precision.
    """
    if alpha <= 0:
        raise DomainError(f"coherent-state spread must be > 0, got alpha={alpha}")
    nome = math.exp(-math.pi**2 * alpha**2) if math.pi**2 * alpha**2 < 745 else 0.0
    t3 = theta3(-math.pi * xi, nome)
    return (math.pi * alpha**2) ** (-0.25) / math.sqrt(t3)
