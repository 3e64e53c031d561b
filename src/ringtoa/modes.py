"""Ring modes: dispersion, velocities, and rotating-frame energies.

A field of mass ``mu`` on a ring of radius ``r`` has discrete modes labeled
by integer angular momentum ``m`` with energy ``omega_m = sqrt(mu^2 + m^2/r^2)``
(natural units, c = hbar = 1).  A frame co-rotating at angular velocity
``omega_d`` shifts mode energies to ``omega_m - m*omega_d``; the frame is
physical (timelike) only for ``|omega_d * r| < 1``.

All operations are pure and accept either scalar ``m`` or integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidFrameError

__all__ = [
    "ModeSpace",
    "RotationFrame",
    "omega",
    "velocity",
    "rotating_omega",
    "rotating_velocity",
]


@dataclass(frozen=True)
class ModeSpace:
    """Ring and field parameters plus the mode cutoff for truncated sums.

    mu     : field mass (inverse length), >= 0
    r      : ring radius (length), > 0
    m_max  : sums run over |m| <= m_max
    """

    mu: float
    r: float
    m_max: int

    def __post_init__(self):
        if self.mu < 0:
            raise DomainError(f"mass must be >= 0, got mu={self.mu}")
        if self.r <= 0:
            raise DomainError(f"radius must be > 0, got r={self.r}")
        if self.m_max < 1:
            raise DomainError(f"mode cutoff must be >= 1, got m_max={self.m_max}")

    def modes(self) -> np.ndarray:
        """Integer lattice [-m_max, m_max]."""
        return np.arange(-self.m_max, self.m_max + 1)


@dataclass(frozen=True)
class RotationFrame:
    """Uniformly rotating frame over a ModeSpace; requires |omega_d*r| < 1."""

    omega_d: float
    modespace: ModeSpace

    def __post_init__(self):
        if abs(self.omega_d * self.modespace.r) >= 1.0:
            raise InvalidFrameError(
                f"|Omega_D * r| = {abs(self.omega_d * self.modespace.r)} >= 1: "
                "frame is not timelike"
            )


def omega(ms: ModeSpace, m) -> np.ndarray | float:
    """Mode energy sqrt(mu^2 + m^2/r^2); even in m, >= mu.

    Evaluated with hypot, so the bound survives even when mu^2 or (m/r)^2
    would under- or overflow.
    """
    m = np.asarray(m, dtype=float)
    out = np.hypot(ms.mu, m / ms.r)
    return float(out) if out.ndim == 0 else out


def velocity(ms: ModeSpace, m) -> np.ndarray | float:
    """Linear velocity v_m = m / (omega_m * r).

    |v_m| < 1 for mu > 0 and |v_m| = 1 for mu = 0, m != 0.  The massless
    zero mode has no defined velocity.
    """
    m_arr = np.asarray(m, dtype=float)
    if ms.mu == 0 and np.any(m_arr == 0):
        raise DomainError("velocity undefined for the massless zero mode (mu=0, m=0)")
    with np.errstate(invalid="ignore"):
        out = m_arr / (omega(ms, m_arr) * ms.r)
    return float(out) if out.ndim == 0 else out


def rotating_omega(rf: RotationFrame, m) -> np.ndarray | float:
    """Mode energy in the rotating frame: omega_m - m*omega_d (positive branch).

    Strictly positive for all m != 0 while the frame is timelike, which is
    what makes the rotating vacuum coincide with the static one.
    """
    ms = rf.modespace
    m = np.asarray(m, dtype=float)
    out = omega(ms, m) - m * rf.omega_d
    return float(out) if out.ndim == 0 else out


def rotating_velocity(rf: RotationFrame, m) -> np.ndarray | float:
    """Velocity relative to the rotating frame: v_m - r*omega_d."""
    ms = rf.modespace
    v = velocity(ms, m)
    out = np.asarray(v) - ms.r * rf.omega_d
    return float(out) if out.ndim == 0 else out
