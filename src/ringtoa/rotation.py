"""Rotating-ring observables: noise ratio, Sagnac fringes, coincidences.

Rotation leaves the vacuum alone but shifts the kernel argument of the
state-independent noise, giving the ratio eta(Omega_D) > 1 that diverges
logarithmically at the light-speed edge Omega_D r -> 1.  For symmetric
states, the counter-propagating components pick up opposite phases
xi Omega_D t, producing Sagnac fringes in the detection record at the entry
point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import amp_rotating_split
from .errors import DomainError, StateError
from .modes import ModeSpace, RotationFrame, is_number, number_array, velocity
from .detector import DetectorKernel
from .probability import _density, _eta_sum, timescales
from .states import RingState

__all__ = [
    "NoiseCurve",
    "SagnacResult",
    "eta",
    "eta_closed_form",
    "noise_curve",
    "sagnac_scan",
    "coincidence_winding",
    "coincidence_report",
]

def eta(dk: DetectorKernel, ms: ModeSpace, omega_d: float) -> float:
    """Rotation-induced noise ratio eta = P0(Omega_D) / P0(0).

    Requires a timelike frame (|Omega_D r| < 1) and a decaying kernel; both
    sums include the zero mode R(mu, 0) / mu, so at mu = 0 a kernel with
    R(0, 0) > 0 raises SeriesError, as P0 does.  For the ring-exponential
    family at mu = 0 this equals
    log(1 - e^(-a(1 - Omega_D r))) / log(1 - e^(-a)) analytically
    (eta_closed_form).
    """
    return _eta(dk, ms, [omega_d])[0][0]


def _eta(dk: DetectorKernel, ms: ModeSpace, omega_d_grid) -> list[tuple[float, int, float]]:
    """Per Omega_D: (eta, larger cutoff reached, larger tail bound / sum) of its two sums.

    The rest-frame sum is the same for every Omega_D and is computed once.
    """
    points, rest = [], None
    for omega_d in omega_d_grid:
        RotationFrame(omega_d, ms)  # a finite number, |Omega_D r| < 1
        if rest is None:
            rest = _eta_sum(dk, ms, 0.0)
        num, m_num, tail_num = _eta_sum(dk, ms, omega_d)
        points.append((num / rest[0], max(m_num, rest[1]), max(tail_num, rest[2])))
    return points


def eta_closed_form(a: float, omega_d_r: float) -> float:
    """log(1 - e^(-a(1 - Omega_D r))) / log(1 - e^(-a)).

    Valid for the one-sided exponential kernel at mu = 0; rests on
    sum_m e^(-am)/m = -log(1 - e^(-a)).
    """
    if not (is_number(a) and a > 0):
        raise DomainError(f"kernel decay constant must be finite and positive, got a={a!r}")
    if not (is_number(omega_d_r) and -1.0 < omega_d_r < 1.0):
        raise DomainError(f"need a number |Omega_D r| < 1, got {omega_d_r!r}")
    return math.log1p(-math.exp(-a * (1.0 - omega_d_r))) / math.log1p(-math.exp(-a))


@dataclass(frozen=True)
class NoiseCurve:
    """Sampled eta(Omega_D r), with closed-form values where they exist.

    m_max_reached and tail_over_sum are the largest cutoff and the largest
    geometric tail bound (relative to its partial sum) of the curve's sums.
    """

    omega_d_r: np.ndarray
    eta: np.ndarray
    eta_closed: np.ndarray | None
    m_max_reached: int
    tail_over_sum: float


def noise_curve(dk: DetectorKernel, ms: ModeSpace, omega_d_grid) -> NoiseCurve:
    """Evaluate the noise ratio over a grid of angular velocities.

    Each entry must be a finite real number, not a bool or string, with
    |Omega_D r| < 1 (DomainError).
    """
    omega_d_grid = number_array(omega_d_grid, "omega_d_grid")
    points = _eta(dk, ms, omega_d_grid)  # checks each entry's range
    vals = np.array([value for value, _, _ in points])
    closed = None
    if dk.family == "ring-exponential" and ms.mu == 0:
        closed = np.array(
            [eta_closed_form(dk.params["a"], od * ms.r) for od in omega_d_grid]
        )
    return NoiseCurve(
        omega_d_r=omega_d_grid * ms.r,
        eta=vals,
        eta_closed=closed,
        m_max_reached=max((m for _, m, _ in points), default=ms.m_max),
        tail_over_sum=max((tail for _, _, tail in points), default=0.0),
    )


@dataclass(frozen=True)
class SagnacResult:
    """Detection density on the scan grid, per-pass weights and fringe frequencies."""

    density: np.ndarray
    pass_times: np.ndarray
    pass_weights: np.ndarray
    fringe_frequency: float
    expected_frequency: float


def sagnac_scan(state: RingState, rf: RotationFrame, t_grid,
                phi: float = 0.0) -> SagnacResult:
    """Scan the rotating detection density and demodulate the Sagnac fringes.

    The state must be symmetric (psi_{-m} = psi_m).  Per-circulation
    detection weights W_n follow cos^2(xi Omega_D t_n); their zero-mean
    demodulation 2 W_n / max(W) - 1 crosses zero with spacing
    pi / (2 xi Omega_D), from which the fringe angular frequency (NaN below
    two crossings) is estimated and compared to xi Omega_D.
    """
    ms = rf.modespace
    if not state.is_pure:
        raise StateError("Sagnac scan needs a pure symmetric state")
    sym_err = float(np.max(np.abs(state.coeffs - state.coeffs[::-1])))
    if sym_err > 1e-10:
        raise StateError(
            f"state is not symmetric under m -> -m (max deviation {sym_err:.3e})"
        )
    t_grid = np.asarray(t_grid, dtype=float)
    d_plus, d_minus = amp_rotating_split(state, rf, t_grid, phi)
    density = _density(ms, d_plus + d_minus)

    occ = state.occupation()
    m = ms.modes()
    pos = m > 0
    m_mean = float(np.sum(np.abs(m[pos]) * occ[pos]) / np.sum(occ[pos]))
    v_char = abs(velocity(ms, m_mean))
    xi = m_mean
    period = 2.0 * math.pi * ms.r / v_char

    # per-circulation weights: integrate density around each expected return
    n_pass = int(t_grid[-1] / period) if t_grid.size else 0
    pass_times, pass_weights = [], []
    for n in range(1, n_pass + 1):
        t_n = n * period
        sel = (t_grid >= t_n - period / 2) & (t_grid < t_n + period / 2)
        if np.count_nonzero(sel) < 8:
            continue
        pass_times.append(t_n)
        pass_weights.append(float(np.trapezoid(density[sel], t_grid[sel])))
    pass_times = np.asarray(pass_times)
    pass_weights = np.asarray(pass_weights)
    if pass_times.size < 4:
        raise DomainError("time grid covers too few circulations for fringe analysis")

    u = 2.0 * pass_weights / pass_weights.max() - 1.0
    crossings = []
    for j in range(u.size - 1):
        if u[j] == 0.0 or u[j] * u[j + 1] < 0.0:
            frac = u[j] / (u[j] - u[j + 1])
            crossings.append(pass_times[j] + frac * (pass_times[j + 1] - pass_times[j]))
    if len(crossings) < 2:
        fringe = math.nan
    else:
        spacing = float(np.mean(np.diff(crossings)))
        fringe = math.pi / (2.0 * spacing)
    expected = xi * rf.omega_d
    return SagnacResult(
        density=density,
        pass_times=pass_times,
        pass_weights=pass_weights,
        fringe_frequency=fringe,
        expected_frequency=expected,
    )


def coincidence_winding(phi: float, xi: float, omega_d: float) -> float:
    """Winding count n = (pi - phi) / (xi Omega_D) at which counter-propagating
    detections coincide; phi = pi coincides immediately (n = 0)."""
    if omega_d == 0 or xi == 0:
        raise DomainError("coincidence winding needs xi != 0 and Omega_D != 0")
    return (math.pi - phi) / (xi * omega_d)


def coincidence_report(phi: float, xi: float, omega_d: float,
                       ms: ModeSpace, alpha: float) -> dict:
    """Winding estimate plus the observability flag t(n) < T_q."""
    n = coincidence_winding(phi, xi, omega_d)
    v_xi = abs(velocity(ms, xi))
    t_n = abs(n) * 2.0 * math.pi * ms.r / v_xi
    t_q = timescales(ms, xi, alpha).t_quantum
    return {"n": n, "t_n": t_n, "t_quantum": t_q, "observable": t_n < t_q}
