"""Detection probability densities and their phase-space portraits.

Normalization convention: all conditional densities carry the prefactor
1/(2 pi r), i.e. the regulator constant is fixed to B = 1.  With this choice
a massless, sharply peaked, positive-momentum state integrates to exactly 1
over one circulation period, which is also what makes the two-detector
Kolmogorov marginal come out right.  Every emitted grid records the tag.

Densities are real by construction (Hermitian state, symmetric localization
matrix); the evaluation asserts the imaginary residue rather than silently
discarding it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .amplitudes import (
    _CHUNK_BUDGET,
    _images,
    _line_packet,
    _mode_sum,
    _on_grid,
    _pointwise,
    _significant,
    _velocities,
    amp_state,
)
from .detector import DetectorKernel, LocalizationMatrix, kernel_eval
from .errors import DomainError, SeriesError, StateError
from .modes import ModeSpace, RotationFrame, omega, rotating_omega
from .states import CoherentParams, RingState, coherent_state

__all__ = [
    "NORMALIZATION_TAG",
    "Timescales",
    "pc_density",
    "qsymbol",
    "vacuum_noise",
    "timescales",
    "autocorrelation",
    "pgamma_validation",
]

# B(gamma) fixed to 1: unit detection probability per circulation period for
# massless positive-momentum packets.
B_GAMMA = 1.0
NORMALIZATION_TAG = "B=1;unit-integral-per-period"

REALITY_TOL = 1e-10


def _k_norm(ms: ModeSpace) -> float:
    """Density prefactor K = B / (2 pi r)."""
    return B_GAMMA / (2.0 * math.pi * ms.r)


def _density(ms: ModeSpace, amp):
    """Maximum-localization detection density K |A|^2 of an amplitude."""
    return _k_norm(ms) * np.abs(amp) ** 2


def pc_density(state: RingState, det: LocalizationMatrix, t, phi,
               frame: RotationFrame | None = None):
    """Conditional detection density P_c(t, phi) from the double mode sum.

    P_c = (1 / 2 pi r) sum_{m,m'} rho(m,m') L(m,m') sqrt(|v_m v_m'|)
          e^{i(m-m')phi - i(omega_m - omega_m')t},
    with rotating energies/velocities and the rotating localization matrix
    when a frame is given.  The state must already be post-selected (it is
    unit trace by construction here).
    """
    ms = state.modespace
    if det.modespace != ms:
        raise DomainError("localization matrix built over a different mode space")
    if (frame is None) != (det.frame is None):
        raise DomainError("frame argument must match the localization matrix frame")
    if frame is not None and det.frame != frame:
        raise DomainError("localization matrix was built for a different frame")
    det.require_support(state.occupation())

    # L = 1 on support: a pure state's double sum is K |sum_m psi_m w_m e^{...}|^2
    factorized = state.is_pure and det.is_max_localization
    if factorized:
        # the double sum drops the modes off support (L = 0 there), which
        # require_support lets through at occupations up to 1e-14
        if np.any(state.coeffs[~det.on_support]):
            state = RingState(ms, coeffs=np.where(det.on_support, state.coeffs, 0.0))
        if frame is None:
            return _density(ms, amp_state(state, ms, t, phi))

    m = ms.modes()
    freq = omega(ms, m) if frame is None else rotating_omega(frame, m)
    w = np.sqrt(np.abs(_velocities(ms, m, frame)))
    if factorized:
        return _density(ms, _mode_sum(state.coeffs * w, m.astype(float), freq, t, phi))

    # the kernel on the occupied, supported block with w > 0 (entries outside
    # it are zero); dropping the rows and columns whose row sums of |K| fall
    # under _significant changes the sum by at most 2 u sum|K|
    blk = np.flatnonzero(state.occupied() & det.on_support & (w > 0.0))
    if state.is_pure:
        c = state.coeffs[blk]
        rho = np.outer(c, c.conj())
    else:
        rho = state.rho[np.ix_(blk, blk)]
    wb = w[blk]
    kernel = rho * det.matrix[np.ix_(blk, blk)] * np.outer(wb, wb)
    active = _significant(np.abs(kernel).sum(axis=1))
    kernel = kernel[np.ix_(active, active)]
    ma, wa = m[blk][active].astype(float), freq[blk][active]

    def fill(tf, pf):
        vals = np.empty(tf.size, dtype=complex)
        chunk = max(1, _CHUNK_BUDGET // max(ma.size, 1))
        for i in range(0, tf.size, chunk):
            sl = slice(i, i + chunk)
            u = np.exp(1j * (ma[:, None] * pf[None, sl] - wa[:, None] * tf[None, sl]))
            vals[sl] = np.einsum("mp,mn,np->p", u, kernel, u.conj(), optimize=True)
        resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
        scale = max(float(np.max(np.abs(vals.real))), 1e-300)
        if resid > REALITY_TOL * max(scale, 1.0):
            raise DomainError(
                f"non-Hermitian input: imaginary residue {resid:.3e} exceeds tolerance"
            )
        return _k_norm(ms) * vals.real

    return _on_grid(t, phi, fill)


def qsymbol(ms: ModeSpace, cp: CoherentParams, t, phi, method: str = "mode-sum"):
    """Q-symbol of the arrival POVM on the coherent state (theta, xi).

    Q(t, phi) = |B_t(phi - theta, xi)|^2 / (2 pi r), evaluated through the
    coherent-state mode sum.  method='images' instead sums the incoherent
    winding images |B0|^2 (valid while the packet spread stays well under
    the ring size; it ignores inter-winding interference).
    """
    if cp.alpha < 3.0:
        warnings.warn(
            f"Q-symbol regime assumes alpha >> 1; alpha={cp.alpha} is below 3",
            stacklevel=2,
        )
    if method == "mode-sum":
        return _density(ms, amp_state(coherent_state(ms, cp), ms, t, phi))
    if method != "images":
        raise DomainError(f"unknown qsymbol method {method!r}")

    line, pref, theta0 = _line_packet(ms, cp)

    def at(ti, pi_):
        images = _images(ms, line, theta0, ti, pi_, rel_tol=1e-9)
        return _k_norm(ms) * float(np.sum(np.abs(pref * images) ** 2))

    return _pointwise(t, phi, at, dtype=float)


def vacuum_noise(dk: DetectorKernel, ms: ModeSpace, frame: RotationFrame | None = None):
    """State-independent noise P0 = sum_m R(omega_m, m) / (4 pi r omega_m).

    With a frame the kernel argument shifts to omega_m - m Omega_D,
    evaluated literally (rotating-noise convention); the 1/omega_m weight
    keeps the static mode energy.  Raises SeriesError when the tail of the
    sum is not decreasing (e.g. flat kernels) or a term diverges.
    """
    m = ms.modes()
    w_static = omega(ms, m)
    if frame is None:
        vals = kernel_eval(dk, w_static, m, r=ms.r)
    else:
        if frame.modespace != ms:
            raise DomainError("frame built over a different mode space")
        vals = dk.raw_value(rotating_omega(frame, m), m, r=ms.r)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(
            (w_static > 0) & (vals > 0),
            vals / (4.0 * math.pi * ms.r * w_static),
            np.where(vals > 0, np.inf, 0.0),
        )
    if not np.all(np.isfinite(terms)):
        raise SeriesError("vacuum noise diverges: kernel does not vanish at omega=0")
    # tail monotonicity check on the outer decade of retained modes
    tail_n = max(4, ms.m_max // 10)
    for side in (terms[-tail_n:], terms[:tail_n][::-1]):
        nz = side[np.abs(side) > 0]
        if nz.size >= 3 and not np.all(np.diff(nz) <= 0):
            raise SeriesError(
                "vacuum noise series tail is not decreasing; sum diverges "
                "or m_max is far too small"
            )
    total = float(np.sum(terms))
    last = max(float(terms[0]), float(terms[-1]))
    remainder = last * 2.0 * tail_n  # last term times comparable-count
    if total > 0 and remainder > 1e-6 * total:
        raise SeriesError(
            f"vacuum noise truncation remainder {remainder:.3e} too large "
            f"fraction of total {total:.3e}; increase m_max"
        )
    return total


@dataclass(frozen=True)
class Timescales:
    t_quantum: float
    t_recurrence: float
    tick: float


def timescales(ms: ModeSpace, xi: float, alpha: float) -> Timescales:
    """Characteristic clock scales for a packet at angular momentum xi.

    T_q = omega_xi^3 r^2 / (mu^2 alpha): semiclassical breakdown;
    T_rec = 4 pi omega_xi^3 r^2 / mu^2 = 4 pi alpha T_q: partial revivals;
    tau = 2 pi r^2 omega_xi / xi: tick period.  Massless packets disperse
    not at all: T_q and T_rec are infinite.
    """
    if xi == 0:
        raise DomainError("timescales need xi != 0")
    w_xi = math.sqrt(ms.mu**2 + (xi / ms.r) ** 2)
    tick = 2.0 * math.pi * ms.r**2 * w_xi / xi
    if ms.mu == 0:
        return Timescales(math.inf, math.inf, tick)
    t_q = w_xi**3 * ms.r**2 / (ms.mu**2 * alpha)
    t_rec = 4.0 * math.pi * w_xi**3 * ms.r**2 / ms.mu**2
    return Timescales(t_q, t_rec, tick)


def autocorrelation(state: RingState, ms: ModeSpace, t):
    """Survival probability F(t) = |<psi| e^{-iHt} |psi>|^2 of a pure state."""
    if not state.is_pure:
        raise StateError("autocorrelation implemented for pure states")
    m = ms.modes()
    weights = (np.abs(state.coeffs) ** 2).astype(complex)
    val = _mode_sum(weights, np.zeros(m.size), omega(ms, m), t, 0.0)
    return np.abs(val) ** 2


def pgamma_validation(state: RingState, dk: DetectorKernel, ms: ModeSpace,
                      gamma: float) -> dict:
    """Regularized total detection probability as a consistency check.

    Implements P_gamma = (r/2) ∫ dy/y R(omega_y, y) sum_{m,m'}
    f_gamma(y-m) f_gamma(y-m') rho(m,m') with Gaussian f_gamma, and reports

    * ``ratio``: P_gamma normalized by sum_m rho(m,m) r R(omega_m,m)/(2m),
      times the Gaussian overlap constant gamma sqrt(2 pi) - tends to 1 as
      gamma -> 0, confirming that the regularized normalization is the trace
      normalization used in post-selection;
    * ``offdiag_fraction``: relative weight of m != m' cross terms, which
      must vanish in the same limit.
    """
    if gamma <= 0:
        raise DomainError("regulator width must be positive")
    rho = state.density_matrix()
    m = ms.modes()
    keep = state.occupation() > 1e-16
    if not np.any(keep & (m > 0)):
        raise StateError("validation needs support on positive modes")
    idx = np.where(keep)[0]
    mm = m[idx].astype(float)
    sub = rho[np.ix_(idx, idx)]

    def integrand(y, pairs):
        f = np.exp(-((y - mm) ** 2) / gamma**2) / math.sqrt(math.pi * gamma**2)
        wy = math.sqrt(ms.mu**2 + (y / ms.r) ** 2)
        rr = kernel_eval(dk, wy, y, r=ms.r)
        if pairs == "diag":
            weight = float(np.real(np.sum(np.diag(sub) * f * f)))
        else:
            weight = float(np.real(f @ sub @ f))
        return (ms.r / 2.0) * rr * weight / y

    lo = max(1e-6, float(mm.min()) - 8 * gamma - 1)
    hi = float(mm.max()) + 8 * gamma + 1
    total, _ = quad(integrand, lo, hi, args=("all",), limit=400)
    diag_only, _ = quad(integrand, lo, hi, args=("diag",), limit=400)
    on_shell = kernel_eval(dk, omega(ms, m[idx]), m[idx], r=ms.r)
    reference = float(
        np.real(np.sum(np.diag(sub) * ms.r * on_shell / (2.0 * np.abs(mm))))
    )
    ratio = total * gamma * math.sqrt(2.0 * math.pi) / reference
    off = abs(total - diag_only) / max(abs(total), 1e-300)
    return {"total": total, "ratio": ratio, "offdiag_fraction": off}
