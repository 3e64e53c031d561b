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

from .amplitudes import _speed_weights, amp_state, quad
from .detector import DetectorKernel, LocalizationMatrix, kernel_eval
from .errors import DomainError, SeriesError, StateError
from .lattice import _double_sum, _mode_sum
from .modes import ModeSpace, RotationFrame, is_number, omega, rotating_omega
from .states import CoherentParams, RingState, coherent_state

__all__ = [
    "NORMALIZATION_TAG",
    "QSYMBOL_MIN_ALPHA",
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
QSYMBOL_MIN_ALPHA = 3  # below it qsymbol, and a qsymbol config, warn: alpha >> 1 fails


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
    if det.frame != frame:
        raise DomainError("frame argument must match the localization matrix frame")
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
    w = _speed_weights(ms, m, frame)
    if factorized:
        return _density(ms, _mode_sum(state.coeffs * w, m.astype(float), freq, t, phi))

    # the kernel on the occupied, supported block with w > 0 (zero outside it)
    blk = np.flatnonzero(state.occupied() & det.on_support & (w > 0.0))
    if state.is_pure:
        c = state.coeffs[blk]
        rho = np.outer(c, c.conj())
    else:
        rho = state.rho[np.ix_(blk, blk)]
    wb = w[blk]
    kernel = rho * det.matrix[np.ix_(blk, blk)] * np.outer(wb, wb)
    return _k_norm(ms) * _double_sum(kernel, m[blk].astype(float), freq[blk], t, phi)


def qsymbol(ms: ModeSpace, cp: CoherentParams, t, phi):
    """Q-symbol of the arrival POVM on the coherent state (theta, xi).

    Q(t, phi) = |B_t(phi - theta, xi)|^2 / (2 pi r), evaluated through the
    coherent-state mode sum.
    """
    if cp.alpha < QSYMBOL_MIN_ALPHA:
        warnings.warn(f"Q-symbol regime assumes alpha >> 1; alpha={cp.alpha} is below "
                      f"{QSYMBOL_MIN_ALPHA}", stacklevel=2)
    return _density(ms, amp_state(coherent_state(ms, cp), ms, t, phi))


ETA_TAIL_TOL = 1e-12
ETA_HARD_CAP = 2_000_000


def _eta_modes(ms: ModeSpace, m_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The modes 0 < |m| <= m_max and their frequencies omega_m."""
    m = np.arange(-m_max, m_max + 1)
    m = m[m != 0]
    return m, omega(ms, m)


def _eta_sum(dk: DetectorKernel, ms: ModeSpace, omega_d: float,
             modes=None) -> tuple[float, int, float]:
    """(sum, cutoff reached, tail bound / sum) of sum_m R(omega_m - m Omega_D, m) / omega_m.

    The kernel is evaluated at the literal rotating argument (no support
    clipping).  The cutoff starts at ms.m_max, 2 at least, and doubles until
    the geometric tail bound drops below 1e-12 of the partial sum;
    non-decaying tails raise SeriesError.  The zero
    mode adds R(mu, 0) / mu, whatever Omega_D, and at mu = 0 raises
    SeriesError unless R(0, 0) = 0.  modes(m_max) gives each cutoff's modes
    and frequencies (_eta_modes by default), so a caller summing at many
    Omega_D can build them once a cutoff.
    """
    zero = float(dk.raw_value(ms.mu, 0, r=ms.r))
    if zero > 0 and ms.mu == 0:
        raise SeriesError("vacuum noise diverges: kernel does not vanish at omega=0")
    zero = zero / ms.mu if zero > 0 else 0.0
    m_max = max(ms.m_max, 2)  # each tail's ratio needs two modes on its side
    while True:
        m, w = modes(m_max) if modes else _eta_modes(ms, m_max)
        vals = dk.raw_value(w - m * omega_d, m, r=ms.r)
        terms = vals / w
        total = float(terms.sum()) + zero
        if total <= 0:
            raise SeriesError("noise sum vanishes: kernel has no supported modes")
        hi = float(terms[-1])
        lo = float(terms[0])
        prev_hi = float(terms[-2])
        prev_lo = float(terms[1])
        edge = 0.0
        for last, prev in ((hi, prev_hi), (lo, prev_lo)):
            if last <= 0:
                continue
            if prev <= 0 or last >= prev:
                raise SeriesError(
                    "noise series tail is not decreasing; eta sum diverges"
                )
            q = last / prev
            edge += last * q / (1.0 - q)
        if edge < ETA_TAIL_TOL * total:
            return total, m_max, edge / total
        if 2 * m_max > ETA_HARD_CAP:
            raise SeriesError(
                f"eta tail bound {edge:.3e} still above tolerance at "
                f"m_max={m_max}; kernel decays too slowly"
            )
        m_max *= 2


def vacuum_noise(dk: DetectorKernel, ms: ModeSpace, frame: RotationFrame | None = None):
    """State-independent noise P0 = sum_m R(omega_m - m Omega_D, m) / (4 pi r omega_m).

    Omega_D is the frame's angular velocity (0 without a frame); the kernel
    is evaluated at the literal rotating argument, and the 1/omega_m weight
    keeps the static mode energy.  The sum is _eta_sum's, so the cutoff
    extends past ms.m_max until the geometric tail bound is under 1e-12 of
    the sum; a tail that does not decay raises SeriesError.  The zero mode
    adds R(mu, 0) / mu, and at mu = 0 raises SeriesError unless R(0, 0) = 0.
    """
    if frame is not None and frame.modespace != ms:
        raise DomainError("frame built over a different mode space")
    omega_d = 0.0 if frame is None else frame.omega_d
    return _eta_sum(dk, ms, omega_d)[0] / (4.0 * math.pi * ms.r)


@dataclass(frozen=True)
class Timescales:
    t_quantum: float
    t_recurrence: float
    tick: float


def timescales(ms: ModeSpace, xi: float, alpha: float) -> Timescales:
    """Characteristic clock scales for a packet at angular momentum xi.

    T_q = omega_xi^3 r^2 / (mu^2 alpha): semiclassical breakdown;
    T_rec = 4 pi omega_xi^3 r^2 / mu^2 = 4 pi alpha T_q: partial revivals;
    tau = 2 pi r^2 omega_xi / |xi|: tick period, the same in either direction
    of travel.  Massless packets disperse not at all: T_q and T_rec are
    infinite.  xi and alpha > 0 must be finite numbers (DomainError).
    """
    if not (is_number(xi) and xi != 0 and is_number(alpha) and alpha > 0):
        raise DomainError(f"timescales need finite xi != 0 and alpha > 0, got xi={xi!r}, "
                          f"alpha={alpha!r}")
    w_xi = math.sqrt(ms.mu**2 + (xi / ms.r) ** 2)
    tick = 2.0 * math.pi * ms.r**2 * w_xi / abs(xi)
    if ms.mu == 0:
        return Timescales(math.inf, math.inf, tick)
    t_q = w_xi**3 * ms.r**2 / (ms.mu**2 * alpha)
    t_rec = 4.0 * math.pi * w_xi**3 * ms.r**2 / ms.mu**2
    return Timescales(t_q, t_rec, tick)


def autocorrelation(state: RingState, t):
    """Survival probability F(t) = |<psi| e^{-iHt} |psi>|^2 of a pure state."""
    if not state.is_pure:
        raise StateError("autocorrelation implemented for pure states")
    ms = state.modespace
    m = ms.modes()
    weights = (np.abs(state.coeffs) ** 2).astype(complex)
    val = _mode_sum(weights, np.zeros(m.size), omega(ms, m), t, 0.0)
    return np.abs(val) ** 2


def pgamma_validation(state: RingState, dk: DetectorKernel, gamma: float) -> dict:
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
    ms = state.modespace
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
