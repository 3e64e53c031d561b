"""Detection amplitudes: mode sums, their Poisson images, and saddles.

The arrival amplitude of a state psi on the ring is the mode sum

    amp(t, phi) = sum_m psi_m sqrt(|v_m|) exp(i m phi - i omega_m t),

absolutely convergent for normalizable states (lattice._mode_sum).
amp_poisson rebuilds it from the line oracle's winding images, and
line_arrival_amp is the scalar quadrature that oracle is tested against.

The bare (state-free) amplitude amp_ring is a distribution; it is only
evaluated under a smooth momentum taper, and only state-contracted
amplitudes are physically meaningful.  Its saddle-point form amp_saddle
holds deep inside the light cones of a massive field.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, StateError
from .lattice import _mode_sum, _on_grid
from .modes import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from .oracle import _gate, _images, _warn_below_reach
from .states import RingState

__all__ = [
    "amp_state",
    "amp_ring",
    "amp_poisson",
    "amp_saddle",
    "amp_rotating_split",
    "line_arrival_amp",
]


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on the first call: no config reaches it."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _pointwise(t, phi, at):
    """at(t_i, phi_i) at each point of the broadcast (t, phi) grid, all of them finite."""
    def fill(tf, pf):
        return np.array([at(ti, pi_) for ti, pi_ in zip(tf, pf)], dtype=complex)

    return _on_grid(t, phi, fill)


def _velocities(ms: ModeSpace, m: np.ndarray, frame: RotationFrame | None = None):
    """v_m, or v~_m relative to a rotating frame, with the zero mode excluded (0)."""
    v = np.zeros(m.size)
    nz = m != 0
    v[nz] = velocity(ms, m[nz]) if frame is None else rotating_velocity(frame, m[nz])
    return v


def _speed_weights(ms: ModeSpace, m: np.ndarray, frame: RotationFrame | None = None):
    """sqrt(|v_m|), or sqrt(|v~_m|) in a rotating frame, with the zero mode excluded (0)."""
    return np.sqrt(np.abs(_velocities(ms, m, frame)))


def amp_state(state: RingState, ms: ModeSpace, t, phi):
    """Arrival amplitude of a pure state under maximum localization.

    General localization never factorizes into an amplitude; the
    probability module's pc_density handles it.
    """
    if not state.is_pure:
        raise StateError("amplitudes need a pure state; use pc_density for mixed")
    if state.modespace != ms:
        raise StateError("state lives on a different mode space")
    nz = np.flatnonzero(state.coeffs)  # a zero coefficient is never summed
    m = ms.modes()[nz]
    coeffs = state.coeffs[nz] * _speed_weights(ms, m)
    return _mode_sum(coeffs, m.astype(float), omega(ms, m), t, phi)


def taper_window(m: np.ndarray, m_max: int) -> np.ndarray:
    """Cosine taper: 1 up to 0.9 m_max, smoothly to 0 at m_max."""
    edge = 0.9 * m_max
    x = np.clip((np.abs(m) - edge) / max(m_max - edge, 1), 0.0, 1.0)
    return np.cos(0.5 * math.pi * x) ** 2


def amp_ring(ms: ModeSpace, t, phi):
    """Bare arrival amplitude sum_{m>0} sqrt(v_m) e^{i m phi - i omega_m t}, tapered.

    The untapered series is a distribution (it diverges pointwise); the
    smooth momentum window over the last tenth of the modes (taper_window)
    stands in for the test function.  Only state-contracted amplitudes are
    physical.
    """
    m = np.arange(1, ms.m_max + 1)
    coeffs = _speed_weights(ms, m) * taper_window(m, ms.m_max)
    return _mode_sum(coeffs, m.astype(float), omega(ms, m), t, phi)


def line_arrival_amp(x: float, t: float, mu: float, k_range, profile=None,
                     rel_tol: float = 1e-10, taper=None, limit: int = 800) -> complex:
    """Line-theory arrival amplitude ∫ dk sqrt(v_k) psi~(k) e^{i k x - i omega_k t} over k_range.

    profile: callable k -> psi~(k) (complex); None means the bare amplitude,
    which converges only with a taper window over the k_range.  This is the
    scalar reference: two adaptive scipy quad runs over a Python integrand,
    against which the line oracle's panel rule (oracle._line_quadrature) and
    amp_saddle are tested.  The convergence gate scales with rel_tol, so
    loose tolerances are allowed for the strongly oscillatory bare integrand.
    """
    k_lo, k_hi = k_range

    def integrand(k, part):
        w = math.sqrt(mu * mu + k * k)
        v = k / w if w > 0 else 0.0
        val = math.sqrt(abs(v)) * cmath.exp(1j * (k * x - w * t))
        if profile is not None:
            val *= complex(profile(k))
        if taper is not None:
            val *= taper(k)
        return val.real if part == 0 else val.imag

    re, re_err = quad(integrand, k_lo, k_hi, args=(0,), limit=limit,
                      epsabs=1e-13, epsrel=rel_tol)
    im, im_err = quad(integrand, k_lo, k_hi, args=(1,), limit=limit,
                      epsabs=1e-13, epsrel=rel_tol)
    val = complex(re, im)
    _gate(np.array([val]), np.array([re_err + im_err]), [x], t, rel_tol)
    return val


def amp_poisson(ms: ModeSpace, t, phi, state: RingState):
    """Poisson-resummed amplitude of a state: the sum of its line-theory winding images.

    The state must carry a line packet (coherent or line-sampled) and live
    on ms; each image is the quadrature amplitude of that packet.  Only
    the images within the packet's reach, the span of v_lo t and v_hi t
    padded by 14 sigma, are integrated (_images): the rest are under 1e-12
    of the peak image, and a point out of every image's reach is exactly 0.
    Below p sigma ~ 5.26 the k >= 0 window drops more than that, and one
    UserWarning a call, naming p sigma, says the result is no 1e-12
    reference.
    """
    if state.modespace != ms:
        raise StateError("state lives on a different mode space")
    packet = state.packet
    if packet is None:
        raise StateError("Poisson resummation needs a state with a line packet "
                         "(coherent or line-sampled)")
    _warn_below_reach(packet)
    return _pointwise(t, phi, lambda ti, pi_: packet.pref * _images(ms, packet, ti, pi_).sum())


def amp_saddle(ms: ModeSpace, t, phi):
    """Saddle-point form of the bare massive amplitude, summed over windings.

    Each winding n >= 1 inside the light cone contributes
    sqrt(2 pi i mu r^3 t (phi + 2 pi n)) / [t^2 - (phi+2pi n)^2 r^2]^(3/4)
    exp(-i mu sqrt(t^2 - (phi+2pi n)^2 r^2)), principal branch (sqrt(i) =
    e^{i pi/4}).  Points within delta_lc = 10 / mu of any cone are rejected:
    the [t^2 - x^2]^(-3/4) divergence there is an artifact of the
    approximation.
    """
    if ms.mu <= 0:
        raise DomainError("saddle-point amplitude requires mu > 0")
    delta_lc = 10.0 / ms.mu
    root_i = cmath.exp(1j * math.pi / 4.0)

    def at(ti, pi_):
        n_hi = int(math.floor((ti / ms.r - pi_) / (2.0 * math.pi))) + 1
        total = 0.0 + 0.0j
        for n in range(1, n_hi + 1):
            x_n = (pi_ + 2.0 * math.pi * n) * ms.r
            gap = ti - x_n
            if abs(gap) < delta_lc:
                raise DomainError(
                    f"evaluation point (t={ti}, phi={pi_}) is within delta_lc="
                    f"{delta_lc} of the winding-{n} light cone"
                )
            if gap <= 0:
                continue
            q = ti * ti - x_n * x_n
            total += (
                root_i
                * math.sqrt(2.0 * math.pi * ms.mu * ms.r**3 * ti * (pi_ + 2 * math.pi * n))
                / q**0.75
                * cmath.exp(-1j * ms.mu * math.sqrt(q))
            )
        return total

    return _pointwise(t, phi, at)


def amp_rotating_split(state: RingState, rf: RotationFrame, t, phi):
    """Rotating-frame amplitudes (D+, D-) split by the sign of the rotating velocity.

    D_pm = sum_m Theta(+-v~_m) psi_m sqrt(|v_m|) e^{i m phi - i omega~_m t};
    modes with v~_m = 0 exactly are assigned to D+ (measure-zero tie-break).
    |D+ + D-|^2 gives the rotating detection profile for maximum localization.
    """
    ms = rf.modespace
    if not state.is_pure:
        raise StateError("rotating split needs a pure state")
    if state.modespace != ms:
        raise StateError("state lives on a different mode space")
    m = ms.modes()
    vt, freq = _velocities(ms, m, rf), rotating_omega(rf, m)
    coeffs = state.coeffs * _speed_weights(ms, m)  # zero at m = 0: in neither sum
    mf = m.astype(float)
    d_plus = _mode_sum(np.where(vt >= 0.0, coeffs, 0.0), mf, freq, t, phi)
    d_minus = _mode_sum(np.where(vt < 0.0, coeffs, 0.0), mf, freq, t, phi)
    return d_plus, d_minus
