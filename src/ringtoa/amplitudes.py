"""Detection amplitudes: mode sums and their Poisson images.

The arrival amplitude of a state psi on the ring is the mode sum

    amp(t, phi) = sum_m psi_m sqrt(|v_m|) exp(i m phi - i omega_m t),

absolutely convergent for normalizable states (lattice._mode_sum).
amp_poisson rebuilds it from the line oracle's winding images, and
line_arrival_amp is the scalar quadrature that oracle is tested against.

The bare (state-free) amplitude amp_ring is a distribution; it is only
evaluated under a smooth momentum taper, and only state-contracted
amplitudes are physically meaningful.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import StateError
from .lattice import _mode_sum, _on_grid, _prune, _term_sum
from .modes import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from .oracle import _gate, _images, _warn_below_reach
from .states import RingState

__all__ = [
    "amp_state",
    "amp_ring",
    "amp_poisson",
    "amp_rotating_split",
    "line_arrival_amp",
]

# frame pairs whose terms a state keeps (see _terms): a scan over many frames
# on one state rebuilds its terms instead of growing the memo
_TERM_MEMO_PAIRS = 4


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


def _read_only(arrays: tuple) -> tuple:
    """The arrays, each marked read-only."""
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _terms(state: RingState, weight_frame: RotationFrame | None,
           freq_frame: RotationFrame | None, pruned: bool = True):
    """A pure state's mode-sum terms (psi_m sqrt|v_m|, m, omega_m), built once per frame pair.

    A triple (coefficients times speed weights, modes as floats,
    frequencies) of read-only arrays over the non-zero coefficients, or,
    when pruned, over those that lattice._prune keeps, ready for _term_sum.
    The weights take weight_frame's velocities v~_m and the frequencies
    freq_frame's energies omega_m - m Omega_D (static for None).  Both
    triples are memoized on the state (RingState._term_memo) under
    (weight_frame, freq_frame), for the _TERM_MEMO_PAIRS pairs built last;
    the pruned one is built when first asked for.  amp_state and the
    on-support factorized pc_density read the pruned terms;
    amp_rotating_split and the off-support pc_density branch read every
    term, select some and prune those.
    """
    memo, key = state._term_memo, (weight_frame, freq_frame)
    entry = memo.get(key)
    if entry is None:
        ms = state.modespace
        nz = np.flatnonzero(state.coeffs)  # a zero coefficient is never summed
        m = ms.modes()[nz]
        every = (state.coeffs[nz] * _speed_weights(ms, m, weight_frame), m.astype(float),
                 omega(ms, m) if freq_frame is None else rotating_omega(freq_frame, m))
        if len(memo) >= _TERM_MEMO_PAIRS:
            del memo[next(iter(memo))]  # the oldest pair
        entry = memo[key] = [_read_only(every), None]
    if not pruned:
        return entry[0]
    if entry[1] is None:
        entry[1] = _read_only(_prune(*entry[0]))
    return entry[1]


def amp_state(state: RingState, ms: ModeSpace, t, phi):
    """Arrival amplitude of a pure state under maximum localization.

    General localization never factorizes into an amplitude; the
    probability module's pc_density handles it.
    """
    if not state.is_pure:
        raise StateError("amplitudes need a pure state; use pc_density for mixed")
    if state.modespace != ms:
        raise StateError("state lives on a different mode space")
    return _term_sum(*_terms(state, None, None), t, phi)


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
    against which the line oracle's panel rule (oracle._line_quadrature) is
    tested.  The convergence gate scales with rel_tol, so loose tolerances
    are allowed for the strongly oscillatory bare integrand.
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
    # static speed weights under rotating frequencies: ROADMAP N2 is to pass
    # rf as the weight frame too, as pc_density(frame=rf) does
    c, m, freq = _terms(state, None, rf, pruned=False)
    plus = _velocities(ms, m, rf) >= 0.0  # the zero mode is weighted 0: in neither sum
    return (_mode_sum(c[plus], m[plus], freq[plus], t, phi),
            _mode_sum(c[~plus], m[~plus], freq[~plus], t, phi))
