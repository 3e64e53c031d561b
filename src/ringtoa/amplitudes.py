"""Detection amplitudes: mode sums, Poisson-resummed images, saddle points.

The arrival amplitude of a state psi on the ring is the mode sum

    amp(t, phi) = sum_m psi_m sqrt(|v_m|) exp(i m phi - i omega_m t),

absolutely convergent for normalizable states.  The same quantity can be
rebuilt from line theory: Poisson resummation turns the lattice sum into a
sum over winding images of the line arrival amplitude.  All images of a
point are evaluated at once by composite Gauss-Legendre panels in k
(states._line_quadrature), sized from the phase rate |x - v_k t| and gated
on self-convergence: the n- and 2n-panel rules must agree within each
caller's tolerance, else QuadratureError.  The nodes are non-uniform on
purpose: a uniform rule with step 1/r would be the lattice sum itself.  The
two routes share no code beyond the dispersion relation, which is what makes
their agreement a real cross-check; line_arrival_amp keeps the scalar
adaptive quadrature as the reference the panel rule is tested against.

The bare (state-free) amplitude amp_ring is a distribution; it is only
evaluated under a smooth momentum taper, and only state-contracted
amplitudes are physically meaningful.  Its saddle-point form amp_saddle
holds deep inside the light cones of a massive field.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import numpy as np
from scipy.integrate import quad

from .errors import DomainError, QuadratureError, StateError
from .modes import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from .specfun import coherent_norm
from .states import (
    CoherentParams,
    LineProfileOnRing,
    LineState,
    _CHUNK_BUDGET,
    RingState,
    _line_quadrature,
    spread_at_time,
)

__all__ = [
    "amp_state",
    "amp_ring",
    "amp_poisson",
    "amp_saddle",
    "amp_rotating_split",
    "line_arrival_amp",
]

# Uniform grids (see _mode_sum).  A block holds _BLOCK points, so a grid of
# n points costs modes x (_BLOCK + n / _BLOCK) complex exps instead of
# modes x n.  Grids shorter than _MIN_UNIFORM save too little and stay dense.
# A grid counts as uniform when every point lies within tol_t = _UNIFORM_ULPS
# ulps of max|t| (tol_phi: of max|phi|) of the progression.  The in-block
# phases then differ from the dense ones by at most
# 2 (max|omega_m| tol_t + max|m| tol_phi) rad plus roundoff.
_BLOCK = 64
_MIN_UNIFORM = 2 * _BLOCK
_UNIFORM_ULPS = 8

# 2 pi - float(2 pi): the second term of the image spacing (_winding_positions)
_TWO_PI_LO = 2.4492935982947064e-16

# unit roundoff of float64 (see _significant)
_UNIT_ROUNDOFF = 2.0**-53

def _on_grid(t, phi, fill):
    """fill(t, phi) on the flattened broadcast grid, reshaped back (scalar for scalar)."""
    t_arr, phi_arr = np.broadcast_arrays(
        np.asarray(t, dtype=float), np.asarray(phi, dtype=float)
    )
    out = fill(t_arr.ravel(), phi_arr.ravel())
    if t_arr.shape == ():
        return out[0].item()
    return out.reshape(t_arr.shape)


def _pointwise(t, phi, at, dtype=complex):
    """at(t_i, phi_i) at each point of the broadcast (t, phi) grid."""
    return _on_grid(t, phi, lambda tf, pf: np.array(
        [at(ti, pi_) for ti, pi_ in zip(tf, pf)], dtype=dtype))


def _velocities(ms: ModeSpace, m: np.ndarray, frame: RotationFrame | None = None):
    """v_m, or v~_m relative to a rotating frame, with the zero mode excluded (0)."""
    v = np.zeros(m.size)
    nz = m != 0
    v[nz] = velocity(ms, m[nz]) if frame is None else rotating_velocity(frame, m[nz])
    return v


def _speed_weights(ms: ModeSpace, m: np.ndarray) -> np.ndarray:
    """sqrt(|v_m|) with the zero mode excluded (Theta(0) = 0 convention)."""
    return np.sqrt(np.abs(_velocities(ms, m)))


def _arithmetic_step(x: np.ndarray) -> float | None:
    """Step d with x_j = x_0 + j d to within _UNIFORM_ULPS ulps of max|x|, else None.

    d is taken from the end points, (x_{n-1} - x_0) / (n - 1), not from
    x_1 - x_0, whose rounding would drift by (n - 1) times as much along the
    grid.  A constant array has step 0.
    """
    if x.ndim != 1 or x.size < 2:
        return None
    d = (x[-1] - x[0]) / (x.size - 1)
    tol = _UNIFORM_ULPS * np.finfo(float).eps * float(np.max(np.abs(x)))
    ideal = x[0] + d * np.arange(x.size)
    return float(d) if float(np.max(np.abs(x - ideal))) <= tol else None


def _significant(mag: np.ndarray) -> np.ndarray:
    """Mask of the terms mag > u sum(mag) / nnz, u the unit roundoff, nnz the non-zeros.

    The terms it drops are at most nnz, each at most u sum(mag) / nnz, and not
    all of them (some term reaches the mean), so together they stay under
    u sum(mag): inside the error bound gamma_n sum|c| of any n-term sum of
    the same terms (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1).  Zeros are never kept; an all-zero input keeps nothing.
    """
    return mag > _UNIT_ROUNDOFF * mag.sum() / max(np.count_nonzero(mag), 1)


def _dense_sum(c, mm, ww, tf, pf):
    """The reference evaluation: one complex exp per mode x point, chunked over modes."""
    out = np.zeros(tf.size, dtype=complex)
    chunk = max(1, _CHUNK_BUDGET // max(tf.size, 1))
    for i in range(0, c.size, chunk):
        sl = slice(i, i + chunk)
        phase = np.exp(
            1j * (mm[sl, None] * pf[None, :] - ww[sl, None] * tf[None, :])
        )
        out += c[sl] @ phase
    return out


def _blocked_sum(c, mm, ww, tf, pf, dt, dp):
    """The same sum on a uniform grid, one GEMM per chunk of blocks.

    Point b*B + k of block b has phase theta_m(b*B) + k beta_m, beta_m =
    m dp - omega_m dt: the block-start phases come from the grid values by
    the dense formula, the in-block steps from one modes x B table that
    also carries the coefficients.
    """
    starts = np.arange(0, tf.size, _BLOCK)
    steps = c[:, None] * np.exp(1j * np.outer(mm * dp - ww * dt, np.arange(_BLOCK)))
    out = np.empty((starts.size, _BLOCK), dtype=complex)
    chunk = max(1, _CHUNK_BUDGET // max(c.size, 1))
    for i in range(0, starts.size, chunk):
        s = starts[i:i + chunk]
        head = np.exp(1j * (mm[:, None] * pf[s] - ww[:, None] * tf[s]))
        out[i:i + chunk] = head.T @ steps
    return out.ravel()[:tf.size]


def _mode_sum(coeffs: np.ndarray, m: np.ndarray, freq: np.ndarray, t, phi):
    """sum_m coeffs_m exp(i(m phi - freq_m t)) over a broadcast (t, phi) grid.

    A flattened grid that is an arithmetic progression in both t and phi
    (either step may be 0) takes _blocked_sum, any other grid _dense_sum.
    Either sums only the _significant terms, within u sum|coeffs| of the sum
    over all of them.
    """
    active = _significant(np.abs(coeffs))
    c, mm, ww = coeffs[active], m[active], freq[active]

    def fill(tf, pf):
        # the blocked path holds its modes x _BLOCK step table whole
        if tf.size >= _MIN_UNIFORM and c.size * _BLOCK <= _CHUNK_BUDGET:
            dt, dp = _arithmetic_step(tf), _arithmetic_step(pf)
            if dt is not None and dp is not None:
                return _blocked_sum(c, mm, ww, tf, pf, dt, dp)
        return _dense_sum(c, mm, ww, tf, pf)

    return _on_grid(t, phi, fill)


def amp_state(state: RingState, ms: ModeSpace, t, phi):
    """Arrival amplitude of a pure state under maximum localization.

    General localization never factorizes into an amplitude; the
    probability module's pc_density handles it.
    """
    if not state.is_pure:
        raise StateError("amplitudes need a pure state; use pc_density for mixed")
    if state.modespace != ms:
        raise StateError("state lives on a different mode space")
    m = ms.modes()
    coeffs = state.coeffs * _speed_weights(ms, m)
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
    against which the vectorized panel rule of amp_poisson and
    qsymbol(method="images") is tested, and the quadrature of one bare
    image that amp_saddle is tested against.  The convergence gate scales
    with rel_tol, so loose tolerances are allowed for the strongly
    oscillatory bare integrand.
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
    err = re_err + im_err
    if err > max(1e-10, 100.0 * rel_tol * abs(val)):
        raise QuadratureError(
            f"line amplitude quadrature poorly converged at x={x}, t={t}: "
            f"estimate {err:.3e} for |value| {abs(val):.3e}"
        )
    return val


def _image_windings(x0_over_r: float, v_p: float, t: float, sigma_t: float,
                    r: float) -> range:
    """Winding indices whose image can reach weight above ~1e-12."""
    center = (v_p * t / r - x0_over_r) / (2.0 * math.pi)
    half = (14.0 * sigma_t / r) / (2.0 * math.pi) + 1
    return range(math.floor(center - half), math.ceil(center + half) + 1)


def _line_packet(ms: ModeSpace, prof) -> tuple[LineState, float, float]:
    """(line packet, lattice prefactor, entry angle theta0) of a state profile."""
    if isinstance(prof, CoherentParams):
        sigma = ms.r / (math.sqrt(2.0) * prof.alpha)
        line = LineState(p=prof.xi / ms.r, sigma=sigma)
        pref = (
            coherent_norm(prof.xi, prof.alpha)
            * ms.r
            * (math.pi / (2.0 * sigma**2)) ** 0.25
        )
        theta0 = prof.theta
    elif isinstance(prof, LineProfileOnRing):
        line, pref, theta0 = prof.line, ms.r / prof.norm, prof.theta0
    else:
        raise StateError(f"unsupported profile type {type(prof).__name__}")
    if line.p <= 0:
        raise StateError("Poisson images require positive mean momentum")
    return line, pref, theta0


def _root_speed(k: np.ndarray, mu: float) -> np.ndarray:
    """sqrt(v_k) on the line at quadrature nodes (all k > 0)."""
    return np.sqrt(k / np.hypot(mu, k))


def _winding_positions(phi: float, theta0: float, windings, r: float) -> list[Fraction]:
    """Image positions (phi - theta0 + 2 pi n) r as exact rationals.

    2 pi is carried to two float terms (error ~1e-32).  In floats the
    position of winding n errs by up to n ulps of 2 pi r plus its own
    rounding: a phase error of ~1e-12 rad at k ~ 1e3, as large as the
    mode sum's own roundoff.
    """
    two_pi = Fraction(2.0 * math.pi) + Fraction(_TWO_PI_LO)
    base = Fraction(phi) - Fraction(theta0)
    return [(base + two_pi * Fraction(n)) * Fraction(r) for n in windings]


def _images(ms: ModeSpace, line: LineState, theta0: float, t: float, phi: float,
            rel_tol: float) -> np.ndarray:
    """Line amplitudes of the packet's winding images at (t, phi), unprefixed."""
    p, sigma = line.p, line.sigma
    v_p = p / math.sqrt(ms.mu**2 + p**2)
    sig_t = spread_at_time(line, ms, t) if ms.mu > 0 else sigma
    windings = _image_windings(phi - theta0, v_p, t, sig_t, ms.r)
    x = _winding_positions(phi, theta0, windings, ms.r)
    vals, gap = _line_quadrature(
        x, t, ms.mu, lambda k: _root_speed(k, ms.mu) * line.momentum_profile(k),
        max(0.0, p - 8.0 / sigma), p + 8.0 / sigma,
    )
    _gate(vals, gap, x, t, rel_tol)
    return vals


def _gate(vals: np.ndarray, gap: np.ndarray, x: list, t: float, rel_tol: float):
    """QuadratureError unless each image's n/2n gap is within max(1e-10, 100 rel_tol |value|)."""
    bad = np.flatnonzero(gap > np.maximum(1e-10, 100.0 * rel_tol * np.abs(vals)))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"line amplitude quadrature poorly converged at x={float(x[i])}, t={t}: "
            f"estimate {gap[i]:.3e} for |value| {abs(vals[i]):.3e}"
        )


def amp_poisson(ms: ModeSpace, t, phi, state: RingState):
    """Poisson-resummed amplitude of a state: the sum of its line-theory winding images.

    The state must carry a continuum profile (coherent parameters or a line
    profile); each image is the quadrature amplitude of the corresponding
    continuum packet.  Images are included until the neglected ones carry
    less than ~1e-12 of the packet weight.
    """
    if not state.profiles:
        raise StateError(
            "Poisson resummation needs a state with a continuum profile "
            "(coherent or line-sampled)"
        )
    packets = [(weight, *_line_packet(ms, prof)) for weight, prof in state.profiles]

    def resummed(ti, pi_):
        return sum(weight * pref * _images(ms, line, theta0, ti, pi_, rel_tol=1e-10).sum()
                   for weight, line, pref, theta0 in packets)

    return _pointwise(t, phi, resummed)


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
