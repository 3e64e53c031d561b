"""Detection amplitudes and lattice sums: mode sums, double sums, Poisson images, saddles.

The arrival amplitude of a state psi on the ring is the mode sum

    amp(t, phi) = sum_m psi_m sqrt(|v_m|) exp(i m phi - i omega_m t),

absolutely convergent for normalizable states.  The same quantity can be
rebuilt from line theory: Poisson resummation turns the lattice sum into a
sum over winding images of the line arrival amplitude.  The images the
packet's momenta can reach (_images) are evaluated at once by composite
Gauss-Legendre panels in k (states._line_quadrature), sized from the phase
rate |x - v_k t| and gated
on self-convergence: the n- and 2n-panel rules must agree within each
caller's tolerance, else QuadratureError.  The phase e^{i x k} of a node
factors into a per-panel and a per-node exponential, so a rule costs
O(images x (panels + 32)) exponentials and a matrix product or two, plus
the node values.  The nodes are non-uniform on purpose: a uniform rule with
step 1/r would be the lattice sum itself.  The two routes share no code
beyond the dispersion relation, which is what makes their agreement a real
cross-check; line_arrival_amp keeps the scalar adaptive quadrature as the
reference the panel rule is tested against.

The bare (state-free) amplitude amp_ring is a distribution; it is only
evaluated under a smooth momentum taper, and only state-contracted
amplitudes are physically meaningful.  Its saddle-point form amp_saddle
holds deep inside the light cones of a massive field.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import DomainError, QuadratureError, StateError
from .modes import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from .states import (LineProfileOnRing, RingState, _chunks, _line_quadrature, _ratio,
                     _window_speeds)

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

# An image is integrated only within _REACH_SIGMAS initial widths of the
# positions v_k t the packet's momentum window can carry it to (_reach_windings).
_REACH_SIGMAS = 14.0
# p sigma below which the packet's momentum profile at k = 0, e^{-(p sigma)^2}
# of its peak, exceeds 1e-12: the k >= 0 window then drops real content
_REACH_P_SIGMA = math.sqrt(12.0 * math.log(10.0))

# unit roundoff of float64 (see _significant)
_UNIT_ROUNDOFF = 2.0**-53
# imaginary residue a double sum may keep (see _double_sum)
REALITY_TOL = 1e-10

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


def _speed_weights(ms: ModeSpace, m: np.ndarray, frame: RotationFrame | None = None):
    """sqrt(|v_m|), or sqrt(|v~_m|) in a rotating frame, with the zero mode excluded (0)."""
    return np.sqrt(np.abs(_velocities(ms, m, frame)))


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


def _phases(m, w, t, phi):
    """exp(i(m phi - w t)) as a modes x points matrix: the one lattice phase formula.

    Formed in one buffer: the same products, difference and exp as
    np.exp(1j * (m phi - w t)) elementwise, so the same bits.
    """
    x = np.multiply.outer(m, phi)
    x -= np.multiply.outer(w, t)
    x = x * 1j
    return np.exp(x, out=x)


def _dense_sum(c, mm, ww, tf, pf):
    """The reference evaluation: one complex exp per mode x point, chunked over modes."""
    out = np.zeros(tf.size, dtype=complex)
    for sl in _chunks(c.size, tf.size):
        out += c[sl] @ _phases(mm[sl], ww[sl], tf, pf)
    return out


def _blocked_sum(c, mm, ww, tf, pf, dt, dp):
    """The same sum on a uniform grid, one GEMM per chunk of modes and of blocks.

    Point b*B + k of block b has phase theta_m(b*B) + k beta_m, beta_m =
    m dp - omega_m dt: the block-start phases come from the grid values by
    _phases, the in-block steps from a modes x B table that also carries
    the coefficients, formed a chunk of modes at a time.
    """
    heads_t, heads_p = tf[::_BLOCK], pf[::_BLOCK]
    out = np.zeros((heads_t.size, _BLOCK), dtype=complex)
    for part in _chunks(c.size, _BLOCK):
        m_, w_ = mm[part], ww[part]
        steps = c[part, None] * np.exp(1j * np.outer(m_ * dp - w_ * dt, np.arange(_BLOCK)))
        for sl in _chunks(heads_t.size, m_.size):
            out[sl] += _phases(m_, w_, heads_t[sl], heads_p[sl]).T @ steps
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
        if tf.size >= _MIN_UNIFORM:
            dt, dp = _arithmetic_step(tf), _arithmetic_step(pf)
            if dt is not None and dp is not None:
                return _blocked_sum(c, mm, ww, tf, pf, dt, dp)
        return _dense_sum(c, mm, ww, tf, pf)

    return _on_grid(t, phi, fill)


def _double_sum(kernel: np.ndarray, m: np.ndarray, freq: np.ndarray, t, phi):
    """The real sum_{j,k} kernel_jk exp(i((m_j - m_k) phi - (freq_j - freq_k) t)) on a grid.

    Rows and columns whose row sums of |kernel| fall under _significant are
    dropped (at most 2 u sum|kernel|).  kernel must be Hermitian: an
    imaginary residue above REALITY_TOL of max(1, max|real|) raises DomainError.
    """
    active = _significant(np.abs(kernel).sum(axis=1))
    kernel = kernel[np.ix_(active, active)]
    ma, wa = m[active], freq[active]

    def fill(tf, pf):
        vals = np.empty(tf.size, dtype=complex)
        for sl in _chunks(tf.size, ma.size):
            u = _phases(ma, wa, tf[sl], pf[sl])
            vals[sl] = np.einsum("mp,mn,np->p", u, kernel, u.conj(), optimize=True)
        resid = float(np.max(np.abs(vals.imag))) if vals.size else 0.0
        scale = max(float(np.max(np.abs(vals.real))), 1e-300)
        if resid > REALITY_TOL * max(scale, 1.0):
            raise DomainError(
                f"non-Hermitian input: imaginary residue {resid:.3e} exceeds tolerance"
            )
        return vals.real

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
    _gate(np.array([val]), np.array([re_err + im_err]), [x], t, rel_tol)
    return val


def _reach_windings(x0_over_r: float, v_lo: float, v_hi: float, t: float, sigma: float,
                    r: float) -> range:
    """Windings n whose image x_n = (x0_over_r + 2 pi n) r lies in the packet's reach.

    The reach is the span of v_lo t and v_hi t, padded by 14 sigma: the
    positions the momenta of the window, at speeds in [v_lo, v_hi], carry
    the packet to in time t (of either sign), padded by its initial
    Gaussian width sigma.  The range may be empty.
    """
    a, b = sorted((v_lo * t, v_hi * t))
    lo = ((a - _REACH_SIGMAS * sigma) / r - x0_over_r) / (2.0 * math.pi)
    hi = ((b + _REACH_SIGMAS * sigma) / r - x0_over_r) / (2.0 * math.pi)
    return range(math.ceil(lo), math.floor(hi) + 1)


def _root_speed(k: np.ndarray, mu: float) -> np.ndarray:
    """sqrt(v_k) on the line at quadrature nodes (all k > 0; no overflow at their sizes)."""
    return np.sqrt(k / np.sqrt(mu * mu + k * k))


def _winding_positions(phi: float, theta0: float, windings, r: float) -> list[tuple[int, int]]:
    """Image positions (phi - theta0 + 2 pi n) r as exact integer pairs (num, den).

    2 pi is carried to two float terms (error ~1e-32).  In floats the
    position of winding n errs by up to n ulps of 2 pi r plus its own
    rounding: a phase error of ~1e-12 rad at k ~ 1e3, as large as the
    mode sum's own roundoff.  The pairs are those of states._ratio: sums
    and products over a common denominator, never reduced.
    """
    (hn, hd), (ln, ld) = _ratio(2.0 * math.pi), _ratio(_TWO_PI_LO)
    (pn, pd), (tn, td), (rn, rd) = _ratio(phi), _ratio(theta0), _ratio(r)
    two_pi_n, two_pi_d = hn * ld + ln * hd, hd * ld
    base_n, base_d = pn * td - tn * pd, pd * td
    return [((base_n * two_pi_d + two_pi_n * n * base_d) * rn, base_d * two_pi_d * rd)
            for n in windings]


def _images(ms: ModeSpace, packet: LineProfileOnRing, t: float, phi: float,
            rel_tol: float) -> np.ndarray:
    """Line amplitudes of the packet's winding images at (t, phi), without pref.

    Only the images in the reach of the momentum window [max(0, p - 8/sigma),
    p + 8/sigma] are integrated (_reach_windings, at the window's end speeds
    states._window_speeds): none at a point out of every image's reach.
    Every other image is under 1e-12 of the peak image unless p sigma <
    _REACH_P_SIGMA, where the window's cut at k = 0 drops more than that
    (_warn_below_reach, which the public callers run once per call).
    """
    line, theta0 = packet.line, packet.theta0
    p, sigma = line.p, line.sigma
    if p <= 0:
        raise StateError("Poisson images require positive mean momentum")
    k_lo, k_hi = max(0.0, p - 8.0 / sigma), p + 8.0 / sigma
    v_lo, v_hi = _window_speeds(ms.mu, k_lo, k_hi)
    windings = _reach_windings(phi - theta0, v_lo, v_hi, t, sigma, ms.r)
    if not windings:
        return np.zeros(0, dtype=complex)
    x = _winding_positions(phi, theta0, windings, ms.r)
    # sqrt(v_k) = 1 at every node k > 0 of a massless window
    weight = line.momentum_profile if ms.mu == 0 else (
        lambda k: _root_speed(k, ms.mu) * line.momentum_profile(k))
    vals, gap = _line_quadrature(x, t, ms.mu, weight, k_lo, k_hi)
    _gate(vals, gap, [n / d for n, d in x], t, rel_tol)
    return vals


def _warn_below_reach(packet: LineProfileOnRing):
    """UserWarning naming p sigma when it is below _REACH_P_SIGMA (see _images).

    Filed at the line that called the public function calling this one.
    """
    p_sigma = packet.line.p * packet.line.sigma
    if p_sigma < _REACH_P_SIGMA:
        warnings.warn(
            f"Poisson images drop the packet's momenta k < 0 (p*sigma = {p_sigma:.3g} "
            f"< {_REACH_P_SIGMA:.3g}): not a 1e-12 reference", stacklevel=3)


def _gate(vals: np.ndarray, gap: np.ndarray, x: list, t: float, rel_tol: float):
    """QuadratureError unless each image's n/2n gap is within max(1e-10, 100 rel_tol |value|)."""
    bad = np.flatnonzero(gap > np.maximum(1e-10, 100.0 * rel_tol * np.abs(vals)))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"line amplitude quadrature poorly converged at x={x[i]}, t={t}: "
            f"estimate {gap[i]:.3e} for |value| {abs(vals[i]):.3e}"
        )


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
    return _pointwise(t, phi, lambda ti, pi_: packet.pref * _images(
        ms, packet, ti, pi_, rel_tol=1e-10).sum())


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
