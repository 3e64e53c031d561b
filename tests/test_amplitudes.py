import cmath
import math
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    LineState,
    ModeSpace,
    RotationFrame,
    amp_poisson,
    amp_ring,
    amp_rotating_split,
    amp_state,
    coherent_state,
    from_modes,
    rotating_velocity,
    symmetric_superposition,
    velocity,
)
from ringtoa import amplitudes, oracle, probability
from ringtoa.amplitudes import line_arrival_amp, taper_window
from ringtoa.errors import DomainError, QuadratureError, StateError
from ringtoa.specfun import coherent_norm
from ringtoa.oracle import _line_quadrature
from ringtoa.states import LineProfileOnRing, gaussian_line, spread_at_time


MS0 = ModeSpace(mu=0.0, r=1.0, m_max=1100)
COH = CoherentParams(theta=0.0, xi=1000.0, alpha=10.0)


def test_amp_state_single_mode():
    ms = ModeSpace(mu=2.0, r=1.0, m_max=10)
    st = from_modes(ms, {4: 1.0})
    v4 = velocity(ms, 4)
    for t, phi in ((0.0, 0.0), (3.7, 1.2), (11.0, -0.4)):
        a = amp_state(st, ms, t, phi)
        assert abs(a) == pytest.approx(math.sqrt(v4), rel=1e-14)
    # phases advance as e^{i(4 phi - omega_4 t)}
    a0 = amp_state(st, ms, 0.0, 0.0)
    a1 = amp_state(st, ms, 0.0, 0.5)
    assert a1 / a0 == pytest.approx(np.exp(1j * 4 * 0.5), rel=1e-12)


def test_amp_state_periodicity_exact():
    st = coherent_state(MS0, COH)
    a = amp_state(st, MS0, 4.2, 0.7)
    b = amp_state(st, MS0, 4.2, 0.7 + 2.0 * math.pi)
    assert a == pytest.approx(b, rel=1e-10)


def test_amp_state_time_reversal_identity():
    # conjugating coefficients and flipping (t, phi) conjugates the amplitude
    ms = ModeSpace(mu=3.0, r=1.0, m_max=40)
    rng = np.random.default_rng(7)
    amps = {m: complex(*rng.normal(size=2)) for m in range(3, 12)}
    st = from_modes(ms, amps)
    conj = from_modes(ms, {m: a.conjugate() for m, a in amps.items()})
    a = amp_state(st, ms, 2.3, 0.9)
    b = amp_state(conj, ms, -2.3, -0.9)
    assert b == pytest.approx(a.conjugate(), rel=1e-12)


def test_massless_peaks_at_windings():
    st = coherent_state(MS0, COH)
    phi = 1.0
    t = np.linspace(0.2, 4.0 * 2.0 * math.pi + phi, 12000)
    dens = np.abs(amp_state(st, ms=MS0, t=t, phi=phi)) ** 2
    from scipy.signal import find_peaks

    idx, _ = find_peaks(dens, prominence=0.3 * dens.max())
    # n = 0 is the initial passage (theta=0 packet crossing the detector)
    expected = phi + 2.0 * math.pi * np.arange(0, 4)
    assert idx.size == 4
    np.testing.assert_allclose(t[idx], expected, atol=2e-3)


def test_causality_before_first_winding():
    # localized state: negligible amplitude before the packet can arrive
    st = coherent_state(MS0, COH)
    phi = 2.0
    sigma_t = 1.0 / (math.sqrt(2.0) * 10.0)
    t_early = np.linspace(0.05, phi - 8.0 * sigma_t, 50)
    dens = np.abs(amp_state(st, MS0, t_early, phi)) ** 2
    t_peak = np.linspace(phi - 0.05, phi + 0.05, 101)
    peak = np.max(np.abs(amp_state(st, MS0, t_peak, phi)) ** 2)
    assert dens.max() < 1e-10 * peak


def test_oracle_equivalence_massless():
    # core cross-check: mode sum vs Poisson-resummed line quadrature
    st = coherent_state(MS0, COH)
    phi = math.pi
    t = np.linspace(phi + 2 * math.pi - 1.2, phi + 2 * math.pi + 1.2, 41)
    a_mode = amp_state(st, MS0, t, phi)
    a_pois = amp_poisson(MS0, t, phi, state=st)
    scale = float(np.max(np.abs(a_mode)))
    assert np.max(np.abs(a_mode - a_pois)) / scale < 1e-8


def test_oracle_equivalence_massive():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1100)
    st = coherent_state(ms, COH)
    v = velocity(ms, 1000.0)
    # t < T_q/2 = 141; points on and around the packet peaks
    t = np.array([40.0, 70.0, 100.0, 130.0])
    phi = (v * t) % (2.0 * math.pi)
    a_mode = amp_state(st, ms, t, phi)
    a_pois = amp_poisson(ms, t, phi, state=st)
    scale = float(np.max(np.abs(a_mode)))
    assert np.max(np.abs(a_mode - a_pois)) / scale < 1e-6
    # off-peak points, same normalization
    b_mode = amp_state(st, ms, t, phi + 0.8)
    b_pois = amp_poisson(ms, t, phi + 0.8, state=st)
    assert np.max(np.abs(b_mode - b_pois)) / scale < 1e-6


def test_oracle_equivalence_r_not_one():
    # the image prefactor carries sqrt(r); exercise r != 1 on both branches
    for mu in (0.0, 300.0):
        ms = ModeSpace(mu=mu, r=2.5, m_max=900)
        cp = CoherentParams(theta=0.0, xi=700.0, alpha=8.0)
        st = coherent_state(ms, cp)
        p = cp.xi / ms.r
        v = p / math.sqrt(mu**2 + p**2)
        t_on = math.pi * ms.r / v
        a_m = amp_state(st, ms, t_on, math.pi)
        a_p = amp_poisson(ms, t_on, math.pi, state=st)
        assert abs(a_m - a_p) / abs(a_m) < 1e-8


def test_poisson_needs_profile():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    st = from_modes(ms, {3: 1.0, 5: 0.2})
    with pytest.raises(StateError):
        amp_poisson(ms, 1.0, 0.5, state=st)


def test_poisson_needs_a_packet_on_its_own_mode_space():
    # the mirror half of a symmetric state has p < 0: the state has no packet
    sym = symmetric_superposition(MS0, coherent_state(MS0, COH))
    assert sym.packet is None
    with pytest.raises(StateError, match="line packet"):
        amp_poisson(MS0, 1.0, 0.5, state=sym)
    # the packet's pref holds only for the state's own r and lattice
    st_ = coherent_state(MS0, COH)
    for ms in (ModeSpace(mu=1000.0, r=1.0, m_max=1100), ModeSpace(mu=0.0, r=2.0, m_max=1100)):
        with pytest.raises(StateError, match="different mode space"):
            amp_poisson(ms, 1.0, 0.5, state=st_)


NON_FINITE_POINTS = [(math.nan, 0.5), (math.inf, 0.5), (1.0, -math.inf), ([1.0, math.nan], 0.5)]


@pytest.mark.parametrize("t, phi", NON_FINITE_POINTS)
def test_poisson_rejects_non_finite_points(t, phi):
    # the reach window's math.ceil raised a bare ValueError or OverflowError
    with pytest.raises(DomainError, match="finite"):
        amp_poisson(MS0, t, phi, state=coherent_state(MS0, COH))


def _lattice_evaluators():
    # each entry point of the mode and double sums, at (t, phi)
    from ringtoa import DetectorKernel, RingState, localization_matrix

    ms, cp = ModeSpace(mu=1.0, r=1.0, m_max=80), CoherentParams(0.0, 40.0, 3.0)
    st_ = coherent_state(ms, cp)
    mixed = RingState(ms, rho=np.outer(st_.coeffs, st_.coeffs.conj()))
    sym = symmetric_superposition(ms, st_)
    rf = RotationFrame(omega_d=0.01, modespace=ms)
    full = localization_matrix(DetectorKernel.max_localization(), ms)
    tail = localization_matrix(DetectorKernel.ring_exponential(a=1.0), ms)
    return {
        "amp_state": lambda t, phi: amp_state(st_, ms, t, phi),
        "qsymbol": lambda t, phi: probability.qsymbol(ms, cp, t, phi),
        # it takes no angle: t + phi is non-finite when either is
        "autocorrelation": lambda t, phi: probability.autocorrelation(st_, np.add(t, phi)),
        "amp_rotating_split": lambda t, phi: amp_rotating_split(sym, rf, t, phi),
        "pc_density-pure": lambda t, phi: probability.pc_density(st_, full, t, phi),
        "pc_density-double-sum": lambda t, phi: probability.pc_density(mixed, tail, t, phi),
    }


@pytest.mark.parametrize("name", list(_lattice_evaluators()))
@pytest.mark.parametrize("t, phi", NON_FINITE_POINTS)
def test_lattice_evaluators_reject_non_finite_points(name, t, phi):
    # a NaN point came back NaN, an infinite one as a bare RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="evaluation points must be finite"):
            _lattice_evaluators()[name](t, phi)


@pytest.mark.parametrize("x, t", [(math.nan, None), (math.inf, 2.0), (1.0, math.nan),
                                  (1.0, -math.inf)])
def test_gaussian_line_rejects_non_finite_x_and_t(x, t):
    # a NaN x without t came back NaN; with t, the carrier's exact ratio overflowed
    with pytest.raises(DomainError, match="finite"):
        gaussian_line(LineState(p=20.0, sigma=1.0), x, t=t, mu=3.0)


def test_poisson_line_image_matches_evolved_gaussian():
    # |B0(x, p)| for p sigma >> 1 is the evolved packet profile sqrt(v_p)-weighted
    from ringtoa.amplitudes import line_arrival_amp
    from ringtoa.states import gaussian_line

    mu, p, sigma, t = 50.0, 100.0, 0.5, 30.0
    ls = LineState(p=p, sigma=sigma)
    v_p = p / math.sqrt(mu**2 + p**2)
    x = v_p * t + 0.3
    b0 = line_arrival_amp(x, t, mu, profile=ls.momentum_profile,
                          k_range=(p - 16.0, p + 16.0))
    evolved = gaussian_line(ls, x, t=t, mu=mu)
    assert abs(b0) / (math.sqrt(2 * math.pi * v_p) * abs(evolved)) == pytest.approx(
        1.0, rel=5e-3
    )


def test_amp_ring_periodicity_and_window():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=300)
    a = amp_ring(ms, 2.0, 0.3)
    b = amp_ring(ms, 2.0, 0.3 + 2 * math.pi)
    assert a == pytest.approx(b, rel=1e-12)
    # at t = phi = 0 every massless phase is 1: the raw series diverges with
    # the cutoff and the returned value is exactly the taper-window mass
    from ringtoa.amplitudes import taper_window

    m = np.arange(1, ms.m_max + 1)
    expected = float(np.sum(taper_window(m, ms.m_max)))
    assert amp_ring(ms, 0.0, 0.0) == pytest.approx(expected, rel=1e-13)
    assert expected > 0.9 * ms.m_max  # grows with the cutoff, as documented


def test_zero_mode_never_contributes():
    ms = ModeSpace(mu=2.0, r=1.0, m_max=8)
    with_zero = from_modes(ms, {0: 1.0, 3: 1.0})
    only_three = from_modes(ms, {3: 1.0})
    a = amp_state(with_zero, ms, 1.7, 0.4)
    b = amp_state(only_three, ms, 1.7, 0.4)
    # the zero mode carries half the norm but no arrival amplitude
    assert abs(a) == pytest.approx(abs(b) / math.sqrt(2.0), rel=1e-12)


def test_amp_ring_phase_derivative_matches_stationary_phase_frequency():
    # mu r >> 1, one active winding deep inside its light cone: the bare
    # amplitude's phase turns at the stationary-phase frequency
    # -mu t / sqrt(t^2 - x_1^2), within 1%
    ms = ModeSpace(mu=40.0, r=1.0, m_max=400)
    phi, t = 0.5, 12.0
    x1 = phi + 2.0 * math.pi
    dt = 1e-4
    d_ring = np.angle(amp_ring(ms, t + dt, phi) / amp_ring(ms, t - dt, phi)) / (2 * dt)
    analytic = -ms.mu * t / math.sqrt(t * t - x1 * x1)
    assert d_ring == pytest.approx(analytic, rel=0.01)


def test_line_arrival_amp_matches_stationary_phase_deep_in_cone():
    # mu r >> 1, winding 1 deep inside its light cone: the tapered bare line
    # amplitude at x_1 is the stationary-phase form
    # sqrt(2 pi mu t x_1) / q^(3/4) exp(-i mu sqrt(q) - i pi/4), q = t^2 - x_1^2;
    # the phase of k x - omega_k t is concave in k, hence e^{-i pi/4}
    ms = ModeSpace(mu=40.0, r=1.0, m_max=400)
    phi, t = 0.5, 12.0
    x1 = phi + 2.0 * math.pi
    taper = (lambda k: taper_window(np.asarray(k * ms.r), ms.m_max))
    a_quad = ms.r * line_arrival_amp(x1 * ms.r, t, ms.mu, k_range=(0.0, ms.m_max / ms.r),
                                     rel_tol=1e-8, taper=taper, limit=2000)
    q = t * t - x1 * x1
    a_sp = (math.sqrt(2.0 * math.pi * ms.mu * t * x1) / q**0.75
            * cmath.exp(-1j * (ms.mu * math.sqrt(q) + math.pi / 4.0)))
    assert abs(a_quad) / abs(a_sp) == pytest.approx(1.0, abs=0.02)
    assert abs(cmath.phase(a_quad / a_sp)) < 0.01


def test_rotating_split_static_reduction():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=1100)
    st = coherent_state(ms, COH)  # m > 0 support only
    rf = RotationFrame(omega_d=0.0, modespace=ms)
    d_plus, d_minus = amp_rotating_split(st, rf, 3.3, 1.1)
    assert d_minus == 0j
    assert d_plus == pytest.approx(amp_state(st, ms, 3.3, 1.1), rel=1e-12)


def test_rotating_split_boundary_index():
    # modes with v_m < r Omega_D migrate to D-
    ms = ModeSpace(mu=50.0, r=1.0, m_max=120)
    rf = RotationFrame(omega_d=0.5, modespace=ms)
    st = from_modes(ms, {m: 1.0 for m in range(1, 80)})
    m = np.arange(1, 80)
    vt = rotating_velocity(rf, m)
    st_minus = {int(mm): 1.0 for mm, v in zip(m, vt) if v < 0}
    d_plus, d_minus = amp_rotating_split(st, rf, 0.0, 0.0)
    # at t=phi=0 each mode contributes sqrt(|v_m|)/norm > 0
    w = np.sqrt(np.abs(velocity(ms, m))) / math.sqrt(len(m))
    expect_minus = sum(w[i] for i, v in enumerate(vt) if v < 0)
    assert d_minus.real == pytest.approx(expect_minus, rel=1e-12)
    assert d_minus.imag == 0.0
    assert len(st_minus) > 0  # the split is nontrivial at these parameters


def test_sagnac_factorization_of_split():
    # symmetric massless state, small rotation: D_pm ~ B(t) e^{+-i xi O t}
    ms = ModeSpace(mu=0.0, r=1.0, m_max=1100)
    from ringtoa import symmetric_superposition

    sym = symmetric_superposition(ms, coherent_state(ms, COH))
    rf = RotationFrame(omega_d=1e-4, modespace=ms)
    t = 2.0 * math.pi * 3.0  # on the third return
    d_plus, d_minus = amp_rotating_split(sym, rf, t, 0.0)
    phase = np.angle(d_plus / d_minus) / 2.0
    expected = (1000.0 * rf.omega_d * t) % math.pi
    assert phase % math.pi == pytest.approx(expected, abs=2e-3)


def _exact(x) -> list[tuple[int, int]]:
    """Image positions as the exact integer pairs (num, den) _line_quadrature takes."""
    return [float(v).as_integer_ratio() for v in x]


def _fraction_positions(phi, theta0, windings, r) -> list[Fraction]:
    """The reference of oracle._winding_positions, in reduced Fractions."""
    two_pi = Fraction(2.0 * math.pi) + Fraction(oracle._TWO_PI_LO)
    base = Fraction(phi) - Fraction(theta0)
    return [(base + two_pi * n) * Fraction(r) for n in windings]


def _fraction_carrier(k_c, x, t, mu) -> np.ndarray:
    """The reference of oracle._carrier, in reduced Fractions."""
    k_exact, w_c = Fraction(k_c), math.hypot(mu, k_c)
    omega_c = Fraction(w_c)
    if w_c > 0.0:
        omega_c += (Fraction(mu) ** 2 + k_exact**2 - omega_c**2) / (2 * omega_c)
    out = []
    for xi in x:
        phase = k_exact * xi - omega_c * Fraction(t)
        hi = float(phase)
        out.append(cmath.exp(1j * hi) * cmath.exp(1j * float(phase - Fraction(hi))))
    return np.array(out, dtype=complex)


@settings(max_examples=150, deadline=None)
@given(
    phi=st.floats(-7.0, 7.0),
    theta0=st.floats(-7.0, 7.0),
    r=st.floats(0.01, 100.0),
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1000.0)),
    k_c=st.one_of(st.just(0.0), st.floats(0.0, 2000.0)),
    t=st.floats(-1e5, 1e5),
    first=st.integers(-20, 20),
)
@example(phi=0.3, theta0=1e-300, r=1.0, mu=0.0, k_c=0.0, t=0.0, first=0)
def test_integer_pairs_are_the_exact_rationals(phi, theta0, r, mu, k_c, t, first):
    # the unreduced integer pairs of the oracle hold the same rationals as
    # Fractions do, and give the same positions and carrier to the bit
    windings = range(first, first + 7)
    pairs = oracle._winding_positions(phi, theta0, windings, r)
    exact = _fraction_positions(phi, theta0, windings, r)
    assert [Fraction(n, d) for n, d in pairs] == exact
    assert [n / d for n, d in pairs] == [float(x) for x in exact]
    got, want = oracle._carrier(k_c, pairs, t, mu), _fraction_carrier(k_c, exact, t, mu)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _packet_weight(ls: LineState, mu: float):
    """sqrt(v_k) psi~(k): the integrand weight of a packet's winding images."""
    return lambda k: np.sqrt(k / np.hypot(mu, k)) * ls.momentum_profile(k)


@settings(max_examples=15, deadline=None)
@given(
    massless=st.booleans(),
    mu=st.floats(1.0, 60.0),
    sigma=st.floats(0.05, 1.0),
    p_sigma=st.floats(2.0, 30.0),  # below 8 the window is clipped at k = 0
    t=st.floats(0.0, 25.0),
    offset=st.floats(-2.0, 2.0),
    partner=st.booleans(),
)
def test_line_quadrature_matches_scalar_quad(massless, mu, sigma, p_sigma, t, offset,
                                             partner):
    # every winding image of a packet against the scalar scipy quad reference,
    # within that reference's own convergence gate max(1e-10, 100 rel_tol |value|)
    mu = 0.0 if massless else mu
    p = p_sigma / sigma
    ls = LineState(p=p, sigma=sigma, family="gaussian-times-x" if partner else "gaussian")
    k_lo, k_hi = max(0.0, p - 8.0 / sigma), p + 8.0 / sigma
    x = p / math.hypot(mu, p) * t + offset + 2.0 * math.pi * np.arange(-1, 2)
    got, gap = _line_quadrature(_exact(x), t, mu, _packet_weight(ls, mu), k_lo, k_hi)
    want = np.array([line_arrival_amp(xi, t, mu, profile=ls.momentum_profile,
                                      k_range=(k_lo, k_hi)) for xi in x])
    assert got.shape == gap.shape == x.shape
    assert np.all(np.abs(got - want) <= np.maximum(1e-10, 1e-8 * np.abs(want)))
    assert np.all(gap <= np.maximum(1e-10, 1e-8 * np.abs(got)))


@pytest.mark.parametrize("caller", ["images", "gaussian_line"])
def test_line_quadrature_gap_over_gate_raises(monkeypatch, caller):
    # 8 panels over hundreds of radians of phase: the n and 2n rules disagree;
    # 2 rad ahead of a massive packet, inside the reach of its speeds at t = 80
    monkeypatch.setattr(oracle, "_PANEL_PHASE", 1e9)
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    t = 80.0
    phi = (COH.theta + velocity(ms, COH.xi) * t + 2.0) % (2.0 * math.pi)
    with pytest.raises(QuadratureError):
        if caller == "images":
            amp_poisson(ms, t, phi, state=coherent_state(ms, COH))
        else:
            gaussian_line(LineState(p=20.0, sigma=0.2), 30.0, t=20.0, mu=5.0)


def _exp_i_product(x: float, kappa: np.ndarray) -> np.ndarray:
    """e^{i x kappa}, x kappa taken exactly: Dekker's product hi + lo, then e^{i hi} (1 + i lo)."""
    def halves(v):
        c = 134217729.0 * v  # 2^27 + 1
        hi = c - (c - v)
        return hi, v - hi

    hi = x * kappa
    (xh, xl), (kh, kl) = halves(np.float64(x)), halves(kappa)
    lo = ((xh * kh - hi) + xh * kl + xl * kh) + xl * kl
    return np.exp(1j * hi) * (1.0 + 1j * lo)


def _dense_fine_rule(x, t: float, mu: float, weight, calls) -> np.ndarray:
    """The 2n panel rule with one exponential per image per node: the reference.

    calls are the arguments of each _panel_rule call of one _line_quadrature
    call, the n rule of a window before its 2n rule.  Phase, weight and
    energy are all evaluated on the float node k_c + fl(a_p + b_j), and the
    phase x kappa is formed exactly: rounded to a float, it would move the
    rule by up to ~1e-13 of the peak where |x kappa| reaches 1e4.
    """
    xf = np.array([float(v) for v in x])
    out = np.zeros(xf.size, dtype=complex)
    for k_lo, k_hi, n, grade in calls[1::2]:
        groups = oracle._panel_rule(k_lo, k_hi, n, grade)
        k_c = 0.5 * (k_lo + k_hi)
        kappa = np.concatenate([((c - k_c)[:, None] + h * oracle._GL_NODES).ravel()
                                for c, h in groups])
        w = np.concatenate([np.tile(h * oracle._GL_WEIGHTS, c.size) for c, h in groups])
        k = k_c + kappa
        d_omega = kappa * (k + k_c) / (np.sqrt(mu * mu + k * k) + math.hypot(mu, k_c))
        f = w * weight(k) * np.exp(-1j * d_omega * t)
        carrier = oracle._carrier(k_c, _exact(xf), t, mu)
        out += carrier * np.array([_exp_i_product(xi, kappa) @ f for xi in xf])
    return out


@settings(max_examples=25, deadline=None)
@given(
    mu=st.one_of(st.just(0.0), st.floats(0.0, 1000.0, exclude_min=True)),
    sigma=st.floats(0.05, 1.0),
    p_sigma=st.floats(2.0, 30.0),  # below 8 the window reaches k = 0
    t=st.floats(0.0, 100.0),
    offset=st.floats(-2.0, 2.0),
    images=st.integers(1, 40),
)
# with the factored phases rounded apart from the node of the weight and
# energy, these cases were 2.1e-13 (no TwoSum residual) and 1.6e-13 (x a_p
# rounded) of the peak off the dense rule
@example(mu=0.0, sigma=0.05, p_sigma=2.0, t=2.0, offset=2.0, images=30)
@example(mu=0.0, sigma=0.05, p_sigma=2.0, t=50.0, offset=-2.0, images=40)
def test_line_quadrature_matches_dense_rule(mu, sigma, p_sigma, t, offset, images):
    # factored phases e^{i x a_p} e^{i x b_j} against e^{i x (a_p + b_j)} per
    # node; massless windows span p +- 8/sigma (split at k = 0), massive ones
    # are clipped at k = 0 (graded there)
    p = p_sigma / sigma
    ls = LineState(p=p, sigma=sigma)
    if mu == 0.0:
        weight, k_lo = ls.momentum_profile, p - 8.0 / sigma
    else:
        weight, k_lo = _packet_weight(ls, mu), max(0.0, p - 8.0 / sigma)
    k_hi = p + 8.0 / sigma
    x = p / math.hypot(mu, p) * t + offset * sigma + 2.0 * math.pi * np.arange(images)
    with mock.patch.object(oracle, "_panel_rule", wraps=oracle._panel_rule) as spy:
        got, _ = _line_quadrature(_exact(x), t, mu, weight, k_lo, k_hi)
    calls = [c.args for c in spy.call_args_list]
    assert len(calls) == (4 if mu == 0.0 and k_lo < 0.0 else 2)
    want = _dense_fine_rule(x, t, mu, weight, calls)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_line_quadrature_memory_is_bounded():
    # 200 images over more than 500 panels: an images x panels x 32 phase
    # array would take 250 MB, an unchunked images x panels one ~30 MB with
    # its temporaries; what may remain are chunks of _NODE_BUDGET entries and
    # a few arrays over the nodes
    ls = LineState(p=30.0, sigma=1.0)
    x = _exact(2.0 * math.pi * np.arange(200) + 0.3)
    with mock.patch.object(oracle, "_panel_rule", wraps=oracle._panel_rule) as spy:
        tracemalloc.start()
        try:
            _line_quadrature(x, 20.0, 5.0, _packet_weight(ls, 5.0), 22.0, 38.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    panels = spy.call_args_list[-1].args[2]
    assert panels > 500
    assert peak < 4 * oracle._NODE_BUDGET * 16 + 6 * 16 * 32 * panels


def test_oracle_never_calls_scalar_quad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    for owner in (scipy.integrate, amplitudes):
        monkeypatch.setattr(owner, "quad", refuse)
    st_ = coherent_state(MS0, COH)
    # points near the packet, where images are integrated
    amp_poisson(MS0, np.array([3.5, 9.0]), np.array([3.4, 2.9]), state=st_)
    gaussian_line(LineState(p=20.0, sigma=1.0), 5.0, t=5.0, mu=3.0)


def _lattice_sum_30_digits(mu: float, cp: CoherentParams, t, phi) -> np.ndarray:
    """Mode sum of a coherent state over m >= 1 within 14 alpha of xi, to 30 digits."""
    with mpmath.workdps(30):
        c, alpha, xi = mpmath.mpf(coherent_norm(cp.xi, cp.alpha)), cp.alpha, cp.xi
        return np.array([complex(mpmath.fsum(
            c * mpmath.exp(-(m - xi) ** 2 / (2 * alpha**2))
            * mpmath.sqrt(m / mpmath.sqrt(mu**2 + mpmath.mpf(m) ** 2))
            * mpmath.expj(m * (mpmath.mpf(p_) - cp.theta)
                          - mpmath.sqrt(mu**2 + mpmath.mpf(m) ** 2) * mpmath.mpf(t_))
            for m in range(max(1, int(xi - 14 * alpha)), int(xi + 14 * alpha) + 1)))
            for t_, p_ in zip(t, phi)])


@pytest.mark.parametrize("mu", [0.0, 1000.0])
def test_oracle_against_30_digit_lattice_sum(mu):
    # the image positions and carrier phases (~1e5 rad) are exact, so the
    # oracle is held to 1e-12 of the peak: below the mode sum's own roundoff
    ms = ModeSpace(mu=mu, r=1.0, m_max=1130)
    cp = CoherentParams(theta=0.3, xi=1000.0, alpha=10.0)
    st_ = coherent_state(ms, cp)
    v = cp.xi / math.hypot(mu, cp.xi)
    t = np.array([17.0, 17.0, 80.0, 80.0])
    phi = (cp.theta + v * t + np.array([0.0, 0.4, 0.0, 0.4])) % (2.0 * math.pi)
    want = _lattice_sum_30_digits(mu, cp, t, phi)
    got = amp_poisson(ms, t, phi, state=st_)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mu, xi, alpha", [(30.0, 50.0, 5.0), (200.0, 40.0, 4.0)])
def test_graded_oracle_against_30_digit_lattice_sum(mu, xi, alpha):
    # slow massive packets: the k window p +- 8/sigma = (xi +- 8 sqrt(2) alpha)/r
    # is clipped at 0 and its first panel graded there; the lattice sum stops
    # at m = 1, the weight at m <= 0 being below e^-50
    assert xi < 8.0 * math.sqrt(2.0) * alpha
    ms = ModeSpace(mu=mu, r=1.0, m_max=int(xi + 13 * alpha))
    cp = CoherentParams(theta=0.3, xi=xi, alpha=alpha)
    v = cp.xi / math.hypot(mu, cp.xi)
    t = np.array([5.0, 5.0, 20.0, 20.0])  # before T_q / 2
    phi = (cp.theta + v * t + np.array([0.0, 0.4, 0.0, 0.4])) % (2.0 * math.pi)
    want = _lattice_sum_30_digits(mu, cp, t, phi)
    got = amp_poisson(ms, t, phi, state=coherent_state(ms, cp))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


def _spread_windings(x0_over_r: float, v_p: float, t: float, sigma_t: float, r: float) -> range:
    """Windings within 14 sigma_t of the packet centre v_p t plus one on each side."""
    center = (v_p * t / r - x0_over_r) / (2.0 * math.pi)
    half = (14.0 * sigma_t / r) / (2.0 * math.pi) + 1
    return range(math.floor(center - half), math.ceil(center + half) + 1)


@settings(max_examples=25, deadline=None)
@given(
    mu=st.one_of(st.just(0.0), st.floats(1.0, 1000.0)),
    sigma=st.floats(0.03, 1.0),
    p_sigma=st.floats(6.0, 30.0),
    t_frac=st.floats(-1.0, 1.0),
    phi=st.floats(0.0, 2.0 * math.pi),
)
@example(mu=0.0, sigma=0.07, p_sigma=30.0, t_frac=0.009, phi=2.7)
@example(mu=1000.0, sigma=0.07, p_sigma=30.0, t_frac=0.5, phi=1.0)
@example(mu=10.0, sigma=0.1414, p_sigma=14.14, t_frac=-0.2, phi=1.0)
@example(mu=0.0, sigma=0.177, p_sigma=7.0, t_frac=-0.02, phi=0.5)
def test_reach_window_drops_only_roundoff_images(mu, sigma, p_sigma, t_frac, phi):
    # every image a window of 14 dispersed widths sigma_t plus a winding would
    # integrate and the reach window of _images leaves out is at roundoff
    p, theta0 = p_sigma / sigma, 0.3
    ms = ModeSpace(mu=mu, r=1.0, m_max=10)
    line = LineState(p=p, sigma=sigma)
    w_p = math.hypot(mu, p)
    t_q = math.inf if mu == 0 else w_p**3 * math.sqrt(2.0) * sigma / mu**2
    t = t_frac * min(t_q / 2.0, 1e3)
    with mock.patch.object(oracle, "_line_quadrature", wraps=_line_quadrature) as spy:
        oracle._images(ms, LineProfileOnRing(line, theta0, 1.0), t, phi)
    kept = spy.call_args.args[0] if spy.called else []
    sigma_t = spread_at_time(line, ms, t) if mu > 0 else sigma
    wide = oracle._winding_positions(
        phi, theta0, _spread_windings(phi - theta0, p / w_p, t, sigma_t, ms.r), ms.r)
    dropped = [x for x in wide if x not in kept]
    # the last position is the packet centre, where the peak image sits
    vals, _ = _line_quadrature(dropped + [(p / w_p * t).as_integer_ratio()], t, mu,
                               _packet_weight(line, mu), max(0.0, p - 8.0 / sigma),
                               p + 8.0 / sigma)
    assert np.all(np.abs(vals[:-1]) <= 1e-12 * abs(vals[-1]))


def test_point_out_of_reach_integrates_no_image():
    # at t = 9 the massless packet is at phi = 9 - 2 pi ~ 2.7, 2.4 rad from
    # phi = 0.3: past 14 sigma ~ 1 rad, so no image is integrated at all
    st_ = coherent_state(MS0, COH)
    with mock.patch.object(oracle, "_line_quadrature", wraps=_line_quadrature) as spy:
        assert amp_poisson(MS0, 9.0, 0.3, state=st_) == 0.0
        assert not spy.called
        # the control: the same spy sees the packet's own point
        assert amp_poisson(MS0, 9.0, 9.0 - 2.0 * math.pi, state=st_) != 0.0
        assert spy.call_count == 1
    want = _lattice_sum_30_digits(0.0, COH, [9.0, 9.0], [0.3, 9.0 - 2.0 * math.pi])
    assert abs(want[0]) < 1e-12 * abs(want[1])


@pytest.mark.parametrize("xi, alpha, t", [(1000.0, 10.0, 9.0), (40.0, 4.0, 100.0),
                                          (40.0, 4.0, -100.0)])
def test_packet_centre_integrates_one_image(xi, alpha, t):
    # p sigma = 7 (xi 40): the window reaches k = 0, where a massless
    # momentum still moves at speed 1, so the reach stays one winding wide
    cp = CoherentParams(theta=0.0, xi=xi, alpha=alpha)
    with mock.patch.object(oracle, "_line_quadrature", wraps=_line_quadrature) as spy:
        amp_poisson(MS0, t, t % (2.0 * math.pi), state=coherent_state(MS0, cp))
    assert [len(call.args[0]) for call in spy.call_args_list] == [1]


@pytest.mark.parametrize("mu, xi, alpha", [(10.0, 100.0, 5.0), (0.0, 40.0, 4.0)])
def test_oracle_at_negative_times_against_30_digit_lattice_sum(mu, xi, alpha):
    # the reach runs from v_hi t to v_lo t when t < 0; the massless packet has
    # p sigma = 7, so its window is clipped at k = 0
    ms = ModeSpace(mu=mu, r=1.0, m_max=int(xi + 13 * alpha))
    cp = CoherentParams(theta=0.3, xi=xi, alpha=alpha)
    v = cp.xi / math.hypot(mu, cp.xi)
    t = np.array([-200.0, -200.0, -20.0, -20.0])
    phi = (cp.theta + v * t + np.array([0.0, 0.4, 0.0, 0.4])) % (2.0 * math.pi)
    want = _lattice_sum_30_digits(mu, cp, t, phi)
    got = amp_poisson(ms, t, phi, state=coherent_state(ms, cp))
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("mu", [0.0, 30.0])
def test_images_warn_below_reach_p_sigma(mu):
    # p sigma = xi / (sqrt(2) alpha) = 4: the profile at k = 0 is e^-16 of its
    # peak, far above 1e-12, and the k >= 0 window cuts it off there
    ms = ModeSpace(mu=mu, r=1.0, m_max=120)
    cp = CoherentParams(theta=0.0, xi=40.0, alpha=40.0 / (4.0 * math.sqrt(2.0)))
    t = 2.0
    phi = velocity(ms, cp.xi) * t
    # one warning a call, at the caller's line, however many points
    with pytest.warns(UserWarning, match=r"p\*sigma = 4 ") as record:
        amp_poisson(ms, t, [phi, phi + 0.1], state=coherent_state(ms, cp))
    reach = [w for w in record if "p*sigma" in str(w.message)]
    assert len(reach) == 1 and reach[0].filename == __file__
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        amp_poisson(MS0, 9.0, 9.0 - 2.0 * math.pi, state=coherent_state(MS0, COH))
