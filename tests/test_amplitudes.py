import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    LineState,
    ModeSpace,
    RotationFrame,
    amp_poisson,
    amp_ring,
    amp_rotating_split,
    amp_saddle,
    amp_state,
    coherent_state,
    from_modes,
    line_to_ring,
    qsymbol,
    rotating_velocity,
    velocity,
)
from ringtoa import amplitudes, probability, states
from ringtoa.amplitudes import line_arrival_amp, taper_window
from ringtoa.errors import DomainError, QuadratureError, StateError
from ringtoa.specfun import coherent_norm
from ringtoa.states import _line_quadrature, gaussian_line


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


def test_saddle_zero_outside_cones():
    ms = ModeSpace(mu=40.0, r=1.0, m_max=400)
    assert amp_saddle(ms, 3.0, 0.5) == 0j


def test_saddle_requires_mass_and_cone_distance():
    with pytest.raises(DomainError):
        amp_saddle(ModeSpace(mu=0.0, r=1.0, m_max=100), 3.0, 0.5)
    ms = ModeSpace(mu=40.0, r=1.0, m_max=400)
    cone = 0.5 + 2.0 * math.pi
    with pytest.raises(DomainError):
        amp_saddle(ms, cone + 0.01, 0.5)


def test_saddle_matches_quadrature_deep_in_cone():
    # mu r >> 1, one active winding: modulus within 2%, phase derivative
    # within 1% of the analytic saddle frequency and of the mode sum
    ms = ModeSpace(mu=40.0, r=1.0, m_max=400)
    phi, t = 0.5, 12.0
    x1 = phi + 2.0 * math.pi
    taper = (lambda k: taper_window(np.asarray(k * ms.r), ms.m_max))
    a_quad = ms.r * line_arrival_amp(x1 * ms.r, t, ms.mu, k_range=(0.0, ms.m_max / ms.r),
                                     rel_tol=1e-8, taper=taper, limit=2000)
    a_sad = amp_saddle(ms, t, phi)
    assert abs(a_sad) / abs(a_quad) == pytest.approx(1.0, abs=0.02)

    dt = 1e-4
    d_sad = np.angle(amp_saddle(ms, t + dt, phi) / amp_saddle(ms, t - dt, phi)) / (2 * dt)
    d_ring = np.angle(amp_ring(ms, t + dt, phi) / amp_ring(ms, t - dt, phi)) / (2 * dt)
    analytic = -ms.mu * t / math.sqrt(t * t - x1 * x1)
    assert d_sad == pytest.approx(analytic, rel=1e-6)
    assert d_ring == pytest.approx(analytic, rel=0.01)


def test_saddle_branch_constant():
    # principal branch: one winding, check the e^{i pi/4} prefactor wiring
    ms = ModeSpace(mu=25.0, r=1.0, m_max=300)
    phi, t = 0.0, 9.0
    x1 = 2.0 * math.pi
    q = t * t - x1 * x1
    n1 = (
        np.exp(1j * math.pi / 4)
        * math.sqrt(2 * math.pi * ms.mu * t * (phi + 2 * math.pi))
        / q**0.75
        * np.exp(-1j * ms.mu * math.sqrt(q))
    )
    assert amp_saddle(ms, t, phi) == pytest.approx(n1, rel=1e-12)


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
    got, gap = _line_quadrature(x, t, mu, _packet_weight(ls, mu), k_lo, k_hi)
    want = np.array([line_arrival_amp(xi, t, mu, profile=ls.momentum_profile,
                                      k_range=(k_lo, k_hi)) for xi in x])
    assert got.shape == gap.shape == x.shape
    assert np.all(np.abs(got - want) <= np.maximum(1e-10, 1e-8 * np.abs(want)))
    assert np.all(gap <= np.maximum(1e-10, 1e-8 * np.abs(got)))


@pytest.mark.parametrize("caller", ["images", "qsymbol", "gaussian_line"])
def test_line_quadrature_gap_over_gate_raises(monkeypatch, caller):
    # 8 panels over hundreds of radians of phase: the n and 2n rules disagree
    monkeypatch.setattr(states, "_PANEL_PHASE", 1e9)
    with pytest.raises(QuadratureError):
        if caller == "images":
            amp_poisson(MS0, 9.0, 0.3, state=coherent_state(MS0, COH))
        elif caller == "qsymbol":
            qsymbol(MS0, COH, 9.0, 0.3, method="images")
        else:
            gaussian_line(LineState(p=20.0, sigma=0.2), 30.0, t=20.0, mu=5.0)


def test_oracle_never_calls_scalar_quad(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.integrate.quad called")

    for owner in (scipy.integrate, amplitudes, probability):
        monkeypatch.setattr(owner, "quad", refuse)
    st_ = coherent_state(MS0, COH)
    amp_poisson(MS0, np.array([3.5, 9.0]), 0.3, state=st_)
    qsymbol(MS0, COH, 9.0, np.array([0.2, 0.3]), method="images")
    gaussian_line(LineState(p=20.0, sigma=1.0), 5.0, t=5.0, mu=3.0)


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
    with mpmath.workdps(30):
        c, alpha, xi = mpmath.mpf(coherent_norm(cp.xi, cp.alpha)), cp.alpha, cp.xi
        want = np.array([complex(mpmath.fsum(
            c * mpmath.exp(-(m - xi) ** 2 / (2 * alpha**2))
            * mpmath.sqrt(m / mpmath.sqrt(mu**2 + mpmath.mpf(m) ** 2))
            * mpmath.expj(m * (mpmath.mpf(p_) - cp.theta)
                          - mpmath.sqrt(mu**2 + mpmath.mpf(m) ** 2) * mpmath.mpf(t_))
            for m in range(int(xi - 14 * alpha), int(xi + 14 * alpha) + 1)))
            for t_, p_ in zip(t, phi)])
    got = amp_poisson(ms, t, phi, state=st_)
    assert np.max(np.abs(got - want)) < 1e-12 * np.max(np.abs(want))
