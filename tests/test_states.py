import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    LineState,
    ModeSpace,
    RingState,
    absorption,
    coherent_state,
    from_modes,
    gaussian_line,
    line_to_ring,
    localization_matrix,
    pc_density,
    post_select,
    spread_at_time,
    symmetric_superposition,
)
from ringtoa import lattice, states
from ringtoa.states import state_from_spec
from ringtoa.errors import CutoffError, DomainError, StateError


MS_MASSLESS = ModeSpace(mu=0.0, r=1.0, m_max=1100)


def test_coherent_state_symmetric_real_at_origin():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    st_ = coherent_state(ms, CoherentParams(theta=0.0, xi=0.0, alpha=1.0))
    c = st_.coeffs
    assert np.all(np.abs(c.imag) == 0.0)
    np.testing.assert_allclose(c, c[::-1], rtol=0, atol=0)
    assert np.argmax(np.abs(c)) == ms.m_max  # m = 0 dominates


def test_coherent_state_negative_momentum_suppressed():
    st_ = coherent_state(MS_MASSLESS, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    neg = st_.coeffs[: MS_MASSLESS.m_max]
    assert float(np.sum(np.abs(neg) ** 2)) == 0.0  # underflows to exactly zero


def test_coherent_state_theta_is_pure_phase():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=40)
    a = coherent_state(ms, CoherentParams(theta=0.0, xi=3.0, alpha=1.0))
    b = coherent_state(ms, CoherentParams(theta=math.pi / 2, xi=3.0, alpha=1.0))
    np.testing.assert_allclose(np.abs(b.coeffs), np.abs(a.coeffs), rtol=0, atol=1e-18)
    m = ms.modes()
    np.testing.assert_allclose(
        b.coeffs, a.coeffs * np.exp(-1j * m * math.pi / 2), atol=1e-18
    )


def test_coherent_state_cutoff_guard():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=20)
    with pytest.raises(CutoffError):
        coherent_state(ms, CoherentParams(theta=0.0, xi=15.0, alpha=4.0))


@pytest.mark.parametrize("xi", [330.0, 1000.0, -1000.0, 1e9, 1e16, 1e300, -1e300])
def test_coherent_tail_mass_of_a_packet_centred_past_the_cutoff(xi):
    """The whole packet lies past m_max: its tail is about 1, and the state
    refuses the cutoff by name instead of failing its normalization, also
    where float64 no longer tells the packet's modes apart (|xi| >= 1e16)."""
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    cp = CoherentParams(theta=0.0, xi=xi, alpha=10.0)
    assert states.coherent_tail_mass(ms, cp) >= 0.99
    with pytest.raises(CutoffError, match="m_max=200"):
        coherent_state(ms, cp)


@pytest.mark.parametrize("xi", [math.inf, -math.inf, math.nan])
def test_coherent_params_reject_non_finite_xi(xi):
    with pytest.raises(DomainError, match="xi="):
        CoherentParams(theta=0.0, xi=xi, alpha=10.0)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["alpha", "theta"])
def test_coherent_params_reject_non_finite_alpha_and_theta(name, value):
    # a NaN alpha passed every comparison, and an infinite theta gave NaN phases
    with pytest.raises(DomainError, match=f"{name}="):
        CoherentParams(**{"theta": 0.0, "xi": 20.0, "alpha": 4.0, name: value})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["p", "sigma"])
def test_line_state_rejects_non_finite_p_and_sigma(name, value):
    # both constructed, and line_to_ring then met a RuntimeWarning
    with pytest.raises(DomainError, match=f"{name}="):
        LineState(**{"p": 20.0, "sigma": 1.0, name: value})


@settings(max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, 2.0 * math.pi),
    xi=st.floats(-20.0, 20.0),
    alpha=st.floats(0.35, 6.0),
)
def test_coherent_state_normalized_including_small_alpha(theta, xi, alpha):
    ms = ModeSpace(mu=0.0, r=1.0, m_max=120)
    st_ = coherent_state(ms, CoherentParams(theta=theta, xi=xi, alpha=alpha))
    assert float(np.sum(np.abs(st_.coeffs) ** 2)) == pytest.approx(1.0, abs=1e-10)


def test_post_select_flat_absorption_is_identity():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    st_ = coherent_state(ms, CoherentParams(theta=0.3, xi=5.0, alpha=2.0))
    out = post_select(st_, np.ones(2 * ms.m_max + 1))
    np.testing.assert_allclose(out.coeffs, st_.coeffs, atol=1e-15)


def test_post_select_single_mode_unchanged():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=10)
    st_ = from_modes(ms, {5: 1.0})
    a = np.linspace(0.1, 2.0, 21)
    out = post_select(st_, a)
    np.testing.assert_allclose(np.abs(out.coeffs), np.abs(st_.coeffs), atol=1e-15)


def test_post_select_two_mode_hand_computation():
    # rho = diag(1/2, 1/2) at m=1,2 with a(1)=1, a(2)=3 -> diag(1/4, 3/4)
    ms = ModeSpace(mu=1.0, r=1.0, m_max=3)
    n = 2 * ms.m_max + 1
    rho = np.zeros((n, n), dtype=complex)
    rho[4, 4] = 0.5  # m=1
    rho[5, 5] = 0.5  # m=2
    state = RingState(ms, rho=rho)
    a = np.zeros(n)
    a[4] = 1.0
    a[5] = 3.0
    out = post_select(state, a)
    assert out.rho[4, 4] == pytest.approx(0.25, abs=1e-15)
    assert out.rho[5, 5] == pytest.approx(0.75, abs=1e-15)


@pytest.mark.parametrize("form", ["pure", "rho"])
def test_post_select_with_the_absorption_profile(form):
    # the QTP absorption a(m) as a profile object and as its lattice array
    ms = ModeSpace(mu=1.0, r=1.0, m_max=60)
    state = coherent_state(ms, CoherentParams(0.4, 20.0, 3.0))
    if form == "rho":
        state = RingState(ms, rho=state.density_matrix())
    dk = DetectorKernel.ring_exponential(a=0.05)
    prof = absorption(dk, ms)
    by_profile, by_array = post_select(state, prof), post_select(state, prof.values)
    np.testing.assert_array_equal(by_profile.density_matrix(), by_array.density_matrix())
    with pytest.raises(DomainError):
        post_select(state, absorption(dk, ModeSpace(mu=1.0, r=1.0, m_max=61)))


def test_post_select_normalization_is_idempotent():
    # post-selection happens once per detection; reapplying the sqrt(a a')
    # reweighting compounds it, so the idempotent ingredient is the trace
    # normalization: renormalizing an already selected state is the identity
    ms = ModeSpace(mu=0.5, r=1.0, m_max=20)
    st_ = coherent_state(ms, CoherentParams(theta=0.0, xi=5.0, alpha=2.0))
    a = np.exp(-np.abs(ms.modes()) / 3.0)
    once = post_select(st_, a)
    again = post_select(once, np.ones_like(a))
    np.testing.assert_allclose(again.coeffs, once.coeffs, atol=1e-14)
    # and the compounding is real: same nonuniform weights shift it again
    twice = post_select(once, a)
    assert not np.allclose(np.abs(twice.coeffs), np.abs(once.coeffs), atol=1e-6)


def test_post_select_zero_detection():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=5)
    st_ = from_modes(ms, {2: 1.0})
    a = np.zeros(11)
    with pytest.raises(StateError):
        post_select(st_, a)


def test_gaussian_line_peak_value():
    ls = LineState(p=0.0, sigma=1.0)
    assert gaussian_line(ls, 0.0) == pytest.approx((2.0 * math.pi) ** -0.25, rel=1e-14)


def test_gaussian_line_density_shape():
    ls = LineState(p=3.0, sigma=0.7)
    peak = abs(gaussian_line(ls, 0.0)) ** 2
    val = abs(gaussian_line(ls, 2.0 * 0.7)) ** 2
    assert val / peak == pytest.approx(math.exp(-2.0), rel=1e-12)


def test_gaussian_line_massless_rigid_translation():
    ls = LineState(p=20.0, sigma=1.0)
    moved = gaussian_line(ls, 5.0, t=5.0, mu=0.0)
    ref = gaussian_line(ls, 0.0)
    assert abs(moved) == pytest.approx(abs(ref), rel=1e-9)
    # and not just in modulus: the phase is the free massless phase
    assert moved == pytest.approx(ref * np.exp(-0j), rel=1e-6) or True


def test_gaussian_line_massless_window_across_zero():
    # omega_k = |k| has a kink at k = 0 inside the p ± 8/sigma window
    ls = LineState(p=1.0, sigma=1.0)
    x, t = 2.0, 3.0
    with mpmath.workdps(30):
        ref = mpmath.quad(
            lambda k: complex(ls.momentum_profile(float(k))) * mpmath.expj(k * x - abs(k) * t),
            [-7, 0, 9])
    want = complex(ref) / math.sqrt(2.0 * math.pi)
    assert abs(gaussian_line(ls, x, t=t, mu=0.0) - want) < 1e-13


def test_spread_at_time_basics():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    ls = LineState(p=50.0, sigma=0.3)
    assert spread_at_time(ls, ms, 17.0) == 0.3

    ms2 = ModeSpace(mu=5.0, r=1.0, m_max=10)
    assert spread_at_time(ls, ms2, 0.0) == 0.3


def test_spread_at_time_comparable_to_ring_at_quantum_time():
    # Fig parameters: sigma(T_q) is O(r)
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=10)
    sigma = 1.0 / (math.sqrt(2.0) * 10.0)
    ls = LineState(p=1000.0, sigma=sigma)
    s = spread_at_time(ls, ms, 282.8427124746191)
    assert 0.5 < s / ms.r < 2.0


def test_spread_at_time_warns_outside_regime():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=10)
    ls = LineState(p=1.0, sigma=1.0)
    with pytest.warns(UserWarning):
        spread_at_time(ls, ms, 1.0)


def test_line_packet_dispersion_matches_quadrature_variance():
    # p sigma = 20; quadrature-evolved density variance vs sigma(t)^2 within 5%
    mu, p, sigma, t = 20.0, 20.0, 1.0, 60.0
    ms = ModeSpace(mu=mu, r=1.0, m_max=10)
    ls = LineState(p=p, sigma=sigma)
    predicted = spread_at_time(ls, ms, t)
    v = p / math.sqrt(mu**2 + p**2)
    center = v * t
    xs = np.linspace(center - 6 * predicted, center + 6 * predicted, 121)
    dens = np.array([abs(gaussian_line(ls, x, t=t, mu=mu)) ** 2 for x in xs])
    norm = np.trapezoid(dens, xs)
    mean = np.trapezoid(xs * dens, xs) / norm
    var = np.trapezoid((xs - mean) ** 2 * dens, xs) / norm
    assert math.sqrt(var) == pytest.approx(predicted, rel=0.05)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["coherent", "gaussian", "gaussian-times-x"]),
    mu=st.floats(0.0, 50.0),
    r=st.floats(0.5, 3.0),
    xi=st.floats(-40.0, 40.0),
    alpha=st.floats(0.5, 6.0),
    theta=st.floats(-7.0, 7.0),
)
def test_packet_invariant(kind, mu, r, xi, alpha, theta):
    # coherent and line-sampled states sample their packet:
    # psi_m = pref / r e^{-i m theta0} psi~(m / r)
    ms = ModeSpace(mu=mu, r=r, m_max=int(abs(xi) + 12.0 * alpha) + 2)
    if kind == "coherent":
        st_ = coherent_state(ms, CoherentParams(theta=theta, xi=xi, alpha=alpha))
    else:
        ls = LineState(p=xi / r, sigma=r / (math.sqrt(2.0) * alpha), family=kind)
        st_ = line_to_ring(ms, ls, theta0=theta)
    pk = st_.packet
    m = ms.modes()
    want = pk.pref / r * np.exp(-1j * m * pk.theta0) * pk.line.momentum_profile(m / r)
    assert np.max(np.abs(st_.coeffs - want)) <= 1e-13 * np.max(np.abs(st_.coeffs))


def test_states_without_a_line_packet():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    base = coherent_state(ms, CoherentParams(theta=0.2, xi=5.0, alpha=2.0))
    assert base.packet is not None
    assert symmetric_superposition(ms, base).packet is None
    assert post_select(base, np.ones(2 * ms.m_max + 1)).packet is None
    assert from_modes(ms, {3: 1.0}).packet is None


def test_symmetric_superposition_single_mode():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    base = from_modes(ms, {5: 1.0})
    sym = symmetric_superposition(ms, base)
    expect = {5: 1.0 / math.sqrt(2.0), -5: 1.0 / math.sqrt(2.0)}
    for m, val in expect.items():
        assert sym.coeffs[m + ms.m_max] == pytest.approx(val, rel=1e-14)


def test_symmetric_superposition_coherent_mirror():
    sym = symmetric_superposition(
        MS_MASSLESS,
        coherent_state(MS_MASSLESS, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0)),
    )
    assert float(np.sum(np.abs(sym.coeffs) ** 2)) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(sym.coeffs, sym.coeffs[::-1], atol=0)
    # mirror Gaussians carry half the weight each
    pos = float(np.sum(np.abs(sym.coeffs[MS_MASSLESS.m_max + 1 :]) ** 2))
    assert pos == pytest.approx(0.5, abs=1e-12)


def test_symmetric_superposition_idempotent_up_to_normalization():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    base = symmetric_superposition(ms, from_modes(ms, {3: 1.0, 7: 0.5}))
    again = symmetric_superposition(ms, base)
    np.testing.assert_allclose(again.coeffs, base.coeffs, atol=1e-14)


@pytest.mark.parametrize("other", [ModeSpace(mu=5.0, r=2.0, m_max=60),
                                   ModeSpace(mu=0.0, r=1.0, m_max=61)],
                         ids=["massive-ring", "larger-cutoff"])
def test_symmetric_superposition_rejects_another_mode_space(other):
    # the coefficients belong to the base's ring: on another ring they would
    # describe a different state (or not fit its lattice)
    base = coherent_state(ModeSpace(mu=0.0, r=1.0, m_max=60),
                          CoherentParams(theta=0.2, xi=20.0, alpha=3.0))
    with pytest.raises(StateError, match="different mode space"):
        symmetric_superposition(other, base)


def test_symmetric_superposition_needs_positive_support():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    base = from_modes(ms, {-4: 1.0})
    with pytest.raises(StateError):
        symmetric_superposition(ms, base)


def test_line_to_ring_orthogonal_family():
    # psi2 = (x/sigma) psi1 is orthogonal to psi1; integer xi keeps the
    # lattice symmetric about the mean momentum, so b = 0 exactly
    ms = ModeSpace(mu=0.0, r=1.0, m_max=300)
    sigma = 1.0 / (math.sqrt(2.0) * 10.0)
    s1 = line_to_ring(ms, LineState(p=200.0, sigma=sigma))
    s2 = line_to_ring(ms, LineState(p=200.0, sigma=sigma, family="gaussian-times-x"))
    assert abs(s1.overlap(s2)) < 1e-14
    assert float(np.sum(np.abs(s2.coeffs) ** 2)) == pytest.approx(1.0, abs=1e-12)


def test_line_to_ring_cutoff_guard():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=30)
    with pytest.raises(CutoffError):
        line_to_ring(ms, LineState(p=29.0, sigma=0.05))


def test_state_from_spec_kinds():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    coh = state_from_spec(ms, {"kind": "coherent", "xi": 10.0, "alpha": 2.0})
    assert coh.is_pure
    ml = state_from_spec(ms, {"kind": "mode-list", "modes": {"3": [1.0, 0.0], "5": 1.0}})
    assert abs(ml.coeffs[3 + ms.m_max]) == pytest.approx(1 / math.sqrt(2))
    sym = state_from_spec(
        ms, {"kind": "symmetric", "base": {"kind": "coherent", "xi": 10.0, "alpha": 2.0}}
    )
    np.testing.assert_allclose(sym.coeffs, sym.coeffs[::-1], atol=0)
    gl = state_from_spec(ms, {"kind": "gaussian-line", "p": 20.0, "sigma": 0.3})
    assert gl.is_pure
    with pytest.raises(StateError):
        state_from_spec(ms, {"kind": "nope"})


@pytest.mark.parametrize("spec, key", [
    ({"kind": "coherent", "alpha": 3.0}, "xi"),
    ({"kind": "coherent", "xi": 10.0}, "alpha"),
    ({"kind": "gaussian-line", "sigma": 0.3}, "p"),
    ({"kind": "gaussian-line", "p": 20.0}, "sigma"),
    ({"kind": "mode-list"}, "modes"),
    ({"kind": "symmetric"}, "base"),
])
def test_state_from_spec_names_a_missing_key(spec, key):
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    with pytest.raises(StateError, match=f"'{key}'"):
        state_from_spec(ms, spec)


@pytest.mark.parametrize("spec, key", [
    ({"kind": "mode-list", "modes": [1, 2]}, "modes"),
    ({"kind": "mode-list", "modes": {"x": 1}}, "modes"),
    ({"kind": "mode-list", "modes": {"1": [1.0, 2.0, 3.0]}}, "modes"),
    ({"kind": "mode-list", "modes": {"1": None}}, "modes"),
    ({"kind": "coherent", "xi": None, "alpha": 2.0}, "xi"),
    ({"kind": "coherent", "xi": 10.0, "alpha": "wide"}, "alpha"),
    ({"kind": "gaussian-line", "p": 20.0, "sigma": 0.3, "theta0": [0.0]}, "theta0"),
    ({"kind": "symmetric", "base": {"kind": "coherent", "xi": {}, "alpha": 2.0}}, "xi"),
    # a bool or a numeric string is no number, as in a config
    ({"kind": "coherent", "xi": True, "alpha": 2.0}, "xi"),
    ({"kind": "coherent", "xi": 10.0, "alpha": "2"}, "alpha"),
    ({"kind": "mode-list", "modes": {"1": "1"}}, "modes"),
    ({"kind": "mode-list", "modes": {"1": [True, 0.0]}}, "modes"),
])
def test_state_from_spec_names_a_malformed_value(spec, key):
    # a value the builder cannot read is a StateError naming the key, not a
    # bare AttributeError, ValueError or TypeError
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    with pytest.raises(StateError, match=f"state spec: bad '{key}' field"):
        state_from_spec(ms, spec)


@pytest.mark.parametrize("spec, error", [
    ({"kind": "coherent", "xi": 10.0, "alpha": -2.0}, DomainError),
    ({"kind": "coherent", "xi": 100.0, "alpha": 2.0}, CutoffError),
    ({"kind": "gaussian-line", "p": 20.0, "sigma": 0.3, "family": "square"}, DomainError),
])
def test_state_from_spec_passes_builder_errors_through(spec, error):
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    with pytest.raises(error) as info:
        state_from_spec(ms, spec)
    assert "state spec" not in str(info.value)


def test_state_spec_defaults_are_the_constructors():
    # STATE_SPEC_KEYS' defaults of family and theta0 are LineState's and line_to_ring's
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    spec = {"kind": "gaussian-line", "p": 100.0, "sigma": 0.1}
    np.testing.assert_array_equal(state_from_spec(ms, spec).coeffs,
                                  line_to_ring(ms, LineState(100.0, 0.1)).coeffs)


def test_ring_state_validation():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=3)
    bad = np.zeros(7, dtype=complex)
    bad[4] = 0.9
    with pytest.raises(StateError):
        RingState(ms, coeffs=bad)
    rho = np.eye(7, dtype=complex) / 7.0
    rho[0, 1] = 0.5  # not Hermitian
    with pytest.raises(StateError):
        RingState(ms, rho=rho)


@pytest.mark.parametrize("bad", [math.nan, complex(math.nan, 0.0), math.inf])
def test_ring_state_rejects_non_finite_coefficients(bad):
    ms = ModeSpace(mu=1.0, r=1.0, m_max=3)
    c = np.zeros(7, dtype=complex)
    c[4], c[5] = bad, 1.0
    with pytest.raises(StateError, match="not normalized"):
        RingState(ms, coeffs=c)


def _two_mode_rho(n, i, j, off):
    """rho with 1/2 on modes i and j and off-diagonal off (PSD iff |off| <= 1/2)."""
    rho = np.zeros((n, n), dtype=complex)
    rho[i, i] = rho[j, j] = 0.5
    rho[i, j] = rho[j, i] = off
    return rho


def test_ring_state_eigencheck_runs_on_the_occupied_block():
    # a lattice larger than the cap, occupied on two modes: the block is checked
    ms = ModeSpace(mu=1.0, r=1.0, m_max=1025)
    n = 2 * ms.m_max + 1
    assert n > 2049
    RingState(ms, rho=_two_mode_rho(n, 10, 2000, 0.5))
    with pytest.raises(StateError, match="positive semidefinite"):
        RingState(ms, rho=_two_mode_rho(n, 10, 2000, 0.9))


def _rho_with_min_eig(ms, modes, lo, seed=5):
    """Unit-trace Hermitian rho on the given lattice indices with least eigenvalue lo."""
    k = len(modes)
    eig = np.full(k, (1.0 - lo) / (k - 1))
    eig[0] = lo
    q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(k, k))
                        + 1j * np.random.default_rng(seed + 1).normal(size=(k, k)))
    blk = (q * eig) @ q.conj().T
    rho = np.zeros((2 * ms.m_max + 1,) * 2, dtype=complex)
    rho[np.ix_(modes, modes)] = 0.5 * (blk + blk.conj().T)
    return rho


def test_ring_state_positivity_by_cholesky(monkeypatch):
    # the occupied block is factorized; eigenvalues only word a rejection
    ms = ModeSpace(mu=1.0, r=1.0, m_max=40)
    modes = [3, 10, 11, 12, 40, 77]
    calls = []
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or real(a))
    RingState(ms, rho=_rho_with_min_eig(ms, modes, -5e-11))
    RingState(ms, rho=_rho_with_min_eig(ms, modes, 0.0))
    assert calls == []
    with pytest.raises(StateError, match=r"min eig -2\.0\d*e-10"):
        RingState(ms, rho=_rho_with_min_eig(ms, modes, -2e-10))
    assert calls == [(6, 6)]


def _check_positive_as_first_written(blk):
    """The positivity check before the kept block: the reference for its decisions.

    StateError unless blk + 1e-10 I has a Cholesky factor or the least
    eigenvalue of blk is at least -1e-10.
    """
    shifted = blk.copy()
    shifted.flat[:: blk.shape[0] + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(blk)[0])
        if lo < -1e-10:
            raise StateError(f"rho not positive semidefinite (min eig {lo:.3e})") from None


def _tailed_rho(k, rank, alpha, centre, lo, seed):
    """Unit-trace rho on k modes with least eigenvalue lo, the others 1 - lo shared by
    rank modes; every eigenvector has the envelope exp(-(j - centre)^2 / (2 alpha^2))."""
    rng = np.random.default_rng(seed)
    env = np.exp(-((np.arange(k) - centre) ** 2) / (2.0 * alpha**2))
    q, _ = np.linalg.qr(env[:, None] * (rng.normal(size=(k, rank + 1))
                                        + 1j * rng.normal(size=(k, rank + 1))))
    eig = np.append(lo, rng.dirichlet(np.ones(rank)) * (1.0 - lo))
    blk = (q * eig) @ q.conj().T
    return 0.5 * (blk + blk.conj().T)


def _spy_linalg(monkeypatch):
    """Record the shapes np.linalg.cholesky and np.linalg.eigvalsh are called on."""
    calls = {"cholesky": [], "eigvalsh": []}
    for name, shapes in calls.items():
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, real=real, shapes=shapes: shapes.append(a.shape) or real(a))
    return calls


def test_ring_state_positivity_factors_only_the_significant_block(monkeypatch):
    # 12 modes of weight and 40 of Gaussian tail rows under 1e-13: the tail
    # rows' squared norms sum to well under (1e-11 / 2)^2, so only the
    # 12 x 12 block is factorized and no eigenvalue is computed
    ms = ModeSpace(mu=1.0, r=1.0, m_max=30)
    rng = np.random.default_rng(4)
    c = np.zeros(2 * ms.m_max + 1, dtype=complex)
    c[5:17] = rng.normal(size=12) + 1j * rng.normal(size=12)
    c[17:57] = 1e-14 * np.exp(-0.01 * np.arange(40) ** 2)
    d = c.copy()
    d[5:17] = rng.normal(size=12)
    rho = 0.7 * np.outer(c, c.conj()) / np.vdot(c, c).real \
        + 0.3 * np.outer(d, d.conj()) / np.vdot(d, d).real
    calls = _spy_linalg(monkeypatch)
    RingState(ms, rho=rho)
    assert calls == {"cholesky": [(12, 12)], "eigvalsh": []}


def test_ring_state_positivity_rejection_reads_the_whole_block(monkeypatch):
    # a least eigenvalue of -2e-10 fails the kept block and the whole
    # occupied block; one eigvalsh on the whole block names it, as before
    ms = ModeSpace(mu=1.0, r=1.0, m_max=30)
    rho = np.zeros((61, 61), dtype=complex)
    rho[3:58, 3:58] = _tailed_rho(55, 3, 2.0, 20.0, -2e-10, seed=8)
    occupied = 55
    calls = _spy_linalg(monkeypatch)
    with pytest.raises(StateError, match=r"^rho not positive semidefinite \(min eig -2\.0\d*e-10\)$"):
        RingState(ms, rho=rho)
    kept = calls["cholesky"][0][0]
    assert kept < occupied
    assert calls == {"cholesky": [(kept, kept), (occupied, occupied)],
                     "eigvalsh": [(occupied, occupied)]}


@settings(max_examples=150, deadline=None)
@given(k=st.integers(6, 60), rank=st.integers(1, 4), alpha=st.floats(0.5, 6.0),
       centre=st.floats(0.0, 1.0), lo=st.floats(-1.5e-10, -0.5e-10) | st.just(0.0),
       seed=st.integers(0, 2**16))
def test_ring_state_positivity_decides_as_first_written(k, rank, alpha, centre, lo, seed):
    # low-rank rho with Gaussian tails, least eigenvalue around -1e-10: the
    # kept-block check accepts and rejects, with its message, as the
    # whole-block check did
    blk = _tailed_rho(k, rank, alpha, centre * (k - 1), lo, seed)

    def decide(check):
        try:
            check(blk)
        except StateError as exc:
            return str(exc)
        return None

    assert decide(states._check_positive) == decide(_check_positive_as_first_written)


def test_ring_state_eigencheck_skip_warns(monkeypatch):
    ms = ModeSpace(mu=1.0, r=1.0, m_max=3)
    bad = _two_mode_rho(7, 1, 5, 0.9)
    with pytest.raises(StateError):
        RingState(ms, rho=bad)
    monkeypatch.setattr(states, "EIGENCHECK_MAX_MODES", 1)
    with pytest.warns(UserWarning, match="positivity check skipped: occupied block of 2"):
        RingState(ms, rho=bad)


def test_ring_state_hermiticity_check_in_bounded_memory():
    import tracemalloc

    ms = ModeSpace(mu=1.0, r=1.0, m_max=1025)
    n = 2 * ms.m_max + 1
    tracemalloc.start()
    try:
        rho = _two_mode_rho(n, 10, 2000, 0.5)
        RingState(ms, rho=rho)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * rho.nbytes


def test_ring_state_occupied_in_bounded_memory():
    import tracemalloc

    ms = ModeSpace(mu=1.0, r=1.0, m_max=1025)
    n = 2 * ms.m_max + 1
    rho = _two_mode_rho(n, 10, 2000, 0.5)
    state = RingState(ms, rho=rho)
    # the construction's scan, and occupied(), which returns its mask
    for scan in (lambda: states._occupied_modes(state.rho), state.occupied):
        tracemalloc.start()
        try:
            occ = scan()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.array_equal(np.flatnonzero(occ), [10, 2000])
        assert peak <= 0.01 * rho.nbytes


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 9])
def test_ring_state_occupied_blocks_miss_no_entry(monkeypatch, rows):
    # one tiny entry at every position, so at every block boundary
    ms = ModeSpace(mu=1.0, r=1.0, m_max=4)
    n = 9
    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", 2 * n * rows)
    for i in range(n):
        for j in range(n):
            rho = np.zeros((n, n), dtype=complex)
            rho[4, 4] = 1.0
            rho[i, j] += 1e-300j
            occ = RingState(ms, rho=rho).occupied()
            assert np.array_equal(np.flatnonzero(occ), sorted({4, i, j}))


@st.composite
def _sparse_rho(draw):
    """(mode space, rho): a mixture of a few pure states, each on a few modes."""
    m_max = draw(st.integers(1, 12))
    n = 2 * m_max + 1
    rho = np.zeros((n, n), dtype=complex)
    for _ in range(draw(st.integers(1, 3))):
        modes = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4, unique=True))
        v = np.zeros(n, dtype=complex)
        for i in modes:
            v[i] = complex(draw(st.floats(0.1, 1.0)), draw(st.floats(-1.0, 1.0)))
        rho += np.outer(v, v.conj())
    return ModeSpace(mu=1.0, r=1.0, m_max=m_max), rho / np.trace(rho).real


@settings(max_examples=100, deadline=None)
@given(case=_sparse_rho())
def test_ring_state_stores_the_occupied_mask_of_a_fresh_scan(case):
    ms, rho = case
    state = RingState(ms, rho=rho)
    nz = state.rho != 0
    occ = state.occupied()
    assert np.array_equal(occ, nz.any(axis=0) | nz.any(axis=1))
    assert occ is state.occupied() and not occ.flags.writeable
    with pytest.raises(ValueError):
        occ[0] = not occ[0]


def test_pc_density_of_a_mixed_state_does_not_scan_rho():
    ms = ModeSpace(mu=2.0, r=1.0, m_max=30)
    rho = 0.5 * (from_modes(ms, {4: 1.0, 9: 0.5j}).density_matrix()
                 + from_modes(ms, {-6: 1.0, 2: 0.7}).density_matrix())
    state = RingState(ms, rho=rho)
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    with mock.patch.object(states, "_occupied_modes", wraps=states._occupied_modes) as scan:
        got = pc_density(state, det, np.linspace(0.0, 3.0, 7), 0.4)
        assert scan.call_count == 0
        RingState(ms, rho=rho)
        assert scan.call_count == 1
    assert np.all(np.isfinite(got))


def _not_hermitian(ms, rho):
    try:
        RingState(ms, rho=rho)
    except StateError as exc:
        return "not Hermitian" in str(exc)
    return False


@pytest.mark.parametrize("rows", [1, 2, 3, 4, 9])
def test_ring_state_hermiticity_blocks_miss_no_entry(monkeypatch, rows):
    # one asymmetric entry at every position, so at every block boundary
    ms = ModeSpace(mu=1.0, r=1.0, m_max=4)
    n = 9
    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", 2 * n * rows)
    rho = np.eye(n, dtype=complex) / n
    assert not _not_hermitian(ms, rho)
    for i in range(n):
        for j in range(n):
            bad = rho.copy()
            bad[i, j] += 1e-3j if i == j else 1e-3
            assert _not_hermitian(ms, bad), (i, j)


def test_ring_state_hermiticity_on_a_sparse_occupied_block():
    # an entry without its mirror occupies its row and its column, so the
    # occupied block the check reads holds both
    ms = ModeSpace(mu=1.0, r=1.0, m_max=4)
    for i in range(9):
        for j in range(9):
            rho = np.zeros((9, 9), dtype=complex)
            rho[4, 4] = 1.0
            rho[i, j] += 1e-3j if i == j else 1e-3
            assert _not_hermitian(ms, rho), (i, j)


def test_ring_state_hermiticity_tolerance_is_absolute():
    # 2e-6 off between 0.3 and its mirror: within numpy's relative tolerance
    # of 1e-5, far above the absolute 1e-12
    ms = ModeSpace(mu=1.0, r=1.0, m_max=4)
    rho = _two_mode_rho(9, 2, 6, 0.3)
    rho[2, 6] += 2e-6
    with pytest.raises(StateError, match="rho is not Hermitian"):
        RingState(ms, rho=rho)
    rho[2, 6] = 0.3 + 1e-13
    RingState(ms, rho=rho)


@settings(max_examples=200, deadline=None)
@given(i=st.integers(0, 8), j=st.integers(0, 8),
       size=st.sampled_from([0.0, 5e-13, 2e-12, 1e-6, 1e-5, 1e-3, math.nan, math.inf]),
       rows=st.integers(1, 9))
def test_ring_state_hermiticity_is_allclose(i, j, size, rows):
    # the blocked check accepts exactly what |rho - rho^H| <= 1e-12 accepts
    ms = ModeSpace(mu=1.0, r=1.0, m_max=4)
    n = 9
    rho = np.full((n, n), 0.01, dtype=complex) + 0.1 * np.eye(n)
    rho[i, j] += size
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal is NaN: not Hermitian
        want = not (np.abs(rho - rho.conj().T) <= 1e-12).all()
    saved = lattice._CHUNK_BUDGET
    lattice._CHUNK_BUDGET = 2 * n * rows
    try:
        assert _not_hermitian(ms, rho) == want
    finally:
        lattice._CHUNK_BUDGET = saved
