import math

import numpy as np
import pytest
from scipy.stats import linregress

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    ModeSpace,
    RotationFrame,
    coherent_state,
    coincidence_report,
    coincidence_winding,
    eta,
    eta_closed_form,
    noise_curve,
    sagnac_scan,
    symmetric_superposition,
    vacuum_noise,
)
from ringtoa.errors import DomainError, SeriesError, StateError


MS = ModeSpace(mu=0.0, r=1.0, m_max=200)
KERNEL = DetectorKernel.ring_exponential(a=1.0)


def test_eta_identity_at_rest():
    assert eta(KERNEL, MS, 0.0) == 1.0


def test_eta_closed_form_frozen_value():
    # a=1, Omega_D r = 0.5: log(1-e^-0.5)/log(1-e^-1)
    val = eta_closed_form(1.0, 0.5)
    assert val == pytest.approx(2.0335789696649615, rel=1e-14)
    assert eta(KERNEL, MS, 0.5) == pytest.approx(val, abs=1e-8)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("x", [0.0, 0.25, 0.5, 0.75, 0.9])
def test_eta_mode_sum_matches_closed_form(a, x):
    dk = DetectorKernel.ring_exponential(a=a)
    assert eta(dk, MS, x / MS.r) == pytest.approx(eta_closed_form(a, x), abs=1e-8)


def test_eta_requires_timelike_frame():
    with pytest.raises(DomainError):
        eta(KERNEL, MS, 1.0)


def test_eta_rejects_non_decaying_kernel():
    # flat kernel: terms fall only like 1/omega_m, the tail bound never
    # converges and the cutoff search must give up
    dk = DetectorKernel.max_localization()
    ms = ModeSpace(mu=1.0, r=1.0, m_max=64)
    with pytest.raises(SeriesError):
        eta(dk, ms, 0.3)


def test_noise_sums_at_m_max_one_equal_those_at_two():
    # the smallest lattice has one mode a side: the tail ratio needs two, so
    # the cutoff starts at 2 and both sums agree exactly
    one, two = ModeSpace(mu=0.0, r=1.0, m_max=1), ModeSpace(mu=0.0, r=1.0, m_max=2)
    for omega_d in (0.0, 0.3):
        p0 = [vacuum_noise(KERNEL, ms, RotationFrame(omega_d=omega_d, modespace=ms))
              for ms in (one, two)]
        assert p0[0] == pytest.approx(p0[1], rel=1e-12)
    assert vacuum_noise(KERNEL, one) == pytest.approx(0.0365, abs=5e-5)
    assert eta(KERNEL, one, 0.3) == pytest.approx(eta(KERNEL, two, 0.3), rel=1e-12)
    assert eta(KERNEL, one, 0.3) == pytest.approx(eta_closed_form(1.0, 0.3), abs=1e-8)


def test_eta_log_divergence_slope_at_edge():
    # eta ~ -log(1 - Omega r)/|log(1-e^-a)| near the edge: unit slope
    a = 1.0
    eps = np.geomspace(1e-4, 1e-2, 8)
    x = -np.log(eps) / abs(math.log(1.0 - math.exp(-a)))
    y = np.array([eta(KERNEL, MS, 1.0 - e) for e in eps])
    fit = linregress(x, y)
    assert fit.slope == pytest.approx(1.0, rel=0.05)


def test_noise_curve_monotone_and_ordered_in_a():
    grid = np.linspace(0.0, 0.9, 13)
    curves = {
        a: noise_curve(DetectorKernel.ring_exponential(a=a), MS, grid / MS.r)
        for a in (0.5, 1.0, 2.0)
    }
    for a, c in curves.items():
        assert c.eta[0] == 1.0
        assert np.all(np.diff(c.eta) > 0)
        np.testing.assert_allclose(c.eta, c.eta_closed, atol=1e-8)
    # steeper kernels feel the rotation more: eta -> e^{a Omega r} at large a
    # while eta -> 1 as a -> 0, so larger a gives larger eta at fixed rotation
    assert np.all(curves[2.0].eta[1:] > curves[1.0].eta[1:])
    assert np.all(curves[1.0].eta[1:] > curves[0.5].eta[1:])


def test_noise_small_rotation_linear():
    grid = np.linspace(0.0, 0.05, 11)
    c = noise_curve(KERNEL, MS, grid / MS.r)
    fit = linregress(grid, c.eta)
    assert fit.rvalue**2 > 0.999


def sagnac_setup(omega_d, m_max=1120):
    ms = ModeSpace(mu=0.0, r=1.0, m_max=m_max)
    sym = symmetric_superposition(
        ms, coherent_state(ms, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    )
    rf = RotationFrame(omega_d=omega_d, modespace=ms)
    return ms, sym, rf


def test_sagnac_fringe_frequency_one_percent():
    ms, sym, rf = sagnac_setup(1e-4)
    t = np.arange(0.5, 170.0, 0.01)
    res = sagnac_scan(sym, rf, t, phi=0.0)
    assert res.expected_frequency == pytest.approx(0.1, rel=1e-12)
    assert res.fringe_frequency == pytest.approx(res.expected_frequency, rel=0.01)


def test_sagnac_no_fringes_without_rotation():
    ms, sym, rf = sagnac_setup(0.0)
    t = np.arange(0.5, 60.0, 0.01)
    res = sagnac_scan(sym, rf, t, phi=0.0)
    # cos^2 = 1: all passes carry equal weight, no zero crossings -> nan
    assert math.isnan(res.fringe_frequency)
    np.testing.assert_allclose(res.pass_weights / res.pass_weights[0], 1.0, atol=1e-6)


def test_sagnac_interference_phase_grows_with_winding():
    # phase at the n-th return is 2 pi n r^2 omega_xi Omega_D = xi Omega_D t_n;
    # contrast is slowly eaten by the rotation-induced envelope drift, hence
    # the few-percent tolerance on the bare cos^2 model
    ms, sym, rf = sagnac_setup(2e-4)
    t = np.arange(0.5, 130.0, 0.01)
    res = sagnac_scan(sym, rf, t, phi=0.0)
    u = res.pass_weights / res.pass_weights.max()
    expected = np.cos(1000.0 * rf.omega_d * res.pass_times) ** 2
    np.testing.assert_allclose(u, expected / expected.max(), atol=0.05)


def test_sagnac_empty_grid_has_too_few_circulations():
    ms, sym, rf = sagnac_setup(1e-4)
    with pytest.raises(DomainError, match="too few circulations"):
        sagnac_scan(sym, rf, np.array([]), phi=0.0)


def test_sagnac_rejects_asymmetric_state():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=1120)
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    rf = RotationFrame(omega_d=1e-4, modespace=ms)
    with pytest.raises(StateError):
        sagnac_scan(st, rf, np.arange(0.5, 30.0, 0.01))


def test_coincidence_winding_formula():
    assert coincidence_winding(math.pi, 1000.0, 1e-3) == 0.0
    assert coincidence_winding(0.0, 1000.0, math.pi / 1000.0) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        coincidence_winding(0.0, 1000.0, 0.0)


def test_coincidence_report_observability():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1120)
    rep = coincidence_report(0.0, 1000.0, math.pi / 1000.0, ms, 10.0)
    assert rep["n"] == pytest.approx(1.0)
    assert rep["observable"] == (rep["t_n"] < rep["t_quantum"])
    assert rep["observable"]  # one winding needs ~8.9 << T_q ~ 283
    # a coincidence requiring many more windings than T_q allows is flagged
    far = coincidence_report(0.0, 1000.0, 1e-7, ms, 10.0)
    assert not far["observable"]


def test_coincidence_scan_follows_drifted_fringe_model():
    # At the winding-formula example parameters (phi=0, xi Omega_D = pi),
    # the per-winding weights follow 1 + c_n cos(2 xi Omega_D t_n) with the
    # envelope-drift contrast c_n = exp(-(4 pi n r Omega_D)^2 / (8 sigma_t^2)).
    # The strongest early peak is this model's argmax (winding 3), NOT the
    # formula's round(n) = 1; the formula is reported as specified, the scan
    # tells the actual story.
    ms, sym, rf = sagnac_setup(math.pi / 1000.0)
    t = np.arange(0.3, 8.0 * 2.0 * math.pi, 0.005)
    res = sagnac_scan(sym, rf, t, phi=0.0)
    sigma_t = 1.0 / (math.sqrt(2.0) * 10.0)
    n = np.arange(1, res.pass_times.size + 1)
    contrast = np.exp(-((4.0 * math.pi * n * rf.omega_d) ** 2) / (8.0 * sigma_t**2))
    model = 1.0 + contrast * np.cos(2.0 * 1000.0 * rf.omega_d * res.pass_times)
    # phase is evaluated at the nominal return times; the drifted arrivals
    # shift it a little, hence the 0.1 absolute band
    np.testing.assert_allclose(res.pass_weights, model, atol=0.1)
    assert int(np.argmax(res.pass_weights)) == int(np.argmax(model)) == 2
    assert coincidence_winding(0.0, 1000.0, rf.omega_d) == pytest.approx(1.0)
