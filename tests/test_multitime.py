import math

import numpy as np
import pytest

from ringtoa import (
    CS_INTERVAL,
    CoherentParams,
    LineState,
    ModeSpace,
    TwoParticleState,
    coherent_state,
    from_modes,
    jensen_interval,
    kolmogorov_check,
    line_to_ring,
    mi_inequality_cs,
    mi_inequality_j,
    p1_single,
    p2_joint,
    violation_scan,
)
from ringtoa import multitime
from ringtoa.errors import StateError


MS0 = ModeSpace(mu=0.0, r=1.0, m_max=1100)
SIGMA = 1.0 / (math.sqrt(2.0) * 10.0)


def gaussian_pair(kind="product", p1=990.0, p2=1010.0):
    s1 = line_to_ring(MS0, LineState(p=p1, sigma=SIGMA))
    s2 = line_to_ring(MS0, LineState(p=p2, sigma=SIGMA))
    return TwoParticleState(kind, s1, s2)


def orthogonal_pair():
    s1 = line_to_ring(MS0, LineState(p=1000.0, sigma=SIGMA))
    s2 = line_to_ring(MS0, LineState(p=1000.0, sigma=SIGMA, family="gaussian-times-x"))
    return TwoParticleState("symmetrized", s1, s2)


def test_jensen_interval_endpoints():
    lo, hi = jensen_interval(1.0)
    assert lo == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-15)
    assert hi == pytest.approx(3.0 + 2.0 * math.sqrt(2.0), rel=1e-15)
    # endpoints are reciprocal for every lambda
    for lam in (0.1, 0.414, 0.9, 1.0):
        lo, hi = jensen_interval(lam)
        assert lo * hi == pytest.approx(1.0, rel=1e-12)


def test_product_state_factorization():
    tps = gaussian_pair("product")
    rng = np.random.default_rng(11)
    for _ in range(6):
        t1, t2 = rng.uniform(2.0, 20.0, size=2)
        phi1, phi2 = rng.uniform(0.0, 2 * math.pi, size=2)
        joint = p2_joint(tps, t1, phi1, t2, phi2)
        single = p1_single(tps, t1, phi1, factor=1) * p1_single(tps, t2, phi2, factor=2)
        assert joint == pytest.approx(single, rel=1e-12)


def test_identical_product_saturates_jensen():
    s = coherent_state(MS0, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    tps = TwoParticleState("product", s, s)
    t = 2.0 * math.pi + 0.02
    out = mi_inequality_j(tps, t, 0.0)
    p1 = p1_single(tps, t, 0.0)
    assert abs(out["margin"]) < 1e-12 * p1**2


def test_symmetrized_identical_factors_reduce_to_product():
    # lambda -> 0 limit: margin shows no violation even though the ratio
    # criterion interval degenerates to [1, 1]
    s = coherent_state(MS0, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    tps = TwoParticleState("symmetrized", s, s)
    assert tps.b == pytest.approx(1.0, abs=1e-12)
    assert tps.lam == pytest.approx(0.0, abs=1e-12)
    t = np.linspace(2 * math.pi - 0.2, 2 * math.pi + 0.2, 41)
    report = violation_scan(tps, 0.0, t)
    assert not report.any_violation_j
    lo, hi = jensen_interval(tps.lam)
    assert lo == pytest.approx(1.0, abs=1e-7)
    assert hi == pytest.approx(1.0, abs=1e-7)


def test_exchange_symmetry_of_joint_density():
    tps = orthogonal_pair()
    a = p2_joint(tps, 6.4, 0.1, 6.1, 0.3)
    b = p2_joint(tps, 6.1, 0.3, 6.4, 0.1)
    assert a == pytest.approx(b, rel=1e-13)


def test_orthogonal_pair_has_b_zero():
    tps = orthogonal_pair()
    assert tps.b == pytest.approx(0.0, abs=1e-25)


def test_jensen_violation_bands_massless_orthogonal_family():
    # violation exactly outside |tau|/sigma in [sqrt(2)-1, sqrt(2)+1]
    tps = orthogonal_pair()
    t_bar = 2.0 * math.pi  # first return at phi = 0
    taus = np.linspace(0.02 * SIGMA, 3.2 * SIGMA, 400)
    out = mi_inequality_j(tps, t_bar + taus, 0.0)
    margin = out["margin"]
    p1sq = np.asarray(p1_single(tps, t_bar + taus, 0.0)) ** 2
    violated = margin < -1e-12 * p1sq
    crossings = taus[np.nonzero(np.diff(violated.astype(int)))[0]] / SIGMA
    assert crossings.size == 2
    assert crossings[0] == pytest.approx(math.sqrt(2.0) - 1.0, abs=0.02)
    assert crossings[1] == pytest.approx(math.sqrt(2.0) + 1.0, abs=0.05)
    # ratio criterion agrees with the margin for b = 0
    ratio_viol = out["ratio_violation"]
    assert np.array_equal(ratio_viol, violated)


def test_jensen_ratio_is_tau_squared_over_sigma_squared():
    tps = orthogonal_pair()
    t_bar = 2.0 * math.pi
    taus = np.array([-0.9, -0.3, 0.45, 1.1]) * SIGMA
    out = mi_inequality_j(tps, t_bar + taus, 0.0)
    np.testing.assert_allclose(
        out["ratio_sq"], (taus / SIGMA) ** 2, rtol=5e-3, atol=1e-4
    )


def test_cs_margin_and_ratio_massless_family():
    tps = orthogonal_pair()
    t_bar = 2.0 * math.pi
    tau1 = 0.8 * SIGMA
    # same-sign pairs: ratio tau2/tau1, margin violated whenever ratio != 1
    for tau2, expect_viol in ((0.79 * SIGMA, True), (0.8 * SIGMA, False)):
        out = mi_inequality_cs(tps, t_bar + tau1, 0.0, t_bar + tau2, 0.0)
        assert out["ratio"] == pytest.approx(abs(tau2 / tau1), rel=2e-2)
        scale = math.sqrt(
            p2_joint(tps, t_bar + tau1, 0.0, t_bar + tau1, 0.0)
            * p2_joint(tps, t_bar + tau2, 0.0, t_bar + tau2, 0.0)
        )
        assert (out["margin"] < -1e-9 * scale) == expect_viol
    # opposite signs: interval [3-2sqrt2, 3+2sqrt2] is the operative window
    for ratio, expect_viol in ((0.16, True), (0.5, False), (6.0, True)):
        out = mi_inequality_cs(
            tps, t_bar + tau1, 0.0, t_bar - ratio * tau1, 0.0
        )
        scale = p2_joint(tps, t_bar + tau1, 0.0, t_bar + tau1, 0.0)
        assert (out["margin"] < -1e-9 * scale) == expect_viol, ratio
        lo, hi = CS_INTERVAL
        assert out["ratio_violation"] == (ratio < lo or ratio > hi)


def test_kolmogorov_product_massless():
    tps = gaussian_pair("product")
    t2 = np.linspace(2.0, 9.0, 7)
    out = kolmogorov_check(tps, 0.0, 0.0, t2, (0.0, 2.0 * math.pi), n_t1=6000)
    assert out["max_rel_deviation"] < 1e-6


def test_kolmogorov_single_mode_constant():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=12)
    tps = TwoParticleState("product", from_modes(ms, {4: 1.0}), from_modes(ms, {7: 1.0}))
    # constant densities: the marginal over any window of length T equals
    # T * P1(1) * P1(2); with the unit-period window it is exactly P1(2)
    period = 2.0 * math.pi * ms.r
    v4 = 4.0 / (math.sqrt(1.0 + 16.0) * 1.0)
    window = (0.0, period / v4)  # P1^(1) integrates to 1 over this window
    t2 = np.linspace(0.0, 3.0, 4)
    out = kolmogorov_check(tps, 0.3, 0.9, t2, window, n_t1=2000)
    assert out["max_rel_deviation"] < 1e-9


def test_kolmogorov_rejects_partial_period_window():
    from ringtoa.errors import DomainError

    tps = gaussian_pair("product")
    with pytest.raises(DomainError):
        kolmogorov_check(tps, 0.0, 0.0, np.array([3.0]), (0.0, 4.0), n_t1=500)
    with pytest.raises(DomainError):
        kolmogorov_check(tps, 0.0, 0.0, np.array([3.0]), (2.0, 1.0), n_t1=500)


def test_kolmogorov_symmetrized_massless():
    tps = orthogonal_pair()
    t2 = np.linspace(5.8, 6.8, 5)
    out = kolmogorov_check(tps, 0.0, 0.0, t2, (0.0, 2.0 * math.pi), n_t1=8000)
    assert out["max_rel_deviation"] < 1e-4


def test_symmetrized_requires_shared_modespace():
    other = ModeSpace(mu=0.0, r=2.0, m_max=900)
    s1 = line_to_ring(MS0, LineState(p=1000.0, sigma=SIGMA))
    s2 = line_to_ring(other, LineState(p=300.0, sigma=SIGMA))
    with pytest.raises(StateError):
        TwoParticleState("symmetrized", s1, s2)
    TwoParticleState("product", s1, s2)  # different rings allowed for product


def test_product_two_rings_different_mass_radius():
    ms_a = ModeSpace(mu=0.0, r=1.0, m_max=1100)
    ms_b = ModeSpace(mu=50.0, r=2.0, m_max=900)
    s1 = line_to_ring(ms_a, LineState(p=1000.0, sigma=SIGMA))
    s2 = line_to_ring(ms_b, LineState(p=300.0, sigma=0.1))
    tps = TwoParticleState("product", s1, s2)
    val = p2_joint(tps, 6.28, 0.0, 3.0, 1.0)
    assert np.isfinite(val) and val >= 0.0


def test_violation_scan_massless_gaussian_pair_empty():
    # equal-sigma Gaussians with different momenta: |A1/A2| = 1 near peaks,
    # no violation of either inequality
    tps = gaussian_pair("symmetrized")
    t = 2.0 * math.pi + np.linspace(-2.5 * SIGMA, 2.5 * SIGMA, 301)
    report = violation_scan(tps, 0.0, t, t1_fixed=2.0 * math.pi + 0.5 * SIGMA)
    assert not report.any_violation_j
    assert not report.any_violation_cs


def overlapping_pair(kind):
    # coherent factors with overlap b ~ 0.6: the cross integral I12 matters
    s1 = coherent_state(MS0, CoherentParams(theta=0.3, xi=995.0, alpha=10.0))
    s2 = coherent_state(MS0, CoherentParams(theta=0.0, xi=1005.0, alpha=10.0))
    return TwoParticleState(kind, s1, s2)


@pytest.mark.parametrize("kind", ["product", "symmetrized"])
def test_kolmogorov_marginal_matches_per_t2_quadrature(kind):
    # reference: trapezoid of the joint density over t1, one t2 at a time
    tps = overlapping_pair(kind)
    phi1, phi2, n_t1 = 0.4, 2.1, 1500
    t2 = np.linspace(7.5, 9.5, 6)
    out = kolmogorov_check(tps, phi1, phi2, t2, (0.0, 2.0 * math.pi), n_t1=n_t1)
    t1 = np.linspace(0.0, 2.0 * math.pi, n_t1)
    ref = np.array([np.trapezoid(p2_joint(tps, t1, phi1, t, phi2), t1) for t in t2])
    assert np.max(np.abs(out["marginal"] - ref)) <= 1e-13 * np.max(out["p1"])
    assert np.array_equal(out["p1"], p1_single(tps, t2, phi2, factor=2))


@pytest.mark.parametrize("kind", ["product", "symmetrized"])
def test_violation_scan_margins_equal_public_densities(kind):
    tps = overlapping_pair(kind)
    phi, t1 = 0.0, 2.0 * math.pi + 0.01
    t = 2.0 * math.pi + np.linspace(-0.1, 0.1, 81)
    report = violation_scan(tps, phi, t, t1_fixed=t1)
    p1 = p1_single(tps, t, phi)
    p2 = p2_joint(tps, t, phi, t, phi)
    assert np.array_equal(report.p2_diag, p2)
    assert np.array_equal(report.margin_j, p2 - p1**2)
    d1 = p2_joint(tps, t1, phi, t1, phi)
    off = p2_joint(tps, t1, phi, t, phi)
    assert np.array_equal(report.margin_cs, np.sqrt(d1 * p2) - off)


@pytest.mark.parametrize("kind", ["product", "symmetrized"])
def test_each_amplitude_evaluated_once(kind, monkeypatch):
    calls, amp_state = [], multitime.amp_state

    def counted(*args, **kwargs):
        calls.append(args)
        return amp_state(*args, **kwargs)

    monkeypatch.setattr(multitime, "amp_state", counted)
    tps = overlapping_pair(kind)
    t = 2.0 * math.pi + np.linspace(-0.1, 0.1, 41)
    violation_scan(tps, 0.0, t, t1_fixed=2.0 * math.pi)
    assert len(calls) == 4  # A1, A2 on the grid and at t1
    calls.clear()
    kolmogorov_check(tps, 0.0, 0.0, np.linspace(6.0, 7.0, 8), (0.0, 2.0 * math.pi),
                     n_t1=500)
    assert len(calls) <= 4  # one amplitude per factor on each grid
    calls.clear()
    p2_joint(tps, t, 0.0, t + 0.01, 0.0)
    assert len(calls) == (2 if kind == "product" else 4)
