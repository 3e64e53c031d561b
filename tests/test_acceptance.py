"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here, not tuned at runtime; the heavy cases
(criteria 2 and 7) run at desk scale in a couple of minutes total.
"""

import math

import numpy as np
import pytest
from scipy.signal import find_peaks
from scipy.stats import linregress

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    LineState,
    ModeSpace,
    RotationFrame,
    TwoParticleState,
    amp_poisson,
    amp_state,
    autocorrelation,
    coherent_state,
    cumulative,
    eta,
    eta_closed_form,
    extract_ticks,
    kolmogorov_check,
    line_to_ring,
    localization_matrix,
    mi_inequality_j,
    p1_single,
    pc_density,
    qsymbol,
    symmetric_superposition,
    timescales,
    velocity,
    violation_scan,
    wigner_weyl,
)
from ringtoa.errors import UnphysicalKernelError
from ringtoa.states import spread_at_time


XI, ALPHA = 1000.0, 10.0
SIGMA = 1.0 / (math.sqrt(2.0) * ALPHA)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS ({detail})", flush=True)


@pytest.fixture(scope="module")
def ring_massive():
    return ModeSpace(mu=1000.0, r=1.0, m_max=2000)


@pytest.fixture(scope="module")
def ring_massless():
    return ModeSpace(mu=0.0, r=1.0, m_max=1130)


def test_criterion_1_timescales(ring_massive):
    scales = timescales(ring_massive, XI, ALPHA)
    assert 280.0 <= scales.t_quantum <= 285.0
    assert 35000.0 <= scales.t_recurrence <= 36000.0
    report("1 timescales",
           f"T_q={scales.t_quantum:.2f}, T_rec={scales.t_recurrence:.0f}")


def _peak_lobe(q):
    """Contiguous lobe around the global maximum down to half maximum."""
    n = q.size
    imax = int(np.argmax(q))
    half = q[imax] / 2.0
    lo = imax
    while q[lo % n] >= half and imax - lo < n:
        lo -= 1
    hi = imax
    while q[hi % n] >= half and hi - imax < n:
        hi += 1
    idx = np.arange(lo, hi + 1) % n
    width = (hi - lo) * (2.0 * math.pi / n)
    return width, float(q[idx].sum() / q.sum())


def test_criterion_2_qsymbol_regimes(ring_massive):
    ms = ring_massive
    scales = timescales(ms, XI, ALPHA)
    phi = math.pi
    n_theta = 8192
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    cp0 = CoherentParams(0.0, XI, ALPHA)

    # (a) semiclassical snapshot: single peak, FWHM matches sigma(t)
    t_a = 0.07 * scales.t_quantum
    q_a = qsymbol(ms, cp0, t_a, phi - theta)
    peaks, _ = find_peaks(q_a, prominence=0.1 * q_a.max())
    assert peaks.size == 1
    width, lobe_frac = _peak_lobe(q_a)
    line = LineState(p=XI / ms.r, sigma=SIGMA)
    predicted = 2.0 * math.sqrt(2.0 * math.log(2.0)) * spread_at_time(line, ms, t_a)
    assert width * ms.r == pytest.approx(predicted, rel=0.10)
    assert lobe_frac > 0.5

    # (b) deep quantum regime: no dominant peak
    t_b = 4.2 * scales.t_quantum
    q_b = qsymbol(ms, cp0, t_b, phi - theta)
    _, lobe_frac_b = _peak_lobe(q_b)
    assert lobe_frac_b < 0.30

    # (c) partial revival near T_rec
    state = coherent_state(ms, cp0)
    t_c = np.arange(0.95 * scales.t_recurrence, 1.05 * scales.t_recurrence, 0.2)
    f = autocorrelation(state, t_c)
    assert float(f.max()) > 0.5
    report("2 qsymbol regimes",
           f"FWHM/pred={width / predicted:.3f}, deep-quantum lobe="
           f"{lobe_frac_b:.3f}, revival F={f.max():.3f} at "
           f"t/T_rec={t_c[np.argmax(f)] / scales.t_recurrence:.4f}")


def test_criterion_3_massless_staircase(ring_massless):
    ms = ring_massless
    phi = math.pi
    state = coherent_state(ms, CoherentParams(0.0, XI, ALPHA))
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    dt = (SIGMA / 1.0) / 6.0
    t = np.arange(0.0, phi + 20.5 * 2.0 * math.pi, dt)
    dens = pc_density(state, det, t, phi)
    w = cumulative(t, dens)
    assert np.all(np.diff(w) >= 0.0)
    ticks = extract_ticks(t, dens)
    assert ticks.times.size >= 21  # >= 20 spacings
    spacings = np.diff(ticks.times)
    assert np.all(np.abs(spacings - 2.0 * math.pi * ms.r) < ticks.grid_step)
    heights = ticks.weights[:-1]  # last window clipped by the grid end
    assert np.max(np.abs(heights / heights.mean() - 1.0)) < 0.01
    report("3 massless staircase",
           f"{ticks.times.size} ticks, max|spacing-2pi r|="
           f"{np.max(np.abs(spacings - 2 * math.pi)):.2e}, "
           f"height spread={np.max(np.abs(heights / heights.mean() - 1)):.2e}")


def test_criterion_4_poisson_mode_sum_oracle(ring_massless):
    # massless: full circulation period, uniform grid across the return peak
    ms = ring_massless
    state = coherent_state(ms, CoherentParams(0.0, XI, ALPHA))
    phi = math.pi
    t0 = phi + 2.0 * math.pi - math.pi
    t = np.linspace(t0, t0 + 2.0 * math.pi, 121)
    a_mode = amp_state(state, ms, t, phi)
    a_pois = amp_poisson(ms, t, phi, state=state)
    dev0 = float(np.max(np.abs(a_mode - a_pois)) / np.max(np.abs(a_mode)))
    assert dev0 < 1e-5

    # massive: t < T_q/2, on- and off-peak points away from light cones
    ms_m = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    state_m = coherent_state(ms_m, CoherentParams(0.0, XI, ALPHA))
    v = velocity(ms_m, XI)
    t_pts = np.array([30.0, 55.0, 80.0, 105.0, 130.0])
    phis = np.concatenate([(v * t_pts) % (2 * math.pi),
                           (v * t_pts + 0.9) % (2 * math.pi)])
    t_all = np.concatenate([t_pts, t_pts])
    b_mode = amp_state(state_m, ms_m, t_all, phis)
    b_pois = amp_poisson(ms_m, t_all, phis, state=state_m)
    dev1 = float(np.max(np.abs(b_mode - b_pois)) / np.max(np.abs(b_mode)))
    assert dev1 < 1e-3
    report("4 oracle equivalence",
           f"massless max dev={dev0:.2e} (<1e-5), massive={dev1:.2e} (<1e-3)")


def test_criterion_5_noise_ratio():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        dk = DetectorKernel.ring_exponential(a=a)
        assert eta(dk, ms, 0.0) == 1.0
        vals = []
        for x in (0.0, 0.25, 0.5, 0.75, 0.9):
            got = eta(dk, ms, x / ms.r)
            want = eta_closed_form(a, x)
            worst = max(worst, abs(got - want))
            assert got == pytest.approx(want, abs=1e-8)
            vals.append(got)
        assert np.all(np.diff(vals) > 0)

    dk = DetectorKernel.ring_exponential(a=1.0)
    eps = np.geomspace(1e-4, 1e-2, 8)
    x = -np.log(eps) / abs(math.log(1.0 - math.exp(-1.0)))
    y = np.array([eta(dk, ms, 1.0 - e) for e in eps])
    slope = linregress(x, y).slope
    assert slope == pytest.approx(1.0, rel=0.05)
    report("5 noise ratio",
           f"closed-form worst dev={worst:.2e} (<1e-8), edge slope={slope:.4f}")


def test_criterion_6_sagnac_fringes():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=1130)
    sym = symmetric_superposition(ms, coherent_state(ms, CoherentParams(0.0, XI, ALPHA)))
    rf = RotationFrame(omega_d=1e-4, modespace=ms)
    from ringtoa import sagnac_scan

    t = np.arange(0.5, 170.0, 0.01)
    res = sagnac_scan(sym, rf, t, phi=0.0)
    assert res.expected_frequency == pytest.approx(XI * 1e-4)
    rel = abs(res.fringe_frequency - res.expected_frequency) / res.expected_frequency
    assert rel < 0.01
    report("6 sagnac fringes",
           f"fringe={res.fringe_frequency:.6f} vs xi*Omega={res.expected_frequency}, "
           f"rel err={rel:.2e}")


def test_criterion_7_measurement_independence(ring_massless):
    ms = ring_massless
    # (a) product Gaussian pair: dense tau scan, no violations
    s1 = line_to_ring(ms, LineState(p=990.0, sigma=SIGMA))
    s2 = line_to_ring(ms, LineState(p=1010.0, sigma=SIGMA))
    prod = TwoParticleState("product", s1, s2)
    t_bar = 2.0 * math.pi
    taus = np.linspace(-2.5 * SIGMA, 2.5 * SIGMA, 501)
    rep_a = violation_scan(prod, 0.0, t_bar + taus, t1_fixed=t_bar + 0.4 * SIGMA)
    assert not rep_a.any_violation_j
    assert not rep_a.any_violation_cs

    # (b) symmetrized orthogonal family: J-violation bands at 0.414/2.414 sigma
    g1 = line_to_ring(ms, LineState(p=XI, sigma=SIGMA))
    g2 = line_to_ring(ms, LineState(p=XI, sigma=SIGMA, family="gaussian-times-x"))
    sym = TwoParticleState("symmetrized", g1, g2)
    assert sym.b == pytest.approx(0.0, abs=1e-20)
    taus_b = np.linspace(0.05 * SIGMA, 3.0 * SIGMA, 600)
    out = mi_inequality_j(sym, t_bar + taus_b, 0.0)
    p1sq = np.asarray(p1_single(sym, t_bar + taus_b, 0.0)) ** 2
    violated = np.asarray(out["margin"]) < -1e-12 * p1sq
    edges = taus_b[np.nonzero(np.diff(violated.astype(int)))[0]] / SIGMA
    assert edges.size == 2
    assert abs(edges[0] - 0.414) <= 0.02
    assert abs(edges[1] - 2.414) <= 0.05

    # (c) massive symmetrized coherent pair at the figure parameters
    ms_m = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    c1 = coherent_state(ms_m, CoherentParams(0.0, 1005.0, ALPHA))
    c2 = coherent_state(ms_m, CoherentParams(0.0, 995.0, ALPHA))
    pair = TwoParticleState("symmetrized", c1, c2)
    t1 = 50.0
    phi = (velocity(ms_m, 1000.0) * t1) % (2.0 * math.pi)  # detector on the t1 passage
    t_grid = np.linspace(40.0, 60.0, 2001)
    rep_c = violation_scan(pair, phi, t_grid, t1_fixed=t1)
    n_j = int(np.count_nonzero(rep_c.violated_j))
    n_cs = int(np.count_nonzero(rep_c.violated_cs))
    assert n_j > 0 and n_cs > 0
    report("7 measurement independence",
           f"product clean; J bands at {edges[0]:.3f}/{edges[1]:.3f} sigma; "
           f"massive masks J={n_j}, CS={n_cs} of {t_grid.size}")


def test_criterion_8_kolmogorov(ring_massless):
    ms = ring_massless
    s1 = line_to_ring(ms, LineState(p=990.0, sigma=SIGMA))
    s2 = line_to_ring(ms, LineState(p=1010.0, sigma=SIGMA))
    tps = TwoParticleState("product", s1, s2)
    t2 = np.linspace(2.0, 9.0, 8)
    out = kolmogorov_check(tps, 0.0, 0.0, t2, (0.0, 2.0 * math.pi), n_t1=8000)
    assert out["max_rel_deviation"] < 1e-6
    report("8 kolmogorov", f"max rel deviation={out['max_rel_deviation']:.2e} (<1e-6)")


def test_criterion_9_structural_invariants(ring_massless):
    # coherent-state normalization at 1e-10, including small alpha
    checked = 0
    for xi in (0.0, 0.5, 7.0, 1000.0):
        for alpha in (0.5, 1.0, 10.0):
            if xi + 8 * alpha > ring_massless.m_max:
                continue
            st = coherent_state(ring_massless, CoherentParams(0.3, xi, alpha))
            assert float(np.sum(np.abs(st.coeffs) ** 2)) == pytest.approx(1.0, abs=1e-10)
            checked += 1
    assert checked >= 10

    # localization in [0, 1] and rejection of the Gaussian counterexample
    ms = ModeSpace(mu=1.0, r=1.0, m_max=60)
    L = localization_matrix(DetectorKernel.max_localization(gamma0=0.7), ms)
    assert np.all((L.matrix >= 0.0) & (L.matrix <= 1.0))
    grid_w = np.linspace(0.0, 80.0, 401)
    grid_m = np.linspace(-61.0, 61.0, 123)
    gauss = np.exp(-(grid_w**2))[:, None] * np.ones(123)[None, :]
    with pytest.raises(UnphysicalKernelError):
        localization_matrix(DetectorKernel.tabulated(grid_w, grid_m, gauss), ms)

    # Wigner-Weyl marginal = 1 within 1e-8 (exact at the lattice momenta)
    ms_w = ModeSpace(mu=1.0, r=1.0, m_max=120)
    Lw = localization_matrix(DetectorKernel.max_localization(gamma0=0.4), ms_w)
    n_theta = 512
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    p_grid = np.array([-9.0, -1.0, 0.0, 4.0, 17.0, 60.0])
    field = wigner_weyl(Lw, theta, p_grid)
    marg = field.values.sum(axis=1) * (2.0 * math.pi / n_theta)
    assert np.max(np.abs(marg - 1.0)) < 1e-8

    # max-localization spike narrows like 1/m_max
    theta_f = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    widths = {}
    for m_max in (100, 200):
        ms_i = ModeSpace(mu=1.0, r=1.0, m_max=m_max)
        Li = localization_matrix(DetectorKernel.max_localization(), ms_i)
        row = wigner_weyl(Li, theta_f, np.array([0.0])).values[0]
        above = np.abs(theta_f[row > row.max() / 2.0])
        widths[m_max] = 2.0 * above.max()
        assert widths[m_max] < 2.0 * math.pi / m_max
    assert widths[100] / widths[200] == pytest.approx(2.0, rel=0.25)

    # causality: negligible density before the first possible arrival
    st = coherent_state(ring_massless, CoherentParams(0.0, XI, ALPHA))
    phi = 2.0
    t_early = np.linspace(0.05, phi - 8.0 * SIGMA, 64)
    early = np.abs(amp_state(st, ring_massless, t_early, phi)) ** 2
    t_peak = np.linspace(phi - 0.05, phi + 0.05, 101)
    peak = float(np.max(np.abs(amp_state(st, ring_massless, t_peak, phi)) ** 2))
    assert float(early.max()) < 1e-10 * peak

    # P_c reality: imaginary residue of the double mode sum below 1e-10
    ms_r = ModeSpace(mu=2.0, r=1.0, m_max=40)
    from ringtoa import from_modes
    from ringtoa.amplitudes import _speed_weights
    from ringtoa.modes import omega as omega_fn

    rho = 0.6 * from_modes(ms_r, {3: 1.0, 8: 0.7}).density_matrix() \
        + 0.4 * from_modes(ms_r, {5: 1.0, 11: -0.3}).density_matrix()
    Lr = localization_matrix(DetectorKernel.max_localization(gamma0=0.2), ms_r)
    m = ms_r.modes()
    w = _speed_weights(ms_r, m)
    t_pts, phi_pts = np.linspace(0.0, 12.0, 25), np.linspace(0.0, 2 * math.pi, 25)
    u = np.exp(1j * (m[:, None] * phi_pts[None, :]
                     - omega_fn(ms_r, m)[:, None] * t_pts[None, :]))
    kern = rho * Lr.matrix * np.outer(w, w)
    vals = np.einsum("mp,mn,np->p", u, kern, u.conj(), optimize=True)
    resid = float(np.max(np.abs(vals.imag)) / np.max(np.abs(vals.real)))
    assert resid < 1e-10

    report("9 structural invariants",
           f"norms({checked} states) ok, L in [0,1] + counterexample rejected, "
           f"marginal dev={np.max(np.abs(marg - 1.0)):.1e}, width ratio="
           f"{widths[100] / widths[200]:.2f}, causality={early.max() / peak:.1e}, "
           f"reality residue={resid:.1e}")
