import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    ModeSpace,
    RingState,
    RotationFrame,
    amp_state,
    autocorrelation,
    coherent_state,
    eta,
    from_modes,
    localization_matrix,
    pc_density,
    qsymbol,
    timescales,
    vacuum_noise,
    velocity,
)
from ringtoa.modes import omega
from ringtoa import lattice, oracle
from ringtoa.probability import _k_norm
from ringtoa.errors import DomainError, SeriesError


MS0 = ModeSpace(mu=0.0, r=1.0, m_max=1100)
COH = CoherentParams(theta=0.0, xi=1000.0, alpha=10.0)


def max_loc(ms):
    return localization_matrix(DetectorKernel.max_localization(), ms)


def test_pc_density_factorizes_through_amplitude():
    st = coherent_state(MS0, COH)
    det = max_loc(MS0)
    t = np.linspace(2.0, 9.0, 7)
    dens = pc_density(st, det, t, 1.3)
    amp = amp_state(st, MS0, t, 1.3)
    np.testing.assert_allclose(
        dens, np.abs(amp) ** 2 / (2.0 * math.pi), rtol=1e-12
    )


def test_pc_density_single_mode_constant():
    ms = ModeSpace(mu=3.0, r=2.0, m_max=8)
    st = from_modes(ms, {5: 1.0})
    det = localization_matrix(DetectorKernel.max_localization(gamma0=0.3), ms)
    vals = [pc_density(st, det, t, phi) for t, phi in ((0.0, 0.0), (5.5, 2.2), (31.4, -1.0))]
    expect = velocity(ms, 5) / (2.0 * math.pi * ms.r)
    np.testing.assert_allclose(vals, expect, rtol=1e-12)


def test_pc_density_unit_integral_per_period_massless():
    # the normalization convention: one circulation integrates to 1
    st = coherent_state(MS0, COH)
    det = max_loc(MS0)
    period = 2.0 * math.pi
    t = np.linspace(0.4, 0.4 + period, 20001)
    dens = pc_density(st, det, t, math.pi)
    total = np.trapezoid(dens, t)
    assert total == pytest.approx(1.0, abs=2e-6)


def test_pc_density_mixed_state_matrix_path():
    # mixed rho = 1/2 |a><a| + 1/2 |b><b|: density is the average
    ms = ModeSpace(mu=1.0, r=1.0, m_max=20)
    a = from_modes(ms, {3: 1.0, 5: 1.0})
    b = from_modes(ms, {4: 1.0})
    rho = 0.5 * a.density_matrix() + 0.5 * b.density_matrix()
    mixed = RingState(ms, rho=rho)
    det = max_loc(ms)
    t, phi = 2.1, 0.7
    expect = 0.5 * pc_density(a, det, t, phi) + 0.5 * pc_density(b, det, t, phi)
    # mixed states take the einsum route; force it by flagging purity off
    got = pc_density(mixed, det, t, phi)
    assert got == pytest.approx(expect, rel=1e-11)


def test_pc_density_on_an_empty_grid_is_empty():
    # the pure (factorized) and the mixed (double-sum) path alike
    ms = ModeSpace(mu=1.0, r=1.0, m_max=20)
    a = from_modes(ms, {3: 1.0, 5: 1.0})
    mixed = RingState(ms, rho=0.5 * a.density_matrix()
                      + 0.5 * from_modes(ms, {4: 1.0}).density_matrix())
    for state in (a, mixed):
        got = pc_density(state, max_loc(ms), np.array([]), 0.0)
        assert got.shape == (0,) and got.dtype == float


def test_pc_density_general_localization_damps_interference():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=30)
    st = from_modes(ms, {4: 1.0, 9: 1.0})
    grid_w = np.linspace(0.0, 40.0, 2)
    grid_m = np.linspace(-31.0, 31.0, 125)
    logs = np.zeros(2)[:, None] + (0.02 * grid_m**2)[None, :]
    dk = DetectorKernel.tabulated(grid_w, grid_m, logs, log_values=True)
    det = localization_matrix(dk, ms)
    t = np.linspace(0.0, 20.0, 300)
    dens_full = pc_density(st, max_loc(ms), t, 0.0)
    dens_damp = pc_density(st, det, t, 0.0)
    # same mean, smaller oscillation amplitude
    damp = math.exp(-0.02 * 25.0 / 4.0)
    assert np.ptp(dens_damp) == pytest.approx(np.ptp(dens_full) * damp, rel=1e-6)


def test_pc_density_general_sum_chunks_over_points(monkeypatch):
    # the double sum holds at most _CHUNK_BUDGET active modes x points at once
    ms = ModeSpace(mu=2.0, r=1.0, m_max=30)
    st = from_modes(ms, {4: 1.0, 9: 0.5j, -6: 0.7, 13: 0.2})
    rho = 0.6 * st.density_matrix() + 0.4 * from_modes(ms, {5: 1.0, -2: 1.0}).density_matrix()
    mixed = RingState(ms, rho=rho)
    det = max_loc(ms)
    t = np.linspace(0.0, 20.0, 301)
    phi = np.linspace(-1.0, 2.0, 301)
    whole = pc_density(mixed, det, t, phi)
    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", 6 * 40)  # 6 active modes: 40 points a chunk
    np.testing.assert_allclose(pc_density(mixed, det, t, phi), whole, rtol=1e-13, atol=0)


def test_pc_density_rotating_frame_consistency():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=1100)
    st = coherent_state(ms, COH)
    rf = RotationFrame(omega_d=1e-3, modespace=ms)
    det_rot = localization_matrix(DetectorKernel.max_localization(), ms, frame=rf)
    det_static = max_loc(ms)
    with pytest.raises(DomainError):
        pc_density(st, det_rot, 1.0, 0.0)  # frame argument must match
    with pytest.raises(DomainError):
        pc_density(st, det_static, 1.0, 0.0, frame=rf)
    dens = pc_density(st, det_rot, np.array([6.0, 6.3]), 0.0, frame=rf)
    assert np.all(dens >= 0)


@pytest.mark.parametrize("other", [
    RotationFrame(omega_d=1e-3, modespace=ModeSpace(mu=0.0, r=1.0, m_max=1099)),
    RotationFrame(omega_d=1e-3, modespace=ModeSpace(mu=0.5, r=1.0, m_max=1100)),
    RotationFrame(omega_d=2e-3, modespace=MS0),
])
def test_pc_density_rejects_a_frame_unlike_the_matrix_frame(other):
    """A frame other than the matrix's, even over another mode space, raises."""
    rf = RotationFrame(omega_d=1e-3, modespace=MS0)
    det_rot = localization_matrix(DetectorKernel.max_localization(), MS0, frame=rf)
    with pytest.raises(DomainError, match="frame"):
        pc_density(coherent_state(MS0, COH), det_rot, 1.0, 0.0, frame=other)


def test_pc_density_rotating_matches_split_representation():
    # the rotating double sum (rotating velocities) and the split-amplitude
    # form (static velocities, rotating phases) agree up to O(Omega_D r)
    # weight corrections, which largely cancel for symmetric states
    from ringtoa import amp_rotating_split, symmetric_superposition

    ms = ModeSpace(mu=0.0, r=1.0, m_max=1130)
    sym = symmetric_superposition(ms, coherent_state(ms, COH))
    rf = RotationFrame(omega_d=1e-4, modespace=ms)
    det = localization_matrix(DetectorKernel.max_localization(), ms, frame=rf)
    t = np.linspace(6.0, 6.6, 31)
    p_eq = pc_density(sym, det, t, 0.0, frame=rf)
    d_plus, d_minus = amp_rotating_split(sym, rf, t, 0.0)
    p_split = np.abs(d_plus + d_minus) ** 2 / (2.0 * math.pi)
    assert np.max(np.abs(p_eq - p_split)) / p_split.max() < 1e-5


def test_pc_density_static_factorized_is_the_amplitude_density():
    from ringtoa.probability import _density

    st = coherent_state(MS0, COH)
    rng = np.random.default_rng(3)
    t, phi = np.sort(rng.uniform(0.0, 9.0, 257)), rng.uniform(0.0, 2.0 * math.pi, 257)
    np.testing.assert_array_equal(pc_density(st, max_loc(MS0), t, phi),
                                  _density(MS0, amp_state(st, MS0, t, phi)), strict=True)


def _double_sum(state, det, t, phi, frame=None):
    """pc_density's general double sum with the factorized path switched off."""
    from ringtoa.detector import LocalizationMatrix

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LocalizationMatrix, "is_max_localization", property(lambda self: False))
        return pc_density(state, det, t, phi, frame=frame)


@settings(max_examples=60, deadline=None)
@given(mu=st.sampled_from([0.0, 0.7, 25.0]), r=st.floats(0.5, 3.0),
       omega_d_r=st.floats(-0.95, 0.95), family=st.sampled_from(["max", "chiral", "ring-exp"]),
       lo=st.integers(-40, 40), width=st.integers(1, 30), seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 40))
def test_pc_density_rotating_factorized_matches_double_sum(mu, r, omega_d_r, family, lo,
                                                           width, seed, n):
    # the rotating factorized path against the general double sum, forced
    rng = np.random.default_rng(seed)
    ms = ModeSpace(mu=mu, r=r, m_max=40)
    dk = {"max": DetectorKernel.max_localization(gamma0=0.3),
          "chiral": DetectorKernel.max_localization(gamma1=0.5, chiral=True),
          "ring-exp": DetectorKernel.ring_exponential(a=0.9)}[family]
    if family != "max":
        lo = max(lo, 1)  # these detectors see only m > 0
    modes = range(lo, min(lo + width, 41))
    st_ = from_modes(ms, {m: complex(*rng.normal(size=2)) for m in modes})
    rf = RotationFrame(omega_d=omega_d_r / r, modespace=ms)
    det = localization_matrix(dk, ms, frame=rf)
    assert det.is_max_localization
    t, phi = rng.uniform(-5.0, 40.0, n), rng.uniform(-4.0, 10.0, n)
    got = pc_density(st_, det, t, phi, frame=rf)
    want = _double_sum(st_, det, t, phi, frame=rf)
    peak = max(float(np.max(np.abs(want))), 1e-300)
    assert np.max(np.abs(got - want)) <= 1e-12 * peak


@pytest.mark.parametrize("omega_d_r", [None, 0.3])
def test_pc_density_factorized_drops_modes_off_support(omega_d_r):
    # occupation 1e-16 on m = -5 passes require_support under a chiral
    # detector; the factorized path must drop it as the double sum does
    ms = ModeSpace(mu=0.0, r=1.0, m_max=40)
    rng = np.random.default_rng(5)
    amps = {m: complex(*rng.normal(size=2)) for m in range(20, 40)}
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
    pure = from_modes(ms, amps | {-5: 1e-8 * norm})
    assert pure.occupation()[-5 + ms.m_max] == pytest.approx(1e-16, rel=1e-6)
    rf = None if omega_d_r is None else RotationFrame(omega_d=omega_d_r, modespace=ms)
    det = localization_matrix(DetectorKernel.max_localization(chiral=True), ms, frame=rf)
    t, phi = rng.uniform(0.0, 20.0, 301), rng.uniform(0.0, 2.0 * math.pi, 301)
    got = pc_density(pure, det, t, phi, frame=rf)
    want = pc_density(RingState(ms, rho=pure.density_matrix()), det, t, phi, frame=rf)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


def _full_kernel_sum(state, det, t, phi):
    """The general double sum on the full n x n kernel, pruned to its non-zero rows,
    contracted as lattice._double_sum contracts (kernel^T u, times conj u, summed
    over modes), with the phases of lattice._phases: the kernel is not under test here."""
    from ringtoa.amplitudes import _velocities
    from ringtoa.modes import omega

    ms = state.modespace
    m = ms.modes()
    freq = omega(ms, m)
    w = np.sqrt(np.abs(_velocities(ms, m)))
    kernel = state.density_matrix() * det.matrix * np.outer(w, w)
    active = np.any(np.abs(kernel) > 0.0, axis=1)
    kernel = kernel[np.ix_(active, active)]
    ma, wa = m[active].astype(float), freq[active]
    u = lattice._phases(ma, wa, t, phi)
    vals = ((kernel.T @ u) * u.conj()).sum(axis=0)
    return _k_norm(ms) * vals.real


def test_pc_density_general_sum_on_the_occupied_block_is_exact():
    # pruning before the kernel is formed changes no bit of the result
    ms = ModeSpace(mu=2.0, r=1.0, m_max=60)
    grid_w = np.linspace(0.0, 80.0, 2)
    grid_m = np.linspace(-61.0, 61.0, 245)
    logs = np.zeros(2)[:, None] + (0.01 * grid_m**2)[None, :]
    custom = localization_matrix(DetectorKernel.tabulated(grid_w, grid_m, logs, log_values=True), ms)
    ring = localization_matrix(DetectorKernel.ring_exponential(a=0.5), ms)
    a = from_modes(ms, {m: 1.0 + 0.1j * m for m in range(-12, 30, 3)})
    b = from_modes(ms, {0: 0.3, 5: 1.0, 44: 0.5j})
    c = from_modes(ms, {m: 1.0 / m for m in range(1, 50, 2)})
    mixed = RingState(ms, rho=0.7 * a.density_matrix() + 0.3 * b.density_matrix())
    mixed_pos = RingState(ms, rho=0.5 * c.density_matrix() + 0.5 * from_modes(
        ms, {6: 1.0, 44: 0.5j}).density_matrix())
    rng = np.random.default_rng(11)
    t, phi = rng.uniform(0.0, 30.0, 301), rng.uniform(0.0, 2.0 * math.pi, 301)
    for state, det in ((mixed, custom), (a, custom), (mixed_pos, ring)):
        np.testing.assert_array_equal(pc_density(state, det, t, phi),
                                      _full_kernel_sum(state, det, t, phi), strict=True)


def test_pc_density_support_violation():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=40)
    st = from_modes(ms, {-5: 1.0, 5: 1.0})
    det = localization_matrix(DetectorKernel.ring_exponential(a=1.0), ms)
    from ringtoa.errors import SupportError

    with pytest.raises(SupportError):
        pc_density(st, det, 0.0, 0.0)


def test_qsymbol_matches_pc_density_on_coherent_state():
    det = max_loc(MS0)
    st = coherent_state(MS0, COH)
    t = np.linspace(5.0, 8.0, 5)
    q = qsymbol(MS0, COH, t, 1.7)
    p = pc_density(st, det, t, 1.7)
    np.testing.assert_allclose(q, p, rtol=1e-10)


def test_qsymbol_peak_at_zero_separation():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    cp = CoherentParams(theta=0.6, xi=100.0, alpha=5.0)
    q_on = qsymbol(ms, cp, 0.0, 0.6)
    q_off = qsymbol(ms, cp, 0.0, 0.6 + np.linspace(0.3, 3.0, 7))
    assert np.all(q_on > q_off)


def test_qsymbol_image_method_agrees_semiclassically():
    # incoherent winding images vs exact mode sum, well before T_q
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1100)
    scales = timescales(ms, COH.xi, COH.alpha)
    v = velocity(ms, 1000.0)
    t = 0.3 * scales.t_quantum
    theta = (v * t) % (2.0 * math.pi)
    offs = np.array([-0.1, -0.03, 0.0, 0.03, 0.1])
    exact = qsymbol(ms, COH, np.full_like(offs, t), theta + offs)
    # K sum_n |pref B_n|^2 over the packet's winding images, no interference
    packet = coherent_state(ms, COH).packet
    images = _k_norm(ms) * np.array([
        np.sum(np.abs(packet.pref * oracle._images(ms, packet, t, phi)) ** 2)
        for phi in theta + offs])
    assert np.max(np.abs(images / exact - 1.0)) < 0.01


def test_qsymbol_peak_times_follow_windings():
    # peaks of Q over t sit at t_n = r(phi - theta + 2 pi n)/v_p
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    cp = CoherentParams(theta=1.0, xi=1000.0, alpha=10.0)
    v_p = velocity(ms, 1000.0)
    phi = 2.5
    t = np.arange(0.5, 30.0, 0.002)
    q = qsymbol(ms, cp, t, phi)
    from scipy.signal import find_peaks

    idx, _ = find_peaks(q, prominence=0.2 * q.max())
    expected = np.array([(phi - cp.theta + 2 * math.pi * n) / v_p for n in (0, 1, 2, 3)])
    expected = expected[expected < t[-1]]
    np.testing.assert_allclose(t[idx], expected, atol=0.01)


def test_qsymbol_warns_below_alpha_three():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    with pytest.warns(UserWarning):
        qsymbol(ms, CoherentParams(0.0, 20.0, 1.0), 0.0, 0.0)


def test_vacuum_noise_ring_exponential_closed_form():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=60)
    dk = DetectorKernel.ring_exponential(a=1.0)
    p0 = vacuum_noise(dk, ms)
    assert p0 * 4.0 * math.pi * ms.r == pytest.approx(
        -math.log(1.0 - math.exp(-1.0)), rel=1e-14
    )


def test_vacuum_noise_flat_kernel_diverges():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=400)
    with pytest.raises(SeriesError):
        vacuum_noise(DetectorKernel.max_localization(), ms)


def test_vacuum_noise_rotating_reduces_to_static():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=80)
    dk = DetectorKernel.ring_exponential(a=0.7)
    rf = RotationFrame(omega_d=0.0, modespace=ms)
    assert vacuum_noise(dk, ms, frame=rf) == vacuum_noise(dk, ms)


@pytest.mark.parametrize("od", [0.3, -0.5])
@pytest.mark.parametrize("mu", [0.0, 2.0])
@pytest.mark.parametrize("dk", [
    DetectorKernel.ring_exponential(a=0.7),
    DetectorKernel.max_localization(gamma0=0.4, gamma1=0.3, chiral=True),
    DetectorKernel.max_localization(gamma0=1.0),
], ids=["ring-exp", "chiral", "max-loc"])
def test_vacuum_noise_ratio_is_eta(dk, mu, od):
    # P0 is the eta series, zero mode R(mu, 0) / mu included: the ratio is eta
    ms = ModeSpace(mu=mu, r=1.0, m_max=40)
    if dk.raw_value(mu, 0, r=1.0) > 0 and mu == 0:
        # P0 diverges, and so does eta
        for f in (lambda: vacuum_noise(dk, ms), lambda: eta(dk, ms, od)):
            with pytest.raises(SeriesError):
                f()
        return
    rotating = vacuum_noise(dk, ms, RotationFrame(omega_d=od, modespace=ms))
    assert rotating / vacuum_noise(dk, ms) == pytest.approx(eta(dk, ms, od), rel=1e-14)


def test_vacuum_noise_extends_past_m_max():
    # the a = 0.3 tail at m = 40 is e^-12 of the head: the sum needs more modes
    ms = ModeSpace(mu=0.0, r=1.0, m_max=40)
    p0 = vacuum_noise(DetectorKernel.ring_exponential(a=0.3), ms)
    assert p0 == pytest.approx(-math.log1p(-math.exp(-0.3)) / (4.0 * math.pi), rel=1e-13)


def test_vacuum_noise_tabulated_kernel():
    # a table of the ring-exponential kernel sums like the closed form
    og, mg = np.arange(0.0, 101.0), np.arange(-100.0, 101.0)
    table = DetectorKernel.tabulated(og, mg, np.exp(-og)[:, None] * (mg[None, :] > 0))
    assert table.raw_value(2.0, 0, r=1.0).shape == ()
    ms = ModeSpace(mu=0.0, r=1.0, m_max=40)
    assert vacuum_noise(table, ms) == pytest.approx(
        vacuum_noise(DetectorKernel.ring_exponential(a=1.0), ms), rel=1e-13)


def test_vacuum_noise_zero_mode():
    # R(mu, 0) / mu joins the sum; at mu = 0 a kernel with R(0, 0) > 0 diverges
    dk = DetectorKernel.max_localization(gamma0=1.0)
    ms = ModeSpace(mu=2.0, r=1.0, m_max=40)
    w = omega(ms, np.arange(-200, 201))
    direct = math.fsum(np.exp(-w) / w) / (4.0 * math.pi)
    assert vacuum_noise(dk, ms) == pytest.approx(direct, rel=1e-13)
    for flat in (dk, DetectorKernel.max_localization()):
        with pytest.raises(SeriesError, match="omega=0"):
            vacuum_noise(flat, ModeSpace(mu=0.0, r=1.0, m_max=40))


def test_vacuum_noise_monotone_in_decay_constant():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=80)
    vals = [vacuum_noise(DetectorKernel.ring_exponential(a=a), ms) for a in (0.5, 1.0, 2.0)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_timescales_fig_caption_parameters():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1100)
    scales = timescales(ms, 1000.0, 10.0)
    assert 280.0 <= scales.t_quantum <= 285.0
    assert 35000.0 <= scales.t_recurrence <= 36000.0
    assert scales.t_recurrence == pytest.approx(4.0 * math.pi * 10.0 * scales.t_quantum)


def test_timescales_massless_ideal_clock():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=100)
    scales = timescales(ms, 50.0, 5.0)
    assert math.isinf(scales.t_quantum) and math.isinf(scales.t_recurrence)
    assert scales.tick == pytest.approx(2.0 * math.pi, rel=1e-15)


@pytest.mark.parametrize("mu", [0.0, 1000.0])
def test_timescales_same_tick_either_direction(mu):
    ms = ModeSpace(mu=mu, r=1.0, m_max=1100)
    assert timescales(ms, -1000.0, 10.0) == timescales(ms, 1000.0, 10.0)


def test_reality_residue_guard():
    # non-Hermitian rho must be rejected by the state constructor itself
    ms = ModeSpace(mu=1.0, r=1.0, m_max=3)
    rho = np.eye(7, dtype=complex) / 7.0
    rho[1, 2] = 0.3j
    with pytest.raises(Exception):
        RingState(ms, rho=rho)


def test_autocorrelation_initial_value_and_period():
    st = coherent_state(MS0, COH)
    f0 = autocorrelation(st, 0.0)
    assert f0 == pytest.approx(1.0, rel=1e-12)
    # massless: exact revival every circulation
    f1 = autocorrelation(st, 2.0 * math.pi)
    assert f1 == pytest.approx(1.0, rel=1e-10)


def test_autocorrelation_reads_the_state_mode_space():
    # the energies are those of the state's own (massive) lattice, and no
    # other mode space can be passed beside the state
    ms = ModeSpace(mu=3.0, r=1.0, m_max=200)
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=100.0, alpha=5.0))
    t = np.array([0.0, 2.0 * math.pi, 1.3])
    want = np.abs(np.exp(-1j * np.outer(t, omega(ms, ms.modes()))) @ st.occupation()) ** 2
    np.testing.assert_allclose(autocorrelation(st, t), want, rtol=0, atol=1e-13)
    with pytest.raises(TypeError):
        autocorrelation(st, MS0, 0.0)

