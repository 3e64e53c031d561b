"""The block-factorized and one-FFT mode sums against the dense reference, and the rule
that drops the terms under one unit roundoff of the sum."""

import math
import sys
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    ModeSpace,
    RingState,
    RotationFrame,
    amp_rotating_split,
    amp_state,
    coherent_state,
    from_modes,
    localization_matrix,
    pc_density,
    qsymbol,
    symmetric_superposition,
    timescales,
)
from ringtoa import amplitudes, emit, lattice
from ringtoa.errors import DomainError
from ringtoa.modes import omega, rotating_omega
from ringtoa.probability import _k_norm

EPS = np.finfo(float).eps
U = 2.0**-53


def dense():
    """Force every grid onto the dense reference path."""
    return mock.patch.object(lattice, "_MIN_UNIFORM", 10**9)


def phase_bound(coeffs, freq, m, t, phi):
    """|structured - dense| bound: sum|c| times the documented phase bound.

    The phase bound is 2 (max|omega| tol_t + max|m| tol_phi) with tol =
    _UNIFORM_ULPS ulps of the grid's largest value; a few ulps of sum|c| per
    active mode cover the roundoff of the exps and of the two summations.
    """
    ulps = lattice._UNIFORM_ULPS * EPS
    tol_t, tol_phi = ulps * np.max(np.abs(t)), ulps * np.max(np.abs(phi))
    active = np.abs(coeffs) > 0
    delta = 2.0 * (np.max(np.abs(freq[active])) * tol_t
                   + np.max(np.abs(m[active])) * tol_phi)
    return float(np.sum(np.abs(coeffs))) * (delta + 8.0 * EPS * np.count_nonzero(active))


GRID_SIZES = st.sampled_from([128, 129, 191, 192, 193, 257, 1000]) | st.integers(4030, 4170)


@settings(max_examples=60, deadline=None)
@given(
    massless=st.booleans(),
    mu=st.floats(0.5, 1500.0),
    r=st.floats(0.5, 3.0),
    m_max=st.integers(3, 150),
    omega_d_r=st.floats(-0.9, 0.9),
    rotating=st.booleans(),
    axis=st.sampled_from(["t", "phi", "both"]),
    n=GRID_SIZES,
    t0=st.floats(-50.0, 5000.0),
    dt=st.floats(1e-4, 0.5),
    phi0=st.floats(-7.0, 7.0),
    dphi=st.floats(-0.05, 0.05),
    min_budget=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_structured_matches_dense(massless, mu, r, m_max, omega_d_r, rotating, axis, n,
                                  t0, dt, phi0, dphi, min_budget, seed):
    ms = ModeSpace(mu=0.0 if massless else mu, r=r, m_max=m_max)
    rng = np.random.default_rng(seed)
    support = rng.choice(np.arange(-m_max, m_max + 1), size=min(2 * m_max, 40), replace=False)
    psi = from_modes(ms, {int(k): complex(*rng.normal(size=2)) for k in support})
    j = np.arange(n)
    t = t0 + j * dt if axis != "phi" else np.full(n, t0)
    phi = phi0 + j * dphi if axis != "t" else phi0

    m = ms.modes()
    if rotating:
        rf = RotationFrame(omega_d=omega_d_r / r, modespace=ms)
        freq = rotating_omega(rf, m)

        def evaluate():
            return sum(amp_rotating_split(psi, rf, t, phi))
    else:
        freq = omega(ms, m)

        def evaluate():
            return amp_state(psi, ms, t, phi)

    coeffs = psi.coeffs * np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    # a budget of half the step table splits the modes in two chunks and puts
    # a chunk boundary every 64 blocks (4096 points)
    budget = (np.count_nonzero(coeffs) + 1) // 2 * lattice._BLOCK if min_budget else None
    with mock.patch.object(lattice, "_CHUNK_BUDGET", budget or lattice._CHUNK_BUDGET):
        got = evaluate()
    with dense():
        want = evaluate()
    bound = phase_bound(coeffs, freq, m, t, np.broadcast_to(phi, t.shape))
    assert np.max(np.abs(got - want)) <= bound


def test_structured_path_is_taken_on_uniform_grids():
    ms = ModeSpace(mu=3.0, r=1.0, m_max=40)
    psi = from_modes(ms, {5: 1.0, -7: 0.5j, 12: 0.3})
    t = np.linspace(2.0, 9.0, 500)
    with mock.patch.object(lattice, "_blocked_sum", wraps=lattice._blocked_sum) as spy:
        amp_state(psi, ms, t, 0.4)
        amp_state(psi, ms, 3.0, np.linspace(0.0, 6.0, 500))
        amp_state(psi, ms, t, np.linspace(0.0, 6.0, 500))
        assert spy.call_count == 3
        amp_state(psi, ms, t[:lattice._MIN_UNIFORM - 1], 0.4)  # too short
        amp_state(psi, ms, np.sort(np.random.default_rng(1).uniform(2, 9, 500)), 0.4)
        amp_state(psi, ms, t[:, None], np.linspace(0.0, 6.0, 4)[None, :])  # 2-D mesh
        assert spy.call_count == 3


def test_structured_path_takes_more_modes_than_one_step_table_chunk():
    # 4201 active modes, more than _CHUNK_BUDGET / _BLOCK: the step table is
    # formed a chunk of modes at a time, never handed to the dense path
    ms = ModeSpace(mu=3.0, r=1.0, m_max=2100)
    rng = np.random.default_rng(11)
    c = rng.normal(size=2 * ms.m_max + 1) + 1j * rng.normal(size=2 * ms.m_max + 1)
    psi = RingState(ms, coeffs=c / np.linalg.norm(c))
    m = ms.modes()
    coeffs = psi.coeffs * np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    assert np.count_nonzero(lattice._significant(np.abs(coeffs))) * lattice._BLOCK \
        > lattice._CHUNK_BUDGET
    t = np.linspace(2.0, 9.0, 300)
    with mock.patch.object(lattice, "_blocked_sum", wraps=lattice._blocked_sum) as spy:
        got = amp_state(psi, ms, t, 0.4)
    assert spy.call_count == 1
    with dense():
        want = amp_state(psi, ms, t, 0.4)
    bound = phase_bound(coeffs, omega(ms, m), m, t, np.full(t.shape, 0.4))
    assert np.max(np.abs(got - want)) <= bound


def _phasor_excess(x, got):
    """max over entries of |got - e^{ix}| minus the kernel's bound, e^{ix} to 40 digits.

    The bound is 4 u for |x| <= lattice._TABLE_REACH (2^31) and 4 u + |x| u beyond.
    """
    worst = -math.inf
    with mpmath.workdps(40):
        for xv, g in zip(x.ravel().tolist(), got.ravel().tolist()):
            bound = 4.0 * U + (abs(xv) * U if abs(xv) > lattice._TABLE_REACH else 0.0)
            err = abs(mpmath.mpc(g) - mpmath.expj(mpmath.mpf(xv)))
            worst = max(worst, float(err) - bound)
    return worst


R_MAX = math.pi / lattice._TABLE_N  # |r| of a reduction half-way between table nodes


@settings(max_examples=60, deadline=None)
@given(
    modes=st.integers(1, 40),
    points=st.integers(1, 100),
    m_scale=st.floats(1.0, 1e4),
    w_scale=st.floats(0.0, 1e4),
    t_log=st.floats(-1.0, 7.0),
    x0=st.floats(-2.0**33, 2.0**33),
    seed=st.integers(0, 2**32 - 1),
)
@example(modes=30, points=40, m_scale=100.0, w_scale=10.0, t_log=1.0, x0=0.0, seed=1)
@example(modes=30, points=40, m_scale=100.0, w_scale=10.0, t_log=1.0, x0=R_MAX, seed=2)
@example(modes=30, points=40, m_scale=100.0, w_scale=10.0, t_log=1.0, x0=-R_MAX, seed=3)
@example(modes=30, points=40, m_scale=100.0, w_scale=10.0, t_log=1.0, x0=3.0 * R_MAX, seed=4)
@example(modes=30, points=40, m_scale=100.0, w_scale=10.0, t_log=1.0, x0=-2469.0 * R_MAX,
         seed=5)
@example(modes=30, points=40, m_scale=1e3, w_scale=1e3, t_log=4.0, x0=5e7, seed=6)
@example(modes=30, points=40, m_scale=1e3, w_scale=1e3, t_log=4.0, x0=-5e7, seed=7)
@example(modes=30, points=40, m_scale=1e3, w_scale=1e3, t_log=4.0, x0=2.0**31, seed=8)
@example(modes=30, points=40, m_scale=1e4, w_scale=1e4, t_log=7.0, x0=-3e11, seed=9)
def test_phases_within_four_unit_roundoffs_of_40_digit_phasors(modes, points, m_scale, w_scale,
                                                               t_log, x0, seed):
    # x = m phi - w t is formed to the bit of the textbook expression, and
    # e^{ix} is within 4 u of its 40-digit value (4 u + |x| u past 2^31);
    # entry (0, 0) is x0 (m = 1, w = 0, phi = x0)
    rng = np.random.default_rng(seed)
    m = np.round(rng.uniform(-m_scale, m_scale, modes))
    w = rng.uniform(0.0, w_scale, modes)
    t_scale = 10.0**t_log
    t, phi = rng.uniform(-t_scale, t_scale, points), rng.uniform(-7.0, 7.0, points)
    m[0], w[0], phi[0] = 1.0, 0.0, x0
    want_x = m[:, None] * phi[None, :] - w[:, None] * t[None, :]
    with mock.patch.object(lattice, "_unit_phasors", wraps=lattice._unit_phasors) as kernel:
        got = lattice._phases(m, w, t, phi)
    (x,), _ = kernel.call_args
    assert x.shape == want_x.shape and np.array_equal(x.view(np.int64), want_x.view(np.int64))
    assert x[0, 0] == x0 and got.shape == x.shape
    assert _phasor_excess(x, got) <= 0.0


def test_phasor_table_and_split_against_mpmath():
    # the table: e^{2 pi i j / N} within 2 u; the split: three parts of at most
    # 12 bits, exact times any |k| < 2^41, that with the tail give 2 pi / N
    # to 2^-98; and _TABLE_REACH keeps |k| = rint(|x| N / 2 pi) under 2^41
    n = lattice._TABLE_N
    with mpmath.workdps(40):
        errs = [float(abs(mpmath.mpc(complex(z)) - mpmath.expj(2 * mpmath.pi * j / n)))
                for j, z in enumerate(lattice._TABLE)]
        split = sum(mpmath.mpf(part) for part in lattice._TABLE_SPLIT)
        assert abs(split - 2 * mpmath.pi / n) <= mpmath.mpf(2) ** -98
    assert len(errs) == n and max(errs) <= 2.0 * U
    for part in lattice._TABLE_SPLIT[:3]:
        mant, _ = math.frexp(part)
        assert math.ldexp(mant, 12).is_integer()
    assert lattice._TABLE_REACH * lattice._TABLE_SCALE * (1.0 + 4.0 * U) + 0.5 < 2.0**41


def test_small_and_far_phase_arrays_take_libm_exp():
    # under _MIN_TABLE entries, or reaching past _TABLE_REACH, the kernel is
    # np.exp to the bit; from _MIN_TABLE entries within reach, the table
    rng = np.random.default_rng(4)
    for size, scale, libm in ((lattice._MIN_TABLE - 1, 1e3, True),
                              (lattice._MIN_TABLE, 1e3, False),
                              (4 * lattice._MIN_TABLE, 3.0 * lattice._TABLE_REACH, True)):
        x = rng.uniform(-scale, scale, size)
        assert np.array_equal(lattice._unit_phasors(x), np.exp(1j * x)) == libm


def test_perturbed_grid_takes_dense_path_bit_for_bit():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    psi = coherent_state(ms, CoherentParams(theta=0.3, xi=1000.0, alpha=10.0))
    t = np.linspace(40.0, 60.0, 2001)
    t[777] += 1e-9
    got = amp_state(psi, ms, t, 3.9)
    with dense():
        want = amp_state(psi, ms, t, 3.9)
    assert np.array_equal(got, want)


def test_arithmetic_step():
    step = lattice._arithmetic_step
    assert step(np.linspace(40.0, 60.0, 2001)) == 0.01
    assert step(np.full(300, 2.5)) == 0.0
    assert step(np.arange(0.5, 170.0, 0.01)) is not None
    bumped = np.linspace(40.0, 60.0, 2001)
    bumped[1000] += 1e-9
    assert step(bumped) is None
    assert step(np.array([1.0])) is None


def test_probcoh_late_panels_against_mpmath():
    # fig-probcoh panels at 0.98 T_rec and T_rec, where omega_m t reaches 5e7
    # rad: the structured path is no less accurate than the dense one against
    # a reference whose time phases are taken at 30 digits (the angle sum,
    # |m phi| < 7e3 rad, is float64, good to ~1e-12 of the peak)
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=2000)
    cp = CoherentParams(0.0, 1000.0, 10.0)
    psi = coherent_state(ms, cp)
    m = ms.modes()
    keep = np.abs(psi.coeffs) > 0
    mk, ck = m[keep], psi.coeffs[keep]
    phi = math.pi - np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    t_rec = timescales(ms, cp.xi, cp.alpha).t_recurrence
    with mpmath.workdps(30):
        mu = mpmath.mpf(ms.mu)
        for frac in (0.98, 1.0):
            t = frac * t_rec
            weights = []
            for mi, ci in zip(mk, ck):
                w = mpmath.sqrt(mu**2 + int(mi) ** 2)
                weights.append(complex(mpmath.mpc(ci.real, ci.imag)
                                       * mpmath.sqrt(abs(int(mi) / w))
                                       * mpmath.expj(-w * mpmath.mpf(t))))
            amp = np.exp(1j * np.outer(phi, mk.astype(float))) @ np.array(weights)
            ref = np.abs(amp) ** 2 / (2.0 * math.pi)
            got = qsymbol(ms, cp, t, phi)
            with dense():
                want = qsymbol(ms, cp, t, phi)
            err, err_dense = (float(np.max(np.abs(x - ref)) / ref.max()) for x in (got, want))
            assert err <= err_dense < 1e-8


@settings(max_examples=60, deadline=None)
@given(
    massless=st.booleans(),
    mu=st.floats(0.5, 1500.0),
    xi=st.floats(-250.0, 250.0),
    alpha=st.floats(2.0, 20.0),
    theta=st.floats(-math.pi, math.pi),
    symmetric=st.booleans(),
    omega_d_r=st.floats(-0.9, 0.9) | st.none(),
    uniform=st.booleans(),
    n=GRID_SIZES,
    t0=st.floats(0.0, 2000.0),
    dt=st.floats(1e-4, 0.05),
    phi0=st.floats(-7.0, 7.0),
    dphi=st.floats(-0.05, 0.05),
    seed=st.integers(0, 2**32 - 1),
)
def test_significant_terms_match_the_dense_sum_over_all_terms(
        massless, mu, xi, alpha, theta, symmetric, omega_d_r, uniform, n,
        t0, dt, phi0, dphi, seed):
    # the pruned sum, on either path, against _dense_sum over every non-zero
    # term: within the dropped mass u sum|c| plus the dense roundoff allowance
    if symmetric:  # the base needs support at m > 0
        xi = 1.0 + abs(xi)
    ms = ModeSpace(mu=0.0 if massless else mu, r=1.0,
                   m_max=int(abs(xi) + 10.0 * alpha) + 2)
    psi = coherent_state(ms, CoherentParams(theta=theta, xi=xi, alpha=alpha))
    if symmetric:
        psi = symmetric_superposition(ms, psi)
    m = ms.modes()
    if omega_d_r is None:
        freq = omega(ms, m)
    else:
        freq = rotating_omega(RotationFrame(omega_d=omega_d_r, modespace=ms), m)
    coeffs = psi.coeffs * np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    if uniform:
        j = np.arange(n)
        t, phi = t0 + j * dt, phi0 + j * dphi
    else:
        rng = np.random.default_rng(seed)
        t = np.sort(rng.uniform(t0, t0 + n * dt, n))
        phi = rng.uniform(-7.0, 7.0, n)
    got = lattice._mode_sum(coeffs, m.astype(float), freq, t, phi)
    nz = coeffs != 0
    want = lattice._dense_sum(coeffs[nz], m[nz].astype(float), freq[nz], t, phi)
    bound = U * float(np.sum(np.abs(coeffs))) + phase_bound(coeffs, freq, m, t, phi)
    assert np.max(np.abs(got - want)) <= bound


@settings(max_examples=200, deadline=None)
@given(
    mag=st.lists(st.floats(0.0, 1e6) | st.just(0.0) | st.floats(0.0, 1e-10),
                 max_size=60).map(np.array),
    decay=st.floats(0.1, 30.0),
)
def test_significant_drops_under_one_unit_roundoff_and_keeps_no_zero(mag, decay):
    # arbitrary magnitudes, and a Gaussian whose tail underflows
    gauss = np.exp(-((np.arange(-200, 201) / decay) ** 2))
    for x in (mag, gauss, np.concatenate([gauss, mag])):
        keep = lattice._significant(x)
        assert keep.dtype == bool and keep.shape == x.shape
        assert not np.any(keep & (x == 0))
        total = float(np.sum(x))
        dropped = float(np.sum(x[~keep]))
        assert dropped == 0.0 or dropped < U * total
        assert np.any(keep) == (total > 0.0)
    assert not np.any(lattice._significant(np.zeros(7)))
    assert lattice._significant(np.zeros(0)).size == 0


def test_probcoh_state_sums_179_of_its_771_modes():
    # fig-probcoh: the smallest 592 non-zero terms sum to ~3e-19 of sum|c|;
    # its full-period panel takes the FFT path, a scattered grid the dense one
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=2000)
    psi = coherent_state(ms, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    assert np.count_nonzero(psi.coeffs) == 771
    phi = math.pi - np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    scattered = np.random.default_rng(3).uniform(0.0, 2.0 * math.pi, 300)
    with mock.patch.object(lattice, "_dense_sum", wraps=lattice._dense_sum) as dense_spy, \
            mock.patch.object(lattice, "_period_sum", wraps=lattice._period_sum) as period_spy:
        amp_state(psi, ms, 5.0, phi)
        amp_state(psi, ms, 5.0, scattered)
    assert period_spy.call_count == dense_spy.call_count == 1
    assert period_spy.call_args.args[0].size == 179
    assert dense_spy.call_args.args[0].size == 179


@settings(max_examples=80, deadline=None)
@given(
    mu=st.just(0.0) | st.floats(1.0, 1000.0),
    r=st.floats(0.5, 3.0),
    m_max=st.integers(1, 2500),
    n_modes=st.integers(1, 60),
    n=st.sampled_from([2, 3, 7, 64, 100, 128, 1000, 4096]) | st.integers(2, 5000),
    forward=st.booleans(),
    phi0=st.floats(-1e3, 1e3),
    t=st.floats(-1e6, 1e6),
    seed=st.integers(0, 2**32 - 1),
)
def test_period_sum_matches_dense(mu, r, m_max, n_modes, n, forward, phi0, t, seed):
    # one FFT over a full period of n angles, in either direction, against the
    # dense sum on the same float grid, within the uniform-grid phase bound;
    # the modes may span many times n, so that residues mod n are shared
    ms = ModeSpace(mu=mu, r=r, m_max=m_max)
    rng = np.random.default_rng(seed)
    m = np.sort(rng.choice(np.arange(-m_max, m_max + 1), size=min(n_modes, 2 * m_max + 1),
                           replace=False)).astype(float)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    freq = omega(ms, m)
    dp = (1.0 if forward else -1.0) * 2.0 * math.pi / n
    phi = phi0 + np.arange(n) * dp
    tf = np.full(n, t)
    got = lattice._period_sum(c, m, freq, tf, phi, dp)
    want = lattice._dense_sum(c, m, freq, tf, phi)
    assert np.max(np.abs(got - want)) <= phase_bound(c, freq, m, tf, phi)


def test_period_path_needs_one_time_and_one_full_period():
    ms = ModeSpace(mu=3.0, r=1.0, m_max=40)
    psi = from_modes(ms, {5: 1.0, -7: 0.5j, 12: 0.3})
    n = 4096
    full = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    off = np.arange(n) * (2.0 * math.pi * (1.0 + 1e-9) / n)
    with mock.patch.object(lattice, "_period_sum", wraps=lattice._period_sum) as period, \
            mock.patch.object(lattice, "_blocked_sum", wraps=lattice._blocked_sum) as blocked:
        amp_state(psi, ms, 3.0, full)
        amp_state(psi, ms, -3.0, 1.0 - full)
        amp_state(psi, ms, 3.0, full[:200] * (n / 200))  # a full period of 200 angles
        assert (period.call_count, blocked.call_count) == (3, 0)
        amp_state(psi, ms, 3.0, off)  # n dphi = 2 pi (1 + 1e-9)
        amp_state(psi, ms, np.linspace(3.0, 4.0, n), full)  # t not constant
        amp_state(psi, ms, 3.0, full[:n // 2])  # half a period
        assert (period.call_count, blocked.call_count) == (3, 3)


def _lattice_sum_30_digits(ms, psi, m, t, phi):
    """sum over the consecutive modes m of psi_m sqrt|v_m| e^{i(m phi - omega_m t)}, at 30 digits.

    Angles included: a Horner sum in z = e^{i phi} per point.
    """
    assert np.all(np.diff(m) == 1)
    with mpmath.workdps(30):
        mu, t_ = mpmath.mpf(ms.mu), mpmath.mpf(t)
        terms = []
        for mi in m.astype(int):
            w = mpmath.sqrt(mu**2 + mi**2)
            c = complex(psi.coeffs[mi + ms.m_max])
            terms.append(mpmath.mpc(c.real, c.imag) * mpmath.sqrt(abs(mi) / w)
                         * mpmath.expj(-w * t_))
        out = []
        for p in phi:
            z, acc = mpmath.expj(mpmath.mpf(p)), mpmath.mpc(0)
            for a in reversed(terms):
                acc = acc * z + a
            out.append(complex(acc * z ** int(m[0])))
        return np.array(out)


def test_probcoh_period_panels_against_30_digit_sums():
    # fig-probcoh panels at 0.07 T_q, 10 T_q and 0.98 T_rec (omega_m t up to
    # 5e7 rad) on the peak and 40 scattered angles: the FFT path is within the
    # uniform-grid phase bound of the exact sum over its active modes, and no
    # less accurate than the blocked path, down to its own share 2 max|m|
    # tol_phi of that bound
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=2000)
    cp = CoherentParams(0.0, 1000.0, 10.0)
    psi = coherent_state(ms, cp)
    scales = timescales(ms, cp.xi, cp.alpha)
    phi = math.pi - np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    m = ms.modes()
    coeffs = psi.coeffs * np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    active = lattice._significant(np.abs(coeffs))
    ca, ma, wa = coeffs[active], m[active].astype(float), omega(ms, m[active])
    rng = np.random.default_rng(7)
    for t in (0.07 * scales.t_quantum, 10.0 * scales.t_quantum, 0.98 * scales.t_recurrence):
        tf = np.full(phi.size, t)
        with mock.patch.object(lattice, "_period_sum", wraps=lattice._period_sum) as spy:
            got = amp_state(psi, ms, t, phi)
        assert spy.call_count == 1
        blocked = lattice._blocked_sum(ca, ma, wa, tf, phi, 0.0, lattice._arithmetic_step(phi))
        peak = int(np.argmax(np.abs(got)))
        idx = np.unique(np.concatenate([np.arange(peak - 20, peak + 20) % phi.size,
                                        rng.integers(0, phi.size, 40)]))
        ref = _lattice_sum_30_digits(ms, psi, ma, t, phi[idx])
        scale = float(np.max(np.abs(ref)))
        err, err_blocked = (float(np.max(np.abs(x[idx] - ref))) / scale for x in (got, blocked))
        assert err <= phase_bound(coeffs, omega(ms, m), m, tf, phi) / scale
        own = 2.0 * np.max(np.abs(ma)) * lattice._grid_tol(phi) * np.sum(np.abs(ca)) / scale
        assert err <= max(err_blocked, own)


def test_mixed_gaussian_double_sum_within_two_unit_roundoffs():
    # a mixed alpha-4 state whose Gaussian tails the general double sum prunes
    ms = ModeSpace(mu=2.0, r=1.0, m_max=90)
    a = coherent_state(ms, CoherentParams(theta=0.4, xi=35.0, alpha=4.0))
    b = coherent_state(ms, CoherentParams(theta=-1.1, xi=50.0, alpha=4.0))
    state = RingState(ms, rho=0.6 * a.density_matrix() + 0.4 * b.density_matrix())
    det = localization_matrix(DetectorKernel.ring_exponential(a=0.05), ms)
    rng = np.random.default_rng(5)
    t, phi = rng.uniform(0.0, 40.0, 301), rng.uniform(0.0, 2.0 * math.pi, 301)

    # the full-kernel double sum over every non-zero row
    m = ms.modes()
    w = np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    kernel = state.rho * det.matrix * np.outer(w, w)
    rows = np.abs(kernel).sum(axis=1)
    nz = rows > 0
    assert np.count_nonzero(lattice._significant(rows)) < np.count_nonzero(nz)
    kernel = kernel[np.ix_(nz, nz)]
    u = np.exp(1j * (m[nz, None] * phi[None, :] - omega(ms, m[nz])[:, None] * t[None, :]))
    want = _k_norm(ms) * np.einsum("mp,mn,np->p", u, kernel, u.conj()).real

    got = pc_density(state, det, t, phi)
    total = float(np.sum(np.abs(kernel)))
    bound = _k_norm(ms) * total * (2.0 * U + 8.0 * EPS * np.count_nonzero(nz))
    assert np.max(np.abs(got - want)) <= bound


def test_one_budget_reaches_every_chunked_loop(monkeypatch):
    # patching lattice._CHUNK_BUDGET once splits the work of each budget user
    # into several chunks, and each result agrees with the default budget's
    ms = ModeSpace(mu=2.0, r=1.0, m_max=30)
    psi = from_modes(ms, {4: 1.0, 9: 0.5j, -6: 0.7})
    rho = 0.6 * psi.density_matrix() + 0.4 * from_modes(ms, {5: 1.0, -2: 1.0}).density_matrix()
    rng = np.random.default_rng(3)
    scattered = rng.uniform(0.0, 20.0, 301), rng.uniform(-1.0, 2.0, 301)
    uniform = np.linspace(0.0, 20.0, 5000), 0.7
    chiral = localization_matrix(DetectorKernel.max_localization(chiral=True), ms)
    assert all(chiral.matrix.strides)  # dense: its flag needs the scan
    # log R = -0.05 omega + 0.002 m^2 on half-integer m: a custom table
    w_grid, m_grid = np.array([1.0, 40.0]), np.arange(-60, 61) / 2.0
    custom = DetectorKernel.tabulated(
        w_grid, m_grid, np.exp(-0.05 * w_grid[:, None] + 0.002 * m_grid[None, :] ** 2))

    def run():
        return (amp_state(psi, ms, *scattered), amp_state(psi, ms, *uniform),
                pc_density(RingState(ms, rho=rho), localization_matrix(
                    DetectorKernel.max_localization(), ms), *scattered),
                RingState(ms, rho=rho).occupied(), chiral.is_max_localization,
                localization_matrix(custom, ms).matrix,
                emit._float_cells(np.linspace(0.1, 0.9, 40)))

    want = run()
    chunks = {}
    real = lattice._chunks

    def spy(n, width, budget=None):
        out = real(n, width, budget)
        caller = sys._getframe(1).f_code.co_name
        chunks.setdefault(caller, []).append(len(out))
        return out

    # every module that binds the chunk rule, found by identity
    users_of = [mod for name, mod in sys.modules.items()
                if name.startswith("ringtoa.") and getattr(mod, "_chunks", None) is real]
    assert {"ringtoa.states", "ringtoa.detector", "ringtoa.oracle", "ringtoa.emit"} \
        <= {mod.__name__ for mod in users_of}
    for mod in users_of:
        monkeypatch.setattr(mod, "_chunks", spy)
    # one mode, row or point a chunk in every loop but the block heads'
    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", 16)
    got = run()
    # "fill" is the double sum's grid fill
    users = ("_dense_sum", "_blocked_sum", "fill", "__post_init__", "_occupied_modes",
             "is_max_localization", "localization_matrix", "_float_cells")
    assert {user: min(chunks.get(user, [1])) > 1 for user in users} == dict.fromkeys(users, True)

    m = ms.modes()
    coeffs = psi.coeffs * np.sqrt(np.abs(amplitudes._velocities(ms, m)))
    for grid, a, b in zip((scattered, uniform), want, got):
        t, phi = np.broadcast_arrays(*grid)
        assert np.max(np.abs(a - b)) <= phase_bound(coeffs, omega(ms, m), m, t, phi)
    np.testing.assert_allclose(got[2], want[2], rtol=1e-13, atol=0)
    assert np.array_equal(got[3], want[3]) and got[4] is want[4] is True
    assert np.array_equal(got[5], want[5]) and np.array_equal(got[6], want[6])


def _scattered(rng, n):
    return rng.uniform(0.0, 50.0, n), rng.uniform(0.0, 2.0 * math.pi, n)


def test_scattered_sums_hold_a_bounded_block_of_temporaries():
    # _dense_sum and _double_sum form, take and contract their phases a
    # _PHASOR_BLOCK of modes x points at a time, so beyond their output they
    # hold the same few blocks of complex values at any grid size
    rng = np.random.default_rng(5)
    m = np.arange(-12.0, 12.0)
    freq = np.hypot(3.0, m)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    a = rng.normal(size=(m.size, m.size)) + 1j * rng.normal(size=(m.size, m.size))
    kernel = a @ a.conj().T
    bound = 8 * lattice._PHASOR_BLOCK * 16
    for n in (4096, 65536):
        t, phi = _scattered(rng, n)
        for run in (lambda: lattice._dense_sum(c, m, freq, t, phi),
                    lambda: lattice._double_sum(kernel, m, freq, t, phi)):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * n + bound


def test_dense_sum_takes_one_point_a_chunk_past_a_block_of_modes():
    # 40001 active modes, more than _PHASOR_BLOCK: each chunk holds one point
    # with all of its modes, as one unchunked product does
    m = np.arange(-20000.0, 20001.0)
    freq = np.hypot(3.0, m)
    rng = np.random.default_rng(8)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    t, phi = _scattered(rng, 5)
    assert m.size > lattice._PHASOR_BLOCK
    assert len(lattice._chunks(t.size, c.size, lattice._PHASOR_BLOCK)) == t.size
    got = lattice._dense_sum(c, m, freq, t, phi)
    want = c @ lattice._phases(m, freq, t, phi)
    assert np.max(np.abs(got - want)) <= phase_bound(c, freq, m, t, phi)


def test_scattered_sums_take_libm_exp_in_a_small_last_chunk():
    # the last chunk holds 10 points x 16 modes, under _MIN_TABLE entries, so
    # its phases come from np.exp, the others' from the table
    m = np.arange(-8.0, 8.0)
    freq = np.hypot(3.0, m)
    rng = np.random.default_rng(9)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    a = rng.normal(size=(m.size, m.size)) + 1j * rng.normal(size=(m.size, m.size))
    kernel = a @ a.conj().T
    t, phi = _scattered(rng, 2 * lattice._PHASOR_BLOCK // m.size + 10)
    last = lattice._chunks(t.size, m.size, lattice._PHASOR_BLOCK)[-1]
    assert (last.stop - last.start) * m.size < lattice._MIN_TABLE
    u = lattice._phases(m, freq, t, phi)
    got = lattice._dense_sum(c, m, freq, t, phi)
    assert np.max(np.abs(got - c @ u)) <= phase_bound(c, freq, m, t, phi)
    got = lattice._double_sum(kernel, m, freq, t, phi)
    want = np.einsum("mp,mn,np->p", u, kernel, u.conj()).real
    bound = float(np.sum(np.abs(kernel))) * (2.0 * U + 8.0 * EPS * m.size)
    assert np.max(np.abs(got - want)) <= bound


@settings(max_examples=40, deadline=None)
@given(modes=st.integers(1, 40), points=st.integers(1, 3000), mu=st.floats(0.0, 5.0),
       hermitian=st.sampled_from(["psd", "indefinite"]), seed=st.integers(0, 2**16))
def test_double_sum_within_roundoff_of_the_three_operand_einsum(modes, points, mu, hermitian,
                                                                seed):
    # one GEMM kernel^T u and a column sum of its product with conj u per
    # chunk, over one chunk or several: within the roundoff of sum|kernel|
    # of the three-operand contraction on the same phases
    rng = np.random.default_rng(seed)
    m = np.arange(modes) - modes // 2.0
    freq = np.hypot(mu, m)
    a = rng.normal(size=(modes, modes)) + 1j * rng.normal(size=(modes, modes))
    kernel = a @ a.conj().T if hermitian == "psd" else a + a.conj().T
    t, phi = _scattered(rng, points)
    u = lattice._phases(m, freq, t, phi)
    want = np.einsum("mp,mn,np->p", u, kernel, u.conj()).real
    got = lattice._double_sum(kernel, m, freq, t, phi)
    bound = float(np.sum(np.abs(kernel))) * (2.0 * U + 8.0 * EPS * modes)
    assert np.max(np.abs(got - want)) <= bound


def test_double_sum_of_a_non_hermitian_kernel_raises():
    # the imaginary residue is read on every chunk's points
    rng = np.random.default_rng(12)
    m = np.arange(-10.0, 10.0)
    kernel = rng.normal(size=(m.size, m.size)) + 1j * rng.normal(size=(m.size, m.size))
    t, phi = _scattered(rng, 3 * lattice._PHASOR_BLOCK // m.size)
    assert len(lattice._chunks(t.size, m.size, lattice._PHASOR_BLOCK)) > 1
    with pytest.raises(DomainError, match="non-Hermitian input: imaginary residue"):
        lattice._double_sum(kernel, m, np.hypot(2.0, m), t, phi)


@pytest.mark.parametrize("modes, heads_a_chunk", [(37, 40), (64, 20), (150, 25)])
def test_blocked_sum_heads_in_several_chunks_give_the_bits_of_one(monkeypatch, modes,
                                                                  heads_a_chunk):
    # the heads' phases go a _PHASOR_BLOCK of modes x heads at a time; with
    # every chunk at least _MIN_TABLE phases, each takes the table as the
    # single chunk does, and the GEMM sums each head over the same modes
    rng = np.random.default_rng(modes)
    m = np.arange(modes) - modes // 2.0
    freq = np.hypot(3.0, m)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    n = 200 * lattice._BLOCK - 5  # 200 block heads
    t, phi = np.linspace(0.0, 40.0, n), np.linspace(0.0, 3.0, n)
    dt, dp = lattice._arithmetic_step(t), lattice._arithmetic_step(phi)
    assert len(lattice._chunks(200, modes, lattice._PHASOR_BLOCK)) == 1
    one = lattice._blocked_sum(c, m, freq, t, phi, dt, dp)
    monkeypatch.setattr(lattice, "_PHASOR_BLOCK", modes * heads_a_chunk)
    assert modes * heads_a_chunk >= lattice._MIN_TABLE
    assert len(lattice._chunks(200, modes, lattice._PHASOR_BLOCK)) == 200 // heads_a_chunk
    with mock.patch.object(lattice, "_chunks", wraps=lattice._chunks) as spy:
        many = lattice._blocked_sum(c, m, freq, t, phi, dt, dp)
    assert mock.call(200, modes, modes * heads_a_chunk) in spy.call_args_list
    assert np.array_equal(many, one)


def test_blocked_sum_holds_a_bounded_block_of_head_phases():
    # beyond its output and its step table, the block-factorized sum holds a
    # few _PHASOR_BLOCKs of complex values on a grid of 1024 heads, where a
    # chunk of the default budget's heads would be 4 MB of phases
    rng = np.random.default_rng(6)
    m = np.arange(-150.0, 150.0)
    freq = np.hypot(3.0, m)
    c = rng.normal(size=m.size) + 1j * rng.normal(size=m.size)
    n = 65536
    t, phi = np.linspace(0.0, 40.0, n), np.linspace(0.0, 3.0, n)
    dt, dp = lattice._arithmetic_step(t), lattice._arithmetic_step(phi)
    lattice._blocked_sum(c, m, freq, t, phi, dt, dp)  # tables built
    tracemalloc.start()
    try:
        lattice._blocked_sum(c, m, freq, t, phi, dt, dp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    steps = 16 * m.size * lattice._BLOCK
    assert peak <= 16 * n + steps + 8 * lattice._PHASOR_BLOCK * 16
