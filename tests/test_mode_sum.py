"""The block-factorized mode sum on uniform grids against the dense reference."""

import math
from unittest import mock

import mpmath
import numpy as np
from hypothesis import given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    ModeSpace,
    RotationFrame,
    amp_rotating_split,
    amp_state,
    coherent_state,
    from_modes,
    qsymbol,
    timescales,
)
from ringtoa import amplitudes
from ringtoa.modes import omega, rotating_omega

EPS = np.finfo(float).eps


def dense():
    """Force every grid onto the dense reference path."""
    return mock.patch.object(amplitudes, "_MIN_UNIFORM", 10**9)


def phase_bound(coeffs, freq, m, t, phi):
    """|structured - dense| bound: sum|c| times the documented phase bound.

    The phase bound is 2 (max|omega| tol_t + max|m| tol_phi) with tol =
    _UNIFORM_ULPS ulps of the grid's largest value; a few ulps of sum|c| per
    active mode cover the roundoff of the exps and of the two summations.
    """
    ulps = amplitudes._UNIFORM_ULPS * EPS
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
    # the smallest budget that still takes the structured path puts a chunk
    # boundary every 64 blocks (4096 points)
    budget = np.count_nonzero(coeffs) * amplitudes._BLOCK if min_budget else None
    with mock.patch.object(amplitudes, "_CHUNK_BUDGET", budget or amplitudes._CHUNK_BUDGET):
        got = evaluate()
    with dense():
        want = evaluate()
    bound = phase_bound(coeffs, freq, m, t, np.broadcast_to(phi, t.shape))
    assert np.max(np.abs(got - want)) <= bound


def test_structured_path_is_taken_on_uniform_grids():
    ms = ModeSpace(mu=3.0, r=1.0, m_max=40)
    psi = from_modes(ms, {5: 1.0, -7: 0.5j, 12: 0.3})
    t = np.linspace(2.0, 9.0, 500)
    with mock.patch.object(amplitudes, "_blocked_sum", wraps=amplitudes._blocked_sum) as spy:
        amp_state(psi, ms, t, 0.4)
        amp_state(psi, ms, 3.0, np.linspace(0.0, 6.0, 500))
        amp_state(psi, ms, t, np.linspace(0.0, 6.0, 500))
        assert spy.call_count == 3
        amp_state(psi, ms, t[:amplitudes._MIN_UNIFORM - 1], 0.4)  # too short
        amp_state(psi, ms, np.sort(np.random.default_rng(1).uniform(2, 9, 500)), 0.4)
        amp_state(psi, ms, t[:, None], np.linspace(0.0, 6.0, 4)[None, :])  # 2-D mesh
        assert spy.call_count == 3


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
    step = amplitudes._arithmetic_step
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
