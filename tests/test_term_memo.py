"""The memoized mode-sum terms of a pure state (amplitudes._terms).

amp_state, the factorized pc_density branches and amp_rotating_split sum
terms that depend only on the state and the frames; a state builds them once
per frame pair.  These tests pin what the memo must not change: the bits of
every result, however the calls are ordered or repeated, and on a fresh state.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import amplitudes, modes, states
from ringtoa.amplitudes import _speed_weights, amp_rotating_split, amp_state
from ringtoa.detector import DetectorKernel, localization_matrix
from ringtoa.lattice import _mode_sum
from ringtoa.modes import ModeSpace, RotationFrame, omega, rotating_omega
from ringtoa.probability import _density, pc_density
from ringtoa.states import CoherentParams, RingState, coherent_state, symmetric_superposition


def _bits(x) -> tuple:
    """The bytes of a result, or of each part of a tuple of results."""
    parts = x if isinstance(x, tuple) else (x,)
    return tuple(np.asarray(p).tobytes() for p in parts)


def _unmemoized_amp(state, ms, t, phi):
    """amp_state's sum with the terms built afresh from the public mode functions."""
    nz = np.flatnonzero(state.coeffs)
    m = ms.modes()[nz]
    return _mode_sum(state.coeffs[nz] * _speed_weights(ms, m), m.astype(float), omega(ms, m),
                     t, phi)


def _grid(kind, seed, t_max):
    rng = np.random.default_rng(seed)
    if kind == "scalar":
        return float(rng.uniform(0.0, t_max)), float(rng.uniform(0.0, 2.0 * math.pi))
    if kind == "uniform":  # one angle, a uniform run of times: the blocked sum
        return np.linspace(0.0, t_max, 200), np.full(200, 0.7)
    if kind == "period":  # a full period of angles at one time: the FFT sum
        return np.full(256, 0.5 * t_max), np.arange(256) * (2.0 * math.pi / 256)
    return rng.uniform(0.0, t_max, 150), rng.uniform(0.0, 2.0 * math.pi, 150)


@settings(max_examples=40, deadline=None)
@given(
    mu=st.one_of(st.just(0.0), st.floats(1.0, 300.0)),
    m_max=st.integers(40, 200),
    xi_frac=st.floats(-0.5, 0.5),
    alpha_frac=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    symmetric=st.booleans(),
    omega_d_r=st.floats(-0.9, 0.9),
    grid=st.sampled_from(("scalar", "scattered", "uniform", "period")),
    seed=st.integers(0, 2**32 - 1),
)
def test_memoized_terms_keep_every_callers_bits(mu, m_max, xi_frac, alpha_frac, theta,
                                                 symmetric, omega_d_r, grid, seed):
    ms = ModeSpace(mu=mu, r=1.0, m_max=m_max)
    xi, alpha = xi_frac * m_max, 1.0 + alpha_frac * (m_max / 24.0 - 1.0)
    state = coherent_state(ms, CoherentParams(theta, xi, alpha))
    if symmetric and xi > 3.0 * alpha:
        state = symmetric_superposition(ms, state)
    rf = RotationFrame(omega_d=omega_d_r, modespace=ms)
    dk = DetectorKernel.max_localization()
    det, det_rot = localization_matrix(dk, ms), localization_matrix(dk, ms, frame=rf)
    t, phi = _grid(grid, seed, 20.0)
    calls = {
        "amp_state": lambda s: amp_state(s, ms, t, phi),
        "pc_density": lambda s: pc_density(s, det, t, phi),
        "pc_density_rotating": lambda s: pc_density(s, det_rot, t, phi, frame=rf),
        "amp_rotating_split": lambda s: amp_rotating_split(s, rf, t, phi),
    }
    # static, then rotating, then static and rotating again on the same state
    first = {name: _bits(call(state)) for name, call in calls.items()}
    again = {name: _bits(call(state)) for name, call in calls.items()}
    assert again == first
    assert set(state._term_memo) == {(None, None), (rf, rf), (None, rf)}
    fresh = RingState(ms, coeffs=state.coeffs.copy())
    assert {name: _bits(call(fresh)) for name, call in calls.items()} == first
    assert first["amp_state"] == _bits(_unmemoized_amp(state, ms, t, phi))


def test_second_amp_state_call_builds_no_terms(monkeypatch):
    ms = ModeSpace(mu=10.0, r=1.0, m_max=300)
    state = coherent_state(ms, CoherentParams(0.3, 120.0, 8.0))
    calls = Counter()
    # omega is spied on in both modules: modes.velocity calls modes.omega
    for module, name in ((amplitudes, "_speed_weights"), (amplitudes, "omega"),
                         (modes, "omega")):
        def spy(*args, _orig=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    first = amp_state(state, ms, 2.0, 0.5)
    assert calls["_speed_weights"] == 1 and calls["omega"] >= 2
    calls.clear()
    assert amp_state(state, ms, 2.0, 0.5) == first
    assert not calls


def test_memo_arrays_are_read_only():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    state = symmetric_superposition(ms, coherent_state(ms, CoherentParams(0.0, 100.0, 6.0)))
    rf = RotationFrame(omega_d=0.1, modespace=ms)
    det_rot = localization_matrix(DetectorKernel.max_localization(), ms, frame=rf)
    amp_state(state, ms, 1.0, 0.0)
    pc_density(state, det_rot, 1.0, 0.0, frame=rf)
    amp_rotating_split(state, rf, 1.0, 0.0)
    memo = state._term_memo
    # amp_rotating_split reads only every term: its pruned triple is never built
    assert memo[(None, rf)][1] is None
    arrays = [arr for entry in memo.values() for part in entry if part for arr in part]
    assert len(arrays) == 3 * 5
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = arr[0]


def test_state_keeps_its_own_read_only_coefficients():
    # the memo holds terms of the coefficients: a caller's later write to
    # the array it passed must reach neither the state nor its terms
    ms = ModeSpace(mu=0.0, r=1.0, m_max=5)
    c = np.zeros(11, dtype=complex)
    c[7] = 1.0
    state = RingState(ms, coeffs=c)
    assert state.coeffs is not c and not state.coeffs.flags.writeable
    first = amp_state(state, ms, 1.0, 0.0)
    c[7], c[8] = 0.0, 1.0
    assert amp_state(state, ms, 1.0, 0.0) == first
    assert state.coeffs[7] == 1.0


def test_memo_keeps_a_bounded_number_of_frame_pairs():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=200)
    state = coherent_state(ms, CoherentParams(0.0, 100.0, 6.0))
    frames = [RotationFrame(omega_d=0.01 * k, modespace=ms) for k in range(10)]
    first = _bits(amp_rotating_split(state, frames[0], 3.0, 0.2))
    for rf in frames[1:]:
        amp_rotating_split(state, rf, 3.0, 0.2)
        assert len(state._term_memo) <= amplitudes._TERM_MEMO_PAIRS
    assert (None, frames[0]) not in state._term_memo  # built again below
    assert _bits(amp_rotating_split(state, frames[0], 3.0, 0.2)) == first


@pytest.mark.parametrize("omega_d", [None, 0.2])
@pytest.mark.parametrize("mu", [0.0, 40.0])
def test_chiral_detector_drops_off_support_coefficients_without_a_new_state(
        monkeypatch, omega_d, mu):
    # a 1e-8 coefficient at m < 0 (occupation 1e-16) passes require_support
    # and lies off a chiral detector's support, where L = 0
    ms = ModeSpace(mu=mu, r=1.0, m_max=300)
    m = ms.modes()
    c = np.where(m > 0, np.exp(-((m - 150.0) ** 2) / (2 * 9.0**2) - 0.4j * m), 0.0)
    c[m == -3] = 1e-8 * (1.0 - 1.0j)
    c /= np.linalg.norm(c)
    state = RingState(ms, coeffs=c)
    rf = None if omega_d is None else RotationFrame(omega_d=omega_d, modespace=ms)
    det = localization_matrix(DetectorKernel.max_localization(chiral=True), ms, frame=rf)
    assert np.any(state.coeffs[~det.on_support])
    t, phi = np.linspace(0.0, 15.0, 300), np.full(300, 1.1)

    # the density of the state restricted to the support, summed as the
    # restriction to a new RingState summed it
    kept = np.where(det.on_support, c, 0.0)
    if rf is None:
        want = _density(ms, _unmemoized_amp(RingState(ms, coeffs=kept), ms, t, phi))
    else:
        want = _density(ms, _mode_sum(kept * _speed_weights(ms, m, rf), m.astype(float),
                                      rotating_omega(rf, m), t, phi))

    built = Counter()
    post_init = states.RingState.__post_init__

    def counting(self):
        built["RingState"] += 1
        post_init(self)

    monkeypatch.setattr(states.RingState, "__post_init__", counting)
    got = pc_density(state, det, t, phi, frame=rf)
    assert not built
    assert got.tobytes() == want.tobytes()
    assert _bits(pc_density(state, det, t, phi, frame=rf)) == _bits(got)
