import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from ringtoa.errors import DomainError, InvalidFrameError


def test_massless_dispersion():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    assert omega(ms, 5) == 5.0


def test_symmetric_mass_momentum_case():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1200)
    assert omega(ms, 1000) == pytest.approx(1000.0 * math.sqrt(2.0), rel=1e-15)


def test_rest_energy():
    ms = ModeSpace(mu=3.0, r=2.0, m_max=4)
    assert omega(ms, 0) == 3.0


def test_velocity_massless_speed_of_light():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    assert velocity(ms, 7) == 1.0
    assert velocity(ms, -7) == -1.0


def test_velocity_symmetric_case():
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1200)
    assert velocity(ms, 1000) == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)


def test_velocity_negative_mode_sign():
    # direct formula: -3 / sqrt(25 + 9) at mu=5, r=1
    ms = ModeSpace(mu=5.0, r=1.0, m_max=10)
    assert velocity(ms, -3) == pytest.approx(-3.0 / math.sqrt(34.0), rel=1e-14)


def test_velocity_undefined_for_massless_zero_mode():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    with pytest.raises(DomainError):
        velocity(ms, 0)


def test_rotating_omega_static_reduction():
    ms = ModeSpace(mu=2.0, r=1.5, m_max=30)
    rf = RotationFrame(omega_d=0.0, modespace=ms)
    m = ms.modes()
    np.testing.assert_allclose(rotating_omega(rf, m), omega(ms, m), rtol=0)


def test_rotating_omega_massless_linear():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    rf = RotationFrame(omega_d=0.5, modespace=ms)
    assert rotating_omega(rf, 4) == pytest.approx(2.0, abs=1e-15)


def test_rotating_omega_negative_mode():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=10)
    rf = RotationFrame(omega_d=0.9, modespace=ms)
    assert rotating_omega(rf, -2) == pytest.approx(math.sqrt(5.0) + 1.8, rel=1e-15)


def test_rotating_velocity_examples():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    rf = RotationFrame(omega_d=0.3, modespace=ms)
    assert rotating_velocity(rf, 5) == pytest.approx(0.7, rel=1e-15)

    ms2 = ModeSpace(mu=1000.0, r=1.0, m_max=1200)
    rf2 = RotationFrame(omega_d=0.1, modespace=ms2)
    assert rotating_velocity(rf2, 1000) == pytest.approx(
        1.0 / math.sqrt(2.0) - 0.1, rel=1e-14
    )


def test_frame_requires_timelike_killing_vector():
    ms = ModeSpace(mu=0.0, r=2.0, m_max=10)
    with pytest.raises(InvalidFrameError):
        RotationFrame(omega_d=0.5, modespace=ms)
    RotationFrame(omega_d=0.49, modespace=ms)  # just inside is fine


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["mu", "r"])
def test_modespace_rejects_non_finite_mass_and_radius(name, value):
    # ModeSpace(mu=nan) once passed every comparison, and amp_state gave 0j
    with pytest.raises(DomainError, match=f"{name}="):
        ModeSpace(**{"mu": 1.0, "r": 1.0, "m_max": 5, name: value})


@pytest.mark.parametrize("omega_d", [math.inf, -math.inf, math.nan])
def test_frame_rejects_non_finite_rotation_rate(omega_d):
    # a NaN rate passed the timelike check |omega_d r| >= 1
    with pytest.raises(DomainError, match="omega_d="):
        RotationFrame(omega_d=omega_d, modespace=ModeSpace(mu=0.0, r=1.0, m_max=5))


def test_modespace_invariants():
    with pytest.raises(DomainError):
        ModeSpace(mu=-1.0, r=1.0, m_max=5)
    with pytest.raises(DomainError):
        ModeSpace(mu=1.0, r=0.0, m_max=5)
    with pytest.raises(DomainError):
        ModeSpace(mu=1.0, r=1.0, m_max=0)


@settings(max_examples=60, deadline=None)
@given(
    mu=st.floats(0.0, 50.0),
    r=st.floats(0.1, 10.0),
    m=st.integers(-200, 200),
)
def test_dispersion_parity_and_lower_bound(mu, r, m):
    ms = ModeSpace(mu=mu, r=r, m_max=250)
    w = omega(ms, m)
    assert omega(ms, -m) == w
    assert w >= mu
    if m != 0:
        assert w > mu


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(1e-3, 50.0), r=st.floats(0.1, 10.0), m=st.integers(-300, 300))
def test_speed_bounded_below_light(mu, r, m):
    ms = ModeSpace(mu=mu, r=r, m_max=350)
    assert abs(velocity(ms, m)) < 1.0


def test_dispersion_strictly_increasing_in_abs_m():
    ms = ModeSpace(mu=3.0, r=0.7, m_max=500)
    w = omega(ms, np.arange(0, 501))
    assert np.all(np.diff(w) > 0)


def test_velocity_approaches_light_speed():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=100000)
    assert velocity(ms, 100000) == pytest.approx(1.0, abs=1e-9)
    assert velocity(ms, -100000) == pytest.approx(-1.0, abs=1e-9)


def test_rotating_energies_positive_on_full_sweep():
    # vacuum equivalence: omega~_m > 0 for all m != 0 while the frame is timelike
    for mu in (0.0, 0.5, 10.0):
        ms = ModeSpace(mu=mu, r=1.0, m_max=2000)
        rf = RotationFrame(omega_d=0.999, modespace=ms)
        m = ms.modes()
        m = m[m != 0]
        assert np.all(rotating_omega(rf, m) > 0)
