import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    ModeSpace,
    clock_quality,
    coherent_state,
    cumulative,
    extract_ticks,
    from_modes,
    localization_matrix,
    pc_density,
    timescales,
    velocity,
)
from ringtoa.clock import _prominent_peaks
from ringtoa.errors import TickError

REPO = Path(__file__).resolve().parent.parent


def massless_density(n_periods=6, alpha=10.0, xi=1000.0, phi=math.pi):
    # grid ends halfway between returns so every peak window is interior
    ms = ModeSpace(mu=0.0, r=1.0, m_max=int(xi + 12 * alpha))
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=xi, alpha=alpha))
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    sigma_t = ms.r / (math.sqrt(2.0) * alpha)
    dt = sigma_t / 6.0
    t = np.arange(0.0, (n_periods - 0.5) * 2.0 * math.pi + phi, dt)
    return t, pc_density(st, det, t, phi), ms


def test_cumulative_monotone_and_zero_start():
    t, dens, _ = massless_density(n_periods=3)
    w = cumulative(t, dens)
    assert w[0] == 0.0
    assert np.all(np.diff(w) >= 0.0)


def test_massless_staircase_steps():
    t, dens, ms = massless_density(n_periods=6)
    w = cumulative(t, dens)
    ticks = extract_ticks(t, dens)
    # spacing 2 pi r within one grid step
    spacings = np.diff(ticks.times)
    assert np.all(np.abs(spacings - 2.0 * math.pi) < ticks.grid_step)
    # equal step heights within 1%
    heights = ticks.weights
    assert np.max(np.abs(heights / heights.mean() - 1.0)) < 0.01
    # between ticks, W is flat: rise over the middle 40% of each gap < 1% step
    for lo, hi in zip(ticks.times[:-1], ticks.times[1:]):
        i0 = np.searchsorted(t, lo + 0.3 * (hi - lo))
        i1 = np.searchsorted(t, lo + 0.7 * (hi - lo))
        assert w[i1] - w[i0] < 0.01 * heights.mean()


def test_single_mode_gives_linear_cumulative():
    ms = ModeSpace(mu=2.0, r=1.0, m_max=8)
    st = from_modes(ms, {4: 1.0})
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    t = np.linspace(0.0, 30.0, 400)
    dens = pc_density(st, det, t, 0.3)
    w = cumulative(t, dens)
    rate = velocity(ms, 4) / (2.0 * math.pi)
    np.testing.assert_allclose(w, rate * t, rtol=1e-10, atol=1e-12)


def test_extract_ticks_errors_without_peaks():
    t = np.linspace(0.0, 1.0, 100)
    with pytest.raises(TickError):
        extract_ticks(t, np.zeros_like(t))
    with pytest.raises(TickError):
        extract_ticks(t, np.ones_like(t))  # constant density has no peaks


def test_extract_ticks_rejects_non_uniform_grid():
    t, dens, _ = massless_density(n_periods=3)
    assert extract_ticks(t, dens).grid_step == pytest.approx(t[1] - t[0], rel=1e-12)
    bumped = t.copy()
    bumped[len(t) // 2] += 1e-9
    with pytest.raises(TickError, match="uniform"):
        extract_ticks(bumped, dens)
    with pytest.raises(TickError, match="uniform"):
        extract_ticks(np.sqrt(np.linspace(0.0, 1.0, 100)), np.ones(100))


def test_clock_quality_massless_ideal():
    t, dens, _ = massless_density(n_periods=8)
    ticks = extract_ticks(t, dens)
    q = clock_quality(ticks, tau_expected=2.0 * math.pi)
    assert q.spacing_jitter < ticks.grid_step
    assert abs(q.width_growth_rate) < 1e-4
    assert q.last_resolvable_index == ticks.times.size - 1


def test_clock_quality_needs_two_ticks():
    tt_t = np.array([1.0])
    from ringtoa.clock import TickTrain

    tt = TickTrain(times=tt_t, weights=np.array([1.0]), widths=np.array([0.1]),
                   grid_step=0.01)
    with pytest.raises(TickError):
        clock_quality(tt)


def test_massive_tick_spacing_and_width_growth():
    # t << T_q: spacing tau = 2 pi r^2 omega_xi / xi, widths grow like sigma(t)/v
    xi, alpha = 1000.0, 10.0
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1120)
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=xi, alpha=alpha))
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    scales = timescales(ms, xi, alpha)
    t = np.arange(0.5, 0.35 * scales.t_quantum, 0.004)
    dens = pc_density(st, det, t, math.pi)
    ticks = extract_ticks(t, dens)
    assert ticks.times.size >= 8
    spacings = np.diff(ticks.times)
    assert np.max(np.abs(spacings - scales.tick)) < 2.0 * ticks.grid_step + 1e-3

    # FWHM prediction: 2 sqrt(2 ln 2) sigma(t_n) / v_xi
    from ringtoa.states import LineState, spread_at_time

    v = velocity(ms, xi)
    line = LineState(p=xi / ms.r, sigma=ms.r / (math.sqrt(2.0) * alpha))
    predicted = np.array(
        [2.0 * math.sqrt(2.0 * math.log(2.0)) * spread_at_time(line, ms, tn) / v
         for tn in ticks.times]
    )
    np.testing.assert_allclose(ticks.widths, predicted, rtol=0.08)
    # widths must visibly grow over the scan
    assert ticks.widths[-1] > 1.5 * ticks.widths[0]


def test_quantum_regime_fills_the_gaps_between_ticks():
    # revival does not restore a definite tick count: in the quantum regime
    # a sizable fraction of the detection probability sits between the
    # nominal tick positions, unlike the semiclassical regime
    xi, alpha = 1000.0, 10.0
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1130)
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=xi, alpha=alpha))
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    scales = timescales(ms, xi, alpha)
    tau = scales.tick
    t_first = math.pi / velocity(ms, xi)

    def intertick_fraction(t0):
        t = np.arange(t0, t0 + 3.0 * tau, 0.01)
        dens = pc_density(st, det, t, math.pi)
        phase = ((t - t_first) % tau) / tau
        mid = (phase > 0.3) & (phase < 0.7)
        return float(dens[mid].sum() / dens.sum())

    assert intertick_fraction(0.2 * scales.t_quantum) < 0.01
    assert intertick_fraction(4.0 * scales.t_quantum) > 0.2


def test_massive_clock_quality_bracket():
    # scan well past T_q: the last resolvable tick lands within [0.5, 2] T_q
    xi, alpha = 1000.0, 10.0
    ms = ModeSpace(mu=1000.0, r=1.0, m_max=1120)
    st = coherent_state(ms, CoherentParams(theta=0.0, xi=xi, alpha=alpha))
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    scales = timescales(ms, xi, alpha)
    t = np.arange(0.5, 3.2 * scales.t_quantum, 0.02)
    dens = pc_density(st, det, t, math.pi)
    ticks = extract_ticks(t, dens)
    q = clock_quality(ticks, tau_expected=scales.tick)
    assert 0.5 * scales.t_quantum <= q.last_resolvable_time <= 2.0 * scales.t_quantum
    assert q.last_resolvable_index + 1 < ticks.times.size
    # past the crossing the record degrades: fewer distinct ticks than
    # circulations, and their spacing turns erratic
    assert ticks.times.size < t[-1] / scales.tick
    assert q.spacing_jitter > ticks.grid_step


# -- the numpy tick finder and trapezoid against scipy ----------------------


@st.composite
def peaky_densities(draw):
    # plateaus and equal-height ties from repeated levels, peaks next to the
    # edges from short leading and trailing runs, and a noise floor ~1e-16
    runs = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)),
                         min_size=1, max_size=40))
    x = np.repeat([float(level) for level, _ in runs], [k for _, k in runs])
    x *= draw(st.sampled_from([1.0, 0.3, 1e-16]))
    if draw(st.booleans()):
        x += np.array(draw(st.lists(st.floats(0.0, 2e-16), min_size=x.size,
                                    max_size=x.size)))
    return x


@settings(max_examples=250, deadline=None)
@given(x=peaky_densities(), frac=st.sampled_from([0.0, 1e-3, 0.05, 0.3, 1.0]))
def test_prominent_peaks_bit_equal_to_scipy(x, frac):
    from scipy.signal import find_peaks, peak_widths

    thr = frac * x.max()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # scipy warns on zero prominences and widths
        idx, props = find_peaks(x, prominence=thr)
        widths = peak_widths(x, idx, rel_height=0.5)[0]
    want = (idx, props["prominences"], props["left_bases"], props["right_bases"], widths)
    got = _prominent_peaks(x, thr)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


@settings(max_examples=200, deadline=None)
@given(t=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
       scale=st.sampled_from([1.0, 1e-16, 1e6]), seed=st.integers(0, 2**32 - 1))
def test_cumulative_bit_equal_to_scipy(t, scale, seed):
    from scipy.integrate import cumulative_trapezoid

    t = np.sort(np.array(t))
    y = np.random.default_rng(seed).random(t.size) * scale
    got, want = cumulative(t, y), cumulative_trapezoid(y, t, initial=0.0)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("config", sorted(p.name for p in (REPO / "configs").glob("*.json")))
def test_shipped_config_run_loads_no_scipy(tmp_path, config):
    # -X importtime lists every module the process imported, to its exit
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ringtoa", "run",
         str(REPO / "configs" / config), "--out", str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert "ringtoa.clock" in loaded
    assert not [name for name in loaded if name.split(".")[0] == "scipy"]
