import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import (
    DetectorKernel,
    ModeSpace,
    RotationFrame,
    absorption,
    kernel_eval,
    localization_matrix,
    omega,
    wigner_weyl,
)
from ringtoa import lattice
from ringtoa.detector import kernel_from_spec
from ringtoa.modes import rotating_omega
from ringtoa.errors import DomainError, SupportError, UnphysicalKernelError


MS = ModeSpace(mu=1.0, r=1.0, m_max=30)


def test_kernel_eval_flat_on_support():
    dk = DetectorKernel.max_localization(A=1.0)
    assert kernel_eval(dk, 5.0, 3, r=1.0) == 1.0
    assert kernel_eval(dk, 5.0, 5, r=1.0) == 1.0  # boundary |m|/r = omega included


def test_kernel_eval_negative_energy_is_zero():
    dk = DetectorKernel.max_localization(A=1.0)
    assert kernel_eval(dk, -1.0, 0, r=1.0) == 0.0


def test_kernel_eval_spacelike_is_zero():
    dk = DetectorKernel.max_localization(A=2.0, gamma0=0.1)
    assert kernel_eval(dk, 1.0, 4, r=1.0) == 0.0
    assert kernel_eval(dk, 1.0, 4, r=8.0) > 0.0  # |m|/r = 0.5 < 1


def test_kernel_eval_ring_exponential_on_shell():
    # e^{-a m} theta(m) at mu=0 on shell
    dk = DetectorKernel.ring_exponential(a=1.0)
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    w2 = omega(ms, 2)
    assert kernel_eval(dk, w2, 2, r=1.0) == pytest.approx(math.exp(-2.0), rel=1e-15)
    assert kernel_eval(dk, w2, -2, r=1.0) == 0.0
    assert kernel_eval(dk, 0.0, 0, r=1.0) == 0.0


def test_kernel_raw_skips_support_cone():
    dk = DetectorKernel.ring_exponential(a=1.0)
    # rotating argument below the cone: raw keeps the exponential
    assert dk.raw_value(1.0, 2, r=1.0) == pytest.approx(math.exp(-1.0))
    assert kernel_eval(dk, 1.0, 2, r=1.0) == 0.0


def test_localization_max_family_is_exactly_one():
    for gamma0 in (0.0, 0.3, 2.0):
        dk = DetectorKernel.max_localization(gamma0=gamma0)
        L = localization_matrix(dk, MS)
        assert L.is_max_localization
        assert np.all(L.matrix == 1.0)


def test_localization_chiral_gamma1_family():
    # gamma1 > 0 restricted to m > 0: exactly 1 on the supported block
    dk = DetectorKernel.max_localization(gamma0=0.1, gamma1=0.7, chiral=True)
    L = localization_matrix(dk, MS)
    sup = L.on_support
    assert np.array_equal(sup, MS.modes() > 0)
    assert np.all(L.matrix[np.ix_(sup, sup)] == 1.0)
    assert np.all(L.matrix[~sup, :] == 0.0)


def test_localization_gamma1_full_lattice_rejected():
    # mixed-sign pairs give ratio > 1: unphysical, must be rejected
    dk = DetectorKernel.max_localization(gamma1=0.5)
    with pytest.raises(UnphysicalKernelError):
        localization_matrix(dk, MS)


def test_localization_diagonal_is_one_for_custom_kernel():
    grid_w = np.linspace(0.0, 40.0, 81)
    grid_m = np.linspace(-31.0, 31.0, 63)
    vals = np.exp(-0.05 * grid_w)[:, None] * np.ones(63)[None, :]
    dk = DetectorKernel.tabulated(grid_w, grid_m, vals)
    L = localization_matrix(dk, MS)
    sup = L.on_support
    assert np.all(np.diag(L.matrix)[sup] == 1.0)
    assert np.all(L.matrix[np.ix_(sup, sup)] <= 1.0 + 1e-12)


def test_localization_gaussian_counterexample_rejected():
    # R = e^{-omega^2} gives L = e^{(w-w')^2/4} > 1: positivity violation
    grid_w = np.linspace(0.0, 40.0, 401)
    grid_m = np.linspace(-31.0, 31.0, 63)
    vals = np.exp(-(grid_w**2))[:, None] * np.ones(63)[None, :]
    dk = DetectorKernel.tabulated(grid_w, grid_m, vals)
    with pytest.raises(UnphysicalKernelError):
        localization_matrix(dk, MS)


def _reference_custom(dk, ms, frame=None):
    """A tabulated kernel's midpoint-ratio matrix in one unchunked n x n pass.

    Returns (L, on_support), or the message of the UnphysicalKernelError.
    """
    m = ms.modes().astype(float)
    energies = omega(ms, m) if frame is None else rotating_omega(frame, m)
    logs = dk.log_raw(energies, m)
    floor = 0.25 * DetectorKernel._LOG_FLOOR
    sup = logs > floor
    if frame is None:
        sup &= (energies >= 0) & (np.abs(m) / ms.r <= energies * (1.0 + 1e-12))
    log_mid = dk.log_raw(0.5 * (energies[:, None] + energies[None, :]),
                         0.5 * (m[:, None] + m[None, :]))
    expo = log_mid - 0.5 * (logs[:, None] + logs[None, :])
    pair = sup[:, None] & sup[None, :]
    with np.errstate(over="ignore"):
        L = np.where(pair & (expo > floor), np.exp(np.where(pair, expo, 0.0)), 0.0)
    np.fill_diagonal(L, np.where(sup, 1.0, 0.0))
    worst = float(L.max(initial=0.0))
    if worst > 1.0 + 1e-12:
        return f"localization matrix exceeds 1 (max {worst!r})"
    np.clip(L, 0.0, 1.0, out=L)
    return L, sup


def _custom_kernel(kappa, gap=True):
    """log R = 0.01 omega^2 + kappa m^2 on half-integer m, zero on m in [-3, -1] if gap.

    Convex in omega and bilinearly interpolated on a coarse omega grid, so
    the ratios are neither 1 nor a closed form; kappa < 0 exceeds 1.
    """
    w_grid, m_grid = np.linspace(-20.0, 60.0, 9), np.arange(-70, 71) / 2.0
    vals = np.exp(0.01 * w_grid[:, None] ** 2 + kappa * m_grid[None, :] ** 2)
    if gap:
        vals[:, (m_grid >= -3.0) & (m_grid <= -1.0)] = 0.0
    return DetectorKernel.tabulated(w_grid, m_grid, vals)


@pytest.mark.parametrize("blocks", ["one", "two", "rows"])
@pytest.mark.parametrize("omega_d", [None, 0.3])
@pytest.mark.parametrize("kappa", [0.003, -0.002])
def test_custom_localization_matches_unchunked_formula(monkeypatch, blocks, omega_d, kappa):
    # row blocks on one triangle, mirrored: the same bits as the n x n pass
    ms = MS
    n = 2 * ms.m_max + 1
    rows = {"one": n, "two": (n + 1) // 2, "rows": 1}[blocks]
    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", 16 * n * rows)
    frame = None if omega_d is None else RotationFrame(omega_d=omega_d, modespace=ms)
    dk = _custom_kernel(kappa)
    want = _reference_custom(dk, ms, frame)
    if isinstance(want, str):
        with pytest.raises(UnphysicalKernelError) as err:
            localization_matrix(dk, ms, frame=frame)
        assert str(err.value).startswith(want + ":")
        return
    got = localization_matrix(dk, ms, frame=frame)
    np.testing.assert_array_equal(got.matrix, want[0], strict=True)
    np.testing.assert_array_equal(got.on_support, want[1], strict=True)
    assert 0.0 < want[0][want[0] < 1.0].max() and not want[1].all()


@settings(max_examples=60, deadline=None)
@given(
    n_w=st.integers(2, 9),
    n_m=st.integers(2, 12),
    zero_frac=st.sampled_from([0.0, 0.2]),
    seed=st.integers(0, 2**32 - 1),
)
def test_log_raw_is_scipys_bilinear_interpolant(n_w, n_m, zero_frac, seed):
    # scipy's RegularGridInterpolator, as tabulated kernels used it, on
    # uneven grids: on and between the nodes, next to zero cells, and off
    # the table on every side (the fill _LOG_FLOOR there, exactly)
    from scipy.interpolate import RegularGridInterpolator

    rng = np.random.default_rng(seed)
    w_grid = np.cumsum(rng.uniform(0.1, 5.0, n_w))
    m_grid = np.cumsum(rng.uniform(0.5, 3.0, n_m)) - 10.0
    vals = np.exp(rng.normal(scale=3.0, size=(n_w, n_m)))
    vals[rng.uniform(size=vals.shape) < zero_frac] = 0.0
    dk = DetectorKernel.tabulated(w_grid, m_grid, vals)
    logs = dk.params["logs"]
    floor = DetectorKernel._LOG_FLOOR
    want = RegularGridInterpolator((w_grid, m_grid), logs, bounds_error=False, fill_value=floor)

    ww, mm = np.meshgrid(w_grid, m_grid, indexing="ij")
    assert np.array_equal(dk.log_raw(ww, mm), logs)  # on the nodes, exactly
    pad_w, pad_m = np.ptp(w_grid) + 1.0, np.ptp(m_grid) + 1.0
    w = rng.uniform(w_grid[0] - pad_w, w_grid[-1] + pad_w, 400)
    m = rng.uniform(m_grid[0] - pad_m, m_grid[-1] + pad_m, 400)
    w[:50], m[50:100] = rng.choice(w_grid, 50), rng.choice(m_grid, 50)  # node lines
    got = dk.log_raw(w, m)
    ref = want(np.stack((w, m), axis=-1))
    off = (w < w_grid[0]) | (w > w_grid[-1]) | (m < m_grid[0]) | (m > m_grid[-1])
    assert off.any() and not off.all()
    assert np.all(got[off] == floor) and np.all(ref[off] == floor)
    np.testing.assert_allclose(got, ref, rtol=0, atol=8 * np.finfo(float).eps * np.max(np.abs(logs)))
    assert np.all(dk.raw_value(w, m, r=1.0)[got < 0.25 * floor] == 0.0)


def test_log_table_with_minus_infinity_is_a_zero_cell():
    # log_values=True with log 0 = -inf: a zero cell like a zero linear
    # entry, so its neighbours interpolate to finite logs and no NaN appears
    logs = np.array([[0.0, -np.inf, 0.0], [0.0, 0.0, 0.0]])
    dk = DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0, 2.0], logs, log_values=True)
    zero = DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0, 2.0], np.exp(logs))
    w, m = np.array([0.5, 0.0, 0.0, 1.0]), np.array([0.0, 1.0, 0.5, 1.5])
    got = dk.log_raw(w, m)
    assert np.array_equal(got, zero.log_raw(w, m))
    assert got[0] == 0.0 and got[1] == DetectorKernel._LOG_FLOOR
    assert np.array_equal(dk.raw_value(w, m, r=1.0), zero.raw_value(w, m, r=1.0))


@pytest.mark.parametrize("w_grid, m_grid", [([1.0], [0.0, 1.0]), ([0.0, 1.0], [2.0]),
                                            ([1.0, 0.0], [0.0, 1.0]), ([0.0, 1.0], [0.0, 0.0])])
def test_tabulated_needs_two_ascending_nodes_per_axis(w_grid, m_grid):
    with pytest.raises(DomainError, match="grid must hold at least 2 strictly ascending"):
        DetectorKernel.tabulated(w_grid, m_grid, np.ones((len(w_grid), len(m_grid))))


def test_custom_localization_traced_peak_is_the_matrix_and_a_block():
    # m_max 1000: the unchunked pass held about 10 n x n temporaries (328 MB
    # for a 32 MB matrix); the row blocks hold about 16 entries of temporaries
    # per entry of a block of _CHUNK_BUDGET / 16 entries
    ms = ModeSpace(mu=50.0, r=1.0, m_max=1000)
    w_grid, m_grid = np.array([49.0, math.hypot(50.0, 1000.0) + 1.0]), np.arange(-2000, 2001) / 2
    dk = DetectorKernel.tabulated(w_grid, m_grid, -0.05 * w_grid[:, None]
                                  + 0.002 * m_grid[None, :] ** 2, log_values=True)
    L, peak = _traced_peak(lambda: localization_matrix(dk, ms))
    assert L.on_support.all()
    assert peak <= 1.25 * L.matrix.nbytes + 8 * lattice._CHUNK_BUDGET


def test_rotating_localization_max_family_stays_one():
    # "a maximum-localization detector remains so in presence of rotation"
    rf = RotationFrame(omega_d=0.6, modespace=MS)
    for dk in (
        DetectorKernel.max_localization(gamma0=1.3),
        DetectorKernel.max_localization(gamma0=0.2, gamma1=0.4, chiral=True),
        DetectorKernel.ring_exponential(a=0.8),
    ):
        L = localization_matrix(dk, MS, frame=rf)
        sup = L.on_support
        assert np.all(L.matrix[np.ix_(sup, sup)] == 1.0)


def test_absorption_flat_kernel():
    dk = DetectorKernel.max_localization()
    prof = absorption(dk, MS)
    m = MS.modes()
    safe = np.where(m == 0, 1, np.abs(m)).astype(float)
    expected = np.where(m == 0, 0.0, 1.0 / (2.0 * safe))
    np.testing.assert_allclose(prof.values, expected, rtol=1e-15)
    assert prof.at(0) == 0.0


def test_absorption_ring_exponential():
    ms = ModeSpace(mu=0.0, r=1.0, m_max=10)
    dk = DetectorKernel.ring_exponential(a=1.0)
    prof = absorption(dk, ms)
    assert prof.at(3) == pytest.approx(math.exp(-3.0) / 6.0, rel=1e-14)
    assert prof.at(-3) == 0.0  # theta(m) one-sided kernel


def test_wigner_weyl_marginal_is_one_at_integer_p():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=120)
    L = localization_matrix(DetectorKernel.max_localization(gamma0=0.4), ms)
    n_theta = 512
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    p_grid = np.array([-7.0, 0.0, 3.0, 11.0])
    field = wigner_weyl(L, theta, p_grid)
    marg = field.values.sum(axis=1) * (2.0 * math.pi / n_theta)
    np.testing.assert_allclose(marg, 1.0, atol=1e-8)
    np.testing.assert_allclose(field.marginal_truncation, 0.0, atol=1e-12)


def test_wigner_weyl_marginal_truncation_accounting():
    # at any p, marginal + reported truncation deficit = 1 exactly
    ms = ModeSpace(mu=1.0, r=1.0, m_max=90)
    L = localization_matrix(DetectorKernel.max_localization(), ms)
    n_theta = 512
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    p_grid = np.array([-2.5, 0.37, 7.5, 12.123])
    field = wigner_weyl(L, theta, p_grid)
    marg = field.values.sum(axis=1) * (2.0 * math.pi / n_theta)
    np.testing.assert_allclose(marg + field.marginal_truncation, 1.0, atol=1e-12)


def test_wigner_weyl_diagonal_kernel_theta_independent():
    ms = ModeSpace(mu=1.0, r=1.0, m_max=25)
    L = localization_matrix(DetectorKernel.max_localization(gamma0=0.2), ms)
    diag_only = L.matrix * np.eye(L.matrix.shape[0])
    from ringtoa.detector import LocalizationMatrix

    Ld = LocalizationMatrix(ms, diag_only, L.on_support)
    theta = np.linspace(0.0, 2.0 * math.pi, 64, endpoint=False)
    field = wigner_weyl(Ld, theta, np.array([0.0, 1.3]))
    spread = np.ptp(field.values, axis=1)
    np.testing.assert_allclose(spread, 0.0, atol=1e-14)


def test_wigner_weyl_max_localization_width_shrinks_like_inverse_m_max():
    theta = np.linspace(-math.pi, math.pi, 4096, endpoint=False)
    widths = {}
    for m_max in (100, 200):
        ms = ModeSpace(mu=1.0, r=1.0, m_max=m_max)
        L = localization_matrix(DetectorKernel.max_localization(), ms)
        field = wigner_weyl(L, theta, np.array([0.0]))
        row = field.values[0]
        half = row.max() / 2.0
        above = np.abs(theta[row > half])
        widths[m_max] = 2.0 * above.max()
        assert widths[m_max] < 2.0 * math.pi / m_max
    ratio = widths[100] / widths[200]
    assert ratio == pytest.approx(2.0, rel=0.25)


def test_wigner_weyl_positive_for_summable_localization():
    # log R = +c m^2 gives L = e^{-c(m-m')^2/4}: positive definite and
    # summable, so the truncated transform has a positive floor; the bands
    # are supplied as a log-valued table (linear values would overflow)
    ms = ModeSpace(mu=1.0, r=1.0, m_max=150)
    m_grid = np.linspace(-151.0, 151.0, 605)
    w_grid = np.linspace(0.0, 200.0, 2)
    c = 2.0
    logs = np.zeros(2)[:, None] + (c * m_grid**2)[None, :]
    dk = DetectorKernel.tabulated(w_grid, m_grid, logs, log_values=True)
    L = localization_matrix(dk, ms)
    off = np.abs(np.diagonal(L.matrix, offset=1) - math.exp(-c / 4.0))
    assert off.max() < 1e-10
    theta = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
    field = wigner_weyl(L, theta, np.array([0.0, 0.5, 3.0, 17.25]))
    assert field.values.min() > -1e-8


def test_kernel_from_spec_roundtrip():
    dk = kernel_from_spec({"family": "ring-exponential", "a": 2.0})
    assert dk.params["a"] == 2.0
    dk2 = kernel_from_spec(
        {"family": "max-localization", "gamma0": 0.5, "chiral": True}
    )
    assert dk2.params["chiral"] is True
    table = [[w, m, math.exp(-w)] for w in (0.0, 1.0, 2.0) for m in (-1.0, 0.0, 1.0)]
    dk3 = kernel_from_spec({"family": "custom", "table": table})
    assert dk3.family == "custom"
    with pytest.raises(DomainError):
        kernel_from_spec({"family": "nope"})


@pytest.mark.parametrize("spec, key", [
    ({"family": "ring-exponential"}, "'a'"),
    ({"family": "ring-exponential", "A": 2.0}, "'a'"),
    ({"family": "custom"}, "'table'"),
])
def test_kernel_from_spec_names_a_missing_key(spec, key):
    with pytest.raises(DomainError, match=key):
        kernel_from_spec(spec)


@pytest.mark.parametrize("spec, key", [
    ({"family": "max-localization", "gama1": 0.5}, "gama1"),
    ({"family": "ring-exponential", "a": 1.0, "chiral": True}, "chiral"),
    ({"family": "custom", "table": [[0, 0, 1]], "log_values": True}, "log_values"),
])
def test_kernel_from_spec_rejects_an_undeclared_key(spec, key):
    # a misspelt or foreign key had been dropped, building another detector
    with pytest.raises(DomainError, match=f"has no '{key}' field"):
        kernel_from_spec(spec)


@pytest.mark.parametrize("spec, key", [
    ({"family": "ring-exponential", "a": "x"}, "a"),
    ({"family": "ring-exponential", "a": 1.0, "A": None}, "A"),
    ({"family": "max-localization", "chiral": "false"}, "chiral"),
    ({"family": "custom", "table": "abc"}, "table"),
    ({"family": "custom", "table": [[0, 0, 1], [1, 0]]}, "table"),
])
def test_kernel_from_spec_names_a_malformed_value(spec, key):
    with pytest.raises(DomainError, match=f"kernel spec: bad '{key}' field"):
        kernel_from_spec(spec)


def test_kernel_from_spec_defaults_are_the_constructors():
    # only the keys given are passed, and a constructor's DomainError passes through
    assert kernel_from_spec({"family": "max-localization"}) == DetectorKernel.max_localization()
    assert (kernel_from_spec({"family": "ring-exponential", "a": 2.0})
            == DetectorKernel.ring_exponential(2.0))
    with pytest.raises(DomainError, match="need A > 0"):
        kernel_from_spec({"family": "max-localization", "gamma1": -1.0})


def test_kernel_from_spec_rejects_repeated_table_points():
    # (0, 0) twice and (0, 1) missing: as many rows as the 2 x 2 grid has points
    with pytest.raises(DomainError, match="each point once"):
        kernel_from_spec({"family": "custom",
                          "table": [[0, 0, 1], [0, 0, 2], [1, 0, 1], [1, 1, 1]]})


def test_kernel_spec_validation():
    with pytest.raises(DomainError):
        DetectorKernel.ring_exponential(a=-1.0)
    with pytest.raises(DomainError):
        DetectorKernel.max_localization(A=0.0)


@pytest.mark.parametrize("dk", [
    DetectorKernel.max_localization(),
    DetectorKernel.max_localization(gamma1=0.7, chiral=True),
    DetectorKernel.ring_exponential(a=0.8),
], ids=["max", "max-chiral", "ring-exp"])
def test_kernel_support_is_the_matrix_support(dk):
    # the matrix build's mask is the family's support
    L = localization_matrix(dk, MS)
    np.testing.assert_array_equal(_analytic_support(dk, MS), L.on_support)
    occ = np.zeros(2 * MS.m_max + 1)
    occ[MS.m_max - 2] = 1.0  # mode m = -2
    if L.on_support.all():
        L.require_support(occ)
    else:
        with pytest.raises(SupportError):
            L.require_support(occ)


# -- analytic families against the elementwise midpoint ratio ---------------


def _analytic_support(dk, ms):
    """Support of an analytic family: m > 0 for the chiral and one-sided
    kernels, the full lattice otherwise."""
    m = ms.modes()
    if dk.family == "ring-exponential" or dk.params["chiral"]:
        return m > 0
    return np.ones(m.size, dtype=bool)


def _reference_analytic(dk, ms):
    """The midpoint-ratio matrix of an analytic family, entry by entry.

    The gap formula ratio = exp(-gamma1 (|m+m'|/2 - (|m|+|m'|)/2)/r) on
    support (ring-exponential: 1), its diagonal, the upper check and the clip:
    returns (L, on_support), or the message of the UnphysicalKernelError.
    """
    m = ms.modes().astype(float)
    sup = _analytic_support(dk, ms)
    if dk.family == "max-localization":
        gap = np.abs(0.5 * (m[:, None] + m[None, :])) - 0.5 * (
            np.abs(m)[:, None] + np.abs(m)[None, :]
        )
        with np.errstate(over="ignore"):
            L = np.where(sup[:, None] & sup[None, :],
                         np.exp(-(dk.params["gamma1"] / ms.r) * gap), 0.0)
    else:
        L = np.where(sup[:, None] & sup[None, :], 1.0, 0.0)
    np.fill_diagonal(L, np.where(sup, 1.0, 0.0))
    worst = float(L.max(initial=0.0))
    if worst > 1.0 + 1e-12:
        return f"localization matrix exceeds 1 (max {worst!r})"
    np.clip(L, 0.0, 1.0, out=L)
    return L, sup


def _assert_matches_reference(dk, ms, frame=None):
    want = _reference_analytic(dk, ms)
    if isinstance(want, str):
        with np.errstate(over="ignore"), pytest.raises(UnphysicalKernelError) as err:
            localization_matrix(dk, ms, frame=frame)
        assert str(err.value).startswith(want + ":")
        return
    got = localization_matrix(dk, ms, frame=frame)
    np.testing.assert_array_equal(got.matrix, want[0], strict=True)
    np.testing.assert_array_equal(got.on_support, want[1], strict=True)
    assert got.frame == frame
    # accepted analytic matrices are exactly the support indicator
    np.testing.assert_array_equal(got.matrix, np.outer(want[1], want[1]).astype(float))


@pytest.mark.parametrize("m_max", [1, 2, 9, 400])
@pytest.mark.parametrize("r", [1.0, 2.5])
@pytest.mark.parametrize("dk", [
    DetectorKernel.max_localization(),
    DetectorKernel.max_localization(gamma0=0.7),
    DetectorKernel.max_localization(gamma0=0.2, gamma1=0.5),
    DetectorKernel.max_localization(gamma1=3.0),  # max overflows to inf at m_max 400
    DetectorKernel.max_localization(gamma1=1e-16),  # tiny: passes the check
    DetectorKernel.max_localization(gamma1=1e-14),  # passes below m_max 100 r
    DetectorKernel.max_localization(gamma0=0.4, gamma1=0.9, chiral=True),
    DetectorKernel.max_localization(gamma1=1e-16, chiral=True),
    DetectorKernel.ring_exponential(a=0.8),
    DetectorKernel.ring_exponential(a=2.0, A=3.0),
], ids=["flat", "gamma0", "gamma1", "gamma1-huge", "gamma1-tiny", "gamma1-small",
        "chiral", "chiral-tiny", "ring-exp", "ring-exp-A"])
@pytest.mark.parametrize("omega_d", [None, 0.3])
def test_analytic_localization_matches_midpoint_ratio(dk, m_max, r, omega_d):
    ms = ModeSpace(mu=1.5, r=r, m_max=m_max)
    frame = None if omega_d is None else RotationFrame(omega_d=omega_d / r, modespace=ms)
    _assert_matches_reference(dk, ms, frame)


@settings(max_examples=150, deadline=None)
@given(log_gamma1=st.floats(-17.0, 1.0), m_max=st.integers(1, 60),
       r=st.floats(0.3, 4.0), chiral=st.booleans())
def test_analytic_localization_raise_threshold_matches(log_gamma1, m_max, r, chiral):
    # raise condition and reported maximum near the 1 + 1e-12 threshold
    dk = DetectorKernel.max_localization(gamma1=10.0**log_gamma1, chiral=chiral)
    _assert_matches_reference(dk, ModeSpace(mu=0.0, r=r, m_max=m_max))


def _traced_peak(fn):
    import tracemalloc

    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_analytic_localization_traced_peak_is_the_matrix():
    # full support stores no n x n array (a view's nbytes still reads n^2 8);
    # a tail support's build is its one dense matrix
    ms = ModeSpace(mu=1.0, r=1.0, m_max=1000)
    n = 2 * ms.m_max + 1
    _, peak = _traced_peak(lambda: localization_matrix(DetectorKernel.max_localization(), ms))
    assert peak < 64 * n
    L, peak = _traced_peak(
        lambda: localization_matrix(DetectorKernel.max_localization(chiral=True), ms))
    assert peak <= 1.25 * L.matrix.nbytes


def test_max_localization_density_traced_peak_at_m_max_2000():
    # the fig-probcoh lattice: matrix plus density over 4096 scattered points
    # stay well under the 128 MB a dense matrix would take
    from ringtoa import CoherentParams, coherent_state, pc_density

    ms = ModeSpace(mu=1000.0, r=1.0, m_max=2000)
    state = coherent_state(ms, CoherentParams(theta=0.0, xi=1000.0, alpha=10.0))
    rng = np.random.default_rng(7)
    t, phi = rng.uniform(0.0, 3.0, 4096), rng.uniform(0.0, 2.0 * math.pi, 4096)

    def run():
        L = localization_matrix(DetectorKernel.max_localization(), ms)
        return pc_density(state, L, t, phi)

    dens, peak = _traced_peak(run)
    assert dens.shape == (4096,) and peak < 32 * 2**20


# -- the full-support matrix is a read-only broadcast view ------------------


@pytest.mark.parametrize("omega_d", [None, 0.3])
def test_full_support_matrix_is_a_read_only_view(omega_d):
    frame = None if omega_d is None else RotationFrame(omega_d=omega_d, modespace=MS)
    L = localization_matrix(DetectorKernel.max_localization(gamma0=0.5), MS, frame=frame)
    assert L.matrix.strides == (0, 0) and not L.matrix.flags.writeable
    assert L.matrix.shape == (2 * MS.m_max + 1,) * 2 and L.matrix.dtype == np.float64
    with pytest.raises(ValueError):
        L.matrix[0, 0] = 0.5
    dense = np.array(L.matrix)
    assert dense.flags.writeable and np.all(dense == 1.0)
    # tail supports stay dense
    chiral = localization_matrix(DetectorKernel.max_localization(chiral=True), MS, frame=frame)
    assert chiral.matrix.flags.writeable and chiral.matrix.strides != (0, 0)


def _dense_copy(L):
    from ringtoa.detector import LocalizationMatrix

    return LocalizationMatrix(L.modespace, np.array(L.matrix), L.on_support, frame=L.frame)


@pytest.mark.parametrize("omega_d", [None, 0.2])
@pytest.mark.parametrize("mixed", [False, True], ids=["pure", "mixed"])
def test_view_densities_equal_dense_ones_bitwise(omega_d, mixed):
    # pure states take the factorized paths, mixed ones the double sum
    from ringtoa import CoherentParams, RingState, coherent_state, pc_density

    ms = ModeSpace(mu=0.0 if omega_d else 2.0, r=1.0, m_max=60)
    frame = None if omega_d is None else RotationFrame(omega_d=omega_d, modespace=ms)
    states = [coherent_state(ms, CoherentParams(theta=th, xi=xi, alpha=4.0))
              for th, xi in ((0.3, 25.0), (2.0, -18.0))]
    state = states[0]
    if mixed:
        state = RingState(ms, rho=0.7 * states[0].density_matrix()
                          + 0.3 * states[1].density_matrix())
    L = localization_matrix(DetectorKernel.max_localization(), ms, frame=frame)
    dense = _dense_copy(L)
    assert dense.is_max_localization and L.is_max_localization
    rng = np.random.default_rng(3)
    t, phi = rng.uniform(0.0, 8.0, 57), rng.uniform(0.0, 2.0 * math.pi, 57)
    want = pc_density(state, dense, t, phi, frame=frame)
    np.testing.assert_array_equal(pc_density(state, L, t, phi, frame=frame), want, strict=True)


def test_view_wigner_weyl_equals_dense_bitwise():
    L = localization_matrix(DetectorKernel.max_localization(), ModeSpace(mu=1.0, r=1.0, m_max=12))
    theta, p = np.linspace(-math.pi, math.pi, 9), np.linspace(-14.0, 14.0, 23)
    got, want = wigner_weyl(L, theta, p), wigner_weyl(_dense_copy(L), theta, p)
    np.testing.assert_array_equal(got.values, want.values, strict=True)
    np.testing.assert_array_equal(got.marginal_truncation, want.marginal_truncation,
                                  strict=True)


# -- the maximum-localization flag on hand-built matrices -------------------


def _flag_reference(L):
    sup = L.on_support
    block = L.matrix[np.ix_(sup, sup)]
    return bool(block.size) and bool(np.all(block == 1.0))


def _hand_built(n_max=5, support=(-4, -3, -1, 2, 3, 5)):
    ms = ModeSpace(mu=1.0, r=1.0, m_max=n_max)
    sup = np.isin(ms.modes(), support)
    mat = np.full((sup.size, sup.size), 0.25)
    mat[np.ix_(sup, sup)] = 1.0
    return ms, sup, mat


def test_is_max_localization_non_contiguous_support():
    from ringtoa.detector import LocalizationMatrix

    ms, sup, mat = _hand_built()
    assert LocalizationMatrix(ms, mat, sup).is_max_localization
    # entries off the support are ignored, whatever they hold
    mat[~sup, :] = 1.0
    mat[0, 1] = 7.0
    assert LocalizationMatrix(ms, mat, sup).is_max_localization
    assert not LocalizationMatrix(ms, mat, np.zeros_like(sup)).is_max_localization


@pytest.mark.parametrize("budget", [1, 3, 7, 13, 10**9])
def test_is_max_localization_one_ulp_below_one(monkeypatch, budget):
    # every supported entry is scanned, at every chunk edge
    from ringtoa.detector import LocalizationMatrix

    monkeypatch.setattr(lattice, "_CHUNK_BUDGET", budget)
    below = np.nextafter(1.0, 0.0)
    for support in ((-4, -3, -1, 2, 3, 5), tuple(range(-5, 6)), (1, 2, 3, 4, 5), (0,), ()):
        ms, sup, mat = _hand_built(support=support)
        # an empty support is not maximum localization
        assert LocalizationMatrix(ms, mat, sup).is_max_localization == bool(sup.any())
        for i, j in np.argwhere(np.ones_like(mat, dtype=bool)):
            bad = mat.copy()
            bad[i, j] = below
            L = LocalizationMatrix(ms, bad, sup)
            expect = bool(sup.any()) and not (sup[i] and sup[j])
            assert L.is_max_localization == _flag_reference(L) == expect


_ENTRY = st.sampled_from([1.0, float(np.nextafter(1.0, 0.0)), 0.0])


@st.composite
def _broadcast_matrices(draw):
    # broadcasts of one value (strides (0, 0)), of one row (0, 8) or of one
    # column (8, 0); only the first may be answered without a scan
    m_max = draw(st.integers(1, 5))
    n = 2 * m_max + 1
    support = draw(st.one_of(st.just([True] * n), st.just([False] * n),
                             st.lists(st.booleans(), min_size=n, max_size=n)))
    shape = draw(st.sampled_from(["value", "row", "column"]))
    if shape == "value":
        mat = np.broadcast_to(np.float64(draw(_ENTRY)), (n, n))
    else:
        line = np.array(draw(st.lists(_ENTRY, min_size=n, max_size=n)))
        mat = np.broadcast_to(line if shape == "row" else line[:, None], (n, n))
    return ModeSpace(mu=1.0, r=1.0, m_max=m_max), mat, np.array(support)


@settings(max_examples=300, deadline=None)
@given(case=_broadcast_matrices(), budget=st.sampled_from([1, 4, 10**9]))
def test_is_max_localization_on_broadcast_matrices(case, budget):
    from ringtoa.detector import LocalizationMatrix

    ms, mat, sup = case
    saved = lattice._CHUNK_BUDGET
    lattice._CHUNK_BUDGET = budget
    try:
        L = LocalizationMatrix(ms, mat, sup)
        assert L.is_max_localization == _flag_reference(L)
    finally:
        lattice._CHUNK_BUDGET = saved
