"""Each documented refusal of the library raises the package's error type.

One case per raise site that the rest of the suite does not reach: the
argument checks of states, detectors, amplitudes, probabilities, clocks,
rotation and two-particle analysis.  Then each scalar slot of the public
constructors and functions, and each number field of a state or kernel
spec, against values that are not finite numbers.
"""

import math

import numpy as np
import pytest

from ringtoa import (
    CoherentParams,
    DetectorKernel,
    LineState,
    ModeSpace,
    RingState,
    RotationFrame,
    TickTrain,
    TwoParticleState,
    amp_poisson,
    amp_rotating_split,
    amp_state,
    autocorrelation,
    coherent_state,
    cumulative,
    eta,
    eta_closed_form,
    from_modes,
    kolmogorov_check,
    line_to_ring,
    localization_matrix,
    mi_inequality_cs,
    mi_inequality_j,
    noise_curve,
    pc_density,
    post_select,
    sagnac_scan,
    symmetric_superposition,
    timescales,
    vacuum_noise,
)
from ringtoa.detector import _KERNEL_SPECS, kernel_from_spec
from ringtoa.emit import write_csv
from ringtoa.errors import (
    CutoffError,
    DomainError,
    SeriesError,
    StateError,
    TickError,
)
from ringtoa.lattice import _double_sum
from ringtoa.modes import as_float
from ringtoa.probability import pgamma_validation
from ringtoa.states import STATE_SPEC_KEYS, state_from_spec

MS = ModeSpace(mu=0.0, r=1.0, m_max=40)
OTHER = ModeSpace(mu=0.0, r=1.0, m_max=41)
MASSIVE = ModeSpace(mu=1.0, r=1.0, m_max=40)
COH = coherent_state(MS, CoherentParams(0.0, 10.0, 2.0))
MIXED = RingState(MS, rho=COH.density_matrix())
# on a massless ring the m = 0 mode does not move: its amplitude is 0 everywhere
STILL = from_modes(MS, {0: 1.0})
MAX_LOC = DetectorKernel.max_localization()
T2 = np.linspace(0.0, 1.0, 3)


def _growing_kernel():
    """A tabulated kernel whose value grows as e^(|m|/10): its noise tail diverges."""
    mg = np.array([-1000.0, 0.0, 1000.0])
    return DetectorKernel.tabulated([0.0, 2000.0], mg, np.tile(np.abs(mg) / 10, (2, 1)),
                                    log_values=True)


CASES = {  # name -> (error, a fragment of its message, the call)
    # amplitudes
    "amp_state mixed": (StateError, "need a pure state",
                        lambda: amp_state(MIXED, MS, 0.5, 0.0)),
    "amp_state other mode space": (StateError, "different mode space",
                                   lambda: amp_state(COH, OTHER, 0.5, 0.0)),
    "amp_rotating_split mixed": (
        StateError, "rotating split needs a pure state",
        lambda: amp_rotating_split(MIXED, RotationFrame(0.1, MS), 0.5, 0.0)),
    "amp_rotating_split other mode space": (
        StateError, "different mode space",
        lambda: amp_rotating_split(COH, RotationFrame(0.1, OTHER), 0.5, 0.0)),
    "amp_poisson backward packet": (
        StateError, "positive mean momentum",
        lambda: amp_poisson(MS, 0.5, 0.0, coherent_state(MS, CoherentParams(0.0, -10.0, 2.0)))),
    # clock
    "TickTrain unordered times": (
        TickError, "strictly increasing",
        lambda: TickTrain(np.array([1.0, 1.0]), np.ones(2), np.ones(2), 0.1)),
    "TickTrain negative weight": (
        TickError, "weights must be nonnegative",
        lambda: TickTrain(np.array([1.0, 2.0]), np.array([1.0, -1.0]), np.ones(2), 0.1)),
    "cumulative shapes": (TickError, "matching non-empty",
                          lambda: cumulative(np.arange(3.0), np.ones(4))),
    # detector
    "tabulated shape": (
        DomainError, "does not match grids",
        lambda: DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0], np.ones((3, 2)))),
    "tabulated negative": (
        DomainError, "must be nonnegative",
        lambda: DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0], [[1.0, -1.0], [1.0, 1.0]])),
    "kernel_from_spec not an object": (DomainError, "must be an object",
                                       lambda: kernel_from_spec(5)),
    "tabulated bool and string cells": (
        DomainError, "kernel table entries must be real numbers",
        lambda: DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0], [[1, True], ["1", 1]])),
    "tabulated bool array": (
        DomainError, "kernel table entries must be real numbers",
        lambda: DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0], np.ones((2, 2), dtype=bool))),
    "tabulated ragged rows": (
        DomainError, "m grid entries must be real numbers",
        lambda: DetectorKernel.tabulated([0.0, 1.0], [[0.0], [1.0, 2.0]], np.ones((2, 2)))),
    "kernel_from_spec bool table cell": (
        DomainError, "bad 'table' field",
        lambda: kernel_from_spec({"family": "custom", "table": [
            [0, 0, True], [0, 1, 1], [1, 0, 1], [1, 1, 1]]})),
    "kernel_from_spec rows of 2": (
        DomainError, "rows of",
        lambda: kernel_from_spec({"family": "custom", "table": [[1.0, 2.0]]})),
    "localization_matrix frame on other mode space": (
        DomainError, "different mode space",
        lambda: localization_matrix(MAX_LOC, MS, RotationFrame(0.1, OTHER))),
    # lattice and emit
    "double sum non-Hermitian": (
        DomainError, "non-Hermitian",
        lambda: _double_sum(np.array([[1.0, 1j], [0.0, 1.0]]), np.array([0, 1]),
                            np.array([0.0, 1.0]), 0.3, 0.2)),
    "write_csv unequal columns": (
        ValueError, "equal length",
        lambda: write_csv("unused.csv", {"a": np.ones(2), "b": np.ones(3)}, {})),
    # two particles
    "TwoParticleState unknown kind": (StateError, "unknown two-particle kind",
                                      lambda: TwoParticleState("nope", COH, COH)),
    "TwoParticleState mixed factor": (StateError, "needs pure factors",
                                      lambda: TwoParticleState("product", MIXED, COH)),
    "kolmogorov_check vanishing P1": (
        DomainError, "nonvanishing P1",
        lambda: kolmogorov_check(TwoParticleState("product", STILL, STILL), 0.0, 0.0, T2,
                                 (0.0, 2.0 * math.pi))),
    "mi_inequality_j A1 = 0": (
        DomainError, "degenerate amplitude",
        lambda: mi_inequality_j(TwoParticleState("symmetrized", STILL, COH), T2, 0.0)),
    "mi_inequality_cs degenerate diagonal": (
        DomainError, "degenerate diagonal",
        lambda: mi_inequality_cs(TwoParticleState("product", STILL, STILL), 0.5, 0.0, 1.0, 0.0)),
    # probability
    "pc_density other mode space": (
        DomainError, "different mode space",
        lambda: pc_density(COH, localization_matrix(MAX_LOC, OTHER), 0.5, 0.0)),
    "vacuum_noise frame on other mode space": (
        DomainError, "different mode space",
        lambda: vacuum_noise(MAX_LOC, MS, RotationFrame(0.1, OTHER))),
    "eta sum vanishes": (
        SeriesError, "noise sum vanishes",
        lambda: eta(DetectorKernel.tabulated([0.0, 1.0], [0.0, 1.0], np.zeros((2, 2))), MS, 0.1)),
    "eta tail grows": (SeriesError, "not decreasing",
                       lambda: eta(_growing_kernel(), MASSIVE, 0.1)),
    "timescales xi = 0": (DomainError, "xi != 0", lambda: timescales(MS, 0.0, 2.0)),
    "autocorrelation mixed": (StateError, "pure states", lambda: autocorrelation(MIXED, 0.5)),
    "pgamma_validation gamma = 0": (DomainError, "regulator width",
                                    lambda: pgamma_validation(COH, MAX_LOC, 0.0)),
    "pgamma_validation no positive support": (
        StateError, "support on positive modes",
        lambda: pgamma_validation(from_modes(MS, {-3: 1.0}), MAX_LOC, 0.1)),
    # rotation
    "eta_closed_form a <= 0": (DomainError, "decay constant",
                               lambda: eta_closed_form(-1.0, 0.1)),
    "eta_closed_form superluminal": (DomainError, "Omega_D r", lambda: eta_closed_form(1.0, 1.0)),
    "noise_curve bool grid": (
        DomainError, "omega_d_grid entries must be real numbers",
        lambda: noise_curve(DetectorKernel.ring_exponential(1.0), MS, np.array([False, True]))),
    "sagnac_scan mixed": (StateError, "pure symmetric state",
                          lambda: sagnac_scan(MIXED, RotationFrame(0.1, MS), T2)),
    # states
    "LineState unknown family": (DomainError, "unknown line-state family",
                                 lambda: LineState(1.0, 0.1, "nope")),
    "RingState neither": (StateError, "exactly one of", lambda: RingState(MS)),
    "RingState both": (
        StateError, "exactly one of",
        lambda: RingState(MS, coeffs=COH.coeffs, rho=COH.density_matrix())),
    "RingState coeffs shape": (StateError, "coeffs must have shape",
                               lambda: RingState(MS, coeffs=np.ones(3))),
    "RingState rho shape": (StateError, "rho must have shape",
                            lambda: RingState(MS, rho=np.eye(3))),
    # numpy's complex cast would read "1" and True as 1+0j
    "RingState string coeffs": (
        StateError, "coeffs entries must be numbers",
        lambda: RingState(MS, coeffs=np.where(np.arange(81) == 40, "1", "0"))),
    "RingState bool rho": (StateError, "rho entries must be numbers",
                           lambda: RingState(MS, rho=np.diag(np.arange(81) == 40))),
    "overlap mixed": (StateError, "requires pure states", lambda: MIXED.overlap(COH)),
    "from_modes outside the lattice": (CutoffError, "outside lattice",
                                       lambda: from_modes(MS, {41: 1.0})),
    "from_modes no support": (StateError, "no support", lambda: from_modes(MS, {1: 0.0})),
    "line_to_ring vanishing profile": (StateError, "vanishes on the lattice",
                                       lambda: line_to_ring(MS, LineState(1e4, 1.0))),
    "post_select shape": (StateError, "must match the lattice",
                          lambda: post_select(COH, np.ones(3))),
    "post_select negative": (StateError, "must be nonnegative",
                             lambda: post_select(COH, -np.ones(81))),
    "post_select bool weights": (StateError, "absorption weights entries must be real numbers",
                                 lambda: post_select(COH, np.ones(81, dtype=bool))),
    "post_select annihilates a mixed state": (StateError, "annihilates",
                                              lambda: post_select(MIXED, np.zeros(81))),
    "state_from_spec not an object": (StateError, "must be an object",
                                      lambda: state_from_spec(MS, 5)),
    "symmetric_superposition mixed base": (StateError, "pure base state",
                                           lambda: symmetric_superposition(MS, MIXED)),
}


# the backward packet warns of its dropped momenta before its images refuse it
@pytest.mark.filterwarnings("ignore:Poisson images drop")
@pytest.mark.parametrize("case", sorted(CASES))
def test_raise_site_raises_the_package_error(case):
    error, match, call = CASES[case]
    with pytest.raises(error, match=match):
        call()


# N11's contract for scalar slots: a value that is not a finite number is
# refused with the package's error, never a bare TypeError, ValueError or
# OverflowError, and never built into an object.  A table cell or grid node
# is held to the same rule, though numpy's float cast would take True and
# "1" as 1.0; a flag is a bool, never a string or number read by its truth.
NOT_NUMBERS = (math.nan, math.inf, -math.inf, True, "1", None)
NOT_FLAGS = ("false", "true", 0, 1, 1.0, None)
RING_EXP = DetectorKernel.ring_exponential(a=1.0)
GRID = [0.0, 1.0]
STATE_SPECS = {"coherent": {"kind": "coherent", "xi": 10.0, "alpha": 2.0},
               "gaussian-line": {"kind": "gaussian-line", "p": 10.0, "sigma": 0.5}}
KERNEL_SPECS = {"max-localization": {"family": "max-localization"},
                "ring-exponential": {"family": "ring-exponential", "a": 1.0}}


def _tabulated(cell=1.0, node=1.0, log_values=False):
    return DetectorKernel.tabulated(GRID, [0.0, node], [[1.0, cell], [1.0, 1.0]], log_values)


SLOTS = {  # name -> (error, call of the slot's value, a valid value, values refused)
    "ModeSpace mu": (DomainError, lambda v: ModeSpace(v, 1.0, 5), 0.0, NOT_NUMBERS),
    "ModeSpace r": (DomainError, lambda v: ModeSpace(0.0, v, 5), 1.0, NOT_NUMBERS),
    "ModeSpace m_max": (DomainError, lambda v: ModeSpace(0.0, 1.0, v), np.int64(5),
                        NOT_NUMBERS + (2.5, 3.0)),
    "RotationFrame omega_d": (DomainError, lambda v: RotationFrame(v, MS), 0.5, NOT_NUMBERS),
    "CoherentParams theta": (DomainError, lambda v: CoherentParams(v, 10.0, 2.0), 0.0,
                             NOT_NUMBERS),
    "CoherentParams xi": (DomainError, lambda v: CoherentParams(0.0, v, 2.0), 10.0,
                          NOT_NUMBERS),
    "CoherentParams alpha": (DomainError, lambda v: CoherentParams(0.0, 10.0, v), 2.0,
                             NOT_NUMBERS),
    "LineState p": (DomainError, lambda v: LineState(v, 0.5), 10.0, NOT_NUMBERS),
    "LineState sigma": (DomainError, lambda v: LineState(10.0, v), 0.5, NOT_NUMBERS),
    "max_localization A": (DomainError, lambda v: DetectorKernel.max_localization(A=v), 2.0,
                           NOT_NUMBERS + (10**400,)),
    "max_localization gamma0": (DomainError,
                                lambda v: DetectorKernel.max_localization(gamma0=v), 0.5,
                                NOT_NUMBERS),
    "max_localization gamma1": (DomainError,
                                lambda v: DetectorKernel.max_localization(gamma1=v), 0.5,
                                NOT_NUMBERS),
    "ring_exponential a": (DomainError, lambda v: DetectorKernel.ring_exponential(v), 1.0,
                           NOT_NUMBERS),
    "ring_exponential A": (DomainError, lambda v: DetectorKernel.ring_exponential(1.0, v),
                           2.0, NOT_NUMBERS),
    "max_localization chiral": (DomainError,
                                lambda v: DetectorKernel.max_localization(chiral=v), True,
                                NOT_FLAGS),
    "tabulated value cell": (DomainError, lambda v: _tabulated(cell=v), 0.0,
                             NOT_NUMBERS + (10**400,)),
    # log 0 = -inf is a zero cell
    "tabulated log value cell": (DomainError, lambda v: _tabulated(cell=v, log_values=True),
                                 -math.inf, (math.nan, math.inf, True, "1", None)),
    "tabulated grid node": (DomainError, lambda v: _tabulated(node=v), 2.0,
                            NOT_NUMBERS + (10**400,)),
    "tabulated log_values": (DomainError, lambda v: _tabulated(log_values=v), True, NOT_FLAGS),
    "timescales xi": (DomainError, lambda v: timescales(MASSIVE, v, 2.0), 10.0, NOT_NUMBERS),
    "timescales alpha": (DomainError, lambda v: timescales(MASSIVE, 10.0, v), 2.0,
                         NOT_NUMBERS),
    "eta_closed_form a": (DomainError, lambda v: eta_closed_form(v, 0.1), 1.0, NOT_NUMBERS),
    "eta_closed_form omega_d_r": (DomainError, lambda v: eta_closed_form(1.0, v), 0.1,
                                  NOT_NUMBERS),
    # a NaN rate once passed eta's own timelike check and walked the cutoff
    # to 1.6e6 modes before a SeriesError
    "eta omega_d": (DomainError, lambda v: eta(RING_EXP, MS, v), 0.1, NOT_NUMBERS),
    "noise_curve grid entry": (DomainError, lambda v: noise_curve(RING_EXP, MS, [0.1, v]),
                               0.2, NOT_NUMBERS),
    "state_from_spec mode-list amplitude": (
        StateError, lambda v: state_from_spec(MS, {"kind": "mode-list", "modes": {"3": v}}),
        1.0, NOT_NUMBERS),
    "state_from_spec mode-list amplitude re": (
        StateError,
        lambda v: state_from_spec(MS, {"kind": "mode-list", "modes": {"3": [v, 0.0]}}),
        1.0, NOT_NUMBERS),
    "state_from_spec mode-list amplitude im": (
        StateError,
        lambda v: state_from_spec(MS, {"kind": "mode-list", "modes": {"3": [1.0, v]}}),
        1.0, NOT_NUMBERS),
} | {  # every number field of the spec tables
    f"state_from_spec {kind} {key}": (
        StateError, lambda v, kind=kind, key=key: state_from_spec(
            MS, STATE_SPECS[kind] | {key: v}), STATE_SPECS[kind].get(key, 0.0), NOT_NUMBERS)
    for kind, table in STATE_SPEC_KEYS.items() for key, (typ, _, _) in table.items()
    if typ == "float"
} | {
    f"kernel_from_spec {family} {key}": (
        DomainError, lambda v, family=family, key=key: kernel_from_spec(
            KERNEL_SPECS[family] | {key: v}), 1.0, NOT_NUMBERS)
    for family, (_, casts, _) in _KERNEL_SPECS.items() for key, cast in casts.items()
    if cast is as_float
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, value, id=f"{name}-{value!r}")
    for name, (_, _, _, refused) in SLOTS.items() for value in refused])
def test_scalar_slot_refuses_what_is_not_a_finite_number(name, value):
    error, call, _, _ = SLOTS[name]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("name", sorted(SLOTS))
def test_scalar_slot_takes_its_valid_value(name):
    # so that each refusal above is the slot's own
    _, call, valid, _ = SLOTS[name]
    call(valid)


def test_product_pair_has_no_overlap_weight():
    tps = TwoParticleState("product", COH, symmetric_superposition(MS, COH))
    assert tps.b == 0.0
    assert tps.lam == 1.0


def test_gaussian_times_x_position_profile_is_x_over_sigma_times_the_gaussian():
    x = np.linspace(-1.0, 1.0, 9)
    base = LineState(3.0, 0.4).position_profile(x)
    np.testing.assert_array_equal(
        LineState(3.0, 0.4, "gaussian-times-x").position_profile(x), (x / 0.4) * base)
