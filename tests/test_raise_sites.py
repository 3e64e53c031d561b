"""Each documented refusal of the library raises the package's error type.

One case per raise site that the rest of the suite does not reach: the
argument checks of states, detectors, amplitudes, probabilities, clocks,
rotation and two-particle analysis.
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
    pc_density,
    post_select,
    sagnac_scan,
    symmetric_superposition,
    timescales,
    vacuum_noise,
)
from ringtoa.detector import kernel_from_spec
from ringtoa.emit import write_csv
from ringtoa.errors import (
    CutoffError,
    DomainError,
    SeriesError,
    StateError,
    TickError,
)
from ringtoa.lattice import _double_sum
from ringtoa.probability import pgamma_validation
from ringtoa.states import state_from_spec

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
                                    lambda: pgamma_validation(COH, MAX_LOC, MS, 0.0)),
    "pgamma_validation no positive support": (
        StateError, "support on positive modes",
        lambda: pgamma_validation(from_modes(MS, {-3: 1.0}), MAX_LOC, MS, 0.1)),
    # rotation
    "eta_closed_form a <= 0": (DomainError, "decay constant",
                               lambda: eta_closed_form(-1.0, 0.1)),
    "eta_closed_form superluminal": (DomainError, "Omega_D r", lambda: eta_closed_form(1.0, 1.0)),
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


def test_product_pair_has_no_overlap_weight():
    tps = TwoParticleState("product", COH, symmetric_superposition(MS, COH))
    assert tps.b == 0.0
    assert tps.lam == 1.0


def test_gaussian_times_x_position_profile_is_x_over_sigma_times_the_gaussian():
    x = np.linspace(-1.0, 1.0, 9)
    base = LineState(3.0, 0.4).position_profile(x)
    np.testing.assert_array_equal(
        LineState(3.0, 0.4, "gaussian-times-x").position_profile(x), (x / 0.4) * base)
