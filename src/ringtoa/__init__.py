"""Time-of-arrival statistics for relativistic particles on a ring.

Numerical library and CLI covering arrival-probability densities on static
and rotating rings, their phase-space portraits, quantum-clock analytics,
rotation-induced detector noise, and two-detector inequality scans, with
mode sums cross-validated against independent line-theory quadrature.
"""

from . import errors
from .modes import ModeSpace, RotationFrame, omega, rotating_omega, rotating_velocity, velocity
from .specfun import coherent_norm, sinc, theta3
from .states import (
    CoherentParams,
    LineState,
    RingState,
    coherent_state,
    from_modes,
    gaussian_line,
    line_to_ring,
    post_select,
    spread_at_time,
    symmetric_superposition,
)
from .detector import (
    AbsorptionProfile,
    DetectorKernel,
    LocalizationMatrix,
    absorption,
    kernel_eval,
    localization_matrix,
    wigner_weyl,
)
from .amplitudes import (
    amp_poisson,
    amp_ring,
    amp_rotating_split,
    amp_state,
    line_arrival_amp,
)
from .probability import (
    NORMALIZATION_TAG,
    Timescales,
    autocorrelation,
    pc_density,
    qsymbol,
    timescales,
    vacuum_noise,
)
from .clock import ClockQuality, TickTrain, clock_quality, cumulative, extract_ticks
from .rotation import (
    NoiseCurve,
    SagnacResult,
    eta,
    eta_closed_form,
    noise_curve,
    sagnac_scan,
)
from .multitime import (
    CS_INTERVAL,
    TwoParticleState,
    ViolationReport,
    jensen_interval,
    kolmogorov_check,
    mi_inequality_cs,
    mi_inequality_j,
    p1_single,
    p2_joint,
    violation_scan,
)

__version__ = "0.1.0"
