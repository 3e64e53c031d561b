"""Two-detector statistics: joint densities, marginals, and inequality scans.

Two independent detections (absorptive coupling, maximum localization) have
the joint density P2 = K1 K2 |A1(1) A2(2)|^2 for a product state and

    P2 = (K^2 / 2(1+b)) |A1(1) A2(2) + A1(2) A2(1)|^2

for the exchange-symmetrized state with overlap b = |<psi1|psi2>|^2.  The
single-detection marginal P1 comes from the reduced one-particle density
matrix (cross terms included), which is exactly what makes the Kolmogorov
condition ∫ dt1 P2 = P1 hold.

P1 and P2 are algebra on the amplitudes A1, A2, each evaluated once per
distinct (t, phi).  The marginal is a quadratic form in those at t2,

    ∫ dt1 |A1(t1) A2(t2) + A1(t2) A2(t1)|^2
        = |A2(t2)|^2 I11 + |A1(t2)|^2 I22 + 2 Re(A2(t2) A1(t2)* I12),

with I_ij = ∫ dt1 A_i(t1) A_j(t1)* by the trapezoid rule on the t1 grid.

Measurement independence bounds classical joint statistics by

    P1(t, phi)^2 <= P2(t, phi; t, phi)            (J)
    P2(1;2) <= sqrt(P2(1;1) P2(2;2))              (CS)

and the margin of each (negative = violation) is scanned here alongside the
amplitude-ratio criteria, which coincide with the margins for b = 0 but not
in general (identical factors saturate the margins while any ratio != 1
trips the degenerate criterion interval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .amplitudes import amp_state
from .errors import DomainError, StateError
from .probability import _density, _k_norm
from .states import RingState

__all__ = [
    "TwoParticleState",
    "ViolationReport",
    "p1_single",
    "p2_joint",
    "kolmogorov_check",
    "mi_inequality_j",
    "mi_inequality_cs",
    "violation_scan",
    "jensen_interval",
    "CS_INTERVAL",
]

# violation_scan's margin tolerance, relative to the scan-wide density scale
VIOLATION_TOL = 1e-12


def jensen_interval(lam: float) -> tuple[float, float]:
    """Non-violation band for |A2/A1|^2: [2l+1 - 2 sqrt(l(l+1)), 2l+1 + 2 sqrt(l(l+1))].

    The upper endpoint is the + branch (the endpoints are reciprocal, with
    product exactly 1), matching the l = 1 special case [3-2sqrt2, 3+2sqrt2].
    """
    root = 2.0 * math.sqrt(lam * (lam + 1.0))
    return (2.0 * lam + 1.0 - root, 2.0 * lam + 1.0 + root)


CS_INTERVAL = jensen_interval(1.0)


@dataclass(frozen=True)
class TwoParticleState:
    """Product or exchange-symmetrized pair of single-particle states.

    Product factors may live on different rings (mass and radius per
    factor); symmetrization requires identical particles, hence a shared
    mode space.  The overlap b is computed, never supplied.
    """

    kind: str
    psi1: RingState
    psi2: RingState

    def __post_init__(self):
        if self.kind not in ("product", "symmetrized"):
            raise StateError(f"unknown two-particle kind {self.kind!r}")
        if not (self.psi1.is_pure and self.psi2.is_pure):
            raise StateError("two-particle construction needs pure factors")
        if self.kind == "symmetrized" and self.psi1.modespace != self.psi2.modespace:
            raise StateError("symmetrized factors must share one mode space")

    @property
    def overlap(self) -> complex:
        return self.psi1.overlap(self.psi2)

    @property
    def b(self) -> float:
        if self.kind == "product":
            return 0.0
        return abs(self.overlap) ** 2

    @property
    def lam(self) -> float:
        """lambda = 2/(1+b) - 1 in (0, 1]."""
        return 2.0 / (1.0 + self.b) - 1.0


class _Amps:
    """Amplitudes A1, A2 of a pair at one (t, phi), each evaluated on first use."""

    def __init__(self, tps: TwoParticleState, t, phi):
        self.tps, self.at = tps, (t, phi)

    @cached_property
    def a1(self):
        return amp_state(self.tps.psi1, self.tps.psi1.modespace, *self.at)

    @cached_property
    def a2(self):
        return amp_state(self.tps.psi2, self.tps.psi2.modespace, *self.at)


def _p1(tps: TwoParticleState, x: _Amps, factor: int = 1):
    """P1 from the amplitudes at one point; factor picks a product pair's detector."""
    if tps.kind == "product":
        psi, amp = (tps.psi1, x.a1) if factor == 1 else (tps.psi2, x.a2)
        return _density(psi.modespace, amp)
    a1, a2 = x.a1, x.a2
    cross = 2.0 * np.real(tps.overlap * a1 * np.conj(a2))
    k = _k_norm(tps.psi1.modespace)
    return (k / (2.0 * (1.0 + tps.b))) * (np.abs(a1) ** 2 + np.abs(a2) ** 2 + cross)


def _p2(tps: TwoParticleState, x: _Amps, y: _Amps):
    """P2(1; 2) from the amplitudes x at point 1 and y at point 2."""
    if tps.kind == "product":
        return _p1(tps, x, factor=1) * _p1(tps, y, factor=2)
    k = _k_norm(tps.psi1.modespace)
    sym = x.a1 * y.a2 + y.a1 * x.a2
    return (k**2 / (2.0 * (1.0 + tps.b))) * np.abs(sym) ** 2


def p1_single(tps: TwoParticleState, t, phi, factor: int = 1):
    """Single-detection density.

    Product states: the rate of the requested factor's own detector,
    K |A_i|^2.  Symmetrized states: the reduced-density rate
    (K / 2(1+b)) [|A1|^2 + |A2|^2 + 2 Re(<psi1|psi2> A1 A2*)], normalized
    per detection so that ∫ dt P2 marginalizes onto it.
    """
    if factor not in (1, 2):
        raise DomainError(f"factor must be 1 or 2, got {factor!r}")
    return _p1(tps, _Amps(tps, t, phi), factor)


def p2_joint(tps: TwoParticleState, t1, phi1, t2, phi2):
    """Joint detection density at (t1, phi1) x (t2, phi2), maximum localization."""
    return _p2(tps, _Amps(tps, t1, phi1), _Amps(tps, t2, phi2))


def kolmogorov_check(tps: TwoParticleState, phi1: float, phi2: float,
                     t2_grid, t1_window: tuple[float, float],
                     n_t1: int = 4096) -> dict:
    """Marginalize ∫ dt1 P2(t1, phi1; t2, phi2) against P1(t2, phi2).

    The t1 window must cover the full support of the t1 profile (massless:
    a whole number of circulation periods, since the density is exactly
    periodic there).  Returns the marginal, P1, their deviation
    |marginal - P1| / max P1 at each t2 (``rel_dev``) and its maximum.
    """
    t2_grid = np.asarray(t2_grid, dtype=float)
    lo, hi = t1_window
    if hi <= lo:
        raise DomainError("empty t1 integration window")
    ms1 = tps.psi1.modespace
    if ms1.mu == 0:
        period = 2.0 * math.pi * ms1.r  # massless modes all travel at |v| = 1
        cycles = (hi - lo) / period
        if abs(cycles - round(cycles)) > 0.01 or round(cycles) < 1:
            raise DomainError(
                f"window insufficient: massless marginal needs a whole number "
                f"of circulation periods, got {cycles:.4f} x {period:.4f}"
            )
    t1 = np.linspace(lo, hi, n_t1)
    x, y = _Amps(tps, t1, phi1), _Amps(tps, t2_grid, phi2)
    if tps.kind == "product":
        marg = np.trapezoid(_p1(tps, x, factor=1), t1) * _p1(tps, y, factor=2)
    else:  # the quadratic form of the module docstring
        i11 = np.trapezoid(np.abs(x.a1) ** 2, t1)
        i22 = np.trapezoid(np.abs(x.a2) ** 2, t1)
        i12 = np.trapezoid(x.a1 * np.conj(x.a2), t1)
        form = (np.abs(y.a2) ** 2 * i11 + np.abs(y.a1) ** 2 * i22
                + 2.0 * np.real(y.a2 * np.conj(y.a1) * i12))
        marg = (_k_norm(ms1) ** 2 / (2.0 * (1.0 + tps.b))) * form
    p1 = np.asarray(_p1(tps, y, factor=2), dtype=float)
    scale = float(np.max(p1))
    if scale <= 0:
        raise DomainError("marginal comparison needs nonvanishing P1 on the grid")
    deviation = np.abs(marg - p1) / scale
    return {
        "marginal": marg,
        "p1": p1,
        "rel_dev": deviation,
        "max_rel_deviation": float(np.max(deviation)),
    }


def mi_inequality_j(tps: TwoParticleState, t, phi) -> dict:
    """Margin and ratio criterion for P1^2 <= P2(t, phi; t, phi).

    margin = P2 - P1^2 (negative means violation).  The ratio criterion
    evaluates |A2/A1|^2 against the lambda band; it is only meaningful for
    symmetrized states and requires A1 != 0.
    """
    x = _Amps(tps, t, phi)
    p1 = np.asarray(_p1(tps, x), dtype=float)
    p2 = np.asarray(_p2(tps, x, x), dtype=float)
    margin = p2 - p1**2
    out = {"margin": margin if margin.ndim else float(margin)}
    if tps.kind == "symmetrized":
        a1 = np.asarray(x.a1)
        mask = np.abs(a1) > 0
        if not np.all(mask):
            raise DomainError("degenerate amplitude: A1 = 0 on the ratio grid")
        ratio_sq = np.abs(np.asarray(x.a2) / a1) ** 2
        lo, hi = jensen_interval(tps.lam)
        out.update({
            "ratio_sq": ratio_sq if ratio_sq.ndim else float(ratio_sq),
            "interval": (lo, hi),
            "ratio_violation": (ratio_sq < lo) | (ratio_sq > hi),
        })
    return out


def mi_inequality_cs(tps: TwoParticleState, t1, phi1, t2, phi2) -> dict:
    """Margin and ratio criterion for P2(1;2) <= sqrt(P2(1;1) P2(2;2)).

    margin = sqrt(P2(1;1) P2(2;2)) - P2(1;2) (negative means violation);
    the ratio criterion tests |A1(1)A2(2)| / |A1(2)A2(1)| against
    [3 - 2 sqrt 2, 3 + 2 sqrt 2].
    """
    x, y = _Amps(tps, t1, phi1), _Amps(tps, t2, phi2)
    d1 = np.asarray(_p2(tps, x, x), dtype=float)
    d2 = np.asarray(_p2(tps, y, y), dtype=float)
    if np.any(d1 <= 0) or np.any(d2 <= 0):
        raise DomainError("degenerate diagonal joint density in CS margin")
    off = np.asarray(_p2(tps, x, y), dtype=float)
    margin = np.sqrt(d1 * d2) - off
    denom = np.abs(y.a1 * x.a2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(denom > 0, np.abs(x.a1 * y.a2) / denom, np.inf)
    lo, hi = CS_INTERVAL
    return {
        "margin": margin if margin.ndim else float(margin),
        "ratio": ratio if np.ndim(ratio) else float(ratio),
        "interval": CS_INTERVAL,
        "ratio_violation": (ratio < lo) | (ratio > hi),
    }


@dataclass(frozen=True)
class ViolationReport:
    """Inequality margins over a scan grid with strict-tolerance masks."""

    margin_j: np.ndarray
    violated_j: np.ndarray
    p2_diag: np.ndarray  # P2(t, phi; t, phi) on the grid
    margin_cs: np.ndarray | None = None
    violated_cs: np.ndarray | None = None

    @property
    def any_violation_j(self) -> bool:
        return bool(np.any(self.violated_j))

    @property
    def any_violation_cs(self) -> bool:
        return self.margin_cs is not None and bool(np.any(self.violated_cs))


def violation_scan(tps: TwoParticleState, phi: float, t_grid,
                   t1_fixed: float | None = None) -> ViolationReport:
    """Scan the J margin over t_grid (and the CS margin against t1_fixed).

    Violation masks use a strict inequality with relative tolerance against
    the scan-wide density scale: a point counts only when its margin lies
    below -VIOLATION_TOL * max(scale over the grid).  Saturated configurations
    (product states, identical factors) then never flag on the roundoff
    noise of amplitude-suppressed tails, while genuine violations, which are
    an order-one fraction of the local density, always do.  The CS margin and
    mask are None without t1_fixed.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    x = _Amps(tps, t_grid, phi)
    p1 = np.asarray(_p1(tps, x), dtype=float)
    p2 = np.asarray(_p2(tps, x, x), dtype=float)
    margin_j = p2 - p1**2
    scale_j = max(float(np.max(p2)), float(np.max(p1**2)), 1e-300)
    violated_j = margin_j < -VIOLATION_TOL * scale_j

    margin_cs = violated_cs = None
    if t1_fixed is not None:
        fixed = _Amps(tps, t1_fixed, phi)
        d1 = float(_p2(tps, fixed, fixed))
        off = np.asarray(_p2(tps, fixed, x), dtype=float)
        geo = np.sqrt(d1 * p2)
        margin_cs = geo - off
        scale_cs = max(float(np.max(geo)), float(np.max(off)), 1e-300)
        violated_cs = margin_cs < -VIOLATION_TOL * scale_cs
    return ViolationReport(
        margin_j=margin_j,
        violated_j=violated_j,
        p2_diag=p2,
        margin_cs=margin_cs,
        violated_cs=violated_cs,
    )
