"""Single-particle states on the ring and on the line.

Ring states live on the integer angular-momentum lattice |m| <= m_max, either
as pure coefficient vectors or as dense density matrices.  Line states are
Gaussian packets (and their x-weighted orthogonal partners) used both as the
continuum limit of ring coherent states and as the independent line-theory
oracle: gaussian_line with a time argument evolves the packet by direct
quadrature of its momentum integral, with no semiclassical input.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CutoffError, DomainError, QuadratureError, StateError
from .modes import ModeSpace
from .specfun import coherent_norm

__all__ = [
    "CoherentParams",
    "LineState",
    "LineProfileOnRing",
    "RingState",
    "coherent_state",
    "from_modes",
    "line_to_ring",
    "gaussian_line",
    "spread_at_time",
    "post_select",
    "symmetric_superposition",
    "state_from_spec",
]

NORM_TOL = 1e-10
TAIL_TOL = 1e-12
# entries of the temporaries one chunked loop holds at once (modes x points
# for the mode sums' phase matrices): 4 MB of complex values, which stay in
# cache while a chunk is formed and summed; the one copy, read by _chunks
_CHUNK_BUDGET = 1 << 18
# largest occupied block of a density matrix that RingState eigenchecks for
# positivity (O(k^3)); above it the check is skipped with a warning
EIGENCHECK_MAX_MODES = 2049

# Line quadrature (see _line_quadrature): a Gauss-Legendre panel rule on
# [-1, 1].  The nodes must stay non-uniform: a uniform rule with step 1/r in
# k is, by Poisson summation, the lattice mode sum the oracle checks.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
# Phase (rad) one of the n panels may span at the largest phase rate; 32
# nodes resolve about 50 rad to roundoff, so the 2n rule is far past it.
_PANEL_PHASE = 16.0
_MIN_PANELS = 8
# Geometric grading of the panel next to k = 0 for massive weights
# ~ sqrt(k): the smallest sub-panel is _GRADE_RATIO**_GRADE_LEVELS of it.
_GRADE_RATIO, _GRADE_LEVELS = 0.125, 16
# entries of the images x panels phase matrix held at once (the node phases
# are one images x 32 matrix per panel group)
_NODE_BUDGET = 1 << 16


@dataclass(frozen=True)
class CoherentParams:
    """Ring coherent state |theta, xi>: mean angle, mean angular momentum, spread."""

    theta: float
    xi: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise DomainError(f"coherent spread must be finite and > 0, got alpha={self.alpha}")
        if not math.isfinite(self.xi):
            raise DomainError(f"coherent mean momentum must be finite, got xi={self.xi}")
        if not math.isfinite(self.theta):
            raise DomainError(f"coherent mean angle must be finite, got theta={self.theta}")


@dataclass(frozen=True)
class LineState:
    """Gaussian packet on the line, psi(x) = (2 pi sigma^2)^(-1/4) e^(-x^2/4sigma^2 + ipx).

    family 'gaussian-times-x' is the orthogonal partner psi_2(x) = (x/sigma) psi_1(x).
    """

    p: float
    sigma: float
    family: str = "gaussian"

    def __post_init__(self):
        if self.sigma <= 0:
            raise DomainError(f"position spread must be > 0, got sigma={self.sigma}")
        if self.family not in ("gaussian", "gaussian-times-x"):
            raise DomainError(f"unknown line-state family {self.family!r}")

    def momentum_profile(self, k) -> np.ndarray:
        """Momentum wavefunction psi~(k), L2-normalized on the line."""
        k = np.asarray(k, dtype=float)
        base = (2.0 * self.sigma**2 / math.pi) ** 0.25 * np.exp(
            -(self.sigma**2) * (k - self.p) ** 2
        )
        if self.family == "gaussian":
            return base.astype(complex)
        # x psi(x) <-> i d/dk psi~(k); normalized partner is -2i sigma (k-p) psi~_1
        return -2j * self.sigma * (k - self.p) * base

    def position_profile(self, x) -> np.ndarray:
        """Position wavefunction at t = 0."""
        x = np.asarray(x, dtype=float)
        base = (2.0 * math.pi * self.sigma**2) ** -0.25 * np.exp(
            -(x**2) / (4.0 * self.sigma**2) + 1j * self.p * x
        )
        if self.family == "gaussian":
            return base
        return (x / self.sigma) * base


@dataclass(frozen=True)
class LineProfileOnRing:
    """The line packet a ring state samples: psi_m = pref / r e^(-i m theta0) psi~(m / r).

    psi~ is line.momentum_profile; pref depends on r, so the packet holds
    only on the mode space of the state that carries it.
    """

    line: LineState
    theta0: float
    pref: float


def _chunks(n: int, width: int, budget: int | None = None) -> list[slice]:
    """Slices of range(n), each of about budget entries of width each (at least one item).

    budget defaults to _CHUNK_BUDGET, read at call time: every chunked loop
    of the package sizes its chunks here, so one patched value reaches all.
    """
    step = max(1, (_CHUNK_BUDGET if budget is None else budget) // max(width, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


@dataclass(frozen=True)
class RingState:
    """State on the mode lattice: pure coefficients or a density matrix.

    coeffs is indexed by m + m_max (lattice order -m_max..m_max).  packet is
    the line packet whose samples the coefficients are, for coherent and
    line-sampled states (None for any other); the Poisson images use it,
    mode sums never need it.
    """

    modespace: ModeSpace
    coeffs: np.ndarray | None = None
    rho: np.ndarray | None = None
    packet: LineProfileOnRing | None = None

    def __post_init__(self):
        n = 2 * self.modespace.m_max + 1
        if (self.coeffs is None) == (self.rho is None):
            raise StateError("exactly one of coeffs (pure) or rho (mixed) is required")
        if self.coeffs is not None:
            c = np.asarray(self.coeffs, dtype=complex)
            if c.shape != (n,):
                raise StateError(f"coeffs must have shape ({n},), got {c.shape}")
            norm2 = float(np.sum(np.abs(c) ** 2))
            if not abs(norm2 - 1.0) <= NORM_TOL:  # a NaN norm fails too
                raise StateError(f"pure state not normalized: sum|psi|^2 = {norm2!r}")
            object.__setattr__(self, "coeffs", c)
        else:
            rho = np.asarray(self.rho, dtype=complex)
            if rho.shape != (n, n):
                raise StateError(f"rho must have shape ({n},{n}), got {rho.shape}")
            object.__setattr__(self, "rho", rho)
            # every non-zero entry lies in the occupied block, so rho is
            # Hermitian iff the block is, and the block carries every
            # eigenvalue of rho that is not 0
            occ = self.occupied()
            k = int(np.count_nonzero(occ))
            blk = rho if k == n else rho[np.ix_(occ, occ)]
            # about 40 bytes an entry: _CHUNK_BUDGET / 2 entries a row block is ~5 MB
            if not all(np.allclose(blk[b], blk[:, b].conj().T, atol=1e-12)
                       for b in _chunks(k, 2 * k)):
                raise StateError("rho is not Hermitian")
            tr = float(np.real(np.trace(rho)))
            if abs(tr - 1.0) > NORM_TOL:
                raise StateError(f"rho trace must be 1, got {tr!r}")
            if k > EIGENCHECK_MAX_MODES:
                warnings.warn(
                    f"rho positivity check skipped: occupied block of {k} modes "
                    f"exceeds {EIGENCHECK_MAX_MODES}", stacklevel=3)
            else:
                _check_positive(blk)

    @property
    def is_pure(self) -> bool:
        return self.coeffs is not None

    def density_matrix(self) -> np.ndarray:
        """Dense rho(m, m'); outer product for pure states."""
        if self.rho is not None:
            return self.rho
        return np.outer(self.coeffs, self.coeffs.conj())

    def occupied(self) -> np.ndarray:
        """Modes whose row or column of rho holds a non-zero entry."""
        if self.coeffs is not None:
            return self.coeffs != 0
        occ = np.zeros(self.rho.shape[0], dtype=bool)
        for b in _chunks(occ.size, 2 * occ.size):
            nz = self.rho[b] != 0
            occ[b] |= nz.any(axis=1)
            occ |= nz.any(axis=0)
        return occ

    def occupation(self) -> np.ndarray:
        """Diagonal rho(m, m) as a real array over the lattice."""
        if self.coeffs is not None:
            return np.abs(self.coeffs) ** 2
        return np.real(np.diag(self.rho))

    def overlap(self, other: "RingState") -> complex:
        """<self|other> for pure states."""
        if not (self.is_pure and other.is_pure):
            raise StateError("overlap requires pure states")
        return complex(np.vdot(self.coeffs, other.coeffs))


def _check_positive(blk: np.ndarray):
    """StateError unless the Hermitian blk has no eigenvalue below -1e-10.

    blk + 1e-10 I has a Cholesky factor iff it is positive definite; only a
    failed factorization pays for the eigenvalues, to name the least.
    """
    shifted = blk.copy()
    shifted.flat[:: blk.shape[0] + 1] += 1e-10
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        lo = float(np.linalg.eigvalsh(blk)[0])
        if lo < -1e-10:
            raise StateError(f"rho not positive semidefinite (min eig {lo:.3e})") from None


def coherent_state(ms: ModeSpace, cp: CoherentParams) -> RingState:
    """Ring coherent state psi_m = C_xi exp(-(m-xi)^2/(2 alpha^2) - i m theta).

    The cutoff must contain the Gaussian tail: lattice mass beyond m_max
    above 1e-12 raises CutoffError (rule of thumb: m_max >= xi + 8 alpha).
    """
    tail = _gaussian_tail_mass(ms.m_max, cp.xi, cp.alpha)
    if tail > TAIL_TOL:
        raise CutoffError(
            f"m_max={ms.m_max} too small for coherent state (xi={cp.xi}, "
            f"alpha={cp.alpha}): tail mass {tail:.3e} > {TAIL_TOL}"
        )
    m = ms.modes().astype(float)
    c = coherent_norm(cp.xi, cp.alpha)
    gauss = np.exp(-((m - cp.xi) ** 2) / (2.0 * cp.alpha**2))
    coeffs = c * gauss * np.exp(-1j * m * cp.theta)
    return RingState(ms, coeffs=coeffs, packet=_coherent_packet(ms, cp))


def _coherent_packet(ms: ModeSpace, cp: CoherentParams) -> LineProfileOnRing:
    """The Gaussian line packet (p = xi / r, sigma = r / (sqrt(2) alpha)) of a coherent state."""
    sigma = ms.r / (math.sqrt(2.0) * cp.alpha)
    pref = coherent_norm(cp.xi, cp.alpha) * ms.r * (math.pi / (2.0 * sigma**2)) ** 0.25
    return LineProfileOnRing(LineState(p=cp.xi / ms.r, sigma=sigma), cp.theta, pref)


def coherent_tail_mass(ms: ModeSpace, cp: CoherentParams) -> float:
    """Probability mass of the coherent lattice Gaussian beyond |m| = m_max.

    This is the truncation remainder of every series built on the state.
    """
    return _gaussian_tail_mass(ms.m_max, cp.xi, cp.alpha)


def _gaussian_tail_mass(m_max: int, xi: float, alpha: float) -> float:
    # a centre more than width (at least 10 and about 12 alpha) past m_max
    # leaves under e^-100 of the mass inside: the tail is 1, also where
    # float64 no longer tells the modes apart (|xi| from about 1e16).
    # Otherwise the width modes just past m_max, and once the centre k is
    # past it too, those within width of k
    width, k = max(10, int(12 * alpha)), np.round(abs(xi))
    if abs(xi) - m_max > width:
        return 1.0
    c2 = coherent_norm(xi, alpha) ** 2
    ext = np.arange(max(m_max + 1, k - width), max(m_max + 1, k + 1) + width)
    up = np.exp(-((ext - xi) ** 2) / alpha**2)
    dn = np.exp(-((-ext - xi) ** 2) / alpha**2)
    return float(c2 * (up.sum() + dn.sum()))


def from_modes(ms: ModeSpace, amplitudes: dict[int, complex]) -> RingState:
    """Pure state from an explicit {m: amplitude} map, normalized here."""
    coeffs = np.zeros(2 * ms.m_max + 1, dtype=complex)
    for m, a in amplitudes.items():
        if abs(m) > ms.m_max:
            raise CutoffError(f"mode m={m} outside lattice |m| <= {ms.m_max}")
        coeffs[m + ms.m_max] = a
    norm = np.linalg.norm(coeffs)
    if norm == 0:
        raise StateError("mode map has no support")
    return RingState(ms, coeffs=coeffs / norm)


def line_to_ring(ms: ModeSpace, ls: LineState, theta0: float = 0.0) -> RingState:
    """Sample a line momentum profile onto the lattice: psi_m ∝ e^(-im theta0) psi~(m/r).

    Valid when the profile width is well inside the cutoff; the edge
    coefficients must be negligible (CutoffError otherwise).
    """
    m = ms.modes().astype(float)
    prof = ls.momentum_profile(m / ms.r)
    amp = np.abs(prof)
    if amp.max() == 0:
        raise StateError("line profile vanishes on the lattice")
    edge = max(amp[0], amp[-1]) / amp.max()
    if edge > 1e-12:
        raise CutoffError(
            f"m_max={ms.m_max} truncates the line profile (edge/max = {edge:.3e})"
        )
    norm = float(np.linalg.norm(prof))
    coeffs = prof / norm * np.exp(-1j * m * theta0)
    return RingState(ms, coeffs=coeffs, packet=LineProfileOnRing(ls, theta0, ms.r / norm))


def _panel_rule(k_lo: float, k_hi: float, n: int, grade: bool):
    """Groups (centres, half) of n equal Gauss-Legendre panels on [k_lo, k_hi].

    The panels of a group share the half-width half: their nodes are
    centres[:, None] + half * _GL_NODES, with weights half * _GL_WEIGHTS.
    The equal panels form one group; with grade, the first of them is split
    geometrically toward k_lo instead, each sub-panel a one-panel group.
    """
    h = (k_hi - k_lo) / n
    centres = k_lo + h * (np.arange(n) + 0.5)
    if not grade:
        return [(centres, 0.5 * h)]
    edges = np.concatenate(([k_lo], k_lo + h * _GRADE_RATIO ** np.arange(_GRADE_LEVELS, -1, -1)))
    return [(centres[1:], 0.5 * h)] + [
        (np.array([0.5 * (lo + hi)]), 0.5 * (hi - lo)) for lo, hi in zip(edges[:-1], edges[1:])
    ]


def _product_err(x: np.ndarray, a: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """x a - xa exactly, for xa = x * a broadcast (Dekker's TwoProduct)."""
    (xh, xl), (ah, al) = _split(x), _split(a)
    return ((xh * ah - xa) + xh * al + xl * ah) + xl * al


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split v = hi + lo, each with at most 26 significant bits."""
    hi = 134217729.0 * v  # 2^27 + 1
    hi -= hi - v
    return hi, v - hi


def _carrier(k_c: float, x: list, t: float, mu: float) -> np.ndarray:
    """e^{i(k_c x - omega(k_c) t)} for each exact x, to about an ulp.

    The phase (~1e5 rad at the oracle's sizes) is formed exactly, as an
    integer pair (num, den) (see _ratio), with omega(k_c) refined by one
    Newton step past its float rounding, and only then split into a float
    and a remainder for the exp.
    """
    (kn, kd), w_c = _ratio(k_c), math.hypot(mu, k_c)
    wn, wd = _ratio(w_c)
    if w_c > 0.0:
        # omega += (mu^2 + k^2 - omega^2) / (2 omega), over the denominator d
        mn, md = _ratio(mu)
        d = md * kd * wd
        res = (mn * kd * wd) ** 2 + (kn * md * wd) ** 2 - (wn * md * kd) ** 2
        wn, wd = 2 * wn * wn * d * d + res * wd * wd, 2 * wn * wd * d * d
    tn, td = _ratio(t)
    wtn, wtd = wn * tn, wd * td
    out = np.empty(len(x), dtype=complex)
    for i, (xn, xd) in enumerate(x):
        pn, pd = kn * xn * wtd - wtn * kd * xd, kd * xd * wtd
        hi = pn / pd
        hn, hd = hi.as_integer_ratio()
        out[i] = cmath.exp(1j * hi) * cmath.exp(1j * ((pn * hd - hn * pd) / (pd * hd)))
    return out


def _ratio(v: float) -> tuple[int, int]:
    """v as an exact integer pair (num, den), den > 0.

    The oracle's exact arithmetic: pairs add and multiply without gcd
    reduction, and num / den is the correctly rounded float of the pair.
    """
    return float(v).as_integer_ratio()


def _window_speeds(mu: float, k_lo: float, k_hi: float) -> tuple[float, float]:
    """Group speeds v_k = d omega_k / dk at the ends of the window [k_lo, k_hi].

    v_k = k / sqrt(mu^2 + k^2) is monotone, so every momentum of the window
    moves at a speed between the two.  At mu = 0 the window must not cross
    k = 0: v_k is then sign(k) on its side of 0, the end at 0 included.
    """
    if mu == 0.0:
        v = 1.0 if k_hi > 0.0 else -1.0
        return v, v
    return k_lo / math.hypot(mu, k_lo), k_hi / math.hypot(mu, k_hi)


def _line_quadrature(x: list[tuple[int, int]], t: float, mu: float, weight, k_lo: float,
                     k_hi: float):
    """∫_{k_lo}^{k_hi} weight(k) e^{i(k x - omega_k t)} dk at every image position x.

    omega_k = sqrt(mu^2 + k^2); x is a sequence of exact (num, den) integer
    pairs (_ratio; see amplitudes._winding_positions), which the carrier
    phase needs exact.
    Composite Gauss-Legendre panels, one rule for all of x: the panel count
    n is sized from the largest phase rate |x - v_k t| over the window (v_k
    is monotone, so it peaks at an end).
    Returns (I_2n, |I_n - I_2n|) as arrays over x; the gap is the
    self-convergence error estimate the callers gate on.  weight maps an
    array of k (of any shape; interior nodes only, never an end point) to
    complex values.

    The phase is split about the window's midpoint k_c: the large carrier
    k_c x - omega(k_c) t is exact per image (_carrier), and each node carries
    only kappa x - (omega_k - omega(k_c)) t with kappa = k - k_c, the energy
    difference formed without cancellation.  A node of panel p in a group
    of _panel_rule is kappa = fl(a_p + b_j) (a_p = centre_p - k_c, b_j = half
    s_j), so e^{i x (a_p + b_j)} = e^{i x a_p} e^{i x b_j}: per group, one
    images x 32 exponential, a matrix product with the node values and one
    images x panels exponential, chunked to _NODE_BUDGET entries: about
    images x (32 + panels) + nodes exponentials a rule, not images x nodes.
    The returned 2n rule keeps each phase on its node: it adds -i x e_pj for
    the residual e_pj = a_p + b_j - kappa, and forms x a_p, which a panel's
    32 nodes share, exactly (_product_err).  Each moves the sum by up to
    ~2e-13 of its peak, under the gap's gates: the n rule skips them.
    With mu > 0 and k_lo = 0 the first panel is graded toward 0, where
    weights like sqrt(v_k) ~ sqrt(k) are not smooth; with mu = 0 a window
    across k = 0, where omega_k = |k| has a kink, is split there.
    """
    if mu == 0.0 and k_lo < 0.0 < k_hi:
        lo_val, lo_gap = _line_quadrature(x, t, mu, weight, k_lo, 0.0)
        hi_val, hi_gap = _line_quadrature(x, t, mu, weight, 0.0, k_hi)
        return lo_val + hi_val, lo_gap + hi_gap
    xf = np.array([n / d for n, d in x])
    rate = max(float(np.max(np.abs(xf - v * t), initial=0.0))
               for v in _window_speeds(mu, k_lo, k_hi))
    n = max(_MIN_PANELS, math.ceil(rate * (k_hi - k_lo) / _PANEL_PHASE))
    grade = mu > 0.0 and k_lo == 0.0
    k_c = 0.5 * (k_lo + k_hi)
    w_c = math.hypot(mu, k_c)

    def rule(panels, exact):
        out = np.zeros(xf.size, dtype=complex)
        for centres, half in _panel_rule(k_lo, k_hi, panels, grade):
            a, b = centres - k_c, half * _GL_NODES
            kappa = a[:, None] + b
            k = k_c + kappa
            d_omega = kappa * (k + k_c) / (np.sqrt(mu * mu + k * k) + w_c)
            f = half * _GL_WEIGHTS * weight(k) * np.exp(-1j * (d_omega * t))
            node_phase = np.exp(1j * np.outer(xf, b))
            if exact:
                # Fast2Sum residual, exact while |a_p| >= |b_j|: the 2n rule's
                # panel count is even, so |a_p| >= h / 2 > |b_j|
                f_resid = f * (b - (kappa - a[:, None]))
            for sl in _chunks(a.size, xf.size, _NODE_BUDGET):
                xa = np.outer(xf, a[sl])
                panel_sums, panel_phase = node_phase @ f[sl].T, np.exp(1j * xa)
                if exact:
                    panel_sums -= 1j * xf[:, None] * (node_phase @ f_resid[sl].T)
                    panel_phase *= 1.0 + 1j * _product_err(xf[:, None], a[sl], xa)
                out += (panel_phase * panel_sums).sum(axis=1)
        return out

    carrier = _carrier(k_c, x, t, mu)
    coarse, fine = carrier * rule(n, exact=False), carrier * rule(2 * n, exact=True)
    return fine, np.abs(coarse - fine)


def gaussian_line(ls: LineState, x: float, t: float | None = None, mu: float = 0.0) -> complex:
    """Line wavefunction at position x; freely evolved when t is given.

    The evolved value is the quadrature of (2 pi)^(-1/2) ∫ dk psi~(k)
    exp(ikx - i omega_k t) with omega_k = sqrt(mu^2 + k^2) over p ± 8/sigma
    (_line_quadrature).  This is the line-theory oracle: no stationary-phase
    or spreading approximation.  The n- and 2n-panel rules must agree within
    max(1e-12, 1e-8 |value|), else QuadratureError.
    """
    if t is None:
        return complex(ls.position_profile(x))
    half_width = 8.0 / ls.sigma
    val, gap = _line_quadrature([_ratio(x)], t, mu, ls.momentum_profile,
                                ls.p - half_width, ls.p + half_width)
    val = complex(val[0]) / math.sqrt(2.0 * math.pi)
    err = float(gap[0]) / math.sqrt(2.0 * math.pi)
    if err > max(1e-12, 1e-8 * abs(val)):
        raise QuadratureError(
            f"free evolution quadrature did not converge: value {val!r}, "
            f"error estimate {err:.3e}"
        )
    return val


def spread_at_time(ls: LineState, ms: ModeSpace, t: float) -> float:
    """Dispersed packet width sigma(t) = sqrt(sigma^2 + mu^4 t^2 / (4 eps_p^6 sigma^2)).

    eps_p = sqrt(mu^2 + p^2) is the line dispersion energy.  Leading order in
    1/(p sigma); a warning is emitted outside that regime.  The dispersion
    constant is (dv)^2 = (mu^2/eps_p^3)^2 / (4 sigma^2), i.e. the curvature
    of the dispersion relation times the momentum variance 1/(4 sigma^2) of
    the packet; direct quadrature of the evolved packet confirms it.
    """
    if ls.p * ls.sigma < 5.0:
        warnings.warn(
            f"spread_at_time assumes p*sigma >> 1, got {ls.p * ls.sigma:.3g}",
            stacklevel=2,
        )
    eps_p = math.sqrt(ms.mu**2 + ls.p**2)
    return math.sqrt(ls.sigma**2 + ms.mu**4 * t**2 / (4.0 * eps_p**6 * ls.sigma**2))


def post_select(state: RingState, weights) -> RingState:
    """Reweight by the detector absorption and renormalize to unit trace.

    weights: absorption a(m) as an array aligned with the mode lattice, or
    any object with an ``of_lattice(ms)`` method (an AbsorptionProfile).
    rho_ps(m, m') = rho(m, m') sqrt(a(m) a(m')) / trace.
    """
    ms = state.modespace
    if hasattr(weights, "of_lattice"):
        a = weights.of_lattice(ms)
    else:
        a = np.asarray(weights, dtype=float)
    if a.shape != (2 * ms.m_max + 1,):
        raise StateError(f"absorption weights must match the lattice, got {a.shape}")
    if np.any(a < 0):
        raise StateError("absorption weights must be nonnegative")
    sq = np.sqrt(a)
    if state.is_pure:
        new = state.coeffs * sq
        nrm2 = float(np.sum(np.abs(new) ** 2))
        if nrm2 <= 0:
            raise StateError("post-selection annihilates the state (zero detection)")
        return RingState(ms, coeffs=new / math.sqrt(nrm2))
    rho = state.rho * np.outer(sq, sq)
    tr = float(np.real(np.trace(rho)))
    if tr <= 0:
        raise StateError("post-selection annihilates the state (zero detection)")
    return RingState(ms, rho=rho / tr)


def state_from_spec(ms: ModeSpace, spec: dict) -> RingState:
    """Build a state from the JSON schema {kind: ..., ...params}.

    kinds: coherent {theta, xi, alpha}; gaussian-line {p, sigma, family?,
    theta0?}; mode-list {modes: {m: amp | [re, im]}}; symmetric {base: spec}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise StateError("state spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind == "coherent":
        cp = CoherentParams(
            theta=float(spec.get("theta", 0.0)),
            xi=float(spec["xi"]),
            alpha=float(spec["alpha"]),
        )
        return coherent_state(ms, cp)
    if kind == "gaussian-line":
        ls = LineState(
            p=float(spec["p"]),
            sigma=float(spec["sigma"]),
            family=spec.get("family", "gaussian"),
        )
        return line_to_ring(ms, ls, theta0=float(spec.get("theta0", 0.0)))
    if kind == "mode-list":
        amps = {}
        for key, val in spec["modes"].items():
            amps[int(key)] = complex(val[0], val[1]) if isinstance(val, list) else complex(val)
        return from_modes(ms, amps)
    if kind == "symmetric":
        return symmetric_superposition(ms, state_from_spec(ms, spec["base"]))
    raise StateError(f"unknown state kind {kind!r}")


def symmetric_superposition(ms: ModeSpace, base: RingState) -> RingState:
    """Normalized state with psi_(-m) = psi_m, as used in the Sagnac analysis."""
    if not base.is_pure:
        raise StateError("symmetric superposition needs a pure base state")
    if base.modespace != ms:
        raise StateError("base state lives on a different mode space")
    pos = base.coeffs[ms.m_max + 1 :]
    if float(np.sum(np.abs(pos) ** 2)) == 0.0:
        raise StateError("base state has no support at m > 0")
    sym = base.coeffs + base.coeffs[::-1]
    return RingState(ms, coeffs=sym / np.linalg.norm(sym))
