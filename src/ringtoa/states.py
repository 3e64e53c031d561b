"""Single-particle states on the ring and on the line.

Ring states live on the integer angular-momentum lattice |m| <= m_max, either
as pure coefficient vectors or as dense density matrices.  Line states are
Gaussian packets (and their x-weighted orthogonal partners) used both as the
continuum limit of ring coherent states and as the independent line-theory
oracle: gaussian_line with a time argument evolves the packet by direct
quadrature of its momentum integral, with no semiclassical input.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import CutoffError, DomainError, QuadratureError, StateError
from .lattice import _chunks
from .modes import ModeSpace, as_float, is_number, number_array
from .oracle import _line_quadrature, _ratio
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
    "LINE_FAMILIES", "REQUIRED", "STATE_SPEC_KEYS",
]

NORM_TOL = 1e-10
TAIL_TOL = 1e-12
# largest |rho - rho^H| entry a density matrix may hold
HERMITIAN_TOL = 1e-12
# least eigenvalue a density matrix may have is -POSITIVE_TOL; the rows left
# out of its factorized block may take up to _DROP_TOL of that (see
# _check_positive)
POSITIVE_TOL = 1e-10
_DROP_TOL = 0.1 * POSITIVE_TOL
# largest occupied block of a density matrix that RingState eigenchecks for
# positivity (O(k^3)); above it the check is skipped with a warning
EIGENCHECK_MAX_MODES = 2049
LINE_FAMILIES = ("gaussian", "gaussian-times-x")

# A state spec's keys per kind, key -> (type, range, default) as in the config
# schema (cli), which checks specs against it; state_from_spec builds from it.
REQUIRED = "required"
STATE_SPEC_KEYS = {
    "coherent": {"xi": ("float", "", REQUIRED), "alpha": ("float", "> 0", REQUIRED),
                 "theta": ("float", "", 0.0)},
    "gaussian-line": {"p": ("float", "", REQUIRED), "sigma": ("float", "> 0", REQUIRED),
                      "family": (LINE_FAMILIES, "", "gaussian"), "theta0": ("float", "", 0.0)},
    "mode-list": {"modes": ("modes", "", REQUIRED)},
    "symmetric": {"base": ("state", "", REQUIRED)},
}

@dataclass(frozen=True)
class CoherentParams:
    """Ring coherent state |theta, xi>: mean angle, mean angular momentum, spread."""

    theta: float
    xi: float
    alpha: float

    def __post_init__(self):
        if not (is_number(self.alpha) and self.alpha > 0):
            raise DomainError(f"coherent spread must be finite and > 0, got alpha={self.alpha!r}")
        if not is_number(self.xi):
            raise DomainError(f"coherent mean momentum must be finite, got xi={self.xi!r}")
        if not is_number(self.theta):
            raise DomainError(f"coherent mean angle must be finite, got theta={self.theta!r}")


@dataclass(frozen=True)
class LineState:
    """Gaussian packet on the line, psi(x) = (2 pi sigma^2)^(-1/4) e^(-x^2/4sigma^2 + ipx).

    family 'gaussian-times-x' is the orthogonal partner psi_2(x) = (x/sigma) psi_1(x).
    """

    p: float
    sigma: float
    family: str = "gaussian"

    def __post_init__(self):
        if not (is_number(self.p) and is_number(self.sigma) and self.sigma > 0):
            raise DomainError(f"line state needs finite p and sigma > 0, got p={self.p!r}, "
                              f"sigma={self.sigma!r}")
        if self.family not in LINE_FAMILIES:
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


@dataclass(frozen=True)
class RingState:
    """State on the mode lattice: pure coefficients or a density matrix.

    coeffs is indexed by m + m_max (lattice order -m_max..m_max).  packet is
    the line packet whose samples the coefficients are, for coherent and
    line-sampled states (None for any other); the Poisson images use it,
    mode sums never need it.  coeffs and rho must hold numbers, not bools or
    strings (modes.number_array): StateError otherwise.  rho is scanned for
    its occupied modes once, at construction; occupied() returns that
    read-only mask, so rho must not change afterwards.
    """

    modespace: ModeSpace
    coeffs: np.ndarray | None = None
    rho: np.ndarray | None = None
    packet: LineProfileOnRing | None = None
    _occupied: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        n = 2 * self.modespace.m_max + 1
        if (self.coeffs is None) == (self.rho is None):
            raise StateError("exactly one of coeffs (pure) or rho (mixed) is required")
        if self.coeffs is not None:
            c = number_array(self.coeffs, "coeffs", StateError, complex)
            if c.shape != (n,):
                raise StateError(f"coeffs must have shape ({n},), got {c.shape}")
            norm2 = float(np.sum(np.abs(c) ** 2))
            if not abs(norm2 - 1.0) <= NORM_TOL:  # a NaN norm fails too
                raise StateError(f"pure state not normalized: sum|psi|^2 = {norm2!r}")
            object.__setattr__(self, "coeffs", c)
        else:
            rho = number_array(self.rho, "rho", StateError, complex)
            if rho.shape != (n, n):
                raise StateError(f"rho must have shape ({n},{n}), got {rho.shape}")
            object.__setattr__(self, "rho", rho)
            # every non-zero entry lies in the occupied block, so rho is
            # Hermitian iff the block is, and the block carries every
            # eigenvalue of rho that is not 0
            occ = _occupied_modes(rho)
            occ.flags.writeable = False
            object.__setattr__(self, "_occupied", occ)
            k = int(np.count_nonzero(occ))
            blk = rho if k == n else rho[np.ix_(occ, occ)]
            if not all(_hermitian_rows(blk, b) for b in _chunks(k, 2 * k)):
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
        """Modes whose row or column of rho holds a non-zero entry (read-only
        for a mixed state, found at construction)."""
        if self.coeffs is not None:
            return self.coeffs != 0
        return self._occupied

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


def _occupied_modes(rho: np.ndarray) -> np.ndarray:
    """Mask of the modes whose row or column of rho holds a non-zero entry,
    scanned a row block at a time."""
    occ = np.zeros(rho.shape[0], dtype=bool)
    for b in _chunks(occ.size, 2 * occ.size):
        rows = rho[b]
        occ[b] |= rows.any(axis=1)
        occ |= rows.any(axis=0)
    return occ


def _hermitian_rows(blk: np.ndarray, rows: slice) -> bool:
    """Whether |blk - blk^H| <= HERMITIAN_TOL on the given rows, from their first
    column on (NaN fails).

    |blk - blk^H| is symmetric, so row blocks that cover the rows of blk
    check every entry.  The bound is absolute: no entry of a unit-trace
    positive rho exceeds 1.
    """
    diff = blk[rows.start:, rows].T.conj()
    with np.errstate(invalid="ignore"):  # inf - inf
        diff -= blk[rows, rows.start:]
    return bool((np.abs(diff) <= HERMITIAN_TOL).all())


def _check_positive(blk: np.ndarray):
    """StateError unless the Hermitian blk has no eigenvalue below -POSITIVE_TOL.

    The rows whose squared norms, smallest first, sum to at most (delta/2)^2,
    delta = _DROP_TOL, are left out with their columns.  What they hold, E,
    has ||E||_2 <= ||E||_F <= delta, so by Weyl's inequality a Cholesky
    factor of the kept block plus (POSITIVE_TOL - delta) I proves that blk
    has no eigenvalue below -POSITIVE_TOL.  Only when that factorization
    fails is blk + POSITIVE_TOL I factorized, and only when that fails too
    do the eigenvalues decide the borderline and name the least.
    """
    k = blk.shape[0]
    norm2 = np.empty(k)
    for b in _chunks(k, 2 * k):
        norm2[b] = np.vecdot(blk[b], blk[b]).real
    order = np.argsort(norm2)
    keep = np.ones(k, dtype=bool)
    keep[order[:np.searchsorted(np.cumsum(norm2[order]), 0.25 * _DROP_TOL**2,
                                side="right")]] = False
    if (_factorizes(blk[np.ix_(keep, keep)], POSITIVE_TOL - _DROP_TOL)
            or _factorizes(blk.copy(), POSITIVE_TOL)):
        return
    lo = float(np.linalg.eigvalsh(blk)[0])
    if lo < -POSITIVE_TOL:
        raise StateError(f"rho not positive semidefinite (min eig {lo:.3e})")


def _factorizes(a: np.ndarray, shift: float) -> bool:
    """Whether a + shift I has a Cholesky factor (positive definite); a is overwritten."""
    a.flat[:: a.shape[0] + 1] += shift
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def coherent_state(ms: ModeSpace, cp: CoherentParams) -> RingState:
    """Ring coherent state psi_m = C_xi exp(-(m-xi)^2/(2 alpha^2) - i m theta).

    The cutoff must contain the Gaussian tail: lattice mass beyond m_max
    above 1e-12 raises CutoffError (rule of thumb: m_max >= xi + 8 alpha).
    """
    tail = coherent_tail_mass(ms, cp)
    if tail > TAIL_TOL:
        raise CutoffError(
            f"m_max={ms.m_max} too small for coherent state (xi={cp.xi}, "
            f"alpha={cp.alpha}): tail mass {tail:.3e} > {TAIL_TOL}"
        )
    m = ms.modes().astype(float)
    c = coherent_norm(cp.xi, cp.alpha)
    gauss = np.exp(-((m - cp.xi) ** 2) / (2.0 * cp.alpha**2))
    coeffs = c * gauss * np.exp(-1j * m * cp.theta)
    # the Gaussian line packet the coefficients sample
    sigma = ms.r / (math.sqrt(2.0) * cp.alpha)
    packet = LineProfileOnRing(LineState(p=cp.xi / ms.r, sigma=sigma), cp.theta,
                               c * ms.r * (math.pi / (2.0 * sigma**2)) ** 0.25)
    return RingState(ms, coeffs=coeffs, packet=packet)


def coherent_tail_mass(ms: ModeSpace, cp: CoherentParams) -> float:
    """Probability mass of the coherent lattice Gaussian beyond |m| = m_max.

    This is the truncation remainder of every series built on the state.
    """
    # a centre more than width (at least 10 and about 12 alpha) past m_max
    # leaves under e^-100 of the mass inside: the tail is 1, also where
    # float64 no longer tells the modes apart (|xi| from about 1e16).
    # Otherwise the width modes just past m_max, and once the centre k is
    # past it too, those within width of k
    width, k = max(10, int(12 * cp.alpha)), np.round(abs(cp.xi))
    if abs(cp.xi) - ms.m_max > width:
        return 1.0
    c2 = coherent_norm(cp.xi, cp.alpha) ** 2
    ext = np.arange(max(ms.m_max + 1, k - width), max(ms.m_max + 1, k + 1) + width)
    up = np.exp(-((ext - cp.xi) ** 2) / cp.alpha**2)
    dn = np.exp(-((-ext - cp.xi) ** 2) / cp.alpha**2)
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


def gaussian_line(ls: LineState, x: float, t: float | None = None, mu: float = 0.0) -> complex:
    """Line wavefunction at position x; freely evolved when t is given.

    The evolved value is the quadrature of (2 pi)^(-1/2) ∫ dk psi~(k)
    exp(ikx - i omega_k t) with omega_k = sqrt(mu^2 + k^2) over p ± 8/sigma
    (_line_quadrature).  This is the line-theory oracle: no stationary-phase
    or spreading approximation.  The n- and 2n-panel rules must agree within
    max(1e-12, 1e-8 |value|), else QuadratureError.
    """
    if not (math.isfinite(x) and (t is None or math.isfinite(t))):
        raise DomainError(f"line position and time must be finite, got x={x}, t={t}")
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
    any object with an ``of_lattice(ms)`` method (an AbsorptionProfile); an
    array must hold real numbers, not bools or strings (StateError).
    rho_ps(m, m') = rho(m, m') sqrt(a(m) a(m')) / trace.
    """
    ms = state.modespace
    if hasattr(weights, "of_lattice"):
        a = weights.of_lattice(ms)
    else:
        a = number_array(weights, "absorption weights", StateError)
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


# how state_from_spec reads a value of each type (a choice as it is)
_CASTS = {"float": as_float, "modes": lambda val: {
    int(m): complex(*map(as_float, a)) if isinstance(a, list) and len(a) == 2
    else complex(as_float(a)) for m, a in val.items()}}


def state_from_spec(ms: ModeSpace, spec: dict) -> RingState:
    """Build a state from the JSON schema {kind: ..., ...params}, whose keys,
    required keys and defaults STATE_SPEC_KEYS declares per kind.

    Keys the table does not declare are ignored.  A missing or malformed
    value (a number or amplitude part that modes.is_number refuses) raises
    StateError naming the kind and key.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise StateError("state spec must be an object with a 'kind' field")
    kind = spec["kind"]
    if kind not in list(STATE_SPEC_KEYS):  # a JSON kind may be an unhashable list
        raise StateError(f"unknown state kind {kind!r}")
    args = {}
    for key, (typ, _, default) in STATE_SPEC_KEYS[kind].items():
        if key not in spec and default is REQUIRED:
            raise StateError(f"{kind} state spec needs a {key!r} field")
        try:
            args[key] = _CASTS.get(typ, lambda v: v)(spec.get(key, default))
        except (TypeError, ValueError, AttributeError) as exc:
            raise StateError(f"{kind} state spec: bad {key!r} field: {exc}") from None
    if kind == "coherent":
        return coherent_state(ms, CoherentParams(**args))
    if kind == "gaussian-line":
        theta0 = args.pop("theta0")
        return line_to_ring(ms, LineState(**args), theta0)
    if kind == "mode-list":
        return from_modes(ms, args["modes"])
    return symmetric_superposition(ms, state_from_spec(ms, args["base"]))


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
