"""Detector kernels, localization matrices, and absorption profiles.

A detector is summarized by a nonnegative kernel R(omega, m) supported on
timelike, positive-energy arguments.  Two analytic families are built in:

* ``max-localization``: A exp(-gamma1 |m|/r - gamma0 omega), the family whose
  localization matrix is identically 1 (sharpest possible record);
* ``ring-exponential``: A exp(-a r omega) restricted to m > 0, which on shell
  (mu = 0) reduces to the one-sided profile exp(-a m) used for the rotation
  noise analysis.

Arbitrary detectors enter as tabulated kernels with bilinear interpolation.
The localization matrix is the midpoint ratio
L(m, m') = R((w+w')/2, (m+m')/2) / sqrt(R(w, m) R(w', m')); physical kernels
must keep it in [0, 1], and the builder rejects anything above 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SupportError, UnphysicalKernelError
from .lattice import _chunks
from .modes import ModeSpace, RotationFrame, omega, rotating_omega
from .specfun import sinc

__all__ = [
    "DetectorKernel",
    "AbsorptionProfile",
    "LocalizationMatrix",
    "WignerWeylField",
    "kernel_eval",
    "kernel_from_spec",
    "localization_matrix",
    "absorption",
    "wigner_weyl",
]

L_UPPER_TOL = 1e-12


@dataclass(frozen=True)
class DetectorKernel:
    """Detector response kernel R(omega, m).

    Use the classmethod constructors; ``params`` holds the family constants.
    The overall scale A cancels in localization matrices and in
    trace-normalized probabilities, so only ratios of kernel values matter.
    """

    family: str
    params: dict = field(default_factory=dict)

    @classmethod
    def max_localization(cls, A: float = 1.0, gamma0: float = 0.0, gamma1: float = 0.0,
                         chiral: bool = False) -> "DetectorKernel":
        """Exponential family A exp(-gamma1 |m|/r - gamma0 omega).

        chiral=True additionally restricts support to m > 0 (detector coupled
        to right-movers only), which keeps gamma1 > 0 kernels physical on the
        full lattice.
        """
        if A <= 0 or gamma0 < 0 or gamma1 < 0:
            raise DomainError("need A > 0 and gamma0, gamma1 >= 0")
        return cls("max-localization",
                   {"A": A, "gamma0": gamma0, "gamma1": gamma1, "chiral": chiral})

    @classmethod
    def ring_exponential(cls, a: float, A: float = 1.0) -> "DetectorKernel":
        """One-sided kernel A exp(-a r omega) theta(m); on shell at mu=0 it is A e^(-a m)."""
        if a <= 0 or A <= 0:
            raise DomainError("need a > 0 and A > 0")
        return cls("ring-exponential", {"A": A, "a": a})

    # log-value floor marking zero/off-support table cells, and the log value
    # at or below which a cell is zero: half a floor contribution still
    # underflows exp to zero
    _LOG_FLOOR = -1e6
    _LOG_ZERO = 0.25 * _LOG_FLOOR

    @classmethod
    def tabulated(cls, omega_grid, m_grid, values,
                  log_values: bool = False) -> "DetectorKernel":
        """Custom kernel from a table over (omega, m), interpolated bilinearly
        in log space (exact for exponential-family kernels, and free of the
        convexity overshoot that would spuriously push midpoint ratios above
        1 for smooth positive kernels).  Zero cells and points outside the
        table evaluate to zero.  With log_values=True the table entries are
        log R directly, which permits kernels whose linear values overflow.
        """
        og = np.asarray(omega_grid, dtype=float)
        mg = np.asarray(m_grid, dtype=float)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (og.size, mg.size):
            raise DomainError(
                f"table shape {vals.shape} does not match grids ({og.size},{mg.size})"
            )
        for name, grid in (("omega", og), ("m", mg)):
            if grid.ndim != 1 or grid.size < 2 or not np.all(np.diff(grid) > 0):
                raise DomainError(f"{name} grid must hold at least 2 strictly ascending nodes")
        if log_values:
            # log 0 = -inf is a zero cell, as a zero linear entry is below
            logs = np.maximum(vals, cls._LOG_FLOOR)
        else:
            if np.any(vals < 0):
                raise DomainError("kernel table must be nonnegative")
            with np.errstate(divide="ignore"):
                logs = np.where(vals > 0, np.log(np.where(vals > 0, vals, 1.0)),
                                cls._LOG_FLOOR)
        return cls("custom", {"omega_grid": og, "m_grid": mg, "logs": logs})

    def raw_value(self, omega_val, m, r: float) -> np.ndarray:
        """Kernel functional form at literal arguments, no support clipping.

        This is the evaluation used for rotating-frame energies, where the
        literal argument may lie outside the static support cone.
        """
        w = np.asarray(omega_val, dtype=float)
        m = np.asarray(m, dtype=float)
        if self.family == "max-localization":
            p = self.params
            out = p["A"] * np.exp(-p["gamma1"] * np.abs(m) / r - p["gamma0"] * w)
            if p["chiral"]:
                out = np.where(m > 0, out, 0.0)
        elif self.family == "ring-exponential":
            p = self.params
            out = np.where(m > 0, p["A"] * np.exp(-p["a"] * r * w), 0.0)
        else:
            logs = self.log_raw(w, m)
            out = np.where(logs > self._LOG_ZERO, np.exp(logs), 0.0)
        return out

    def log_raw(self, omega_val, m):
        """log R of a tabulated kernel at literal arguments (no support clipping).

        The table's bilinear interpolant, in the broadcast shape of the
        arguments, so that the localization builder forms midpoint ratios in
        the exponent: first along m, then along omega.  Zero cells and points
        off the table come back below _LOG_FLOOR / 2.  The analytic families
        have no table: their matrices are closed form.
        """
        w, m = np.broadcast_arrays(np.asarray(omega_val, dtype=float),
                                   np.asarray(m, dtype=float))
        logs = self.params["logs"]
        j, y, m_in = _bracket(self.params["m_grid"], m)
        i, x, w_in = _bracket(self.params["omega_grid"], w)
        val = _lerp(_lerp(logs[i, j], logs[i, j + 1], y),
                    _lerp(logs[i + 1, j], logs[i + 1, j + 1], y), x)
        return np.where(m_in & w_in, val, self._LOG_FLOOR)


def _bracket(grid: np.ndarray, x: np.ndarray):
    """(i, y, inside): x = grid[i] + y (grid[i+1] - grid[i]), i in [0, len - 2].

    inside is false off [grid[0], grid[-1]], where x is clamped to the
    nearest end, so that the weights stay finite.
    """
    xc = np.clip(x, grid[0], grid[-1])
    i = np.searchsorted(grid[1:-1], xc, side="right")
    y = (xc - grid[i]) / (grid[i + 1] - grid[i])
    return i, y, xc == x


def _lerp(lo, hi, y):
    """lo (1 - y) + hi y: the one linear step of the table interpolant."""
    return lo * (1.0 - y) + hi * y


def _from_rows(table: np.ndarray) -> DetectorKernel:
    """A tabulated kernel from rows [omega, m, value] that list each point of
    a rectangular (omega, m) grid once."""
    if table.ndim != 2 or table.shape[1] != 3:
        raise DomainError("custom kernel table must be rows of [omega, m, value]")
    og = np.unique(table[:, 0])
    mg = np.unique(table[:, 1])
    if (og.size * mg.size != table.shape[0]
            or np.unique(table[:, :2], axis=0).shape[0] != table.shape[0]):
        raise DomainError("custom kernel table must cover a full (omega, m) grid, "
                          "each point once")
    vals = np.zeros((og.size, mg.size))
    vals[np.searchsorted(og, table[:, 0]), np.searchsorted(mg, table[:, 1])] = table[:, 2]
    return DetectorKernel.tabulated(og, mg, vals)


def _flag(val) -> bool:
    """A JSON bool as is; bool() would read the string "false" as True."""
    if not isinstance(val, (bool, np.bool_)):
        raise TypeError(f"{val!r} is not a bool")
    return bool(val)


# a kernel spec's fields per family: (builder, {key: cast}, required keys);
# an absent key takes the builder's own default
_KERNEL_SPECS = {
    "max-localization": (DetectorKernel.max_localization, {
        "A": float, "gamma0": float, "gamma1": float, "chiral": _flag}, ()),
    "ring-exponential": (DetectorKernel.ring_exponential, {"a": float, "A": float}, ("a",)),
    "custom": (_from_rows, {"table": lambda v: np.asarray(v, dtype=float)}, ("table",)),
}


def kernel_from_spec(spec: dict) -> DetectorKernel:
    """Build a kernel from the JSON schema {family: ..., ...params}.

    families (_KERNEL_SPECS): max-localization {A?, gamma0?, gamma1?,
    chiral?}; ring-exponential {a, A?}; custom {table: [[omega, m, value],
    ...]} with the table listing each point of a rectangular (omega, m) grid
    once.  An absent optional key takes the constructor's default.  A key the
    family does not declare, a missing key or a malformed value raises
    DomainError naming it.
    """
    if not isinstance(spec, dict) or "family" not in spec:
        raise DomainError("kernel spec must be an object with a 'family' field")
    family = spec["family"]
    if family not in list(_KERNEL_SPECS):  # a JSON family may be an unhashable list
        raise DomainError(f"unknown kernel family {family!r}")
    build, casts, required = _KERNEL_SPECS[family]
    for key in spec:
        if key != "family" and key not in casts:
            raise DomainError(f"{family} kernel spec has no {key!r} field")
    for key in required:
        if key not in spec:
            raise DomainError(f"{family} kernel spec needs a {key!r} field")
    args = {}
    for key in [key for key in casts if key in spec]:
        try:
            args[key] = casts[key](spec[key])
        except (TypeError, ValueError) as exc:
            raise DomainError(f"{family} kernel spec: bad {key!r} field: {exc}") from None
    return build(**args)


def _in_cone(w: np.ndarray, m: np.ndarray, r: float) -> np.ndarray:
    """The static support cone: positive energy, timelike |m|/r <= omega."""
    return (w >= 0) & (np.abs(m) / r <= w * (1.0 + 1e-12))


def kernel_eval(dk: DetectorKernel, omega_val, m, r: float) -> np.ndarray | float:
    """Evaluate R(omega, m); zero for omega < 0 or spacelike |m|/r > omega.

    The rotating-frame noise evaluates the kernel at omega_m - m Omega_D
    literally, without this cone test: DetectorKernel.raw_value.
    """
    w = np.asarray(omega_val, dtype=float)
    m_arr = np.asarray(m, dtype=float)
    out = np.where(_in_cone(w, m_arr, r), dk.raw_value(w, m_arr, r=r), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class AbsorptionProfile:
    """Per-mode absorption a(m) ∝ R(omega_m, m) / (2|m|), a(0) = 0.

    The overall coupling constant is set to 1; post-selection renormalizes,
    so only the m-dependence is physical.
    """

    modespace: ModeSpace
    values: np.ndarray

    def of_lattice(self, ms: ModeSpace) -> np.ndarray:
        if ms != self.modespace:
            raise DomainError("absorption profile built for a different mode space")
        return self.values

    def at(self, m: int) -> float:
        return float(self.values[m + self.modespace.m_max])


def absorption(dk: DetectorKernel, ms: ModeSpace) -> AbsorptionProfile:
    """Absorption coefficients on the lattice; zero mode excluded."""
    m = ms.modes()
    w = omega(ms, m)
    vals = kernel_eval(dk, w, m, r=ms.r)
    safe = np.where(m == 0, 1, np.abs(m)).astype(float)
    a = np.where(m == 0, 0.0, vals / (2.0 * safe))
    return AbsorptionProfile(ms, a)


@dataclass(frozen=True)
class LocalizationMatrix:
    """Localization operator matrix over the mode lattice.

    ``on_support`` marks modes where the on-shell kernel is positive; rows
    and columns outside support are zero.  A full-support maximum
    localization matrix is a read-only broadcast of one 1.0 (strides (0, 0),
    no n x n storage); ``np.array(L.matrix)`` gives a writable copy.  Tail
    supports and tabulated kernels are dense.  ``is_max_localization`` is
    true when every supported entry equals 1, which enables the factorized
    fast paths: a broadcast answers from its one stored value, any other
    matrix by scanning its supported rows and columns on each access, in row
    blocks (lattice._chunks) that bound the copy it compares.
    """

    modespace: ModeSpace
    matrix: np.ndarray
    on_support: np.ndarray
    frame: RotationFrame | None = None

    @property
    def is_max_localization(self) -> bool:
        idx = np.flatnonzero(self.on_support)
        if not idx.size:
            return False
        if not any(self.matrix.strides):
            # a broadcast of one value, as localization_matrix stores full support
            return bool(self.matrix.flat[0] == 1.0)
        # the support's rows and columns, copied out one row block at a time
        return all((self.matrix[np.ix_(idx[rows], idx)] == 1.0).all()
                   for rows in _chunks(idx.size, idx.size))

    def require_support(self, occupation: np.ndarray):
        """Raise SupportError if occupation > 1e-14 on a mode outside on_support."""
        bad = (~self.on_support) & (occupation > 1e-14)
        if np.any(bad):
            offenders = self.modespace.modes()[bad]
            raise SupportError(
                f"state occupies modes outside detector support: {offenders[:10].tolist()}"
                + ("..." if offenders.size > 10 else "")
            )


def localization_matrix(dk: DetectorKernel, ms: ModeSpace,
                        frame: RotationFrame | None = None) -> LocalizationMatrix:
    """Midpoint-ratio localization matrix, static or rotating.

    Static energies are on shell; with a frame the rotating energies
    omega_m - m Omega_D replace them (and the kernel is evaluated literally,
    without re-imposing the static support cone).  Kernels whose ratio
    exceeds 1 anywhere on support are rejected as unphysical.

    For the analytic families the energy dependence of the ratio cancels in
    the exponent, leaving exp(-gamma1 (|m+m'|/2 - (|m|+|m'|)/2)/r) on
    support (ring-exponential: 1), which is 1 for pairs of one sign.  So the
    accepted matrices are exactly the support indicator (maximum
    localization, statically and in rotation).  On the full lattice
    (non-chiral max-localization) the largest ratio, exp(gamma1 m_max / r) at
    the corner (m_max, -m_max), is checked in O(1), and the matrix is a
    read-only broadcast of 1.0 that stores one value; ``np.array(L.matrix)``
    gives a writable copy.  The tail supports m > 0 (chiral,
    ring-exponential) are written densely, with no n x n temporaries.  A
    tabulated kernel's matrix is built in row blocks (lattice._chunks), each
    formed from its first row's column on and mirrored: the build holds the
    matrix and one block's temporaries.
    """
    m = ms.modes().astype(float)
    if frame is not None and frame.modespace != ms:
        raise DomainError("frame built over a different mode space")

    if dk.family in ("max-localization", "ring-exponential"):
        if dk.family == "max-localization" and not dk.params["chiral"]:
            # the corner's ratio, in the elementwise ratio's float products
            _check_upper(float(np.exp(-(dk.params["gamma1"] / ms.r) * np.float64(-ms.m_max))))
            # identically 1: one stored value stands for all n^2 entries
            L = np.broadcast_to(np.float64(1.0), (m.size, m.size))
            return LocalizationMatrix(ms, L, np.ones(m.size, dtype=bool), frame=frame)
        sup = m > 0
        L = np.zeros((m.size, m.size))
        L[np.ix_(sup, sup)] = 1.0
        return LocalizationMatrix(ms, L, sup, frame=frame)

    energies = omega(ms, m) if frame is None else rotating_omega(frame, m)
    logs = dk.log_raw(energies, m)
    sup = logs > DetectorKernel._LOG_ZERO
    if frame is None:
        sup &= _in_cone(energies, m, ms.r)
    n = m.size
    L = np.empty((n, n))
    worst = 0.0
    # (m_i + m_j) / 2 = m_0 + (i + j) / 2 depends on the anti-diagonal i + j
    # alone: log_raw's m step once per anti-diagonal, its omega step per
    # pair, so each entry is log_raw's to the bit
    table, og = dk.params["logs"], dk.params["omega_grid"]
    j, y, m_in = _bracket(dk.params["m_grid"], 0.5 * (2.0 * m[0] + np.arange(2 * n - 1)))
    cols = _lerp(table[:, j], table[:, j + 1], y)
    # the ratio is symmetric to the bit (its sums commute), so each row block
    # forms its columns from the block's first row on and mirrors them
    for rows in _chunks(n, 16 * n):
        c = slice(rows.start, n)
        anti = np.add.outer(np.arange(rows.start, rows.stop), np.arange(c.start, n))
        i, x, w_in = _bracket(og, 0.5 * (energies[rows, None] + energies[None, c]))
        log_mid = np.where(m_in[anti] & w_in,
                           _lerp(cols[i, anti], cols[i + 1, anti], x), DetectorKernel._LOG_FLOOR)
        expo = log_mid - 0.5 * (logs[rows, None] + logs[None, c])
        pair = sup[rows, None] & sup[None, c]
        with np.errstate(over="ignore"):
            blk = np.where(pair & (expo > DetectorKernel._LOG_ZERO),
                           np.exp(np.where(pair, expo, 0.0)), 0.0)
        diag = np.arange(blk.shape[0])
        blk[diag, diag] = np.where(sup[rows], 1.0, 0.0)
        worst = max(worst, float(blk.max(initial=0.0)))
        np.clip(blk, 0.0, 1.0, out=blk)
        L[rows, c] = blk
        L[c, rows] = blk.T
    _check_upper(worst)
    return LocalizationMatrix(ms, L, sup, frame=frame)


def _check_upper(worst: float):
    """Raise UnphysicalKernelError if the matrix's largest entry exceeds 1."""
    if worst > 1.0 + L_UPPER_TOL:
        raise UnphysicalKernelError(
            f"localization matrix exceeds 1 (max {worst!r}): kernel violates "
            "positivity of probabilities"
        )


@dataclass(frozen=True)
class WignerWeylField:
    """Phase-space transform samples with the diagonal truncation estimate.

    marginal_truncation[i] is 1 - sum_m sinc(pi (p_i - m)) over the retained
    lattice: the exact deficit of the theta-marginal caused by truncation.
    It vanishes identically at integer p and decays like p/m_max^2 otherwise.
    """

    values: np.ndarray
    marginal_truncation: np.ndarray


def wigner_weyl(op: LocalizationMatrix, theta_grid, p_grid) -> WignerWeylField:
    """Wigner-Weyl transform of the localization operator on a (p, theta) grid.

    L~(theta, p) = (1/2pi) sum_{m,m'} L(m,m') e^{i(m'-m)theta}
                   sinc(pi (p - (m+m')/2)).
    Returned values have shape (len(p_grid), len(theta_grid)), real because L
    is real-symmetric; marginal_truncation has one entry per p.
    """
    theta_grid = np.atleast_1d(np.asarray(theta_grid, dtype=float))
    p_grid = np.atleast_1d(np.asarray(p_grid, dtype=float))
    ms = op.modespace
    m = ms.modes().astype(float)
    n = m.size
    out = np.zeros((p_grid.size, theta_grid.size))
    for d in range(0, n):
        # contiguous, so that the product rounds alike for a dense matrix and
        # a broadcast view (whose diagonals have stride 0)
        band = np.ascontiguousarray(np.diagonal(op.matrix, offset=d))
        if not np.any(band != 0.0):
            continue
        centers = m[: n - d] + 0.5 * d
        s = sinc(math.pi * (p_grid[:, None] - centers[None, :]))
        coeff = s @ band
        if d == 0:
            out += coeff[:, None]
        else:
            out += 2.0 * np.outer(coeff, np.cos(d * theta_grid))
    out /= 2.0 * math.pi
    trunc = 1.0 - np.asarray(
        [float(np.sum(sinc(math.pi * (p - m)))) for p in p_grid]
    )
    return WignerWeylField(out, trunc)
