"""Lattice sums over the ring's angular-momentum modes, and the chunk rule they share.

The mode sum sum_m c_m exp(i(m phi - omega_m t)) (_mode_sum) and the double
sum of a general localization matrix (_double_sum), on a broadcast (t, phi)
grid.  Each of their phases e^{ix} comes from one kernel, _unit_phasors (a
table of roots of unity and short series; the line oracle keeps libm's exp).
Every chunked loop of the package sizes its chunks by _chunks.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# entries of the temporaries a chunked loop holds at once by default, and
# the cap on any loop's own budget (4 MB of complex values: the uniform sums'
# step tables); the one copy, read by _chunks
_CHUNK_BUDGET = 1 << 18

# Unit phasors e^{ix} (see _unit_phasors): x = k 2 pi / _TABLE_N + r with
# k = rint(x _TABLE_SCALE), e^{ix} = _TABLE[k mod _TABLE_N] e^{ir}, the table
# step of Tang (ACM TOMS 15(2), 1989).  _TABLE_SPLIT is 2 pi / _TABLE_N as
# three parts of at most 12 bits, whose products with any |k| < 2^41 are
# exact, and a 53-bit tail: together 2 pi / N to about 2^-98 (Cody and
# Waite, Software Manual for the Elementary Functions, 1980).
# |x| <= _TABLE_REACH keeps |k| under 2^41.  Arrays of fewer than _MIN_TABLE
# entries, where the kernel's fixed cost of about twenty numpy calls
# outweighs its saving, and arrays reaching beyond _TABLE_REACH take libm's
# exp.  A block of _PHASOR_BLOCK entries (512 KB of complex values) keeps its
# temporaries in a 2 MB L2: the table path runs a block at a time, and the
# lattice sums (_dense_sum, _double_sum, _blocked_sum's block heads) form,
# take and contract their phases a block of modes x points at a time, so the
# allocator hands back warm memory instead of freshly mapped pages.
_TABLE_N = 4096
_TABLE_SCALE = _TABLE_N / (2.0 * math.pi)
_TABLE_SPLIT = tuple(float.fromhex(h) for h in (
    "0x1.92p-10", "0x1.fb4p-22", "0x1.444p-34", "0x1.68c234c4c6629p-49"))
_TABLE_REACH = 2.0**31
_MIN_TABLE = 1 << 10
_PHASOR_BLOCK = 1 << 15

# Uniform grids (see _mode_sum).  A block holds _BLOCK points, so a grid of
# n points costs modes x (_BLOCK + n / _BLOCK) unit phasors instead of
# modes x n; a full period of angles at one t costs modes phasors and one FFT.
# Grids shorter than _MIN_UNIFORM save too little and stay dense.  A grid
# counts as uniform when every point lies within tol_t = _UNIFORM_ULPS ulps
# of max|t| (tol_phi: of max|phi|) of the progression (_grid_tol), and as a
# full period when also |n dphi| is within tol_phi of 2 pi.  _mode_sum
# states the phase error this allows.
_BLOCK = 64
_MIN_UNIFORM = 2 * _BLOCK
_UNIFORM_ULPS = 8

# unit roundoff of float64 (see _significant)
_UNIT_ROUNDOFF = 2.0**-53
# imaginary residue a double sum may keep (see _double_sum)
REALITY_TOL = 1e-10


def _chunks(n: int, width: int, budget: int | None = None) -> list[slice]:
    """Slices of range(n), each of about budget entries of width each (at least one item).

    budget defaults to _CHUNK_BUDGET, and an explicit budget is capped at it,
    read at call time: every chunked loop of the package sizes its chunks
    here, so one patched value reaches all.
    """
    cap = _CHUNK_BUDGET if budget is None else min(budget, _CHUNK_BUDGET)
    step = max(1, cap // max(width, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _product_err(x: np.ndarray, a: np.ndarray, xa: np.ndarray) -> np.ndarray:
    """x a - xa exactly, for xa = x * a broadcast (Dekker's TwoProduct)."""
    (xh, xl), (ah, al) = _split(x), _split(a)
    return ((xh * ah - xa) + xh * al + xl * ah) + xl * al


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split v = hi + lo, each with at most 26 significant bits."""
    hi = 134217729.0 * v  # 2^27 + 1
    hi -= hi - v
    return hi, v - hi


def _roots_of_unity(n: int) -> np.ndarray:
    """e^{2 pi i j / n} for j < n, n a multiple of 8, from cos and sin on one octant.

    Angles up to pi/4 round 2 pi j / n by under one unit roundoff; the other
    entries follow exactly by cos(pi/2 - a) = sin(a) and quarter turns.
    """
    a = np.arange(n // 8 + 1) * (2.0 * math.pi / n)
    c, s = np.cos(a), np.sin(a)
    q = n // 8
    c0, s0 = np.concatenate([c, s[q - 1:0:-1]]), np.concatenate([s, c[q - 1:0:-1]])
    out = np.empty(n, dtype=complex)
    out.real = np.concatenate([c0, -s0, -c0, s0])
    out.imag = np.concatenate([s0, c0, -s0, -c0])
    return out


_TABLE = _roots_of_unity(_TABLE_N)


def _on_grid(t, phi, fill):
    """fill(t, phi) on the flattened broadcast grid, reshaped back (scalar for scalar).

    Every evaluation point must be finite: DomainError otherwise.
    """
    t_arr, phi_arr = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(phi, dtype=float))
    if not (np.isfinite(t_arr).all() and np.isfinite(phi_arr).all()):
        raise DomainError("evaluation points must be finite")
    out = fill(t_arr.ravel(), phi_arr.ravel())
    if t_arr.shape == ():
        return out[0].item()
    return out.reshape(t_arr.shape)


def _arithmetic_step(x: np.ndarray) -> float | None:
    """Step d with x_j = x_0 + j d to within _UNIFORM_ULPS ulps of max|x|, else None.

    d is taken from the end points, (x_{n-1} - x_0) / (n - 1), not from
    x_1 - x_0, whose rounding would drift by (n - 1) times as much along the
    grid.  A constant array has step 0.
    """
    if x.ndim != 1 or x.size < 2:
        return None
    d = (x[-1] - x[0]) / (x.size - 1)
    ideal = x[0] + d * np.arange(x.size)
    return float(d) if float(np.max(np.abs(x - ideal))) <= _grid_tol(x) else None


def _grid_tol(x: np.ndarray) -> float:
    """_UNIFORM_ULPS ulps of max|x|: how far a uniform grid may stray from its progression."""
    return _UNIFORM_ULPS * float(np.finfo(float).eps) * float(np.max(np.abs(x)))


def _significant(mag: np.ndarray) -> np.ndarray:
    """Mask of the terms mag > u sum(mag) / nnz, u the unit roundoff, nnz the non-zeros.

    The terms it drops are at most nnz, each at most u sum(mag) / nnz, and not
    all of them (some term reaches the mean), so together they stay under
    u sum(mag): inside the error bound gamma_n sum|c| of any n-term sum of
    the same terms (Higham, Accuracy and Stability of Numerical Algorithms,
    sec. 3.1).  Zeros are never kept; an all-zero input keeps nothing.
    """
    return mag > _UNIT_ROUNDOFF * mag.sum() / max(np.count_nonzero(mag), 1)


def _unit_phasors(x: np.ndarray) -> np.ndarray:
    """e^{ix} elementwise, within 4 u (u the unit roundoff): the one lattice phasor kernel.

    With k = rint(x N / 2 pi), N = _TABLE_N, the Cody-Waite split reduces
    r = x - k 2 pi / N to within 2^-59 rad, with |r| <= pi / N (1 + 2^-10),
    and e^{ix} = T_k + T_k (cos r - 1 + i sin r), T_k = _TABLE[k mod N], with
    cos r - 1 = r^2 (r^2 / 24 - 1 / 2) and sin r = r - r^3 / 6 (truncated
    under 2^-58).  The error is the table's (under 2 u) plus one rounding of
    the last sum.  Small arrays and arrays with |x| >
    _TABLE_REACH take np.exp (libm's, within about u) instead.  The table
    path runs through x in _PHASOR_BLOCK-entry blocks (_chunks).
    """
    if x.size < _MIN_TABLE or not max(x.max(), -x.min()) <= _TABLE_REACH:
        return np.exp(x * 1j)
    out = np.empty(x.shape, dtype=complex)
    xf, of = x.reshape(-1), out.reshape(-1)
    for sl in _chunks(xf.size, 1, _PHASOR_BLOCK):
        xb, ob = xf[sl], of[sl]
        k = np.rint(xb * _TABLE_SCALE)
        r = xb - k * _TABLE_SPLIT[0]
        for part in _TABLE_SPLIT[1:]:
            r -= k * part
        head = _TABLE[k.astype(np.intp) & (_TABLE_N - 1)]
        r2 = r * r
        ob.real = r2 * (r2 * (1.0 / 24.0) - 0.5)
        ob.imag = r - r * (r2 * (1.0 / 6.0))
        ob *= head
        ob += head
    return out


def _phases(m, w, t, phi):
    """exp(i(m phi - w t)) as a modes x points matrix: the one lattice phase formula.

    x = m phi - w t is formed in one buffer, with the same bits as the
    elementwise expression, and _unit_phasors takes it from there.
    """
    x = np.multiply.outer(m, phi)
    x -= np.multiply.outer(w, t)
    return _unit_phasors(x)


def _dense_sum(c, mm, ww, tf, pf):
    """The reference evaluation: one unit phasor per mode x point.

    Chunked over points, a _PHASOR_BLOCK of entries a chunk (one point when
    the modes alone exceed it): each point is one product c @ phases over
    all of its modes.
    """
    out = np.empty(tf.size, dtype=complex)
    for sl in _chunks(tf.size, c.size, _PHASOR_BLOCK):
        out[sl] = c @ _phases(mm, ww, tf[sl], pf[sl])
    return out


def _blocked_sum(c, mm, ww, tf, pf, dt, dp):
    """The same sum on a uniform grid, one GEMM per chunk of modes and of blocks.

    Point b*B + k of block b has phase theta_m(b*B) + k beta_m, beta_m =
    m dp - omega_m dt: the block-start phases come from the grid values by
    _phases, the in-block steps from a modes x B table of
    _unit_phasors(k beta_m) that also carries the coefficients, formed a
    chunk of modes at a time.  The heads' phases go a _PHASOR_BLOCK of
    modes x heads at a time, as the scattered sums' do.
    """
    heads_t, heads_p = tf[::_BLOCK], pf[::_BLOCK]
    out = np.zeros((heads_t.size, _BLOCK), dtype=complex)
    for part in _chunks(c.size, _BLOCK):
        m_, w_ = mm[part], ww[part]
        steps = c[part, None] * _unit_phasors(np.outer(m_ * dp - w_ * dt, np.arange(_BLOCK)))
        for sl in _chunks(heads_t.size, m_.size, _PHASOR_BLOCK):
            out[sl] += _phases(m_, w_, heads_t[sl], heads_p[sl]).T @ steps
    return out.ravel()[:tf.size]


def _period_sum(c, mm, ww, tf, pf, dp):
    """The same sum on a full period of angles at one time: one FFT, no BLAS.

    With n points phi_j = phi_0 + j dp and n dp = +-2 pi, e^{i m phi_j} =
    e^{i m phi_0} e^{+-2 pi i m j / n} depends on the integer m only mod n.
    So the terms d_m = c_m e^{i(m phi_0 - omega_m t_0)}, one column of
    _phases, fold by m mod n (exactly, however many modes share a residue),
    and one inverse FFT (dp > 0) or forward FFT (dp < 0) of length n sums
    them: O(modes + n log n).
    """
    n = tf.size
    d = c * _phases(mm, ww, tf[:1], pf[:1])[:, 0]
    k = np.mod(mm, n).astype(np.intp)
    folded = np.bincount(k, d.real, n) + 1j * np.bincount(k, d.imag, n)
    return np.fft.ifft(folded, norm="forward") if dp > 0 else np.fft.fft(folded)


def _mode_sum(coeffs: np.ndarray, m: np.ndarray, freq: np.ndarray, t, phi):
    """sum_m coeffs_m exp(i(m phi - freq_m t)) over a broadcast (t, phi) grid, m integers.

    A flattened grid of at least _MIN_UNIFORM points that is an arithmetic
    progression in both t and phi (either step may be 0) is uniform.  A
    uniform grid at one t whose n angles span one full period, |n dphi| =
    2 pi within tol_phi, takes _period_sum; any other uniform grid takes
    _blocked_sum, and every other grid _dense_sum.  On a uniform grid the
    phases stray from the dense ones by at most
    2 (max|freq_m| tol_t + max|m| tol_phi) rad plus roundoff, tol_t and
    tol_phi the _grid_tol of t and phi.
    Each path sums only the _significant terms, within u sum|coeffs| of the
    sum over all of them.
    """
    active = _significant(np.abs(coeffs))
    c, mm, ww = coeffs[active], m[active], freq[active]

    def fill(tf, pf):
        if tf.size >= _MIN_UNIFORM:
            dt, dp = _arithmetic_step(tf), _arithmetic_step(pf)
            if dt == 0.0 and dp is not None \
                    and abs(abs(tf.size * dp) - 2.0 * math.pi) <= _grid_tol(pf):
                return _period_sum(c, mm, ww, tf, pf, dp)
            if dt is not None and dp is not None:
                return _blocked_sum(c, mm, ww, tf, pf, dt, dp)
        return _dense_sum(c, mm, ww, tf, pf)

    return _on_grid(t, phi, fill)


def _double_sum(kernel: np.ndarray, m: np.ndarray, freq: np.ndarray, t, phi):
    """The real sum_{j,k} kernel_jk exp(i((m_j - m_k) phi - (freq_j - freq_k) t)) on a grid.

    Rows and columns whose row sums of |kernel| fall under _significant are
    dropped (at most 2 u sum|kernel|).  Chunked over points as _dense_sum is;
    each chunk of phases u is one GEMM v = kernel^T u, then the column sums
    of v * conj(u).  kernel must be Hermitian: an imaginary residue above
    REALITY_TOL of max(1, max|real|) raises DomainError.
    """
    active = _significant(np.abs(kernel).sum(axis=1))
    kernel = kernel[np.ix_(active, active)]
    ma, wa = m[active], freq[active]

    def fill(tf, pf):
        vals = np.empty(tf.size, dtype=complex)
        for sl in _chunks(tf.size, ma.size, _PHASOR_BLOCK):
            u = _phases(ma, wa, tf[sl], pf[sl])
            v = kernel.T @ u
            v *= np.conjugate(u, out=u)
            vals[sl] = v.sum(axis=0)
        resid = float(np.max(np.abs(vals.imag), initial=0.0))
        if resid > REALITY_TOL * max(float(np.max(np.abs(vals.real), initial=0.0)), 1.0):
            raise DomainError(
                f"non-Hermitian input: imaginary residue {resid:.3e} exceeds tolerance"
            )
        return vals.real

    return _on_grid(t, phi, fill)
