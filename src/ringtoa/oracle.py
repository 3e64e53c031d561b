"""The line oracle: winding images of the line arrival amplitude, by panel quadrature.

Poisson resummation turns the lattice mode sum into a sum over winding
images of the line arrival amplitude.  _images integrates the images a
packet can reach, all at once, by composite Gauss-Legendre panels in k
(_line_quadrature), gated on self-convergence.  The nodes are non-uniform on
purpose: a uniform rule with step 1/r would be the lattice sum itself.  The
oracle shares only the chunk rule and the exact product with the lattice
module, which is what makes the agreement of the two a real cross-check.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np

from .errors import QuadratureError, StateError
from .lattice import _chunks, _product_err

# A Gauss-Legendre panel rule on [-1, 1].  The nodes must stay non-uniform:
# a uniform rule with step 1/r in k is, by Poisson summation, the lattice
# mode sum the oracle checks.
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

# 2 pi - float(2 pi): the second term of the image spacing (_winding_positions)
_TWO_PI_LO = 2.4492935982947064e-16

# An image is integrated only within _REACH_SIGMAS initial widths of the
# positions v_k t the packet's momentum window can carry it to (_reach_windings).
_REACH_SIGMAS = 14.0
# p sigma below which the packet's momentum profile at k = 0, e^{-(p sigma)^2}
# of its peak, exceeds 1e-12: the k >= 0 window then drops real content
_REACH_P_SIGMA = math.sqrt(12.0 * math.log(10.0))


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
    pairs (_ratio; see _winding_positions), which the carrier phase needs
    exact.
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


def _reach_windings(x0_over_r: float, v_lo: float, v_hi: float, t: float, sigma: float,
                    r: float) -> range:
    """Windings n whose image x_n = (x0_over_r + 2 pi n) r lies in the packet's reach.

    The reach is the span of v_lo t and v_hi t, padded by 14 sigma: the
    positions the momenta of the window, at speeds in [v_lo, v_hi], carry
    the packet to in time t (of either sign), padded by its initial
    Gaussian width sigma.  The range may be empty.
    """
    a, b = sorted((v_lo * t, v_hi * t))
    lo = ((a - _REACH_SIGMAS * sigma) / r - x0_over_r) / (2.0 * math.pi)
    hi = ((b + _REACH_SIGMAS * sigma) / r - x0_over_r) / (2.0 * math.pi)
    return range(math.ceil(lo), math.floor(hi) + 1)


def _root_speed(k: np.ndarray, mu: float) -> np.ndarray:
    """sqrt(v_k) on the line at quadrature nodes (all k > 0; no overflow at their sizes)."""
    return np.sqrt(k / np.sqrt(mu * mu + k * k))


def _winding_positions(phi: float, theta0: float, windings, r: float) -> list[tuple[int, int]]:
    """Image positions (phi - theta0 + 2 pi n) r as exact integer pairs (num, den).

    2 pi is carried to two float terms (error ~1e-32).  In floats the
    position of winding n errs by up to n ulps of 2 pi r plus its own
    rounding: a phase error of ~1e-12 rad at k ~ 1e3, as large as the
    mode sum's own roundoff.  The pairs are those of _ratio: sums and
    products over a common denominator, never reduced.
    """
    (hn, hd), (ln, ld) = _ratio(2.0 * math.pi), _ratio(_TWO_PI_LO)
    (pn, pd), (tn, td), (rn, rd) = _ratio(phi), _ratio(theta0), _ratio(r)
    two_pi_n, two_pi_d = hn * ld + ln * hd, hd * ld
    base_n, base_d = pn * td - tn * pd, pd * td
    return [((base_n * two_pi_d + two_pi_n * n * base_d) * rn, base_d * two_pi_d * rd)
            for n in windings]


def _images(ms, packet, t: float, phi: float) -> np.ndarray:
    """Line amplitudes of the LineProfileOnRing packet's winding images at (t, phi), without pref.

    Only the images in the reach of the momentum window [max(0, p - 8/sigma),
    p + 8/sigma] are integrated (_reach_windings, at the window's end speeds
    _window_speeds), each gated at rel_tol 1e-10: none at a point out of
    every image's reach.  Every other image is under 1e-12 of the peak image
    unless p sigma < _REACH_P_SIGMA, where the window's cut at k = 0 drops
    more than that (_warn_below_reach, which the public callers run once).
    """
    line, theta0 = packet.line, packet.theta0
    p, sigma = line.p, line.sigma
    if p <= 0:
        raise StateError("Poisson images require positive mean momentum")
    k_lo, k_hi = max(0.0, p - 8.0 / sigma), p + 8.0 / sigma
    v_lo, v_hi = _window_speeds(ms.mu, k_lo, k_hi)
    windings = _reach_windings(phi - theta0, v_lo, v_hi, t, sigma, ms.r)
    if not windings:
        return np.zeros(0, dtype=complex)
    x = _winding_positions(phi, theta0, windings, ms.r)
    # sqrt(v_k) = 1 at every node k > 0 of a massless window
    weight = line.momentum_profile if ms.mu == 0 else (
        lambda k: _root_speed(k, ms.mu) * line.momentum_profile(k))
    vals, gap = _line_quadrature(x, t, ms.mu, weight, k_lo, k_hi)
    _gate(vals, gap, [n / d for n, d in x], t, 1e-10)
    return vals


def _warn_below_reach(packet):
    """UserWarning naming p sigma when it is below _REACH_P_SIGMA (see _images).

    Filed at the line that called the public function calling this one.
    """
    p_sigma = packet.line.p * packet.line.sigma
    if p_sigma < _REACH_P_SIGMA:
        warnings.warn(
            f"Poisson images drop the packet's momenta k < 0 (p*sigma = {p_sigma:.3g} "
            f"< {_REACH_P_SIGMA:.3g}): not a 1e-12 reference", stacklevel=3)


def _gate(vals: np.ndarray, gap: np.ndarray, x: list, t: float, rel_tol: float):
    """QuadratureError unless each image's n/2n gap is within max(1e-10, 100 rel_tol |value|)."""
    bad = np.flatnonzero(gap > np.maximum(1e-10, 100.0 * rel_tol * np.abs(vals)))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"line amplitude quadrature poorly converged at x={x[i]}, t={t}: "
            f"estimate {gap[i]:.3e} for |value| {abs(vals[i]):.3e}"
        )
