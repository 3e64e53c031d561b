"""Independent references for the benchmark's correctness checks.

Everything here is written from the paper's formulas in mpmath at 30 digits
and shares no code with the package: no mode-sum kernel, no coherent-state
normalization constant, no localization builder.  A check re-evaluates a
seeded sample of output rows and reports the deviation relative to the
largest value of the output it came from.
"""

from __future__ import annotations

import math

import mpmath as mp

mp.mp.dps = 30

# Gaussian coefficients beyond this many widths from the centre are below
# e^-60 of the peak and do not change a 30-digit sum at the checked tolerances.
WINDOW_WIDTHS = 11.0


class PureState:
    """Pure ring state as {m: coefficient} over the modes that matter."""

    def __init__(self, coeffs: dict, mu: float, r: float):
        self.coeffs = coeffs
        self.mu = mp.mpf(mu)
        self.r = mp.mpf(r)

    @classmethod
    def coherent(cls, mu, r, m_max, xi, alpha, theta=0.0, support=None):
        """psi_m ∝ exp(-(m - xi)^2 / 2 alpha^2 - i m theta), normalized by direct sum.

        support=(lo, hi) truncates the Gaussian to lo <= m <= hi first.
        """
        lo, hi = support or (-m_max, m_max)
        lo = max(lo, math.floor(xi - WINDOW_WIDTHS * alpha))
        hi = min(hi, math.ceil(xi + WINDOW_WIDTHS * alpha))
        xi, alpha, theta = mp.mpf(xi), mp.mpf(alpha), mp.mpf(theta)
        raw = {m: mp.exp(-((m - xi) ** 2) / (2 * alpha**2)) * mp.expj(-m * theta)
               for m in range(lo, hi + 1)}
        norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw.values()))
        return cls({m: c / norm for m, c in raw.items()}, mu, r)

    def symmetric(self) -> "PureState":
        """(psi_m + psi_-m) normalized: the Sagnac superposition."""
        keys = set(self.coeffs) | {-m for m in self.coeffs}
        raw = {m: self.coeffs.get(m, 0) + self.coeffs.get(-m, 0) for m in keys}
        norm = mp.sqrt(mp.fsum(abs(c) ** 2 for c in raw.values()))
        return PureState({m: c / norm for m, c in raw.items()}, self.mu, self.r)

    def overlap(self, other: "PureState"):
        """<self|other>."""
        return mp.fsum(mp.conj(c) * other.coeffs[m]
                       for m, c in self.coeffs.items() if m in other.coeffs)


def _energy(mu, r, m):
    return mp.sqrt(mu**2 + (mp.mpf(m) / r) ** 2)


def weighted_terms(state: PureState, omega_d: float = 0.0, rotating_speed: bool = True):
    """(m, psi_m sqrt|v_m|, omega~_m) with omega~_m = omega_m - m Omega_D.

    The speed is v_m - r Omega_D relative to the rotating frame (as in the
    rotating P_c), or the static v_m with rotating_speed=False (as in the
    Sagnac split amplitudes D+ and D-).  The zero mode carries no weight.
    """
    od = mp.mpf(omega_d)
    out = []
    for m, c in state.coeffs.items():
        if m == 0:
            continue
        w = _energy(state.mu, state.r, m)
        v = mp.mpf(m) / (w * state.r)
        if rotating_speed:
            v -= state.r * od
        out.append((m, c * mp.sqrt(abs(v)), w - m * od))
    return out


def amplitude(terms, t: float, phi: float):
    """sum_m psi_m sqrt|v_m| exp(i m phi - i omega_m t)."""
    t, phi = mp.mpf(t), mp.mpf(phi)
    return mp.fsum(c * mp.expj(m * phi - w * t) for m, c, w in terms)


def density(terms, r: float, t: float, phi: float):
    """Maximum-localization density |A|^2 / (2 pi r)."""
    return abs(amplitude(terms, t, phi)) ** 2 / (2 * mp.pi * r)


def joint_symmetrized(terms1, terms2, b, r, t1, phi1, t2, phi2):
    """(K^2 / 2(1+b)) |A1(1) A2(2) + A1(2) A2(1)|^2 with K = 1/(2 pi r)."""
    k = 1 / (2 * mp.pi * r)
    s = (amplitude(terms1, t1, phi1) * amplitude(terms2, t2, phi2)
         + amplitude(terms1, t2, phi2) * amplitude(terms2, t1, phi1))
    return k**2 / (2 * (1 + b)) * abs(s) ** 2


def single_symmetrized(terms1, terms2, ov, r, t, phi):
    """(K / 2(1+b)) [|A1|^2 + |A2|^2 + 2 Re(<1|2> A1 A2*)], b = |<1|2>|^2."""
    k = 1 / (2 * mp.pi * r)
    a1, a2 = amplitude(terms1, t, phi), amplitude(terms2, t, phi)
    b = abs(ov) ** 2
    return k / (2 * (1 + b)) * (abs(a1) ** 2 + abs(a2) ** 2
                                + 2 * mp.re(ov * a1 * mp.conj(a2)))


def mixed_density(components, kernel, r):
    """P(t, phi) = (1/2 pi r) sum_k p_k sum_{m,m'} a_km conj(a_km') L(m, m').

    components: (p_k, terms_k) for rho = sum_k p_k |psi_k><psi_k|;
    kernel: the localization matrix L(m, m') as a function of (m, m').
    Returns the density as a function of (t, phi); L is tabulated once.
    """
    tables = [[mp.mpf(kernel(m, n)) for m, _, _ in terms for n, _, _ in terms]
              for _, terms in components]

    def density_at(t, phi):
        t, phi = mp.mpf(t), mp.mpf(phi)
        total = mp.mpf(0)
        for (p, terms), table in zip(components, tables):
            a = [c * mp.expj(m * phi - w * t) for m, c, w in terms]
            conj_a = [mp.conj(x) for x in a]
            n = len(a)
            total += p * mp.re(mp.fdot(a, [mp.fdot(table[i * n:(i + 1) * n], conj_a)
                                           for i in range(n)]))
        return total / (2 * mp.pi * r)

    return density_at


def eta_closed(a: float, x: float):
    """log(1 - e^(-a(1 - x))) / log(1 - e^(-a)): ring-exponential noise ratio at mu = 0."""
    a, x = mp.mpf(a), mp.mpf(x)
    return mp.log(1 - mp.exp(-a * (1 - x))) / mp.log(1 - mp.exp(-a))


def trapezoid_prefixes(t, y):
    """int_{t_0}^{t_j} y dt by the trapezoid rule for every j, summed at 30 digits."""
    out, acc = [mp.mpf(0)], mp.mpf(0)
    for i in range(len(t) - 1):
        acc += (mp.mpf(t[i + 1]) - t[i]) * (mp.mpf(y[i]) + y[i + 1]) / 2
        out.append(acc)
    return out
