"""Quantum-clock analytics: cumulative counts, ticks, and accuracy.

An ensemble of packets circulating past the detector produces a periodic
detection density; each peak is a clock tick.  The cumulative probability
W(t) is then a staircase whose steps count circulations.  Dispersion widens
the ticks until they merge, which is what ends the clock's useful life.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TickError
from .lattice import _arithmetic_step

__all__ = ["TickTrain", "ClockQuality", "cumulative", "extract_ticks", "clock_quality"]


@dataclass(frozen=True)
class TickTrain:
    """Detected ticks: centers, integrated weights, FWHM widths."""

    times: np.ndarray
    weights: np.ndarray
    widths: np.ndarray
    grid_step: float

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise TickError("tick times must be strictly increasing")
        if np.any(self.weights < 0):
            raise TickError("tick weights must be nonnegative")


def cumulative(t: np.ndarray, density: np.ndarray) -> np.ndarray:
    """Cumulative detection probability W(t) = ∫_0^t P ds (trapezoid, W[0]=0).

    Monotone nondecreasing for nonnegative densities; sample densely enough
    to resolve the peaks (guideline: step <= tick/40, finer than the peak
    width by several grid points).
    """
    t = np.asarray(t, dtype=float)
    density = np.asarray(density, dtype=float)
    if t.ndim != 1 or t.shape != density.shape or t.size == 0:
        raise TickError("t and density must be matching non-empty 1-D arrays")
    # scipy's cumulative_trapezoid(density, t, initial=0), operation for operation
    steps = np.diff(t) * (density[1:] + density[:-1]) / 2.0
    return np.concatenate(([0.0], np.cumsum(steps)))


def extract_ticks(t: np.ndarray, density: np.ndarray) -> TickTrain:
    """Locate ticks as density peaks with prominence above 5% of the maximum.

    Widths are full width at half maximum (in time units); weights integrate
    the density between midpoints to neighboring ticks, i.e. the staircase
    step heights.  Widths are counted in grid steps, so t must be uniform.
    """
    t = np.asarray(t, dtype=float)
    density = np.asarray(density, dtype=float)
    dt = _arithmetic_step(t)
    if dt is None:
        raise TickError("tick extraction needs a uniform time grid t_j = t_0 + j dt")
    peak = float(density.max(initial=0.0))
    if peak <= 0:
        raise TickError("no ticks found: density vanishes")
    idx, _, _, _, widths_samples = _prominent_peaks(density, 0.05 * peak)
    if idx.size == 0:
        raise TickError("no ticks found above the prominence threshold")
    widths = widths_samples * dt

    bounds = np.empty(idx.size + 1, dtype=int)
    bounds[0] = 0
    bounds[-1] = t.size - 1
    for j in range(idx.size - 1):
        bounds[j + 1] = (idx[j] + idx[j + 1]) // 2
    weights = np.array([
        float(np.trapezoid(density[bounds[j]:bounds[j + 1] + 1],
                           t[bounds[j]:bounds[j + 1] + 1]))
        for j in range(idx.size)
    ])
    return TickTrain(times=t[idx], weights=weights, widths=widths, grid_step=dt)


def _prominent_peaks(x: np.ndarray, min_prominence: float):
    """Peaks of x with prominence >= min_prominence, and their half-height widths.

    Returns (peaks, prominences, left_bases, right_bases, widths), bit-equal to
    scipy.signal's find_peaks(x, prominence=min_prominence) followed by
    peak_prominences and peak_widths(rel_height=0.5): the same definitions
    in the same floating-point operations.  A peak is a sample, or the
    midpoint of a plateau, above both neighbors (never the first or last
    sample).  Its bases are the minima nearest to it on either side, up to
    the next higher sample; its widths are in samples, between the linearly
    interpolated crossings of half the prominence below it.  A NaN in x
    makes its minimum NaN, and no peak passes.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    # runs of equal samples: run k spans s[k]..s[k+1]-1 (the first and last
    # runs touch the ends, so neither holds a peak)
    s = np.flatnonzero(x[1:] != x[:-1]) + 1
    v = x[s]
    top = (x[s[:-1] - 1] < v[:-1]) & (v[1:] < v[:-1])
    cand = (s[:-1][top] + s[1:][top] - 1) // 2
    # a prominence never exceeds x[p] - min(x), so this drops no peak that
    # could pass, and the loop visits the ticks, not every local maximum
    cand = cand[x[cand] - x.min() >= min_prominence]
    xc = x[cand]
    rows = []
    for i, p in enumerate(cand):
        xp = x[p]
        # the bases are the minima out to the nearest higher samples; the
        # scans stop at the nearest higher candidates instead, which finds
        # the same minima: x never dips below them in between, since the dip
        # and the higher sample would enclose a higher peak nearer to p
        higher = np.flatnonzero(xc > xp)
        k = int(np.searchsorted(higher, i))
        lo = cand[higher[k - 1]] + 1 if k else 0
        hi = cand[higher[k]] if k < higher.size else n
        left = p - int(np.argmin(x[lo:p + 1][::-1]))
        right = p + int(np.argmin(x[p:hi]))
        prom = xp - max(x[left], x[right])
        if prom < min_prominence:
            continue
        height = xp - prom * 0.5
        # half-height crossings, walked outward from the peak (a few samples)
        i = p
        while i > left and height < x[i]:
            i -= 1
        left_ip = i + (height - x[i]) / (x[i + 1] - x[i]) if x[i] < height else float(i)
        i = p
        while i < right and height < x[i]:
            i += 1
        right_ip = i - (height - x[i]) / (x[i - 1] - x[i]) if x[i] < height else float(i)
        rows.append((p, prom, left, right, right_ip - left_ip))
    peaks, proms, lefts, rights, widths = zip(*rows) if rows else ((),) * 5
    return (np.array(peaks, dtype=np.intp), np.array(proms, dtype=float),
            np.array(lefts, dtype=np.intp), np.array(rights, dtype=np.intp),
            np.array(widths, dtype=float))


@dataclass(frozen=True)
class ClockQuality:
    mean_spacing: float
    spacing_jitter: float
    width_growth_rate: float
    last_resolvable_time: float
    last_resolvable_index: int


def clock_quality(tt: TickTrain, tau_expected: float | None = None) -> ClockQuality:
    """Spacing, jitter, width growth, and the last tick still resolvable.

    A tick counts as resolvable while its FWHM stays below half the tick
    spacing; the report gives the last index for which that holds (so index
    + 1 ticks resolve) and its time, or -1 and NaN when the first does not.
    """
    if tt.times.size < 2:
        raise TickError("clock quality metrics need at least two ticks")
    spacings = np.diff(tt.times)
    mean_sp = float(spacings.mean())
    jitter = float(spacings.std())
    slope = float(np.polyfit(tt.times, tt.widths, 1)[0])
    ref = tau_expected if tau_expected is not None else mean_sp
    ok = tt.widths < 0.5 * ref
    last = -1
    for j, good in enumerate(ok):
        if not good:
            break
        last = j
    return ClockQuality(
        mean_spacing=mean_sp,
        spacing_jitter=jitter,
        width_growth_rate=slope,
        last_resolvable_time=float(tt.times[last]) if last >= 0 else math.nan,
        last_resolvable_index=last,
    )
