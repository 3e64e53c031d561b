"""Deterministic CSV and manifest emission.

Every data file starts with '#'-prefixed metadata lines (parameters and the
normalization convention tag), then a header row, then rows of cells.  A
float cell holds the bytes of repr(float(x)): the shortest decimal that
reads back as x, the nearest to x among those ("nan" for every NaN).
Outputs are byte-identical across runs with the same configuration; the run
manifest additionally records wall time, which is the single volatile field.

Formatting is the cost of writing, so it runs in numpy, and each distinct
column is formatted once.  A column's cells are an (n, w) uint8 array padded
with NULs (_cells); _float_cells makes repr's bytes without a per-cell str
(a column under _SHORT_COLUMN cells takes repr itself), and a file's rows
are joined as one buffer whose NULs are dropped.  A float column whose
values are all bitwise equal costs one repr (so -0.0 and 0.0 are never
merged).  A column whose dtype and bytes (floats as float64) equal
those of an earlier column, in the same write_csv call or the one before it,
reuses that column's cells.  Only the previous call's cells are kept, keyed
by the exact bytes, not a hash alone, so a column changed in place is
formatted again.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

from .lattice import _chunks, _product_err
from .probability import NORMALIZATION_TAG

__all__ = ["format_float", "write_csv", "write_json"]


def format_float(x) -> str:
    """Shortest round-trip decimal form of a float ("nan" for every NaN)."""
    return repr(float(x))


def _meta_lines(metadata: dict) -> list[str]:
    lines = [f"# normalization: {NORMALIZATION_TAG}"]
    for key in sorted(metadata):
        val = metadata[key]
        if isinstance(val, float):
            val = format_float(val)
        lines.append(f"# {key}: {val}")
    return lines


# --------------------------------------------------------------------------
# float cells in numpy, byte for byte those of repr
#
# _shortest finds repr's digits and decimal exponent; _float_cells lays them
# out.  A cell's bytes depend only on its class: sign, digit count, and the
# position of the decimal point or the exponent's sign and width.  Each
# class has a template of byte indices into a source row of 32 bytes: the
# digits (10^p at byte 19 - p), the exponent's 4 digits (bytes 20-23), then
# _CONSTANTS.  One take fills a chunk of cells.

# |x| in [2^-940, 2^996) scales into [1e16, 1e17) by 10^k, k in [_K_MIN, _K_MAX],
# with no overflow in Dekker's split of |x| or 10^k
_K_MIN, _K_MAX = -284, 300
_BIASED_EXP = (1023 - 940, 1023 + 996)
# far above the 2^-46 error of every decision in _shortest
_MARGIN = 2.0**-30
_WIDTH = 24  # the longest repr of a float64, as -1.2345678901234567e-300
_MINUS, _DOT, _ZERO, _E, _PLUS, _NUL = range(24, 30)
_CONSTANTS = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint32)
_POW10 = 10 ** np.arange(18)
_FORMS = 24  # point -3..16 in fixed notation, then e-xx, e-xxx, e+xx, e+xxx
# a float column of fewer cells costs less as one repr a cell than as
# _float_cells, whose fixed cost is about 150 numpy calls (0.1-0.3 ms); the two
# crossed at 200-250 cells on a 2-core Xeon
_SHORT_COLUMN = 200


@functools.cache
def _powers_of_ten():
    """10^k = hi + lo to about 2^-106 of it, for k in [_K_MIN, _K_MAX]; built on first use."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int rounds correctly, and so does the remainder
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    return np.array(hi), np.array(lo)


@functools.cache
def _templates():
    """(class templates, class lengths, "%04d" of 0..9999 as uint32); built on first use."""
    templates = np.full((2, 17, _FORMS, _WIDTH), _NUL, dtype=np.intp)
    lengths = np.zeros((2, 17, _FORMS), dtype=np.intp)
    for sign, nsig, form in itertools.product(range(2), range(1, 18), range(_FORMS)):
        digits = list(range(20 - nsig, 20))
        cell = [_MINUS] * sign
        point = form - 3  # digits before the decimal point (repr's decpt)
        if form < 20 and point <= 0:
            cell += [_ZERO, _DOT] + [_ZERO] * -point + digits
        elif form < 20 and point < nsig:
            cell += digits[:point] + [_DOT] + digits[point:]
        elif form < 20:
            cell += digits + [_ZERO] * (point - nsig) + [_DOT, _ZERO]
        else:
            cell += digits[:1] + ([_DOT] + digits[1:] if nsig > 1 else []) + [_E]
            cell += [_MINUS if form < 22 else _PLUS] + ([21] if form % 2 else []) + [22, 23]
        templates[sign, nsig - 1, form, :len(cell)] = cell
        lengths[sign, nsig - 1, form] = len(cell)
    groups = np.array([b"%04d" % i for i in range(10_000)]).view(np.uint32)
    return templates.reshape(-1, _WIDTH), lengths.ravel(), groups


def _shortest(x: np.ndarray):
    """(ok, sig, exp): repr's digits of |x| are those of the integer sig,
    and its value is sig 10^exp; where ok is False, repr must decide.

    ok is False for zeros, subnormals, infinities, NaNs, |x| outside
    [2^-940, 2^996), power-of-two mantissas (their round-trip interval is
    lopsided), and wherever a decision below is within _MARGIN of a tie.

    Otherwise |x| = M 2^e with M in (2^52, 2^53), and every real in
    (v - h, v + h) reads back as x, where v = |x| 10^k and h = 2^(e-1) 10^k.
    k is the one making 1e16 <= fl(|x| P) < 1e17 (P below), so v is in
    [1e16 - 1, 1e17 + 8] and h in (0.55, 11.2).  repr's digits are the
    multiple of 10^j in that interval nearest to v, for the largest j that
    has one.

    Error.  With 10^k = P + p + O(2^-106 P) (the table), |x| P = hi + err
    exactly (TwoProduct), lo = fl(err + fl(|x| p)), N = hi + floor(lo) and
    f = lo - floor(lo) exactly, N + f is within 2^-50 + 2^-49 + 2^-49 < 2^-47
    of v, and 2^(e-1) P within 2^-53 h < 2^-49 of h.  Each decision compares
    a distance from N + f to a multiple of 10^j (or f to 1/2) with h (or
    with another distance); formed with at most two more roundings of 2^-50,
    it is within 2^-46 of its exact value.  So a decision farther than
    _MARGIN from a tie is the exact one, and the ties (an interval edge that
    reads back only for even M, two nearest multiples) go to repr.

    The levels.  j >= 2: since h < 12, a multiple of 100 within h of N + f
    is R = N + 12 - ((N + 12) mod 100), the only one within 12, and it is a
    multiple of 10^j for j up to 2 + the trailing zeros of (N + 12) // 100.
    j = 1: the nearer multiple of 10.  j = 0: the nearest integer, always
    within h > 1/2.
    """
    pow_hi, pow_lo = _powers_of_ten()
    bits = x.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64) & 0x7FF
    ok = (biased >= _BIASED_EXP[0]) & (biased < _BIASED_EXP[1]) & (bits << np.uint64(12) != 0)
    biased = np.where(ok, biased, 1023)
    a = np.where(ok, np.abs(x), 1.0)
    # a table index; log10 may be off by one next to a power of 10
    k = 16 - _K_MIN - np.floor(np.log10(a)).astype(np.int64)
    hi = a * pow_hi[k]
    k += (hi < 1e16).astype(np.int64) - (hi >= 1e17)
    p = pow_hi[k]
    hi = a * p
    lo = _product_err(a, p, hi) + a * pow_lo[k]
    whole = np.floor(lo)
    n = hi.astype(np.int64) + whole.astype(np.int64)
    f = lo - whole
    h = ((biased - 53) << 52).view(np.float64) * p  # 2^(biased - 1076): half an ulp
    # j >= 2
    w, low = np.divmod(n + 12, 100)
    near = low <= 23
    d = np.abs((low - 12) + f)
    on = near & (d < h)
    unsure = near & (np.abs(d - h) < _MARGIN)
    w = w.astype(np.float64)  # < 2^53, so w / 10^s is whole just when 10^s divides w
    zeros = np.zeros_like(n)
    for s in (8, 4, 2, 1):
        q = w / 10.0**s
        divisible = q == np.floor(q)
        w = np.where(divisible, q, w)
        zeros += s * divisible
    # j = 1
    r = n % 10
    down, up = r + f, (10 - r) - f
    d = np.minimum(down, up)
    on1 = ~on & (d < h)
    unsure |= ~on & ((np.abs(d - h) < _MARGIN) | (np.abs(down - up) < _MARGIN) & (d < h))
    # j = 0
    unsure |= ~on & ~on1 & (np.abs(f - 0.5) < _MARGIN)
    sig = np.where(on, w.astype(np.int64), np.where(on1, n // 10 + (up < down), n + (f > 0.5)))
    exp = np.where(on, zeros + 2, on1.astype(np.int64)) - (k + _K_MIN)
    return ok & ~unsure, sig, exp


def _float_cells(a: np.ndarray) -> np.ndarray:
    """repr's bytes of each float64 of a, as an (n, w) uint8 array padded with NULs."""
    templates, lengths, groups = _templates()
    out = np.zeros((a.size, _WIDTH), np.uint8)
    width = 0
    for sl in _chunks(a.size, _WIDTH):
        x = a[sl]
        ok, sig, exp = _shortest(x)
        nsig = np.searchsorted(_POW10, sig, side="right")
        point = nsig + exp
        e10 = point - 1
        form = np.where((point > -4) & (point <= 16), point + 3,
                        20 + 2 * (e10 > 0) + (np.abs(e10) >= 100))
        negative = (x.view(np.uint64) >> np.uint64(63)).astype(np.int64)
        cls = np.where(ok, (negative * 17 + nsig - 1) * _FORMS + form, 0)
        quads = np.empty((x.size, 6), np.int64)
        high, quads[:, 4] = np.divmod(sig, 10**4)
        high, quads[:, 3] = np.divmod(high, 10**4)
        quads[:, 0], high = np.divmod(high, 10**8)
        quads[:, 1], quads[:, 2] = np.divmod(high, 10**4)
        np.abs(e10, out=quads[:, 5])
        source = np.empty((x.size, 8), np.uint32)
        source[:, :6] = groups.take(quads)
        source[:, 6:] = _CONSTANTS
        w = lengths[cls].max()
        index = templates[:, :w][cls]
        index += 32 * np.arange(x.size)[:, None]
        out[sl, :w] = source.view(np.uint8).ravel().take(index)
        width = max(width, w)
        bad = np.flatnonzero(~ok)
        if bad.size:
            texts = [repr(v) for v in x[bad].tolist()]
            out[sl][bad] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
            width = max(width, *map(len, texts))
    return out[:, :width]


def _text_cells(texts: list[str]) -> np.ndarray:
    """(n, w) uint8 cells of ASCII strings, padded with NULs."""
    b = np.array(texts, dtype="S")
    return b.view(np.uint8).reshape(len(texts), b.itemsize)


def _cells(a: np.ndarray) -> np.ndarray:
    """One 1-D column's cells as an (n, w) uint8 array padded with NULs:
    bools as 1/0, integers as is, floats as format_float."""
    if a.dtype.kind == "b":
        return np.where(a, ord("1"), ord("0")).astype(np.uint8)[:, None]
    if a.dtype.kind in "iu":
        return _text_cells(list(map(str, a.tolist())))
    bits = a.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        cell = _text_cells([format_float(a[0])])
        return np.broadcast_to(cell, (a.size, cell.shape[1]))
    if a.size < _SHORT_COLUMN:
        return _text_cells(list(map(format_float, a.tolist())))
    return _float_cells(a)


def _rows(cells: list[np.ndarray], n: int):
    """The CSV rows of n cells a column, in chunks of bytes: cells joined by
    commas, each row ended by a newline, NULs dropped."""
    ends = np.cumsum([c.shape[1] + 1 for c in cells])
    for sl in _chunks(n, int(ends[-1])):
        buf = np.empty((sl.stop - sl.start, ends[-1]), np.uint8)
        for c, end in zip(cells, ends):
            buf[:, end - 1 - c.shape[1]:end - 1] = c[sl]
            buf[:, end - 1] = ord(",")
        buf[:, -1] = ord("\n")
        yield buf.tobytes().translate(None, b"\0")


# the cells of the previous write_csv call, keyed by (dtype, bytes)
_previous: dict[tuple[str, bytes], np.ndarray] = {}


def write_csv(path: Path, columns: dict[str, np.ndarray], metadata: dict) -> Path:
    """Write named columns with metadata comments; returns the path."""
    global _previous
    path = Path(path)
    names = list(columns)
    if not names:
        raise ValueError("write_csv needs at least one column")
    arrays = [np.atleast_1d(np.asarray(columns[k])).ravel() for k in names]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("all columns must have equal length")
    earlier, seen, cells = _previous, {}, []
    for name, a in zip(names, arrays):
        if a.dtype.kind == "c":
            raise ValueError(f"column {name} is complex: write its real and "
                             "imaginary parts as two columns")
        if a.dtype.kind not in "biu":
            a = np.asarray(a, dtype=float)
        key = (a.dtype.str, a.tobytes())
        if key not in seen:
            seen[key] = earlier[key] if key in earlier else _cells(a)
        cells.append(seen[key])
    _previous = seen
    head = "\n".join([*_meta_lines(metadata), ",".join(names)]) + "\n"
    with path.open("wb") as fh:
        fh.write(head.encode())
        for rows in _rows(cells, n):
            fh.write(rows)
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Stable RFC 8259 JSON: sorted keys, fixed separators, non-finite floats as null."""
    path = Path(path)
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")
    return path


def _jsonable(obj):
    """obj with numpy values and paths as plain JSON values, NaN and ±inf as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return str(obj) if isinstance(obj, Path) else obj
