"""Deterministic CSV and manifest emission.

Every data file starts with '#'-prefixed metadata lines (parameters and the
normalization convention tag), then a header row, then rows of cells.  A
float cell holds the bytes of repr(float(x)): the shortest decimal that
reads back as x, the nearest to x among those ("nan" for every NaN).
Outputs are byte-identical across runs with the same configuration; the run
manifest additionally records wall time, which is the single volatile field.
A metadata key or value holding a line break is refused, since it would end
its '#' line inside the metadata.

Formatting is the cost of writing, so it runs in numpy, and each distinct
column is formatted once.  A column's cells are an (n, w) uint8 array padded
with NULs (_cells); _float_cells makes repr's bytes without a per-cell str
(a column under _SHORT_COLUMN cells takes repr itself), and a file's rows
are joined as one buffer whose NULs are dropped.  _float_cells works a
chunk of cells (lattice._chunks) at a time: about 160 numpy calls, each
over one value a cell, find the digits and lay out their bytes, the last
step a block of L2-sized byte index at a time, so a chunk's temporaries
are a few dozen arrays of one value a cell and no n x w index.  A float
column whose values are all bitwise equal costs one repr (so -0.0 and 0.0
are never merged).  A column whose dtype and bytes (floats as float64) equal
those of an earlier column, in the same write_csv call or the one before it,
reuses that column's cells.  Only the previous call's cells are kept, keyed
by the exact bytes, not a hash alone, so a column changed in place is
formatted again.

Every output file, JSON and the gnuplot stub included, is written through
_replace: an existing file is unlinked and a new one created, never
truncated in place.  On ext4 with its default auto_da_alloc, closing a file
that was truncated to zero starts write-back of its data, and the next
run's truncating open waits for that I/O (so does a rename over it).  A
symlink or hard link at an output path is therefore replaced, not written
through, and a new file takes its mode from the umask.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from . import lattice
from .lattice import _chunks, _split
from .probability import NORMALIZATION_TAG

__all__ = ["format_float", "write_csv", "write_json", "write_text"]


def format_float(x) -> str:
    """Shortest round-trip decimal form of a float ("nan" for every NaN)."""
    return repr(float(x))


def _meta_lines(metadata: dict) -> list[str]:
    """The '#' lines of a data file; a key or value holding a line break raises ValueError."""
    lines = [f"# normalization: {NORMALIZATION_TAG}"]
    for key in sorted(metadata):
        val = metadata[key]
        if isinstance(val, float):
            val = format_float(val)
        line = f"# {key}: {val}"
        if "\n" in line or "\r" in line:
            raise ValueError(f"metadata {key!r} holds a line break, which would end its "
                             "'#' line inside the metadata")
        lines.append(line)
    return lines


# --------------------------------------------------------------------------
# float cells in numpy, byte for byte those of repr
#
# _shortest finds repr's digits and decimal exponent; _float_cells lays them
# out.  A cell's bytes depend only on its class: sign, digit count, and the
# position of the decimal point or the exponent's sign and width.  Each
# class has a template of byte indices into a source row of 32 bytes: the
# digits (10^p at byte 19 - p), the exponent's 4 digits (bytes 20-23), then
# _CONSTANTS.  _lay_out takes a chunk's cells from their source rows a block
# of lattice._PHASOR_BLOCK entries of byte index (256 KB) at a time, so the
# index stays in the L2 cache and reuses the same pages block after block.

# |x| in [2^-940, 2^996) scales into [1e16, 1e17) by 10^k, k in [_K_MIN, _K_MAX],
# with no overflow in Dekker's split of |x| or 10^k
_K_MIN, _K_MAX = -284, 299
_BIASED_EXP = (1023 - 940, 1023 + 996)
# far above the 2^-45 error of every comparison in _shortest
_MARGIN = 2.0**-30
_WIDTH = 24  # the longest repr of a float64, as -1.2345678901234567e-300
_MINUS, _DOT, _ZERO, _E, _PLUS, _NUL = range(24, 30)
_CONSTANTS = np.frombuffer(b"-.0e+\0\0\0", dtype=np.uint32)
_POW10 = 10 ** np.arange(18)
_FORMS = 24  # point -3..16 in fixed notation, then e-xx, e-xxx, e+xx, e+xxx
# a cell's point (digits before the decimal point) lies in (-_POINTS, _POINTS)
_POINTS = 340
# a float column of fewer cells costs less as one repr a cell than as
# _float_cells, whose fixed cost is about 160 numpy calls (0.11-0.13 ms); the
# two crossed at 140-150 cells on a 2-core Xeon
_SHORT_COLUMN = 150


@functools.cache
def _scales():
    """Tables of a float's scaling by 10^k, indexed by j = 2 e + b; built on first use.

    e is the biased exponent and b is 0 or 1, and k = 15 - F + b with
    F = floor((e - 1023) log10 2), taken as ((e - 1023) 78913) >> 18 (exact
    for |e - 1023| <= 1100, as in Adams's Ryu, PLDI 2018).  Entry j holds
    hi, hi's Dekker split and lo, with 10^k = hi + lo to about 2^-106 of it,
    then 2^(e - 1076) hi and -k.  Exponents outside _BIASED_EXP take the
    entries of e = 1023; the first table, True at 2 e just for those inside,
    tells them apart.
    """
    pow_hi, pow_lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        h = num / den  # int / int rounds correctly, and so does the remainder
        a, b = h.as_integer_ratio()
        pow_hi.append(h)
        pow_lo.append((num * b - a * den) / (den * b))
    e = np.arange(2048)
    inside = (e >= _BIASED_EXP[0]) & (e < _BIASED_EXP[1])
    e = np.repeat(np.where(inside, e, 1023), 2)
    k = 15 - ((e - 1023) * 78913 >> 18) + np.arange(e.size) % 2
    hi = np.array(pow_hi)[k - _K_MIN]
    return (np.repeat(inside, 2), hi, *_split(hi), np.array(pow_lo)[k - _K_MIN],
            np.ldexp(hi, e - 1076), -k)


@functools.cache
def _templates():
    """(class templates, class lengths, "%04d" of 0..9999 as uint32, the form
    of each point in [-_POINTS, _POINTS) less _FORMS); built on first use.

    A cell's class is its form + (nsig - 1) _FORMS, plus 17 _FORMS if negative.
    """
    templates = np.full((2, 17, _FORMS, _WIDTH), _NUL, dtype=np.uint8)
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
    point = np.arange(-_POINTS, _POINTS)
    e10 = np.abs(point - 1)
    forms = np.where((point > -4) & (point <= 16), point + 3,
                     20 + 2 * (point > 1) + (e10 >= 100)) - _FORMS
    return templates.reshape(-1, _WIDTH), lengths.ravel(), groups, forms


def _shortest(x: np.ndarray):
    """(ok, sig, exp): repr's digits of |x| are those of the integer sig,
    and its value is sig 10^exp; where ok is False, repr must decide.

    ok is False for zeros, subnormals, infinities, NaNs, |x| outside
    [2^-940, 2^996), power-of-two mantissas (their round-trip interval is
    lopsided), and wherever a comparison below, taken or not, is within
    _MARGIN of a tie.

    Otherwise |x| = M 2^e with M in (2^52, 2^53), and every real in
    (v - h, v + h) reads back as x, where v = |x| 10^k and h = 2^(e-1) 10^k.
    With F = floor(log10 2^(e+52)), |x| 10^(15-F) lies in [1e15, 10^16.31);
    k is 15 - F where fl(|x| P) >= 1e16 for P the table's 10^(15-F), and
    16 - F where it is below (_scales).  So v is in [1e16 - 3, 1e17 + 22]
    and h in (0.55, 11.2).  repr's digits are the multiple of 10^j in that
    interval nearest to v, for the largest j that has one.

    Error.  With 10^k = P + p + O(2^-106 P) (the table), |x| P = hi + err
    exactly (TwoProduct), lo = fl(err + fl(|x| p)), N = hi + floor(lo) and
    f = lo - floor(lo) exactly, N + f is within 2^-50 + 2^-49 + 2^-49 < 2^-47
    of v, and 2^(e-1) P within 2^-53 h < 2^-49 of h.  Each comparison sets
    a distance from N + f to a multiple of 10^j (or f to 1/2) against h (or
    the distances to two multiples against each other); formed with at most
    two more roundings of 2^-50, each side is within 2^-46 of its exact
    value.  So a comparison farther than _MARGIN from a tie is the exact
    one, and the ties (an interval edge that reads back only for even M,
    two nearest multiples) go to repr.

    The levels.  j >= 2: since h < 12, a multiple of 100 within h of N + f
    is R = N + 12 - ((N + 12) mod 100), the only one within 12, and it is a
    multiple of 10^j for j up to 2 + the trailing zeros of (N + 12) // 100.
    j = 1: the nearer multiple of 10.  j = 0: the nearest integer, always
    within h > 1/2.
    """
    inside, p_hi, _, _, _, half, neg_k = _scales()
    bits = x.view(np.int64)
    j = (bits >> 51) & 0xFFE  # 2 e, e the biased exponent: the _scales index for b = 0
    ok = inside.take(j) & (bits << 12 != 0)
    a = np.abs(x)
    bad = np.flatnonzero(~ok)
    a[bad], j[bad] = 1.0, 2 * 1023  # any finite value in range
    j += a * p_hi.take(j) < 1e16
    n, f = _scaled(a, j)
    h = half.take(j)
    # each comparison's distance from its tie, whether it decides or not
    ties = np.empty((4, x.size))
    # j >= 2: the distance to R is |(N - 100 w) + f|, w = (N + 12) // 100
    w = n + 12
    w //= 100
    d = np.abs((n - 100 * w) + f)
    on = d < h
    np.subtract(d, h, out=ties[0])
    # j = 1: N + f - c is the multiple of 10 halfway between the two nearest
    q = n // 10
    c = np.add(n - 10 * q - 5, f, out=ties[1])
    d = 5.0 - np.abs(c)
    on1 = d < h
    np.subtract(d, h, out=ties[2])
    # j = 0
    np.subtract(f, 0.5, out=ties[3])
    sig = np.where(on1, q + (c > 0), n + (f > 0.5))
    unsure = np.abs(ties, out=ties).min(axis=0) < _MARGIN
    shift = neg_k.take(j)
    exp = on1 + shift
    # strip R's trailing zeros, on its cells alone
    i = np.flatnonzero(on)
    w = w[i].astype(np.float64)  # < 2^53, so w / 10^s is whole just when 10^s divides w
    zeros = shift[i] + 2
    for s in (8, 4, 2, 1):
        q = w / 10.0**s
        divisible = q == np.floor(q)
        w = np.where(divisible, q, w)
        zeros += s * divisible
    sig[i], exp[i] = w, zeros
    return ok & ~unsure, sig, exp


def _scaled(a: np.ndarray, j: np.ndarray):
    """(N, f): a 10^k = N + f to within 2^-47, N an integer and f in [0, 1),
    for 10^k the _scales entry j (see _shortest)."""
    _, p_hi, p_hi_hi, p_hi_lo, p_lo, _, _ = _scales()
    hi = a * p_hi.take(j)
    ah, al = _split(a)
    ph, pl = p_hi_hi.take(j), p_hi_lo.take(j)
    # TwoProduct's error, ((ah ph - hi) + ah pl + al ph) + al pl, as _product_err
    lo = ah * ph
    lo -= hi
    lo += ah * pl
    lo += al * ph
    lo += al * pl
    lo += a * p_lo.take(j)
    whole = np.floor(lo)
    n = hi.astype(np.int64)
    n += whole.astype(np.int64)
    lo -= whole
    return n, lo


def _float_cells(a: np.ndarray) -> np.ndarray:
    """repr's bytes of each float64 of a, as an (n, w) uint8 array padded with NULs."""
    templates, lengths, groups, forms = _templates()
    out = np.zeros((a.size, _WIDTH), np.uint8)
    width = 0
    for sl in _chunks(a.size, _WIDTH):
        x = a[sl]
        ok, sig, exp = _shortest(x)
        nsig = np.searchsorted(_POW10, sig, side="right")
        point = nsig + exp
        cls = forms.take(point + _POINTS)
        cls += nsig * _FORMS
        cls += (x < 0) * (17 * _FORMS)
        bad = np.flatnonzero(~ok)
        cls[bad] = 0
        # a row of "%04d" groups: sig's digits, the exponent's, then _CONSTANTS
        source = np.empty((x.size, 8), np.uint32)
        for g in (4, 3, 2, 1):
            high = sig // 10**4
            source[:, g] = groups.take(sig - high * 10**4)
            sig = high
        source[:, 0] = groups.take(sig)
        if point.min() < -3 or point.max() > 16:  # a cell in scientific form
            source[:, 5] = groups.take(np.abs(point - 1))
        source[:, 6], source[:, 7] = _CONSTANTS
        _lay_out(templates, cls, source, out[sl])
        width = max(width, lengths.take(cls).max())
        if bad.size:
            texts = [repr(v) for v in x[bad].tolist()]
            out[sl][bad] = np.array(texts, dtype=f"S{_WIDTH}").view(np.uint8).reshape(-1, _WIDTH)
            width = max(width, *map(len, texts))
    return out[:, :width]


def _lay_out(templates: np.ndarray, cls: np.ndarray, source: np.ndarray, out: np.ndarray):
    """out[i] = the bytes of source row i at the indices templates[cls[i]],
    a block of lattice._PHASOR_BLOCK entries of byte index at a time."""
    rows = source.view(np.uint8).ravel()
    offsets = _block_offsets()
    index = np.empty(offsets.shape, np.intp)
    for sl in _chunks(cls.size, _WIDTH, offsets.size):
        m = sl.stop - sl.start
        np.add(templates.take(cls[sl], axis=0), offsets[:m], out=index[:m])
        rows[32 * sl.start:32 * sl.stop].take(index[:m], out=out[sl], mode="clip")


@functools.cache
def _block_offsets() -> np.ndarray:
    """The byte offset of each source row of a _lay_out block, _WIDTH times a row.

    Full size, since numpy adds an (m, 1) column to an (m, _WIDTH) array a
    row at a time."""
    rows = lattice._PHASOR_BLOCK // _WIDTH
    offsets = np.arange(rows * _WIDTH) // _WIDTH * 32
    offsets.flags.writeable = False
    return offsets.reshape(rows, _WIDTH)


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
    head = "\n".join([*_meta_lines(metadata), ",".join(names)]) + "\n"
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
    with _replace(path) as fh:
        fh.write(head.encode())
        for rows in _rows(cells, n):
            fh.write(rows)
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Stable RFC 8259 JSON: sorted keys, fixed separators, non-finite floats as null."""
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True, allow_nan=False)
    return write_text(path, text + "\n")


def write_text(path: Path, text: str) -> Path:
    """Write text as UTF-8; returns the path."""
    path = Path(path)
    with _replace(path) as fh:
        fh.write(text.encode())
    return path


def _replace(path: Path):
    """A new file at path, open for binary writing: an existing file (or
    symlink) is unlinked first, never opened with truncation."""
    try:
        os.unlink(path)
    except FileNotFoundError:
        pass
    return open(path, "xb")


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
