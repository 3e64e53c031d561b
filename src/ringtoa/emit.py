"""Deterministic CSV and manifest emission.

Every data file starts with '#'-prefixed metadata lines (parameters and the
normalization convention tag), then a header row, then rows of floats
written with shortest round-trip formatting.  Outputs are byte-identical
across runs with the same configuration; the run manifest additionally
records wall time, which is the single volatile field.

Formatting is the cost of writing, so each distinct column is formatted
once.  A float column whose values are all bitwise equal costs one repr
(so -0.0 and 0.0 are never merged).  A column whose dtype and bytes (floats
as float64) equal those of an earlier column, in the same write_csv call or
the one before it, reuses that column's cells.  Only the previous call's
cells are kept, keyed by the exact bytes, not a hash alone, so a column
changed in place is formatted again.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

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


def _cells(a: np.ndarray) -> list[str]:
    """One 1-D column's cells: bools as 1/0, integers as is, floats as format_float.

    repr of a Python float is format_float's form, "nan" included.
    """
    if a.dtype.kind == "b":
        return ["1" if v else "0" for v in a.tolist()]
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    bits = a.view(np.uint64)
    if bits.size and (bits == bits[0]).all():
        return [repr(float(a[0]))] * a.size
    return list(map(repr, a.tolist()))


# the cells of the previous write_csv call, keyed by (dtype, bytes)
_previous: dict[tuple[str, bytes], list[str]] = {}


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
    earlier, seen, formatted = _previous, {}, []
    for name, a in zip(names, arrays):
        if a.dtype.kind == "c":
            raise ValueError(f"column {name} is complex: write its real and "
                             "imaginary parts as two columns")
        if a.dtype.kind not in "biu":
            a = np.asarray(a, dtype=float)
        key = (a.dtype.str, a.tobytes())
        if key not in seen:
            seen[key] = earlier.get(key) or _cells(a)
        formatted.append(seen[key])
    _previous = seen
    lines = [*_meta_lines(metadata), ",".join(names), *map(",".join, zip(*formatted))]
    path.write_text("\n".join(lines) + "\n")
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
