"""Deterministic CSV and manifest emission.

Every data file starts with '#'-prefixed metadata lines (parameters and the
normalization convention tag), then a header row, then rows of floats
written with shortest round-trip formatting.  Outputs are byte-identical
across runs with the same configuration; the run manifest additionally
records wall time, which is the single volatile field.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .probability import NORMALIZATION_TAG

__all__ = ["format_float", "write_csv", "write_json"]


def format_float(x) -> str:
    """Shortest round-trip decimal form of a float."""
    x = float(x)
    if x != x:
        return "nan"
    return repr(x)


def _meta_lines(metadata: dict) -> list[str]:
    lines = [f"# normalization: {NORMALIZATION_TAG}"]
    for key in sorted(metadata):
        val = metadata[key]
        if isinstance(val, float):
            val = format_float(val)
        lines.append(f"# {key}: {val}")
    return lines


def _cells(a: np.ndarray) -> list[str]:
    """One column's cells: bools as 1/0, integers as is, the rest as format_float.

    The dtype is checked once per column; repr of a Python float is
    format_float's form, "nan" included.
    """
    if a.dtype.kind == "b":
        return ["1" if v else "0" for v in a.tolist()]
    if a.dtype.kind in "iu":
        return list(map(str, a.tolist()))
    return list(map(repr, a.astype(float).tolist()))


def write_csv(path: Path, columns: dict[str, np.ndarray], metadata: dict) -> Path:
    """Write named columns with metadata comments; returns the path."""
    path = Path(path)
    names = list(columns)
    arrays = [np.atleast_1d(np.asarray(columns[k])) for k in names]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("all columns must have equal length")
    rows = [",".join(cells) for cells in zip(*(_cells(a.ravel()) for a in arrays))]
    text = "\n".join(_meta_lines(metadata) + [",".join(names)] + rows) + "\n"
    path.write_text(text)
    return path


def write_json(path: Path, payload: dict) -> Path:
    """Stable JSON: sorted keys, fixed separators."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonify) + "\n")
    return path


def _jsonify(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")
