"""How far two output trees of the shipped configs drift apart, file by file.

    python tools/config_drift.py BASE_DIR HEAD_DIR

Each tree holds the outputs of `ringtoa run` (one directory per config).  One
line is printed per file of either tree, by relative path:

    fig-steps/steps.csv: identical
    sagnac/sagnac.csv: 7.9e-16 (fitted_envelope)

A changed data file reports its worst column: the largest |head - base| of
the column over the largest |base| of that column.  Columns are a CSV's
header columns plus each `# key: value` comment line, and a JSON file's
numbers keyed by their path, list indices dropped (`ticks[].t`).  A column
of text that changed, or one whose length changed, is named as such.  A
run_manifest.json is compared without wall_time_s, its one volatile field.

The script only reports: it exits 0 whatever differs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from pathlib import Path

# run manifest fields that differ between any two runs
VOLATILE = ("wall_time_s",)


def _json_columns(obj, path: str, out: dict) -> dict:
    """The leaves of a JSON value, grouped by their path without list indices."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            _json_columns(val, f"{path}.{key}" if path else key, out)
    elif isinstance(obj, list):
        for val in obj:
            _json_columns(val, f"{path}[]", out)
    else:
        out.setdefault(path, []).append(obj)
    return out


def _csv_columns(text: str) -> dict:
    """A CSV's header columns, plus one single-entry column per `# key: value` line."""
    out, body = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition(":")
            out[f"# {key.strip()}"] = [val.strip()]
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    for j, name in enumerate(rows[0] if rows else []):
        out[name] = [row[j] if j < len(row) else None for row in rows[1:]]
    return out


def _columns(path: Path) -> dict:
    if path.suffix == ".json":
        data = json.loads(path.read_text())
        if path.name == "run_manifest.json":
            for key in VOLATILE:
                data.pop(key, None)
        return _json_columns(data, "", {})
    return _csv_columns(path.read_text())


def _number(val) -> float | None:
    """val as a float if it is a number or a numeric cell, else None."""
    if isinstance(val, bool) or val is None:
        return None
    try:
        return float(val)
    except (TypeError, ValueError):
        return None


def _column_change(base: list, head: list) -> float | str:
    """max |head - base| / max |base| of a numeric column; a word for any other change."""
    if len(base) != len(head):
        return "length changed"
    nb, nh = [_number(v) for v in base], [_number(v) for v in head]
    if None in nb or None in nh:
        return "text changed" if base != head else 0.0
    worst = scale = 0.0
    for b, h in zip(nb, nh):
        if b == h or (math.isnan(b) and math.isnan(h)):
            continue
        worst = max(worst, abs(h - b) if math.isfinite(b) and math.isfinite(h) else math.inf)
    for b in nb:
        if math.isfinite(b):
            scale = max(scale, abs(b))
    return worst / scale if worst and scale else worst


def drift(base: Path, head: Path, rel: str) -> str:
    """The report line of one file present in both trees."""
    if (base / rel).read_bytes() == (head / rel).read_bytes():
        return "identical"
    cols_b, cols_h = _columns(base / rel), _columns(head / rel)
    if cols_b.keys() != cols_h.keys():
        return "columns changed: " + ", ".join(sorted(cols_b.keys() ^ cols_h.keys()))
    changes = {name: _column_change(cols_b[name], cols_h[name]) for name in cols_b}
    words = sorted(name for name, c in changes.items() if isinstance(c, str))
    if words:
        return "; ".join(f"{changes[name]} ({name})" for name in words)
    name = max(changes, key=changes.get, default=None)
    if name is None or changes[name] == 0.0:
        return "identical" if rel.endswith("run_manifest.json") else "same values, other bytes"
    return f"{changes[name]:.2g} ({name})"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python tools/config_drift.py BASE_DIR HEAD_DIR", file=sys.stderr)
        return 2
    base, head = (Path(a) for a in argv)
    files = {str(p.relative_to(root)) for root in (base, head)
             for p in root.rglob("*") if p.is_file()}
    for rel in sorted(files):
        if not (base / rel).is_file() or not (head / rel).is_file():
            where = "base" if (base / rel).is_file() else "head"
            print(f"{rel}: only in {where}")
        else:
            print(f"{rel}: {drift(base, head, rel)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
