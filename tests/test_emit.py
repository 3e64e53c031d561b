import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ringtoa import emit
from ringtoa.cli import main
from ringtoa.emit import format_float, write_csv, write_json
from ringtoa.probability import NORMALIZATION_TAG


def _cell(v):
    """The per-cell rule: bools as 1/0, integers as is, floats as format_float."""
    if isinstance(v, np.bool_):
        return "1" if v else "0"
    if isinstance(v, np.integer):
        return str(int(v))
    return format_float(v)


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(0, 2**64 - 1))
def test_format_float_is_repr_and_nan_for_every_nan(bits):
    # every float64 bit pattern: NaN of either sign and any payload is "nan"
    x = np.array(bits, dtype=np.uint64).view(np.float64)
    assert format_float(x) == ("nan" if np.isnan(x) else repr(float(x)))
    assert format_float(float(x)) == format_float(x)


@pytest.mark.parametrize("sign", [0, 1])
@pytest.mark.parametrize("payload", [1, 2**51, 2**52 - 1, 0x5A5A5])
def test_format_float_nan_payloads(sign, payload):
    bits = (sign << 63) | (0x7FF << 52) | payload
    assert format_float(np.array(bits, dtype=np.uint64).view(np.float64)) == "nan"


def test_write_json_writes_non_finite_floats_as_null(tmp_path):
    payload = {"a": math.inf, "b": [1.5, -math.inf, math.nan], "c": np.float64(np.nan),
               "d": np.float32(np.inf), "e": np.array([[0.25, np.nan], [np.inf, 2.0]]),
               "f": (np.int64(3), 0.1), "g": {"h": -0.0, "i": None}}
    text = write_json(tmp_path / "x.json", payload).read_text()

    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    assert json.loads(text, parse_constant=reject) == {
        "a": None, "b": [1.5, None, None], "c": None, "d": None,
        "e": [[0.25, None], [None, 2.0]], "f": [3, 0.1], "g": {"h": -0.0, "i": None}}


def test_write_csv_matches_per_cell_formatting(tmp_path):
    # columns are formatted once each; the bytes are those of the per-cell rules
    cols = {
        "flag": np.array([True, False, True, False, True]),
        "count": np.array([0, -3, 7, 2**40, 1], dtype=np.int64),
        "small": np.array([1, 2, 3, 4, 5], dtype=np.uint8),
        "x": np.array([0.1, np.nan, np.inf, -np.inf, -0.0]),
        "y": np.array([1e-300, -2.5, 1.0 / 3.0, 6.02e23, 0.0], dtype=np.float32),
    }
    path = write_csv(tmp_path / "t.csv", cols, {"note": "n", "scale": 0.5})
    rows = [",".join(_cell(a[i]) for a in cols.values()) for i in range(5)]
    expected = "\n".join(["# normalization: B=1;unit-integral-per-period",
                          "# note: n", "# scale: 0.5", ",".join(cols)] + rows) + "\n"
    assert path.read_bytes() == expected.encode()
    assert rows[1] == "0,-3,2,nan,-2.5"
    assert rows[4] == "1,1,5,-0.0,0.0"


def test_write_csv_refuses_complex_columns(tmp_path):
    # a cast to float would keep only the real part
    cols = {"t": np.arange(3.0), "amp": np.array([1.0, 1j, 2.0 + 0.5j])}
    with pytest.raises(ValueError, match="amp"):
        write_csv(tmp_path / "c.csv", cols, {})
    assert not (tmp_path / "c.csv").exists()


def test_write_csv_refuses_no_columns(tmp_path):
    with pytest.raises(ValueError, match="at least one column"):
        write_csv(tmp_path / "e.csv", {}, {})


def _reference(columns: dict) -> bytes:
    """The file write_csv must produce with no metadata, one cell at a time."""
    arrays = list(columns.values())
    rows = [",".join(_cell(a[i]) for a in arrays) for i in range(arrays[0].size)]
    lines = [f"# normalization: {NORMALIZATION_TAG}", ",".join(columns)] + rows
    return ("\n".join(lines) + "\n").encode()


_F64 = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
# every NaN bit pattern: either sign, quiet or signalling, any payload
_NAN_BITS = st.integers(1, 2**52 - 1).flatmap(
    lambda payload: st.sampled_from([0x7FF0 << 48 | payload, 0xFFF0 << 48 | payload]))


@st.composite
def _column(draw, n, earlier):
    kind = draw(st.sampled_from(["float", "constant", "nan", "signed-zero", "float32",
                                 "int", "uint8", "bool", "repeat", "reinterpret"]))
    if kind in ("repeat", "reinterpret") and not earlier:
        kind = "float"
    if kind == "float":
        return np.array(draw(st.lists(_F64, min_size=n, max_size=n)), dtype=float)
    if kind == "constant":
        return np.full(n, draw(_F64 | st.sampled_from([0.0, -0.0, math.nan])))
    if kind == "nan":
        bits = draw(st.lists(_NAN_BITS, min_size=n, max_size=n))
        return np.array(bits, dtype=np.uint64).view(np.float64)
    if kind == "signed-zero":
        return np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n)))
    if kind == "float32":
        vals = draw(st.lists(st.floats(width=32), min_size=n, max_size=n))
        return np.array(vals, dtype=np.float32)
    if kind == "int":
        vals = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n))
        return np.array(vals, dtype=np.int64)
    if kind == "uint8":
        return np.array(draw(st.lists(st.integers(0, 255), min_size=n, max_size=n)),
                        dtype=np.uint8)
    if kind == "bool":
        return np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
    source = draw(st.sampled_from(earlier))
    if kind == "repeat":
        return source
    # the same bytes under the other 8-byte dtype: int64 <-> float64
    if source.dtype.itemsize != 8 or source.dtype.kind not in "if":
        return source
    return source.view(np.float64 if source.dtype.kind == "i" else np.int64)


@st.composite
def _call(draw):
    n = draw(st.integers(0, 12))
    columns = {}
    for j in range(draw(st.integers(1, 5))):
        columns[f"c{j}"] = draw(_column(n, list(columns.values())))
    return columns


@settings(max_examples=300, deadline=None)
@given(calls=st.lists(_call(), min_size=1, max_size=3), data=st.data())
def test_write_csv_bytes_equal_per_cell_reference(tmp_path_factory, calls, data):
    # constant columns (NaN, -0.0 next to 0.0), float32/int/bool columns, a
    # column repeated within one call or passed again in the next call,
    # changed in place between calls, int64/float64 with the same bytes,
    # and empty columns all write the bytes of the per-cell rules
    path = tmp_path_factory.mktemp("emit") / "t.csv"
    last = None
    for columns in calls:
        if last is not None and data.draw(st.booleans(), label="pass last call again"):
            columns = last
            arrays = [a for a in columns.values() if a.size]
            if arrays and data.draw(st.booleans(), label="change in place"):
                a = data.draw(st.sampled_from(arrays), label="changed column")
                i = data.draw(st.integers(0, a.size - 1), label="changed index")
                a.view(np.uint8)[i * a.itemsize] ^= 1
        write_csv(path, columns, {})
        assert path.read_bytes() == _reference(columns)
        last = columns


QSYMBOL = {
    "experiment": "qsymbol",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 60, "xi": 20.0, "alpha": 4.0},
    "times": [{"t": 0.5}, {"t": 1.0}, {"t": 1.5}],
    "grid": {"n_theta": 64},
    "output": {"prefix": "q"},
}
EARLIER = {
    "noise": {"experiment": "noise",
              "params": {"mu": 0.0, "r": 1.0, "m_max": 100, "a_values": [1.0, 2.0]},
              "grid": {"omega_d_r_min": 0.0, "omega_d_r_max": 0.5, "n": 5}},
    "clock": {"experiment": "clock",
              "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "xi": 100.0, "alpha": 5.0},
              "grid": {"t_max": 10.0}},
}


@pytest.mark.parametrize("earlier", [None, "noise", "clock"])
def test_qsymbol_run_formats_each_distinct_column_once(tmp_path, monkeypatch, earlier):
    # per panel: t is constant and the values are new; theta is shared by
    # every panel, so it is formatted in the first only, whatever the
    # process wrote before
    if earlier is None:
        monkeypatch.setattr(emit, "_previous", {})
    else:
        cfg = tmp_path / "earlier.json"
        cfg.write_text(json.dumps(EARLIER[earlier]))
        assert main(["run", str(cfg), "--out", str(tmp_path / "earlier")]) == 0
    cfg = tmp_path / "q.json"
    cfg.write_text(json.dumps(QSYMBOL))
    formatted = []
    cells = emit._cells

    def counting(a):
        formatted.append(a.copy())
        return cells(a)

    monkeypatch.setattr(emit, "_cells", counting)
    assert main(["run", str(cfg), "--out", str(tmp_path / "q")]) == 0
    panels, n_theta = len(QSYMBOL["times"]), QSYMBOL["grid"]["n_theta"]
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    assert len(formatted) == 2 * panels + 1
    assert sum(a.tobytes() == theta.tobytes() for a in formatted) == 1
    assert sum(a.size == n_theta and np.all(a == a[0]) for a in formatted) == panels
    assert len(list((tmp_path / "q").glob("q_*.csv"))) == panels


# --------------------------------------------------------------------------
# the numpy float formatter against repr


def _repr_cells(x: np.ndarray) -> np.ndarray:
    return np.array([repr(v) for v in x.tolist()], dtype="S24").view(np.uint8).reshape(-1, 24)


def _assert_cells_are_repr(x: np.ndarray):
    got = emit._float_cells(x)
    padded = np.zeros((x.size, 24), np.uint8)
    padded[:, :got.shape[1]] = got
    bad = np.flatnonzero((padded != _repr_cells(x)).any(axis=1))
    assert bad.size == 0, [(repr(v), bytes(padded[i]).rstrip(b"\0"))
                           for i, v in zip(bad[:5], x[bad[:5]].tolist())]


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_float_cells_are_repr_for_every_bit_pattern(bits):
    _assert_cells_are_repr(np.array(bits, dtype=np.uint64).view(np.float64))


def _sweep(rng) -> np.ndarray:
    """About 1.4M float64s: decades, grids, float32 casts, 17-digit decimals
    and their neighbours, powers of 2 and 10, subnormals, zeros, NaN payloads
    and infinities, each with both signs."""
    n = 100_000
    decimals = np.array([float(f"{d}e{e}") for d, e in zip(
        rng.integers(10**16, 10**17, n // 4), rng.integers(-340, 292, n // 4))])
    powers = np.concatenate([2.0 ** np.arange(-1074, 1024),
                             [float(f"1e{e}") for e in range(-323, 309)]])
    parts = [
        10.0 ** rng.uniform(-300, 300, 2 * n),
        rng.uniform(-10, 10, 40)[:, None] + np.outer(
            rng.choice([1e-3, 0.01, 0.05, 0.1, 1 / 3, 2 * math.pi / 4096], 40),
            np.arange(n // 20)),
        rng.integers(0, 2**32, n, dtype=np.uint32).view(np.float32),
        rng.standard_normal(n).astype(np.float32),
        decimals, np.nextafter(decimals, math.inf), np.nextafter(decimals, -math.inf),
        powers, np.nextafter(powers, math.inf), np.nextafter(powers, -math.inf),
        rng.integers(1, 2**52, n // 10, dtype=np.uint64).view(np.float64),
        np.array([0.0, math.inf], dtype=np.float64),
        (rng.integers(1, 2**52, 100, dtype=np.uint64) | np.uint64(0x7FF << 52)).view(np.float64),
    ]
    with np.errstate(invalid="ignore", over="ignore"):
        x = np.concatenate([np.ravel(p).astype(np.float64) for p in parts])
    return np.concatenate([x, -x])


def test_float_cells_are_repr_on_a_seeded_sweep():
    x = _sweep(np.random.default_rng(20261019))
    assert x.size >= 10**6
    _assert_cells_are_repr(x)


def test_shipped_configs_write_every_float_cell_as_repr(tmp_path):
    # the data files themselves: a column that is not all integers is a
    # float column, and each of its cells reads back to itself under repr
    configs = sorted((Path(__file__).parents[1] / "configs").glob("*.json"))
    assert len(configs) == 5
    checked = 0
    for cfg in configs:
        out = tmp_path / cfg.stem
        assert main(["run", str(cfg), "--out", str(out)]) == 0
        for path in out.glob("*.csv"):
            rows = [ln.split(",") for ln in path.read_text().splitlines()
                    if not ln.startswith("#")][1:]
            for column in zip(*rows):
                if all(c.lstrip("-").isdigit() for c in column):
                    continue
                assert [repr(float(c)) for c in column] == list(column), path.name
                checked += len(column)
    assert checked > 100_000
