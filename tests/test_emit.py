import numpy as np

from ringtoa.emit import format_float, write_csv


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

    def cell(v):
        if isinstance(v, np.bool_):
            return "1" if v else "0"
        if isinstance(v, np.integer):
            return str(int(v))
        return format_float(v)

    rows = [",".join(cell(a[i]) for a in cols.values()) for i in range(5)]
    expected = "\n".join(["# normalization: B=1;unit-integral-per-period",
                          "# note: n", "# scale: 0.5", ",".join(cols)] + rows) + "\n"
    assert path.read_bytes() == expected.encode()
    assert rows[1] == "0,-3,2,nan,-2.5"
    assert rows[4] == "1,1,5,-0.0,0.0"
