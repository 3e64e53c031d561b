"""tools/config_drift.py: one report line per file of two output trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "config_drift.py"
_spec = importlib.util.spec_from_file_location("config_drift", TOOL)
config_drift = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(config_drift)

CSV = "# experiment: scan\n# peak: 2.0\nt,density,kind\n0.0,1.0,a\n0.5,4.0,b\n"


def _tree(root: Path, files: dict) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


def _report(tmp_path, base: dict, head: dict, capsys) -> dict:
    assert config_drift.main([str(_tree(tmp_path / "base", base)),
                              str(_tree(tmp_path / "head", head))]) == 0
    return dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())


def test_each_file_reports_identical_or_its_worst_column(tmp_path, capsys):
    manifest = {"outputs": ["scan.csv"], "wall_time_s": 0.5, "extras": {"f": [1.0, 2.0]}}
    report = _report(tmp_path, {
        "cfg/scan.csv": CSV, "cfg/same.csv": CSV, "cfg/run_manifest.json": json.dumps(manifest),
        "cfg/ticks.json": json.dumps({"ticks": [{"t": 2.0}, {"t": 8.0}]}),
        "cfg/gone.csv": CSV,
    }, {
        # density moves by 1e-15 of its max 4.0, the peak comment by 2e-16 of 2.0
        "cfg/scan.csv": CSV.replace("0.0,1.0", "0.0,1.000000000000004").replace(
            "peak: 2.0", "peak: 2.0000000000000004"),
        "cfg/same.csv": CSV,
        "cfg/run_manifest.json": json.dumps(manifest | {"wall_time_s": 9.0}),
        "cfg/ticks.json": json.dumps({"ticks": [{"t": 2.0}, {"t": 8.000000000000002}]}),
        "cfg/new.csv": CSV,
    }, capsys)
    assert report == {
        "cfg/gone.csv": "only in base", "cfg/new.csv": "only in head",
        "cfg/run_manifest.json": "identical", "cfg/same.csv": "identical",
        "cfg/scan.csv": "1e-15 (density)", "cfg/ticks.json": "2.2e-16 (ticks[].t)",
    }


@pytest.mark.parametrize("head, line", [
    (CSV.replace("0.5,4.0,b", "0.5,4.0,c"), "text changed (kind)"),
    (CSV + "1.0,9.0,c\n", "length changed (density); length changed (kind); length changed (t)"),
    (CSV.replace("t,density", "t,dens"), "columns changed: dens, density"),
    (CSV.replace("4.0", "4.00"), "same values, other bytes"),
])
def test_a_change_that_is_no_number_is_named(tmp_path, capsys, head, line):
    assert _report(tmp_path, {"scan.csv": CSV}, {"scan.csv": head}, capsys) == {"scan.csv": line}
