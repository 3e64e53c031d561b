"""The committed BENCH_<n>.json files of tools/record_bench.py: keys and units.

Each file is checked against itself, not against today's BENCHMARK.json or
configs/: a later workload, metric or config leaves an old record valid.
Reads the files only; no benchmark runs here.
"""

import json
import math
import re
import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import record_bench  # noqa: E402

BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_a_bench_file_is_committed():
    assert BENCH_FILES


def _runs(rec: dict):
    """Every stored benchmark result line of a record."""
    for pair in rec["claim"]["pairs"]:
        yield from (pair[side] for side in record_bench.SIDES)
    for runs in rec["workloads"].values():
        yield from (runs[side] for side in record_bench.SIDES)


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_keys_and_units(path):
    rec = json.loads(path.read_text())
    assert set(rec) == {"env", "claim", "workloads", "cold_runs"}

    env = rec["env"]
    assert {"commit", "parent_commit", "python", "numpy", "blas", "nproc", "threads",
            "PYTHONDONTWRITEBYTECODE"} <= set(env)
    assert env["threads"] and all(v is None or isinstance(v, str)
                                  for v in env["threads"].values())

    # every run carries the metrics of the file's first run, each in one unit
    runs = list(_runs(rec))
    units = {name: m["unit"] for name, m in runs[0]["metrics"].items()}
    assert units
    for run in runs:
        assert {"correct", "attempted", "failed", "metrics"} <= set(run)
        assert {name: m["unit"] for name, m in run["metrics"].items()} == units
        for metric in run["metrics"].values():
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    for name, unit in units.items():  # seconds exactly where the name says _s
        assert (unit == "s") == bool(re.search(r"_s(\.|$)", name)), name

    claim = rec["claim"]
    assert claim["metric"] in units and claim["trace"] == 0
    assert claim["workload"] in rec["workloads"] and claim["better"] in {"lower", "higher"}
    assert claim["pairs"] and len({p["seed"] for p in claim["pairs"]}) == len(claim["pairs"])
    assert all(p["first"] in record_bench.SIDES for p in claim["pairs"])
    assert claim["summary"] == record_bench.summarize(claim["pairs"], claim["metric"],
                                                      claim["better"])
    assert all(runs["trace"] == 0 for runs in rec["workloads"].values())

    cold = rec["cold_runs"]
    assert cold["unit"] == "s" and cold["PYTHONDONTWRITEBYTECODE"] == "1"
    assert cold["configs"]
    for sides in cold["configs"].values():
        assert set(sides) == set(record_bench.SIDES)
        for times in sides.values():
            assert len(times["runs_s"]) == cold["repeats"]
            assert times["best_s"] == min(times["runs_s"])
            assert times["median_s"] == statistics.median(times["runs_s"])


def test_summary_counts_wins_in_the_metrics_direction():
    def run(value):
        return {"metrics": {"pass_s": {"value": value, "unit": "s"}}}

    pairs = [{"seed": s, "parent": run(p), "change": run(c)}
             for s, (p, c) in enumerate([(1.0, 0.9), (1.2, 1.0), (0.8, 0.85), (1.1, 1.0)])]
    summary = record_bench.summarize(pairs, "pass_s", "lower")
    assert summary["wins"] == 3 and summary["n"] == 4
    assert summary["parent"]["median"] == pytest.approx(1.05)
    assert summary["parent"]["iqr"] == pytest.approx(1.125 - 0.95)
    assert record_bench.summarize(pairs, "pass_s", "higher")["wins"] == 1
