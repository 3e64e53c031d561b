"""Record a BENCH file: paired benchmark claims, one run per workload, cold CLI runs.

    python tools/record_bench.py --parent DIR --out BENCH_<n>.json \\
        --claim-seeds S1-S10 [--claim oracle]

DIR is a checkout of the parent commit (git clone or git archive); the
change is the checkout this script lives in.  Each side's benchmark runs
from its own checkout, so it imports that side's src/.  The script records
into one JSON file:

* claim: for each claim seed, `benchmarks/run.py --workload W --seed S
  --seconds RUN_SECONDS --trace 0` on the parent and on the change, the
  parent first at even positions in the seed list and the change first at
  odd ones, each run's last stdout line (its result as JSON) stored
  unchanged, and per side the median and quartiles of the claim metric over
  the seeds, with the number of seeds the change won.  The metric is
  CLAIM_METRIC, and BENCHMARK.json gives its direction.  The seeds have no
  default: a claim takes seeds that were not run while writing the change;
* workloads: one `--trace 0` run of every workload on each side, at seed
  WORKLOAD_SEED, each as long as a claim run;
* cold_runs: `python -m ringtoa run CONFIG` for each shipped config in fresh
  interpreters, COLD_REPEATS times a side, alternating sides, as the best
  and the median wall time.  Every cold run gets PYTHONDONTWRITEBYTECODE=1,
  so no run leaves bytecode for the next; the file records the value;
* env: both commits, python, numpy and its BLAS, nproc, the thread
  variables and PYTHONDONTWRITEBYTECODE as this script found them.

The benchmark pins its own thread variables to 1; the cold runs inherit the
environment's.  Nothing under benchmarks/ is written; run.py removes what
it writes.  Ten claim seeds take about 15 minutes on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "RINGTOA_THREADS")
SIDES = ("parent", "change")
CLAIM_METRIC = "pass_s"
WORKLOAD_SEED = 1
COLD_REPEATS = 5
# the length of every benchmark run: the one a paired claim needs to resolve
# a change (shorter runs cannot resolve one on figures)
RUN_SECONDS = 30.0
COLD_BYTECODE = "1"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--claim", default="oracle")
    ap.add_argument("--claim-seeds", type=seeds, required=True)
    args = ap.parse_args(argv)
    if not (args.parent / "benchmarks" / "run.py").is_file():
        ap.error(f"--parent {args.parent} holds no benchmarks/run.py")
    args.change = ROOT
    return args


def seeds(text: str) -> list[int]:
    """'601-610' or '601,605,7' as a list of ints."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def git_commit(path: Path):
    """HEAD of the checkout at path, suffixed -dirty when its tree differs from HEAD."""
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=path, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": git_commit(args.change),
        "parent_commit": git_commit(args.parent),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "nproc": os.cpu_count(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def bench(side: Path, workload: str, seed: int) -> dict:
    """The last stdout line of one `benchmarks/run.py --trace 0` run, parsed."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(RUN_SECONDS), "--trace", "0"]
    proc = subprocess.run(argv, cwd=side, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: numpy's linear percentiles)."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metric: str, better: str) -> dict:
    """Per side the spread of metric over the pairs, and the pairs the change won."""
    vals = {side: [p[side]["metrics"][metric]["value"] for p in pairs] for side in SIDES}
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
    return {**{side: spread(vals[side]) for side in SIDES}, "wins": wins, "n": len(pairs)}


def cold_runs(args, names: list[str]) -> dict:
    """Best and median wall time of `python -m ringtoa run` per config and side."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE=COLD_BYTECODE)
    times = {name: {side: [] for side in SIDES} for name in names}
    with tempfile.TemporaryDirectory(prefix="record_bench-") as out:
        for _ in range(COLD_REPEATS):
            for name in names:
                for side in SIDES:
                    root = getattr(args, side)
                    argv = [sys.executable, "-m", "ringtoa", "run",
                            str(root / "configs" / f"{name}.json"),
                            "--out", str(Path(out) / side / name)]
                    start = time.perf_counter()
                    subprocess.run(argv, cwd=root, env=dict(env, PYTHONPATH=str(root / "src")),
                                   check=True, stdout=subprocess.DEVNULL)
                    times[name][side].append(time.perf_counter() - start)
    return {name: {side: {"best_s": min(ts), "median_s": statistics.median(ts), "runs_s": ts}
                   for side, ts in sides.items()} for name, sides in times.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}[CLAIM_METRIC]
    record = {"env": environment(args)}

    pairs = []
    for i, seed in enumerate(args.claim_seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        runs = {side: bench(getattr(args, side), args.claim, seed)
                for side in order}
        pairs.append({"seed": seed, "first": order[0], **runs})
        print(f"claim seed {seed}: " + " ".join(
            f"{side} {pairs[-1][side]['metrics'][CLAIM_METRIC]['value']:.6g}"
            for side in SIDES), file=sys.stderr)
    record["claim"] = {
        "workload": args.claim, "metric": CLAIM_METRIC, "better": better,
        "seconds": RUN_SECONDS, "trace": 0,
        "pairs": pairs, "summary": summarize(pairs, CLAIM_METRIC, better),
    }

    record["workloads"] = {}
    for wl in spec["workloads"]:
        name = wl["name"]
        record["workloads"][name] = {
            "seed": WORKLOAD_SEED, "seconds": RUN_SECONDS, "trace": 0,
            **{side: bench(getattr(args, side), name, WORKLOAD_SEED)
               for side in SIDES}}
        print(f"workload {name} recorded", file=sys.stderr)

    names = sorted(p.stem for p in (args.change / "configs").glob("*.json"))
    record["cold_runs"] = {"repeats": COLD_REPEATS, "unit": "s",
                           "PYTHONDONTWRITEBYTECODE": COLD_BYTECODE,
                           "configs": cold_runs(args, names)}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
