"""Each operation's median time over passes of one benchmark workload, in process.

    python tools/op_times.py {figures,oracle,scatter} --seed N --passes K

Builds the workload of benchmarks/workloads.py from the seed as the
benchmark does (benchmarks/run.py's set_up, warm-up operation included),
runs one untimed pass and then K passes with the benchmark's own runner,
and prints one line per operation, in pass order, with its median time in
reference-host seconds (the wall time scaled by the reference kernel run
around it, as the benchmark reports `pass_s`) and in wall seconds:

    mixed_state   2.150 ms ref   2.963 ms wall

then the sums of the medians as `pass`.  BLAS and OpenMP run on one thread,
as in the benchmark.  The script reads the benchmark's files and edits
none; it checks no output against the references (the benchmark does), and
the figures workload writes its outputs to a temporary directory that is
removed on exit.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import run  # noqa: E402  (pins the thread counts before numpy loads)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=("figures", "oracle", "scatter"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, default=5)
    args = ap.parse_args(argv)
    if args.passes < 1:
        ap.error("--passes must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run.import_package()
    with tempfile.TemporaryDirectory() as out:
        wl = run.set_up(args, Path(out))
        runner = run.Runner(args.workload, wl)
        runner.run_pass(False)
        samples = [runner.run_pass(False) for _ in range(args.passes)]
    ref = run.median_per_op([runner.reference_times(s) for s in samples])
    wall = run.median_per_op([[w for w, *_ in s] for s in samples])
    names = [name for name, _ in wl.ops] + ["pass"]
    width = max(map(len, names))
    print(f"# {args.workload} seed {args.seed}: median of {args.passes} passes of "
          f"{len(wl.ops)} operations, in process")
    for name, r, w in zip(names, ref + [sum(ref)], wall + [sum(wall)]):
        print(f"{name:<{width}}  {1e3 * r:8.3f} ms ref  {1e3 * w:8.3f} ms wall")
    return 0


if __name__ == "__main__":
    sys.exit(main())
