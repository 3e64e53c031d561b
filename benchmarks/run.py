"""Run one benchmark workload in this process and print its metrics.

    python3 benchmarks/run.py --workload {figures,oracle,scatter} --seed N \\
        --seconds S --trace {0,1}

The workload is a closed loop with one client: each operation starts when
the previous one has returned.  Passes over the workload's fixed operation
list repeat until S seconds have been measured (at least MIN_PASSES passes).
Everything runs on one thread; BLAS and OpenMP are pinned to one thread
before numpy loads.  A reference kernel (calibrate.py) runs between
operations, and times are reported in reference-host seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports per-layer counters, self times and the
tracing overhead.  The last line of stdout is the result as one JSON object.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "RINGTOA_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

MIN_PASSES = 3
SETUP_REPEATS = 3
TAIL_PERCENTILE = 90
WARMUP_OP = {"figures": "fig-steps"}  # default: the first operation


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("figures", "oracle", "scatter"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one set-up in this fresh process, print it and exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import ringtoa from this checkout's source tree, never from elsewhere."""
    if not (SRC / "ringtoa" / "__init__.py").is_file():
        sys.exit(f"error: no ringtoa source tree at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import ringtoa

    if Path(ringtoa.__file__).resolve().parent != SRC / "ringtoa":
        sys.exit(f"error: ringtoa imported from {ringtoa.__file__}, not {SRC}")
    return ringtoa


def environment(seed: int) -> dict:
    """Machine, versions, thread settings and source identity of this run."""
    import hashlib
    import platform

    import mpmath
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")) + sorted((ROOT / "configs").glob("*.json")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas.get("name"),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit():
    """HEAD of the checkout if it is the top of a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(args, out_dir):
    """Inputs from the seed plus one warm-up operation; returns the workload."""
    import workloads

    extra = (ROOT / "configs",) if args.workload == "figures" else ()
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir, *extra)
    names = [name for name, _ in wl.ops]
    wl.ops[names.index(WARMUP_OP.get(args.workload, names[0]))][1]()
    return wl


def reference_setup_s(raw_s):
    """Set-up time in reference-host seconds: host speed from kernels run right after."""
    import calibrate

    calibrate.kernel_s("setup")  # first touch of its buffer and code paths
    kernel = median([calibrate.kernel_s("setup") for _ in range(5)])
    return raw_s * calibrate.reference_s("setup") / kernel, raw_s


def setup_in_fresh_process(args):
    """(reference, raw) set-up time of a new interpreter that does only the set-up."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0", "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True)
    ref_s, raw_s = proc.stdout.split()[-2:]
    return float(ref_s), float(raw_s)


def percentile(values, q):
    """Linear-interpolated percentile (numpy's default method)."""
    import numpy as np

    return float(np.percentile(values, q))


def median(values):
    return percentile(values, 50)


class Runner:
    """Times passes over one workload and checks every output.

    The reference kernel runs before the first operation and after each one;
    its samples give the host's speed around every operation.
    """

    def __init__(self, workload, wl, tracer=None):
        import calibrate

        self.wl = wl
        self.tracer = tracer
        self.kernel_s = lambda: calibrate.kernel_s(workload)
        self.reference_s = calibrate.reference_s(workload)
        self.kernels = []      # time of every kernel run
        self.first = None      # outputs of the first pass, checked against references
        self.failures = []     # (pass, op name, reason)
        self.attempted = 0
        self.peak_op = None    # the operation during which peak RSS was last raised

    def run_pass(self, traced: bool):
        """One pass; returns (wall time, kernel time before, after) per operation."""
        clock = time.perf_counter
        samples, outs = [], []
        if not self.kernels:
            self.kernels.append(self.kernel_s())
        self.wl.begin_pass()
        peak = peak_rss_mb()
        if traced:
            self.tracer.reset()
            self.tracer.install()
        try:
            for i, (name, fn) in enumerate(self.wl.ops):
                if traced:
                    self.tracer.begin_op()
                t0 = clock()
                try:
                    raw = fn()
                except Exception as exc:  # an operation's failure is counted, not fatal
                    raw = exc
                wall = clock() - t0
                self.kernels.append(self.kernel_s())
                samples.append((wall, *self.kernels[-2:]))
                outs.append(raw if isinstance(raw, Exception) else self.wl.collect(i, raw))
                if peak_rss_mb() > peak:
                    peak, self.peak_op = peak_rss_mb(), name
        finally:
            if traced:
                self.tracer.uninstall()
        self._record(outs)
        return samples

    def reference_times(self, samples):
        """Operation times of one pass in reference-host seconds.

        Each wall time is scaled by the kernel's reference time over the mean
        of its runs right before and right after the operation.
        """
        return [wall * self.reference_s / (0.5 * (before + after))
                for wall, before, after in samples]

    def _record(self, outs):
        pass_no = self.attempted // len(self.wl.ops)
        if self.first is None:
            self.first = outs
        for (name, _), out, ref in zip(self.wl.ops, outs, self.first):
            self.attempted += 1
            if isinstance(out, Exception):
                self.failures.append((pass_no, name, f"{type(out).__name__}: {out}"))
            elif isinstance(ref, Exception) or not self.wl.same(out, ref):
                self.failures.append((pass_no, name, "output differs from the first pass"))

    def check(self):
        """Reference checks of the first pass; a failed operation fails in every pass.

        Returns the per-operation results and the largest deviation (inf when
        an operation of the first pass raised, so nothing could be checked).
        """
        if any(isinstance(o, Exception) for o in self.first):
            return [], float("inf")
        results = self.wl.check(self.first)
        passes = self.attempted // len(self.wl.ops)
        for (name, _), res in zip(self.wl.ops, results):
            if not res.ok:
                self.failures += [(p, name, "outside the reference tolerance")
                                  for p in range(passes)]
        return results, max(res.err for res in results)


def median_per_op(passes):
    """Each operation's median time over the given passes."""
    return [median(col) for col in zip(*passes)]


def measure(runner, seconds: float, trace: bool):
    """Run passes until `seconds` have passed.

    Returns per-op reference times and raw wall times of each pass, by tracing.

    Untraced: at least MIN_PASSES passes.  Traced: a first untraced pass is
    discarded, then traced and untraced passes alternate (at least one each).
    """
    samples = {False: [], True: []}
    counters, self_times = [], []
    t_begin = time.perf_counter()
    n = 0
    while True:
        traced = trace and n % 2 == 1
        pass_samples = runner.run_pass(traced)
        if not (trace and n == 0):
            samples[traced].append(pass_samples)
        if traced:
            counters.append(runner.tracer.counters())
            self_times.append(runner.tracer.times())
        n += 1
        enough = (len(samples[False]) >= 1 and len(samples[True]) >= 1) if trace \
            else len(samples[False]) >= MIN_PASSES
        if enough and time.perf_counter() - t_begin >= seconds:
            break
    runs = {k: [runner.reference_times(s) for s in v] for k, v in samples.items()}
    walls = {k: [[wall for wall, *_ in s] for s in v] for k, v in samples.items()}
    return runs, walls, counters, self_times, n


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import contextlib
    import json
    import math
    import shutil

    import calibrate
    import tracer as tracing
    import workloads

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    try:
        wl = set_up(args, out_dir)
        if args.setup_only:
            print(*reference_setup_s(time.perf_counter() - T_START))
            return 0
        # set-up is timed in fresh processes only, so that the set-up kernel's
        # 16 MB buffer never counts in the oracle process's peak RSS
        setups = [] if args.trace else [setup_in_fresh_process(args)
                                        for _ in range(SETUP_REPEATS)]
        env = environment(args.seed)
        names = [name for name, _ in wl.ops]

        runner = Runner(args.workload, wl, tracing.Tracer() if args.trace else None)
        runs, walls, counters, self_times, n = measure(runner, args.seconds,
                                                       bool(args.trace))
        peak_mb = peak_rss_mb()  # the workload's own peak, before the checks
        results, max_err = runner.check()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still used by another run
            out_dir.parent.rmdir()
    failed = len({(p, name) for p, name, _ in runner.failures})
    attempted = runner.attempted

    op_med = median_per_op(runs[False])
    k = len(runs[False])
    lines = [f"# env {json.dumps(env, sort_keys=True)}",
             f"# workload {args.workload} seed {args.seed}: {n} passes of "
             f"{len(names)} operations, {attempted} attempted, {failed} failed"]
    lines += [f"# FAILED pass {p} {name}: {why}"
              for p, name, why in sorted(set(runner.failures))[:20]]
    lines += [f"# check {name}: {'ok' if res.ok else 'FAIL'} max_rel_err={res.err:.3e}"
              for name, res in zip(names, results)]
    config_s = {}
    if args.workload == "figures":
        config_s = {f"config_s.{name}": t for name, t in zip(names, op_med)}
        lines += [f"# {key} {val:.6f} s (median of {k} runs)" for key, val in config_s.items()]

    if args.trace == 0:
        metrics = {
            "setup_s": (median([ref_s for ref_s, _ in setups]), "s"),
            "pass_s": (sum(op_med), "s"),
            "op_s.p50": (percentile(op_med, 50), "s"),
            "op_s.tail": (percentile(op_med, TAIL_PERCENTILE), "s"),
            "err_digits": (-math.log10(min(max(max_err, 1e-300), 1e300)), "digits"),
            "ok_frac": (1.0 - failed / attempted, "1"),
            "peak_rss_mb": (peak_mb, "MB"),
        }
        lines += [
            f"# times are reference-host seconds: wall time x {runner.reference_s:.4f} s / "
            f"the {'+'.join(calibrate.KERNELS[args.workload])} kernel's time around it "
            f"(kernel median "
            f"{median(runner.kernels):.4f} s over {len(runner.kernels)} runs)",
            f"# setup_s = median of {SETUP_REPEATS} set-ups, each a fresh process's "
            f"imports, inputs and one warm-up operation: "
            + " ".join(f"{r:.4f}" for r, _ in setups) + " s (wall "
            + " ".join(f"{w:.4f}" for _, w in setups) + " s)",
            f"# peak_rss_mb = ru_maxrss after the last pass, before the checks; "
            f"last raised by {runner.peak_op or 'the set-up'}",
            f"# pass_s = sum over operations of each one's median of {k} passes "
            f"(median wall-time pass {median([sum(p) for p in walls[False]]):.4f} s)",
            f"# op_s.p50, op_s.tail = p50, p{TAIL_PERCENTILE} over the {len(names)} "
            f"operations of a pass, each the median of its {k} runs",
            f"# err_digits = -log10(max_rel_err), max_rel_err = {max_err:.3e}",
        ]
    else:
        first = counters[0]
        unstable = [key for key in first if any(c[key] != first[key] for c in counters)]
        metrics = {key: (v, tracing.unit(key)) for key, v in first.items()}
        for key in self_times[0]:
            metrics[key] = (min(s[key] for s in self_times), tracing.unit(key))
        overhead = sum(median_per_op(runs[True])) / sum(op_med) - 1.0
        metrics["trace.overhead_frac"] = (overhead, "1")
        for name in workloads.CONFIGS + ("kolmogorov",):
            metrics[f"config_s.{name}"] = (config_s.get(f"config_s.{name}", 0.0), "s")
        lines.append(f"# {len(runs[True])} traced and {k} untraced passes; overhead = "
                     f"traced / untraced pass_s - 1; self times are the best traced pass")
        if unstable:
            lines.append(f"# counters differ between traced passes: {unstable}")
    lines += [f"{key} {val:.6g} {unit}" for key, (val, unit) in metrics.items()]
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
