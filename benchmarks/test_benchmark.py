"""Tests of the benchmark itself (not part of the package's tier-1 suite).

    python3 -m pytest benchmarks -q

They run real workloads and take about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SCRATCH = ROOT / ".bench_out"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402
import workloads  # noqa: E402
from ringtoa import cli, multitime, probability, rotation  # noqa: E402
import ringtoa.amplitudes as amplitudes  # noqa: E402


@pytest.fixture
def scratch():
    SCRATCH.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=SCRATCH))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


COUNTER_KEYS = set(tracer.Tracer().counters())


@pytest.mark.parametrize("workload", ["figures", "oracle", "scatter"])
def test_trace_counters_repeat_with_one_seed(workload):
    runs = [_result(_run("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", "1")) for _ in range(2)]
    counts = [{k: v["value"] for k, v in r["metrics"].items() if k in COUNTER_KEYS}
              for r in runs]
    assert set(counts[0]) == COUNTER_KEYS
    assert counts[0] == counts[1]
    assert all(r["correct"] and r["failed"] == 0 for r in runs)


def test_untraced_run_reports_every_end_to_end_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    res = _result(_run("--workload", "scatter", "--seed", "5", "--seconds", "0"))
    assert set(res["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] != 0 for m in res["metrics"].values())
    traced = _result(_run("--workload", "scatter", "--seed", "5", "--seconds", "0",
                          "--trace", "1"))
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_tracer_rebinds_every_import_site():
    originals = (amplitudes.amp_state, probability.amp_state, multitime.amp_state,
                 cli.amp_state, rotation.amp_rotating_split)
    with tracer.Tracer() as tr:
        wrapped = (amplitudes.amp_state, probability.amp_state, multitime.amp_state,
                   cli.amp_state, rotation.amp_rotating_split)
        assert all(w is not o for w, o in zip(wrapped, originals))
        assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
        ms = workloads.ModeSpace(mu=0.0, r=1.0, m_max=40)
        st = workloads.states.coherent_state(ms, workloads.states.CoherentParams(0, 20, 3))
        det = workloads.detector.localization_matrix(
            workloads.detector.DetectorKernel.max_localization(), ms)
        probability.pc_density(st, det, np.linspace(0, 1, 5), 0.0)
        assert tr.calls["amplitudes.mode_sum"] == 1
        assert tr.calls["probability"] == 1
    restored = (amplitudes.amp_state, probability.amp_state, multitime.amp_state,
                cli.amp_state, rotation.amp_rotating_split)
    assert all(r is o for r, o in zip(restored, originals))


def _data_files(path: Path) -> dict:
    return {p.relative_to(path).as_posix(): p.read_bytes()
            for p in sorted(path.rglob("*"))
            if p.is_file() and p.name != "run_manifest.json"}


def test_traced_run_leaves_data_files_identical(scratch):
    outputs = {}
    for traced in (False, True):
        wl = workloads.Figures(7, scratch / str(traced), ROOT / "configs")
        tr = tracer.Tracer()
        if traced:
            tr.install()
        try:
            codes = [fn() for _, fn in wl.ops]
        finally:
            tr.uninstall()
        assert codes == [0] * len(wl.ops)
        outputs[traced] = _data_files(scratch / str(traced))
    assert outputs[False].keys() == outputs[True].keys()
    assert any(name.endswith(".csv") for name in outputs[False])
    assert outputs[False] == outputs[True]


def test_seed_changes_generated_inputs(scratch):
    def oracle(seed):
        return workloads.Oracle(seed, scratch).points

    def scatter(seed):
        s = workloads.Scatter(seed, scratch)
        return [s.rho, s.t_mix, s.t_pure, s.t_q, np.array(s.eta_args), s.t_cum]

    def same(a, b):
        return all(np.array_equal(np.asarray(x), np.asarray(y)) for x, y in zip(a, b))

    assert oracle(1) == oracle(1)
    assert oracle(1) != oracle(2)
    assert same(scatter(1), scatter(1))
    assert not any(np.array_equal(x, y) for x, y in zip(scatter(1), scatter(2)))


def test_refuses_to_run_without_the_source_tree(scratch):
    shutil.copytree(BENCH, scratch / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    proc = _run("--workload", "figures", "--seed", "1", "--seconds", "1",
                cwd=scratch, script=scratch / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_reference_times_scale_by_the_kernel_around_each_operation():
    import run

    runner = run.Runner("oracle", workloads.Workload(1, SCRATCH))
    r = runner.reference_s
    # wall time, kernel time before and after: half speed, a change, full speed
    times = runner.reference_times([(0.8, 2 * r, 2 * r), (0.6, 2 * r, r), (1.0, r, r)])
    assert times == pytest.approx([0.4, 0.4, 1.0])
