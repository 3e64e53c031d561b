import copy
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringtoa import cli
from ringtoa.cli import main, validate_config
from ringtoa.states import REQUIRED, STATE_SPEC_KEYS


def write_config(tmp_path: Path, name: str, cfg: dict) -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def read_csv(path: Path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    names = lines[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: data[:, j] for j, name in enumerate(names)}


NOISE_CFG = {
    "experiment": "noise",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 300, "a_values": [0.5, 1.0]},
    "grid": {"omega_d_r_min": 0.0, "omega_d_r_max": 0.8, "n": 7},
    "output": {"prefix": "noise"},
}


def test_validate_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, "ok.json", NOISE_CFG)
    assert main(["validate", str(cfg)]) == 0
    assert "config ok" in capsys.readouterr().out


def test_validate_rejects_superluminal_frame(tmp_path, capsys):
    bad = {
        "experiment": "sagnac",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "xi": 100.0,
                   "alpha": 5.0, "omega_d": 1.2},
        "grid": {"t_max": 10.0},
    }
    cfg = write_config(tmp_path, "bad.json", bad)
    assert main(["validate", str(cfg)]) == 2
    assert "frame not timelike" in capsys.readouterr().out


def test_validate_defaults_m_max_with_warning():
    cfg = {
        "experiment": "clock",
        "params": {"mu": 0.0, "r": 1.0, "xi": 100.0, "alpha": 5.0},
        "grid": {"t_max": 10.0},
    }
    errors, warnings, normalized = validate_config(cfg)
    assert not errors
    assert any("m_max defaulted" in w for w in warnings)
    assert normalized["params"]["m_max"] == 160
    # a packet too wide for a float is refused, not an OverflowError
    cfg["params"] |= {"xi": 1e308, "alpha": 1e307}
    errors, _, _ = validate_config(cfg)
    assert errors == ["params.m_max is required: ceil(abs(xi) + 12 alpha) overflows"]


def test_validate_warns_small_alpha_qsymbol():
    cfg = {
        "experiment": "qsymbol",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 60, "xi": 20.0, "alpha": 1.0},
        "times": [{"t": 1.0}],
        "grid": {"n_theta": 64},
    }
    errors, warnings, _ = validate_config(cfg)
    assert not errors
    assert any("below recommended alpha" in w for w in warnings)


def test_validate_rejects_tq_times_for_massless():
    cfg = {
        "experiment": "qsymbol",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 60, "xi": 20.0, "alpha": 4.0},
        "times": [{"t_over_tq": 0.5}],
        "grid": {"n_theta": 64},
    }
    errors, _, _ = validate_config(cfg)
    assert any("undefined for mu = 0" in e for e in errors)


def test_run_noise_outputs_and_manifest(tmp_path):
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["noise_a0.5.csv", "noise_a1.0.csv", "run_manifest.json"]
    text = (out / "noise_a1.0.csv").read_text()
    lines = text.splitlines()
    meta = [ln for ln in lines if ln.startswith("#")]
    assert any("normalization: B=1" in ln for ln in meta)
    header = next(ln for ln in lines if not ln.startswith("#"))
    assert header.split(",") == ["omega_d_r", "eta", "eta_closed"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["experiment"] == "noise"
    assert "wall_time_s" in manifest
    assert set(manifest["outputs"]) == {"noise_a0.5.csv", "noise_a1.0.csv"}


def test_run_noise_manifest_records_the_reached_truncation(tmp_path):
    from ringtoa import DetectorKernel, ModeSpace, noise_curve

    cfg = copy.deepcopy(NOISE_CFG)
    cfg["grid"]["omega_d_r_max"] = 0.95  # slow enough that a = 0.5 extends the cutoff
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, "noise.json", cfg)), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    truncation = manifest["extras"]["truncation"]
    ms = ModeSpace(mu=0.0, r=1.0, m_max=300)
    curves = [noise_curve(DetectorKernel.ring_exponential(a=a), ms, np.linspace(0.0, 0.95, 7))
              for a in (0.5, 1.0)]
    assert truncation == {"m_max_reached": max(c.m_max_reached for c in curves),
                          "tail_over_sum": max(c.tail_over_sum for c in curves)}
    assert truncation["m_max_reached"] > 300
    assert 0.0 < truncation["tail_over_sum"] < 1e-12


def test_run_deterministic_byte_identical(tmp_path):
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", str(cfg), "--out", str(out1)]) == 0
    assert main(["run", str(cfg), "--out", str(out2)]) == 0
    for name in ("noise_a0.5.csv", "noise_a1.0.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    m1 = json.loads((out1 / "run_manifest.json").read_text())
    m2 = json.loads((out2 / "run_manifest.json").read_text())
    m1.pop("wall_time_s"), m2.pop("wall_time_s")
    assert m1 == m2


def test_run_invalid_config_exit_2(tmp_path):
    cfg = write_config(tmp_path, "bad.json", {"experiment": "nope"})
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 2


def test_run_numerical_failure_exit_3(tmp_path):
    # coherent packet whose tail cannot fit the lattice: CutoffError -> 3
    cfg = write_config(tmp_path, "bad.json", {
        "experiment": "clock",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 30, "xi": 28.0, "alpha": 6.0},
        "grid": {"t_max": 10.0},
    })
    assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 3


SAGNAC_CFG = {
    "experiment": "sagnac",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "xi": 100.0, "alpha": 5.0,
               "omega_d": 0.001},
    "grid": {"t_max": 10.0},
}
CLOCK_CFG = {
    "experiment": "clock",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "xi": 100.0, "alpha": 5.0},
    "grid": {"t_max": 10.0},
}
QSYMBOL_CFG = {
    "experiment": "qsymbol",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 60, "xi": 20.0, "alpha": 4.0},
    "times": [{"t": 1.0}],
}
AMPLITUDE_CHECK_CFG = {
    "experiment": "amplitude-check",
    "params": {"mu": 10.0, "r": 1.0, "m_max": 200, "xi": 100.0, "alpha": 5.0},
    "grid": {"t_min": 1.0, "t_max": 2.0, "n_t": 8},
}


CLOCK_NO_M_MAX = {**CLOCK_CFG, "params": {k: v for k, v in CLOCK_CFG["params"].items()
                                          if k != "m_max"}}
LINE_STATE = {"kind": "gaussian-line", "p": 100.0, "sigma": 1.0 / (math.sqrt(2) * 5)}
KOLMOGOROV_CFG = {
    "experiment": "kolmogorov",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "kind": "product",
               "state1": LINE_STATE, "state2": LINE_STATE | {"family": "gaussian-times-x"},
               "n_t1": 512},
    "grid": {"t_min": 5.9, "t_max": 6.7, "n_t": 3},
}


@pytest.mark.parametrize("cfg, block, key, value", [
    (SAGNAC_CFG, "grid", "dt", 0),
    (NOISE_CFG, "params", "m_max", "big"),
    (CLOCK_CFG, "grid", "n_t", "many"),
    (NOISE_CFG, "grid", "n", 0),
    (QSYMBOL_CFG, "grid", "n_theta", 0),
    (NOISE_CFG, "output", "format", "json"),
    # block None: a top-level key
    pytest.param(QSYMBOL_CFG, None, "times", [5], id="times-not-object"),
    pytest.param(CLOCK_NO_M_MAX, "params", "xi", math.inf, id="xi-infinite"),
    pytest.param(QSYMBOL_CFG, None, "times", [{"t": "abc"}], id="times-value-string"),
    pytest.param(NOISE_CFG, "params", "a_values", [0.5, True], id="a-values-bool"),
    pytest.param(NOISE_CFG, "params", "a_values", [0.5, math.inf], id="a-values-infinite"),
    # a tick needs a moving packet, the Poisson images a positive mean momentum
    pytest.param(QSYMBOL_CFG, "params", "xi", 0.0, id="qsymbol-xi-0"),
    pytest.param(CLOCK_CFG, "params", "xi", 0.0, id="clock-xi-0"),
    *(pytest.param(AMPLITUDE_CHECK_CFG, "params", "xi", xi, id=f"amplitude-check-xi={xi}")
      for xi in (0.0, -50.0)),
    *(pytest.param(KOLMOGOROV_CFG, "params", key, value, id=f"kolmogorov-{key}={json.dumps(value)}")
      for key, value in [("n_t1", None), ("n_t1", -5), ("t1_window", 5), ("t1_window", [1.0]),
                         ("t1_window", [2.0, 1.0]), ("t1_window", ["a", 1.0])]),
    *(pytest.param(NOISE_CFG, None, key, value, id=f"{key}-not-object")
      for key, value in [("params", 5), ("grid", []), ("output", "x")]),
    # a number is a finite JSON number, not a bool; an integer also integral
    pytest.param(NOISE_CFG, "params", "m_max", "200", id="m_max-string"),
    pytest.param(NOISE_CFG, "params", "m_max", 200.7, id="m_max-fraction"),
    pytest.param(NOISE_CFG, "params", "mu", True, id="mu-bool"),
    # output files stay plain names inside --out
    pytest.param(NOISE_CFG, "output", "prefix", None, id="prefix-null"),
    pytest.param(NOISE_CFG, "output", "prefix", "../esc", id="prefix-escapes"),
    pytest.param(NOISE_CFG, "output", "prefix", "", id="prefix-empty"),
])
def test_run_malformed_setting_exit_2(tmp_path, capsys, cfg, block, key, value):
    # a malformed setting is a config error (exit 2 with a message naming
    # the key), never a traceback, a numerical failure or an empty run
    bad = copy.deepcopy(cfg)
    if block is None:
        bad[key] = value
    else:
        bad.setdefault(block, {})[key] = value
    path = write_config(tmp_path, "bad.json", bad)
    out = tmp_path / "o"
    assert main(["run", str(path), "--out", str(out)]) == 2
    name = key if block is None else f"{block}.{key}"
    assert f"error: {name} " in capsys.readouterr().out
    assert not out.exists()


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
NOT_A_NUMBER = [None, [], {}]


def _probes():
    # (shipped config, dotted path of the mutated key, value)
    for name in ("fig-probcoh", "fig-steps", "sagnac", "fig-miviolation"):
        yield from ((name, "params.phi", v) for v in NOT_A_NUMBER)
    # qsymbol (fig-probcoh) scans theta itself and declares no params.theta
    yield from (("fig-steps", "params.theta", v) for v in NOT_A_NUMBER)
    yield from (("fig-miviolation", "params.t1", v) for v in NOT_A_NUMBER)
    for state in ("state1", "state2"):
        for key in ("xi", "alpha", "theta"):
            yield from (("fig-miviolation", f"params.{state}.{key}", v) for v in NOT_A_NUMBER)
    yield "fig-miviolation", "params.state2.alpha", 0
    yield "fig-miviolation", "params.state1.alpha", -1.0
    yield "fig-miviolation", "params.state1", []
    yield "fig-miviolation", "params.state2", {}
    line = {"kind": "gaussian-line", "p": 1000.0, "sigma": 0.0707}
    for spec in (line | {"p": None}, line | {"sigma": None}, line | {"sigma": 0},
                 line | {"family": "gaussian-times-y"}, {"kind": "gaussian"},
                 {"kind": "mode-list", "modes": 5}, {"kind": "mode-list", "modes": {"x": 1.0}},
                 {"kind": "symmetric"}):
        yield "fig-miviolation", "params.state1", spec
    # t_max <= t_min leaves an empty time grid
    yield "sagnac", "grid.t_max", 0
    yield "sagnac", "grid.t_max", -1
    yield "sagnac", "grid.t_min", 1e12
    yield "fig-steps", "grid.t_max", -1
    yield "fig-miviolation", "grid.t_max", 40.0


@pytest.mark.parametrize("name, path, value", [
    pytest.param(*probe, id=f"{probe[0]}-{probe[1]}={json.dumps(probe[2])}")
    for probe in _probes()
])
def test_shipped_config_probe_exit_2(tmp_path, capsys, name, path, value):
    # a shipped config with one key mutated exits 2 with an error naming it
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    *parents, key = path.split(".")
    block = cfg
    for part in parents:
        block = block[part]
    block[key] = value
    out = tmp_path / "o"
    assert main(["run", str(write_config(tmp_path, "bad.json", cfg)), "--out", str(out)]) == 2
    errors = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("error: ")]
    assert any(path in ln for ln in errors), errors
    assert not out.exists()


@pytest.mark.parametrize("name, path, value", [
    ("fig-steps", "params.m_max", 4 * 10**8),
    ("fig-probcoh", "grid.n_theta", 10**10),
    ("fig-miviolation", "grid.n_t", 10**8),
    ("sagnac", "grid.t_max", 1e9),
    ("sagnac", "grid.dt", 1e-8),
])
def test_config_too_large_exits_2(tmp_path, capsys, name, path, value):
    # sizes past cli.MEMORY_BUDGET are refused by validate, which allocates
    # nothing; no run of them is started
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    block, key = cfg[path.split(".")[0]], path.split(".")[1]
    block[key] = value
    assert main(["validate", str(write_config(tmp_path, "big.json", cfg))]) == 2
    (line,) = capsys.readouterr().out.splitlines()
    assert line.startswith("error: ") and path in line and "memory budget" in line


def test_validate_warns_once_per_undeclared_key(tmp_path, capsys):
    # a misspelt key is ignored by the runner, so validate says so (exit 0)
    for path in sorted(CONFIGS.glob("*.json")):
        assert validate_config(json.loads(path.read_text()))[:2] == ([], []), path.name
    cfg = json.loads((CONFIGS / "fig-probcoh.json").read_text())
    cfg["grid"]["n_thetas"] = 64
    cfg["note"] = "x"
    cfg["params"]["xi0"] = 1.0
    cfg["output"]["dir"] = "out"
    assert main(["validate", str(write_config(tmp_path, "typo.json", cfg))]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"warning: {key} is not a known key: ignored"
                   for key in ("params.xi0", "grid.n_thetas", "output.dir", "note")] + ["config ok"]
    pair = json.loads((CONFIGS / "fig-miviolation.json").read_text())
    pair["params"]["state1"]["sigma"] = 0.1
    pair["params"]["state2"] = {"kind": "symmetric", "extra": 1,
                                "base": pair["params"]["state2"] | {"p": 2.0}}
    errors, warnings, _ = validate_config(pair)
    assert not errors
    assert warnings == [f"params.{key} is not a known key: ignored"
                        for key in ("state1.sigma", "state2.base.p", "state2.extra")]


def test_python_m_ringtoa(tmp_path):
    # the package runs as a module without an installed entry point
    repo = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(repo / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "ringtoa", "validate", str(repo / "configs" / "fig-steps.json")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "config ok" in proc.stdout


def test_run_missing_config_exit_4(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 4


@pytest.mark.parametrize("text, message", [
    ('{"experiment": "noise"', "config is not valid JSON"),
    ("[1, 2]", "config must be a JSON object"),
    (json.dumps(NOISE_CFG).replace('"mu": 0.0', '"mu": 1' + "0" * 400),
     "params.mu must be a finite number"),
])
def test_run_unreadable_config_exit_2(tmp_path, capsys, text, message):
    # invalid JSON, a config that is no object, and an integer too large for
    # a float are config errors, never a traceback
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 2
    out = capsys.readouterr()
    assert message in out.out + out.err


@pytest.mark.parametrize("blocked", ["noise_a0.5.csv", "noise_plot.gp", "run_manifest.json"])
def test_run_io_failure_exit_4(tmp_path, capsys, blocked):
    # a directory where the run writes a data file, the gnuplot stub or the
    # manifest is an I/O failure, whichever file it is
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(out), "--gnuplot-stub"]) == 4
    assert "error: I/O failure" in capsys.readouterr().err


def test_main_twice_in_one_process_takes_the_defaults_the_second_time(tmp_path, monkeypatch):
    # the parser is built once a process; options of one call never leak into the next
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["run", str(cfg), "--out", str(tmp_path / "custom"), "--gnuplot-stub"]) == 0
    assert main(["run", str(cfg)]) == 0
    assert cli.build_parser() is cli.build_parser()
    made = sorted(p.name for p in cwd.iterdir())
    assert made == ["noise_a0.5.csv", "noise_a1.0.csv", "run_manifest.json"]
    assert "noise_plot.gp" in {p.name for p in (tmp_path / "custom").iterdir()}
    assert json.loads((cwd / "run_manifest.json").read_text())["outputs"] == made[:2]


def _without_wall_time(path: Path) -> bytes:
    return re.sub(rb'"wall_time_s": [^\n]*', b"", path.read_bytes())


def test_second_run_into_the_same_out_replaces_each_file(tmp_path):
    # hard links keep the first run's files: the second run leaves the same
    # bytes (the manifest but for its wall time) in new inodes
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out, kept = tmp_path / "out", tmp_path / "kept"
    assert main(["run", str(cfg), "--out", str(out), "--gnuplot-stub"]) == 0
    kept.mkdir()
    names = sorted(p.name for p in out.iterdir())
    assert len(names) == 4
    for name in names:
        os.link(out / name, kept / name)
    assert main(["run", str(cfg), "--out", str(out), "--gnuplot-stub"]) == 0
    assert sorted(p.name for p in out.iterdir()) == names
    for name in names:
        assert _without_wall_time(out / name) == _without_wall_time(kept / name)
        assert (out / name).stat().st_ino != (kept / name).stat().st_ino
        assert (out / name).stat().st_nlink == 1


@pytest.mark.parametrize("name", ["noise_a0.5.csv", "noise_plot.gp", "run_manifest.json"])
def test_run_replaces_a_symlink_or_read_only_file_at_an_output_path(tmp_path, name):
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    target = tmp_path / "target"
    target.write_bytes(b"untouched\n")
    linked, read_only = tmp_path / "linked", tmp_path / "read_only"
    linked.mkdir()
    (linked / name).symlink_to(target)
    read_only.mkdir()
    (read_only / name).write_bytes(b"old\n")
    (read_only / name).chmod(0o444)
    for out in (linked, read_only):
        assert main(["run", str(cfg), "--out", str(out), "--gnuplot-stub"]) == 0
        path = out / name
        assert path.is_file() and not path.is_symlink()
        assert path.read_bytes() not in (b"untouched\n", b"old\n")
    assert target.read_bytes() == b"untouched\n"
    assert _without_wall_time(linked / name) == _without_wall_time(read_only / name)


def test_run_clock_experiment(tmp_path):
    cfg = write_config(tmp_path, "clock.json", {
        "experiment": "clock",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 1120, "xi": 1000.0,
                   "alpha": 10.0, "phi": math.pi},
        "grid": {"t_max": 30.0},
        "output": {"prefix": "clk"},
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    ticks = json.loads((out / "clk_ticks.json").read_text())
    assert ticks["tau_expected"] == pytest.approx(2.0 * math.pi)
    spacing = np.diff([t["t"] for t in ticks["ticks"]])
    np.testing.assert_allclose(spacing, 2.0 * math.pi, atol=0.02)
    data = read_csv(out / "clk.csv")
    assert set(data) == {"t", "t_over_2pir", "density", "cumulative"}
    assert np.all(np.diff(data["cumulative"]) >= 0)


def test_run_qsymbol_panels_with_threads(tmp_path):
    cfg = write_config(tmp_path, "q.json", {
        "experiment": "qsymbol",
        "params": {"mu": 1000.0, "r": 1.0, "m_max": 1120, "xi": 1000.0,
                   "alpha": 10.0, "phi": math.pi},
        "times": [{"t_over_tq": 0.07}, {"t_over_tq": 0.6}],
        "grid": {"n_theta": 256},
        "output": {"prefix": "q"},
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    made = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert made == ["q_tq0.07.csv", "q_tq0.6.csv"]
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["extras"]["timescales"]["t_quantum"] == pytest.approx(282.84, abs=0.1)


@pytest.mark.parametrize("mu, xi, m_max", [(1000.0, 1000.0, 1120), (0.0, 20.0, 80)])
def test_qsymbol_run_builds_its_state_once(tmp_path, monkeypatch, mu, xi, m_max):
    # each panel is qsymbol's density, bit for bit, on one coherent state
    from ringtoa import CoherentParams, ModeSpace, qsymbol

    built = []

    def counting(*args):
        built.append(args)
        return coherent_state(*args)

    coherent_state = cli.coherent_state
    monkeypatch.setattr(cli, "coherent_state", counting)
    params = {"mu": mu, "r": 1.0, "m_max": m_max, "xi": xi, "alpha": 5.0,
              "theta": 0.4, "phi": 2.0}
    cfg = write_config(tmp_path, "q.json", {
        "experiment": "qsymbol", "params": params,
        "times": [{"t": 0.5}, {"t": 5.0}, {"t": 40.0}],
        "grid": {"n_theta": 128}, "output": {"prefix": "q"},
    })
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert len(built) == 1
    ms, cp0 = ModeSpace(mu, 1.0, m_max), CoherentParams(0.0, xi, 5.0)
    for name in ("q_t0.5.csv", "q_t5.0.csv", "q_t40.0.csv"):
        data = read_csv(out / name)
        t = data["t"][0]
        expected = qsymbol(ms, cp0, t, params["phi"] - data["theta"])
        assert data["value"].tobytes() == expected.tobytes()


def test_qsymbol_run_warns_below_alpha_3_once(tmp_path, capsys):
    # the config check prints the advice; the run raises no second warning
    cfg = write_config(tmp_path, "q.json", {
        "experiment": "qsymbol",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 60, "xi": 20.0, "alpha": 2.5},
        "times": [{"t": 0.5}, {"t": 1.0}], "grid": {"n_theta": 16},
    })
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    captured = capsys.readouterr()
    advice = "warning: alpha=2.5 below recommended alpha >= 3 for Q-symbol scans"
    assert (captured.out + captured.err).count(advice) == 1
    assert not [w for w in record if issubclass(w.category, UserWarning)]


def _header(path: Path) -> list:
    return [ln for ln in path.read_text().splitlines() if ln.startswith("#")]


def test_qsymbol_theta_is_ignored_and_not_recorded(tmp_path, capsys):
    # qsymbol scans theta itself: a params.theta warns and reaches no data file
    cfg = copy.deepcopy(QSYMBOL_CFG)
    cfg["params"]["theta"] = 0.4
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, "q.json", cfg)), "--out", str(out)]) == 0
    assert "warning: params.theta is not a known key: ignored" in capsys.readouterr().out
    header = _header(out / "qsymbol_t1.0.csv")
    assert "# xi: 20.0" in header
    assert not [ln for ln in header if ln.startswith("# theta")]


def test_undeclared_params_key_is_not_recorded(tmp_path):
    cfg = copy.deepcopy(CLOCK_CFG)
    cfg["params"]["xii"] = 7.0
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, "c.json", cfg)), "--out", str(out)]) == 0
    header = _header(out / "clock.csv")
    assert "# xi: 100.0" in header
    assert not [ln for ln in header if ln.startswith("# xii")]


def test_threads_match_one_thread_bytes(tmp_path):
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out, ref = tmp_path / "two", tmp_path / "one"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    assert main(["run", str(cfg), "--out", str(ref), "--threads", "1"]) == 0
    # same bytes as a single-threaded run: gathering is order-stable
    for name in ("noise_a0.5.csv", "noise_a1.0.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes()


def test_runs_start_no_thread(tmp_path, monkeypatch):
    # every config runs on the calling thread, whatever --threads says
    import threading

    def refuse(self):
        raise RuntimeError("a run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    qsym = write_config(tmp_path, "q.json", {
        "experiment": "qsymbol",
        "params": {"mu": 1000.0, "r": 1.0, "m_max": 1120, "xi": 1000.0, "alpha": 10.0},
        "times": [{"t_over_tq": 0.07}, {"t_over_tq": 0.6}],
        "grid": {"n_theta": 64},
    })
    for cfg in (qsym, write_config(tmp_path, "noise.json", NOISE_CFG)):
        assert main(["run", str(cfg), "--out", str(tmp_path / cfg.stem),
                     "--threads", "4"]) == 0


def test_run_help_hides_threads_flag(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert "--threads" not in capsys.readouterr().out
    args = cli.build_parser().parse_args(["run", "c.json", "--threads", "3"])
    assert args.threads == 3


def test_run_noise_at_m_max_one(tmp_path):
    # the eta sums start their cutoff at 2, so the smallest lattice converges
    cfg = copy.deepcopy(NOISE_CFG)
    cfg["params"]["m_max"] = 1
    out = tmp_path / "out"
    assert main(["run", str(write_config(tmp_path, "noise.json", cfg)), "--out", str(out)]) == 0
    ref = tmp_path / "ref"
    assert main(["run", str(write_config(tmp_path, "ref.json", NOISE_CFG)), "--out", str(ref)]) == 0
    for name in ("noise_a0.5.csv", "noise_a1.0.csv"):
        got, want = read_csv(out / name), read_csv(ref / name)
        np.testing.assert_allclose(got["eta"], want["eta"], rtol=1e-12)


def test_run_shipped_probcoh_config(tmp_path):
    # the shipped figure config produces one CSV per panel time
    cfg = Path(__file__).resolve().parent.parent / "configs" / "fig-probcoh.json"
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--threads", "2"]) == 0
    csvs = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    assert len(csvs) == 8
    assert "probcoh_tq0.07.csv" in csvs and "probcoh_trec1.0.csv" in csvs


# a sagnac scan too short for two fringe crossings: its fringe frequency is NaN
SAGNAC_NO_FRINGES = {
    "experiment": "sagnac",
    "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "xi": 100.0, "alpha": 5.0,
               "omega_d": 1e-6, "phi": 0.0},
    "grid": {"t_min": 0.5, "t_max": 40.0, "dt": 0.01},
    "output": {"prefix": "sagnac"},
}


def test_run_writes_rfc8259_json(tmp_path):
    # fig-steps' massless t_quantum is infinite and the short sagnac scan's
    # fringe frequency is NaN: both must be written as null
    def reject(token):
        raise ValueError(f"non-RFC 8259 token {token}")

    cfgs = [*sorted(CONFIGS.glob("*.json")),
            write_config(tmp_path, "sagnac-no-fringes.json", SAGNAC_NO_FRINGES)]
    assert len(cfgs) == 6
    for cfg in cfgs:
        out = tmp_path / cfg.stem
        assert main(["run", str(cfg), "--out", str(out), "--threads", "1"]) == 0
        for path in out.glob("*.json"):
            json.loads(path.read_text(), parse_constant=reject)
    manifests = {p.parent.name: json.loads(p.read_text())
                 for p in tmp_path.glob("*/run_manifest.json")}
    assert manifests["fig-steps"]["extras"]["timescales"]["t_quantum"] is None
    assert manifests["sagnac-no-fringes"]["extras"]["fringe_frequency"] is None


def test_run_gnuplot_stub(tmp_path):
    cfg = write_config(tmp_path, "noise.json", NOISE_CFG)
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out), "--gnuplot-stub"]) == 0
    stub = out / "noise_plot.gp"
    assert stub.exists()
    assert "noise_a0.5.csv" in stub.read_text()


def test_run_mi_scan_and_kolmogorov(tmp_path):
    state1 = {"kind": "gaussian-line", "p": 1000.0, "sigma": 1.0 / (math.sqrt(2) * 10)}
    state2 = {"kind": "gaussian-line", "p": 1000.0,
              "sigma": 1.0 / (math.sqrt(2) * 10), "family": "gaussian-times-x"}
    mi_cfg = write_config(tmp_path, "mi.json", {
        "experiment": "mi-scan",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 1120, "kind": "symmetrized",
                   "state1": state1, "state2": state2, "phi": 0.0,
                   "t1": 2 * math.pi + 0.05},
        "grid": {"t_min": 2 * math.pi - 0.2, "t_max": 2 * math.pi + 0.2, "n_t": 101},
        "output": {"prefix": "mi"},
    })
    out = tmp_path / "mi_out"
    assert main(["run", str(mi_cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["extras"]["violations_j"] > 0
    assert manifest["extras"]["violations_cs"] > 0

    kol_cfg = write_config(tmp_path, "kol.json", {
        "experiment": "kolmogorov",
        "params": {"mu": 0.0, "r": 1.0, "m_max": 1120, "kind": "product",
                   "state1": state1, "state2": state2,
                   "phi1": 0.0, "phi2": 0.0, "n_t1": 3000},
        "grid": {"t_min": 5.9, "t_max": 6.7, "n_t": 5},
        "output": {"prefix": "kol"},
    })
    out2 = tmp_path / "kol_out"
    assert main(["run", str(kol_cfg), "--out", str(out2)]) == 0
    manifest2 = json.loads((out2 / "run_manifest.json").read_text())
    assert manifest2["extras"]["max_rel_deviation"] < 1e-5


# one small config per experiment (every state-spec kind among them)
FUZZ_CONFIGS = [
    QSYMBOL_CFG | {"grid": {"n_theta": 64}}, CLOCK_CFG, NOISE_CFG, KOLMOGOROV_CFG,
    SAGNAC_CFG | {"params": SAGNAC_CFG["params"] | {"omega_d": 0.01}, "grid": {"t_max": 30.0}},
    {"experiment": "mi-scan",
     "params": {"mu": 0.0, "r": 1.0, "m_max": 200, "phi": 0.0, "t1": 3.0,
                "state1": {"kind": "mode-list", "modes": {"95": 1.0, "-100": [0.5, 0.5]}},
                "state2": {"kind": "symmetric", "base": {"kind": "coherent", "xi": 100.0,
                                                         "alpha": 5.0}}},
     "grid": {"t_min": 2.0, "t_max": 4.0, "n_t": 21}},
    AMPLITUDE_CHECK_CFG,
]
FUZZ_VALUES = [None, "x", True, [], {}, [1.0], -1, 0, 0.5, math.nan, math.inf, -math.inf]
# passed through validate alone: a run of them may not fit in memory
HUGE_VALUES = [4 * 10**8, 10**10, 10**300, 1e300]
DROP = object()


def _key_paths(block, prefix=()):
    for key, val in block.items():
        yield prefix + (key,)
        if isinstance(val, dict):
            yield from _key_paths(val, prefix + (key,))


@pytest.mark.filterwarnings("ignore::UserWarning")  # physics warnings of odd values
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_fuzzed_config_exits_0_2_or_3(data):
    # one key of a small config dropped or set to a malformed value: the run
    # succeeds, is refused as a config error, or fails numerically; it never
    # raises (a traceback and exit 1 from the command line)
    cfg = copy.deepcopy(data.draw(st.sampled_from(FUZZ_CONFIGS)))
    sizes = [k for k, (kind, _, _) in cli._SCHEMA[cfg["experiment"]].items() if kind == "int"]
    *parents, key = data.draw(st.sampled_from(list(_key_paths(cfg))))
    value = data.draw(st.sampled_from(FUZZ_VALUES + HUGE_VALUES + [DROP]))
    block = cfg
    for part in parents:
        block = block[part]
    if value is DROP:
        del block[key]
    else:
        block[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), "cfg.json", cfg)
        if any(value is v for v in HUGE_VALUES):
            # a huge size is refused; any other huge value is only validated
            refused = ".".join([*parents, key]) in sizes
            assert main(["validate", str(path)]) in ((2,) if refused else (0, 2))
        else:
            assert main(["run", str(path), "--out", str(Path(tmp) / "o")]) in (0, 2, 3)


def _cell(spec) -> str:
    """type | range | default of a schema entry, as the README tables print it."""
    kind, rng, default = spec
    if not isinstance(kind, str):
        kind = "one of " + ", ".join(f"`{c}`" for c in kind)
    if default is REQUIRED or isinstance(default, cli._Derived):
        default = f"*{default}*"
    else:
        default = f"`{json.dumps(default)}`"
    return f"{kind} | {rng} | {default}"


def _reference_rows() -> set:
    groups = {}
    for exp, table in cli._SCHEMA.items():
        for key, spec in table.items():
            groups.setdefault(f"| `{key}` | {_cell(spec)} |", []).append(exp)
    rows = {f"{row} {'all' if len(exps) == len(cli._SCHEMA) else ', '.join(exps)} |"
            for row, exps in groups.items()}
    return rows | {f"| `{kind}` | `{key}` | {_cell(spec)} |"
                   for kind, table in STATE_SPEC_KEYS.items() for key, spec in table.items()}


def test_readme_config_reference_matches_the_schema():
    # README's config reference lists every key, its type, range and default
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Config reference", 1)[1].split("\n#", 1)[0]
    rows = {ln for ln in section.splitlines() if ln.startswith("| `")}
    assert rows == _reference_rows()


def test_probcoh_panels_do_not_depend_on_the_blas_thread_count(tmp_path):
    # fig-probcoh's full-period panels are one FFT each, no BLAS call, so
    # fresh interpreters at one and two BLAS threads write the same bytes
    repo = Path(__file__).resolve().parent.parent
    outs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(repo / "src")] + [
                       p for p in [os.environ.get("PYTHONPATH")] if p]))
        out = tmp_path / threads
        proc = subprocess.run(
            [sys.executable, "-m", "ringtoa", "run", str(repo / "configs" / "fig-probcoh.json"),
             "--out", str(out)], cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=300)
        assert proc.returncode == 0, proc.stderr
        outs[threads] = {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}
    assert len(outs["1"]) == 8
    assert outs["1"] == outs["2"]
