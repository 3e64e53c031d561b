"""Command-line front end: validate and run experiment configurations.

Usage:
    ringtoa validate <config.json>
    ringtoa run <config.json> [--out DIR] [--threads N] [--gnuplot-stub]

A configuration selects one experiment (qsymbol, clock, noise, sagnac,
mi-scan, amplitude-check, kolmogorov), its physical parameters, and the
evaluation grid.  Runs write '#'-annotated CSV data files plus a
run_manifest.json recording parameters, the normalization convention,
truncation estimates, and wall time.  Pipelines are deterministic: repeated
runs of the same config produce byte-identical data files.

Exit codes: 0 ok, 2 invalid config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import amp_poisson, amp_state
from .clock import clock_quality, cumulative, extract_ticks
from .detector import DetectorKernel, _kernel_support, _require_support
from .emit import format_float, write_csv, write_json
from .errors import RingToAError
from .modes import ModeSpace, RotationFrame
from .multitime import TwoParticleState, kolmogorov_check, violation_scan
from .probability import NORMALIZATION_TAG, _density, qsymbol, timescales
from .rotation import noise_curve, sagnac_scan
from .states import (
    CoherentParams,
    coherent_state,
    coherent_tail_mass,
    state_from_spec,
    symmetric_superposition,
)

EXPERIMENTS = (
    "qsymbol",
    "clock",
    "noise",
    "sagnac",
    "mi-scan",
    "amplitude-check",
    "kolmogorov",
)


# --------------------------------------------------------------------------
# validation


def _block(cfg: dict, where: str) -> dict:
    """The nested object a dotted path such as ``params.state1`` names."""
    for part in where.split("."):
        cfg = cfg.get(part, {})
    return cfg


def _require(cfg: dict, key: str, errors: list, kind=float, where: str = "params"):
    block = _block(cfg, where)
    if key not in block:
        errors.append(f"missing {where}.{key}")
        return None
    try:
        val = kind(block[key])
    except (TypeError, ValueError, OverflowError):
        errors.append(f"{where}.{key} must be {kind.__name__}")
        return None
    if not math.isfinite(val):
        errors.append(f"{where}.{key} must be finite")
        return None
    return val


# optional grid settings: type and exclusive lower bound (None: unbounded)
_GRID_KEYS = {"t_min": (float, None), "omega_d_r_min": (float, None), "dt": (float, 0),
              "n": (int, 0), "n_t": (int, 0), "n_theta": (int, 0)}


def _is_number(val) -> bool:
    """A finite JSON number (bool excluded, though Python counts it as an int)."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:
        return False


def _optional(cfg: dict, key: str, errors: list, kind=float, where: str = "grid"):
    """_require for a key that may be absent (None then)."""
    if key not in _block(cfg, where):
        return None
    return _require(cfg, key, errors, kind, where)


def _packet(cfg: dict, errors: list, where: str = "params") -> tuple:
    """xi and alpha > 0 of a coherent packet (None when invalid); theta optional."""
    xi = _require(cfg, "xi", errors, where=where)
    alpha = _require(cfg, "alpha", errors, where=where)
    _optional(cfg, "theta", errors, where=where)
    if alpha is not None and alpha <= 0:
        errors.append(f"{where}.alpha must be > 0")
        alpha = None
    return xi, alpha


def validate_config(cfg: dict) -> tuple[list, list, dict]:
    """Schema and physics checks; returns (errors, warnings, normalized cfg).

    Defaults are filled into the returned copy (with warnings when a
    physically load-bearing value like m_max had to be guessed).
    """
    errors: list[str] = []
    warnings: list[str] = []
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"], [], {}
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        errors.append(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {exp!r}"
        )
        return errors, warnings, cfg
    params = cfg.setdefault("params", {})
    cfg.setdefault("grid", {})

    mu = _require(cfg, "mu", errors)
    r = _require(cfg, "r", errors)
    if r is not None and r <= 0:
        errors.append("params.r must be > 0")
    if mu is not None and mu < 0:
        errors.append("params.mu must be >= 0")

    needs_packet = exp in ("qsymbol", "clock", "sagnac", "amplitude-check")
    if needs_packet:
        xi, alpha = _packet(cfg, errors)
        if alpha is not None and alpha < 3 and exp == "qsymbol":
            warnings.append(
                f"alpha={alpha} below recommended alpha >= 3 for Q-symbol scans"
            )
        if "m_max" not in params and None not in (xi, alpha):
            params["m_max"] = int(math.ceil(abs(xi) + 12 * alpha))
            warnings.append(f"m_max defaulted to {params['m_max']}")
    if "m_max" not in params:
        params["m_max"] = 400
        warnings.append("m_max defaulted to 400")
    m_max = _require(cfg, "m_max", errors, int)
    if m_max is not None and m_max < 1:
        errors.append("params.m_max must be >= 1")

    for key in ("phi", "phi1", "phi2", "t1"):
        _optional(cfg, key, errors, where="params")

    grid = {}
    for key, (kind, low) in _GRID_KEYS.items():
        grid[key] = _optional(cfg, key, errors, kind)
        if None not in (grid[key], low) and not grid[key] > low:
            errors.append(f"grid.{key} must be > {low}")
    if exp in ("clock", "sagnac", "mi-scan", "amplitude-check", "kolmogorov"):
        t_max = _require(cfg, "t_max", errors, where="grid")
        t_min = grid["t_min"]
        if t_min is None:  # the runners' defaults
            t_min = (grid["dt"] or 0.01) if exp == "sagnac" else 0.0
        if t_max is not None and not t_max > t_min:
            errors.append(f"grid.t_max must be > grid.t_min ({t_min})")

    if exp in ("sagnac",):
        omega_d = _require(cfg, "omega_d", errors)
        if omega_d is not None and r is not None and abs(omega_d * r) >= 1:
            errors.append(f"frame not timelike: |Omega_D * r| = {abs(omega_d * r)} >= 1")
    if exp == "noise":
        a_values = params.get("a_values")
        if not a_values or not isinstance(a_values, list) or not all(
            _is_number(a) and a > 0 for a in a_values
        ):
            errors.append("params.a_values must be a nonempty list of positive finite numbers")
        top = _optional(cfg, "omega_d_r_max", errors)
        if top is not None and not 0 <= top < 1:
            errors.append("grid.omega_d_r_max must lie in [0, 1)")
    if exp == "qsymbol":
        times = cfg.get("times")
        if not times or not isinstance(times, list):
            errors.append("qsymbol needs a nonempty 'times' list")
        else:
            for spec in times:
                keys = set(spec) if isinstance(spec, dict) else set()
                keys &= {"t", "t_over_tq", "t_over_trec"}
                if len(keys) != 1:
                    errors.append(
                        "times entries must be objects with exactly one of "
                        "t, t_over_tq, t_over_trec"
                    )
                    continue
                (key,) = keys
                if not _is_number(spec[key]):
                    errors.append(f"times entry {spec!r}: {key} must be a finite number")
                elif mu == 0 and key != "t":
                    errors.append("t_over_tq/t_over_trec undefined for mu = 0")
    if exp in ("mi-scan", "kolmogorov"):
        for key in ("state1", "state2"):
            spec = params.get(key)
            if key not in params:
                errors.append(f"missing params.{key}")
            elif not isinstance(spec, dict) or "kind" not in spec:
                errors.append(f"params.{key} must be an object with a 'kind' field")
            elif spec["kind"] == "coherent":
                _packet(cfg, errors, where=f"params.{key}")
        if params.get("kind", "symmetrized") not in ("product", "symmetrized"):
            errors.append("params.kind must be product or symmetrized")

    out = cfg.setdefault("output", {})
    if out.setdefault("format", "csv") != "csv":
        errors.append("output.format must be csv")
    out.setdefault("prefix", exp.replace("-", "_"))
    return errors, warnings, cfg


# --------------------------------------------------------------------------
# experiment runners (each returns a dict of extra manifest fields)


def _modespace(cfg: dict) -> ModeSpace:
    p = cfg["params"]
    return ModeSpace(mu=float(p["mu"]), r=float(p["r"]), m_max=int(p["m_max"]))


def _coherent_params(p: dict) -> CoherentParams:
    return CoherentParams(theta=float(p.get("theta", 0.0)), xi=float(p["xi"]),
                          alpha=float(p["alpha"]))


def _meta(cfg: dict) -> dict:
    meta = {k: v for k, v in cfg["params"].items() if not isinstance(v, dict)}
    meta["experiment"] = cfg["experiment"]
    return meta


def _run_qsymbol(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    p = cfg["params"]
    cp = _coherent_params(p)
    phi = float(p.get("phi", math.pi))
    scales = timescales(ms, cp.xi, cp.alpha)
    n_theta = int(cfg["grid"].get("n_theta", 2048))
    theta = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)

    entries = []
    for spec in cfg["times"]:
        if "t" in spec:
            t_val, label = float(spec["t"]), f"t{format_float(float(spec['t']))}"
        elif "t_over_tq" in spec:
            t_val = float(spec["t_over_tq"]) * scales.t_quantum
            label = f"tq{format_float(float(spec['t_over_tq']))}"
        else:
            t_val = float(spec["t_over_trec"]) * scales.t_recurrence
            label = f"trec{format_float(float(spec['t_over_trec']))}"
        entries.append((label, t_val))

    # Q(theta) at fixed detector angle phi depends on phi - theta only
    cp0 = CoherentParams(0.0, cp.xi, cp.alpha)

    def work(entry):
        label, t_val = entry
        vals = qsymbol(ms, cp0, t_val, phi - theta)
        return label, t_val, vals

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(work, entries))
    else:
        results = [work(e) for e in entries]

    files = []
    for label, t_val, vals in results:
        path = out_dir / f"{cfg['output']['prefix']}_{label}.csv"
        meta = _meta(cfg) | {"t": t_val, "phi": phi,
                             "t_quantum": scales.t_quantum,
                             "t_recurrence": scales.t_recurrence}
        write_csv(path, {"t": np.full_like(theta, t_val), "theta": theta,
                         "value": vals}, meta)
        files.append(path)
    return {"outputs": files,
            "truncation": {"coherent_tail_mass": coherent_tail_mass(ms, cp)},
            "timescales": {"t_quantum": scales.t_quantum,
                           "t_recurrence": scales.t_recurrence,
                           "tick": scales.tick}}


def _run_clock(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    p = cfg["params"]
    cp = _coherent_params(p)
    phi = float(p.get("phi", math.pi))
    state = coherent_state(ms, cp)
    _require_support(ms, _kernel_support(DetectorKernel.max_localization(), ms),
                    state.occupation())
    scales = timescales(ms, cp.xi, cp.alpha)

    grid = cfg["grid"]
    t_min = float(grid.get("t_min", 0.0))
    t_max = float(grid["t_max"])
    if "n_t" in grid:
        n_t = int(grid["n_t"])
    else:
        sigma = ms.r / (math.sqrt(2.0) * cp.alpha)
        v = abs(cp.xi) / (math.sqrt(ms.mu**2 + (cp.xi / ms.r) ** 2) * ms.r)
        dt = min(scales.tick / 40.0, sigma / v / 5.0)
        n_t = min(int(math.ceil((t_max - t_min) / dt)) + 1, 500_000)
    t = np.linspace(t_min, t_max, n_t)
    # pc_density under maximum localization, without its n x n matrix
    density = _density(ms, amp_state(state, ms, t, phi))
    w = cumulative(t, density)
    ticks = extract_ticks(t, density)
    quality = clock_quality(ticks, tau_expected=scales.tick)

    prefix = cfg["output"]["prefix"]
    csv_path = out_dir / f"{prefix}.csv"
    write_csv(csv_path, {"t": t, "t_over_2pir": t / (2 * math.pi * ms.r),
                         "density": density, "cumulative": w}, _meta(cfg))
    ticks_path = out_dir / f"{prefix}_ticks.json"
    write_json(ticks_path, {
        "ticks": [
            {"t": float(ti), "weight": float(wi), "width": float(di)}
            for ti, wi, di in zip(ticks.times, ticks.weights, ticks.widths)
        ],
        "tau_expected": scales.tick,
        "last_resolvable": quality.last_resolvable_time,
        "mean_spacing": quality.mean_spacing,
        "spacing_jitter": quality.spacing_jitter,
        "width_growth_rate": quality.width_growth_rate,
    })
    return {"outputs": [csv_path, ticks_path],
            "truncation": {"coherent_tail_mass": coherent_tail_mass(ms, cp)},
            "timescales": {"t_quantum": scales.t_quantum, "tick": scales.tick}}


def _run_noise(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    grid = cfg["grid"]
    lo = float(grid.get("omega_d_r_min", 0.0))
    hi = float(grid.get("omega_d_r_max", 0.9))
    n = int(grid.get("n", 19))
    omega_d = np.linspace(lo, hi, n) / ms.r
    a_values = [float(a) for a in cfg["params"]["a_values"]]

    def work(a):
        return a, noise_curve(DetectorKernel.ring_exponential(a=a), ms, omega_d)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            curves = list(pool.map(work, a_values))
    else:
        curves = [work(a) for a in a_values]

    files = []
    for a, curve in curves:
        path = out_dir / f"{cfg['output']['prefix']}_a{format_float(a)}.csv"
        cols = {"omega_d_r": curve.omega_d_r, "eta": curve.eta}
        if curve.eta_closed is not None:
            cols["eta_closed"] = curve.eta_closed
        write_csv(path, cols, _meta(cfg) | {"a": a, "method": "mode-sum"})
        files.append(path)
    return {"outputs": files,
            "truncation": {"m_max_reached": max(c.m_max_reached for _, c in curves),
                           "tail_over_sum": max(c.tail_over_sum for _, c in curves)}}


def _run_sagnac(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    p = cfg["params"]
    cp = _coherent_params(p | {"theta": 0.0})
    state = symmetric_superposition(ms, coherent_state(ms, cp))
    rf = RotationFrame(omega_d=float(p["omega_d"]), modespace=ms)
    grid = cfg["grid"]
    dt = float(grid.get("dt", 0.01))
    t = np.arange(float(grid.get("t_min", dt)), float(grid["t_max"]), dt)
    res = sagnac_scan(state, rf, t, phi=float(p.get("phi", 0.0)))

    envelope = _density(ms, amp_state(state, ms, t, float(p.get("phi", 0.0))))
    phase = res.fringe_frequency * t if res.fringe_frequency == res.fringe_frequency \
        else np.zeros_like(t)
    prefix = cfg["output"]["prefix"]
    main = write_csv(out_dir / f"{prefix}.csv",
                     {"t": t, "density": res.density,
                      "fitted_envelope": envelope, "fringe_phase": phase},
                     _meta(cfg) | {"fringe_frequency": res.fringe_frequency,
                                   "expected_frequency": res.expected_frequency})
    passes = write_csv(out_dir / f"{prefix}_passes.csv",
                       {"t_pass": res.pass_times, "weight": res.pass_weights},
                       _meta(cfg))
    return {"outputs": [main, passes],
            "fringe_frequency": res.fringe_frequency,
            "expected_frequency": res.expected_frequency}


def _build_pair(cfg, ms: ModeSpace) -> TwoParticleState:
    p = cfg["params"]
    s1 = state_from_spec(ms, p["state1"])
    s2 = state_from_spec(ms, p["state2"])
    return TwoParticleState(p.get("kind", "symmetrized"), s1, s2)


def _run_mi_scan(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    tps = _build_pair(cfg, ms)
    grid = cfg["grid"]
    t = np.linspace(float(grid.get("t_min", 0.0)), float(grid["t_max"]),
                    int(grid.get("n_t", 2001)))
    phi = float(cfg["params"].get("phi", 0.0))
    t1 = float(cfg["params"]["t1"]) if "t1" in cfg["params"] else None
    report = violation_scan(tps, phi, t, t1_fixed=t1)
    cols = {
        "t1": np.full(t.size, t1 if t1 is not None else np.nan),
        "t2": t,
        "p2": report.p2_diag,
        "margin_j": report.margin_j,
        "violated_j": report.violated_j.astype(int),
    }
    if report.margin_cs is not None:
        cols["margin_cs"] = report.margin_cs
        cols["violated_cs"] = report.violated_cs.astype(int)
    path = write_csv(out_dir / f"{cfg['output']['prefix']}.csv", cols,
                     _meta(cfg) | {"b": tps.b, "lambda": tps.lam})
    return {"outputs": [path],
            "violations_j": int(np.count_nonzero(report.violated_j)),
            "violations_cs": (int(np.count_nonzero(report.violated_cs))
                              if report.violated_cs is not None else None)}


def _run_amplitude_check(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    p = cfg["params"]
    cp = _coherent_params(p)
    state = coherent_state(ms, cp)
    grid = cfg["grid"]
    t = np.linspace(float(grid.get("t_min", 0.0)), float(grid["t_max"]),
                    int(grid.get("n_t", 64)))
    phi = float(p.get("phi", math.pi))
    mode = amp_state(state, ms, t, phi)
    pois = amp_poisson(ms, t, phi, state=state)
    scale = float(np.max(np.abs(mode)))
    dev = np.abs(mode - pois) / scale
    path = write_csv(out_dir / f"{cfg['output']['prefix']}.csv",
                     {"t": t, "phi": np.full(t.size, phi),
                      "re_mode": mode.real, "im_mode": mode.imag,
                      "re_poisson": pois.real, "im_poisson": pois.imag,
                      "rel_dev": dev},
                     _meta(cfg))
    return {"outputs": [path], "max_rel_deviation": float(dev.max()),
            "methods": ["mode-sum", "poisson"],
            "truncation": {"coherent_tail_mass": coherent_tail_mass(ms, cp)}}


def _run_kolmogorov(cfg, out_dir: Path, threads: int):
    ms = _modespace(cfg)
    tps = _build_pair(cfg, ms)
    p = cfg["params"]
    grid = cfg["grid"]
    t2 = np.linspace(float(grid.get("t_min", 0.0)), float(grid["t_max"]),
                     int(grid.get("n_t", 16)))
    window = p.get("t1_window")
    if window is None:
        period = 2.0 * math.pi * ms.r
        window = [0.0, period]
    report = kolmogorov_check(tps, float(p.get("phi1", 0.0)), float(p.get("phi2", 0.0)),
                              t2, (float(window[0]), float(window[1])),
                              n_t1=int(p.get("n_t1", 4096)))
    rel = np.abs(report["marginal"] - report["p1"]) / float(np.max(report["p1"]))
    path = write_csv(out_dir / f"{cfg['output']['prefix']}.csv",
                     {"t2": report["t2"], "marginal": report["marginal"],
                      "p1": report["p1"], "rel_dev": rel},
                     _meta(cfg))
    return {"outputs": [path], "max_rel_deviation": report["max_rel_deviation"]}


RUNNERS = {
    "qsymbol": _run_qsymbol,
    "clock": _run_clock,
    "noise": _run_noise,
    "sagnac": _run_sagnac,
    "mi-scan": _run_mi_scan,
    "amplitude-check": _run_amplitude_check,
    "kolmogorov": _run_kolmogorov,
}


# --------------------------------------------------------------------------
# entry points


def _emit_gnuplot_stub(out_dir: Path, prefix: str, outputs: list) -> Path:
    lines = ["set datafile separator ','", "set key autotitle columnhead"]
    for f in outputs:
        if str(f).endswith(".csv"):
            lines.append(f"plot '{Path(f).name}' using 1:2 with lines")
            lines.append("pause -1")
    path = out_dir / f"{prefix}_plot.gp"
    path.write_text("\n".join(lines) + "\n")
    return path


def _load_config(path: str) -> tuple[int, dict]:
    """Read, validate and report a config; returns (exit code, normalized config)."""
    try:
        cfg = json.loads(Path(path).read_text())
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 4, {}
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2, {}
    errors, warnings, cfg = validate_config(cfg)
    for w in warnings:
        print(f"warning: {w}")
    for e in errors:
        print(f"error: {e}")
    return (2 if errors else 0), cfg


def cmd_validate(args) -> int:
    code, _ = _load_config(args.config)
    if code == 0:
        print("config ok")
    return code


def cmd_run(args) -> int:
    code, cfg = _load_config(args.config)
    if code:
        return code

    try:
        threads = args.threads or int(os.environ.get("RINGTOA_THREADS", "1"))
    except ValueError:
        print("error: RINGTOA_THREADS must be an integer")
        return 2
    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        extras = RUNNERS[cfg["experiment"]](cfg, out_dir, max(1, threads))
    except (RingToAError, ValueError, FloatingPointError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    wall = time.perf_counter() - started

    outputs = [Path(f) for f in extras.pop("outputs")]
    if args.gnuplot_stub:
        outputs.append(_emit_gnuplot_stub(out_dir, cfg["output"]["prefix"], outputs))
    manifest = {
        "experiment": cfg["experiment"],
        "config": cfg,
        "package_version": __version__,
        "normalization": NORMALIZATION_TAG,
        "outputs": [p.name for p in outputs],
        "extras": extras,
        "wall_time_s": wall,
    }
    try:
        manifest_path = write_json(out_dir / "run_manifest.json", manifest)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {manifest_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringtoa",
        description="Time-of-arrival experiments for particles on a ring",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("validate", cmd_validate), ("run", cmd_run)):
        p = sub.add_parser(name)
        p.add_argument("config", help="experiment configuration (JSON)")
        if name == "run":
            p.add_argument("--out", default=".", help="output directory")
            p.add_argument("--threads", type=int, default=0,
                           help="worker threads (default: RINGTOA_THREADS or 1)")
            p.add_argument("--gnuplot-stub", action="store_true",
                           help="also emit a gnuplot script referencing the CSVs")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
