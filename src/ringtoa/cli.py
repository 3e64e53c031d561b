"""Command-line front end: validate and run experiment configurations.

Usage:
    ringtoa validate <config.json>
    ringtoa run <config.json> [--out DIR] [--gnuplot-stub]

A configuration selects one experiment (qsymbol, clock, noise, sagnac,
mi-scan, amplitude-check, kolmogorov), its physical parameters, and the
evaluation grid; _SCHEMA declares every key each experiment reads.  Runs
write '#'-annotated CSV data files plus a run_manifest.json recording
parameters, the normalization convention, truncation estimates, and wall
time.  Pipelines are deterministic: repeated runs of the same config produce
byte-identical data files.

Exit codes: 0 ok, 2 invalid config, 3 numerical failure, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import amp_poisson, amp_state
from .clock import clock_quality, cumulative, extract_ticks
from .detector import DetectorKernel, localization_matrix
from .emit import format_float, write_csv, write_json, write_text
from .errors import RingToAError
from .modes import ModeSpace, RotationFrame, is_number, velocity
from .multitime import PAIR_KINDS, TwoParticleState, kolmogorov_check, violation_scan
from .probability import NORMALIZATION_TAG, QSYMBOL_MIN_ALPHA, pc_density, timescales
from .rotation import noise_curve, sagnac_scan
from .states import (
    REQUIRED,
    STATE_SPEC_KEYS,
    CoherentParams,
    coherent_state,
    coherent_tail_mass,
    state_from_spec,
    symmetric_superposition,
)

# --------------------------------------------------------------------------
# the config schema
#
# A table maps each dotted key to (type, range, default).  Types: "float"
# and "int" (a number by modes.is_number; an int also integral), "numbers"
# (a nonempty list of floats, the range holding for each),
# "list" (a nonempty list), "name" (a plain file name), "state" (a state
# spec, whose keys states.STATE_SPEC_KEYS declares in the same form),
# "modes" (a mode-list's {m: amp | [re, im]}) or a tuple of choices.  A
# default is a value, REQUIRED, or a _Derived text.


class _Derived(str):
    """A default worked out when the key is absent: the value of the key it
    names, else (described by its text) by the code that reads the key."""


_RANGES = {"": lambda v: True, "> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0,
           "!= 0": lambda v: v != 0, "in [0, 1)": lambda v: 0 <= v < 1}

_PACKET = {"params.m_max": ("int", "> 0", _Derived("ceil(abs(xi) + 12 alpha)")),
           "params.xi": ("float", "", REQUIRED), "params.alpha": ("float", "> 0", REQUIRED)}
_MOVING = {"params.xi": ("float", "!= 0", REQUIRED)}  # a tick needs a moving packet
_FORWARD = {"params.xi": ("float", "> 0", REQUIRED)}  # Poisson images need p > 0
_PHI = {"params.phi": ("float", "", math.pi)}  # qsymbol scans theta itself
_THETA_PHI = {"params.theta": ("float", "", 0.0)} | _PHI
_T_RANGE = {"grid.t_min": ("float", "", 0.0), "grid.t_max": ("float", "", REQUIRED)}
_PAIR = {"params.kind": (PAIR_KINDS, "", "symmetrized"),
         "params.state1": ("state", "", REQUIRED), "params.state2": ("state", "", REQUIRED)}

_SCHEMA = {
    exp: {"params.mu": ("float", ">= 0", REQUIRED), "params.r": ("float", "> 0", REQUIRED),
          "params.m_max": ("int", "> 0", 400)}
    | keys | {"output.format": (("csv",), "", "csv"),
              "output.prefix": ("name", "", exp.replace("-", "_"))}
    for exp, keys in {
        "qsymbol": _PACKET | _MOVING | _PHI | {
            "grid.n_theta": ("int", "> 0", 2048), "times": ("list", "", REQUIRED)},
        "clock": _PACKET | _MOVING | _THETA_PHI | _T_RANGE | {
            "grid.n_t": ("int", "> 0", _Derived("spacing min(tick/40, sigma/(5 v))"))},
        "noise": {
            "params.a_values": ("numbers", "> 0", REQUIRED),
            "grid.omega_d_r_min": ("float", "", 0.0),
            "grid.omega_d_r_max": ("float", "in [0, 1)", 0.9), "grid.n": ("int", "> 0", 19)},
        "sagnac": _PACKET | {
            "params.omega_d": ("float", "", REQUIRED), "params.phi": ("float", "", 0.0),
            "grid.dt": ("float", "> 0", 0.01), "grid.t_min": ("float", "", _Derived("grid.dt")),
            "grid.t_max": _T_RANGE["grid.t_max"]},
        "mi-scan": _PAIR | _T_RANGE | {
            "params.phi": ("float", "", 0.0),
            "params.t1": ("float", "", _Derived("none: no CS margin")),
            "grid.n_t": ("int", "> 0", 2001)},
        "amplitude-check": _PACKET | _FORWARD | _THETA_PHI | _T_RANGE | {
            "grid.n_t": ("int", "> 0", 64)},
        "kolmogorov": _PAIR | _T_RANGE | {
            "params.phi1": ("float", "", 0.0), "params.phi2": ("float", "", 0.0),
            "params.n_t1": ("int", "> 0", 4096),
            "params.t1_window": ("numbers", "", _Derived("[0, 2 pi r]")),
            "grid.n_t": ("int", "> 0", 16)},
    }.items()
}

EXPERIMENTS = tuple(_SCHEMA)

# Memory a run may plan for (bytes): validate_config refuses a config whose
# O(modes) and O(points) arrays would need more, naming the key that costs
# most.  Bytes a mode and a point (a time or angle sample, its CSV row
# included) cost at most; tracemalloc measured 142 a mode (fig-steps) and
# 444-893 a point (fig-probcoh, fig-steps, sagnac, fig-miviolation).  Mode x
# point work is chunked by lattice._chunks to at most lattice._CHUNK_BUDGET
# entries (2^18: 4 MB of complex phases; the scattered-grid sums take blocks
# of 2^15, 512 KB), whatever the config's size, and is not counted.
MEMORY_BUDGET = 1 << 32
_MODE_BYTES, _POINT_BYTES = 256, 1024

# a qsymbol `times` entry: key -> (file label, timescale it is in units of)
_TIME_KEYS = {"t": ("t", None), "t_over_tq": ("tq", "t_quantum"),
              "t_over_trec": ("trec", "t_recurrence")}


# --------------------------------------------------------------------------
# validation


_TYPES = {  # type -> (test, what a message says the value must be)
    "float": (is_number, "a finite number"),
    "int": (lambda v: is_number(v) and float(v).is_integer(), "an integer"),
    "numbers": (lambda v: isinstance(v, list) and bool(v) and all(map(is_number, v)),
                "a nonempty list of finite numbers"),
    "list": (lambda v: isinstance(v, list) and bool(v), "a nonempty list"),
    "name": (lambda v: isinstance(v, str) and v != "" and Path(v).name == v,
             "a plain file name"),
    # (a list, not the dict: a JSON kind may be an unhashable list or object)
    "state": (lambda v: isinstance(v, dict) and v.get("kind") in list(STATE_SPEC_KEYS),
              f"an object whose kind is one of {', '.join(STATE_SPEC_KEYS)}"),
    "modes": (lambda v: isinstance(v, dict) and bool(v) and all(
        m.removeprefix("-").isdecimal() and (is_number(a) or isinstance(a, list)
                                             and len(a) == 2 and all(map(is_number, a)))
        for m, a in v.items()),
        "an object of integer modes to amplitudes (a number or [re, im])"),
}


def _walk(root: dict, table: dict, errors: list, warnings: list, where: str = "",
          tag: str = "experiment") -> None:
    """Check each key of a table in the object it is rooted at, and warn of
    each key of the object that neither the table nor `tag` (the key that
    chose the table) declares.

    An absent output key takes its default in place, so the manifest records
    the output block in full; other defaults are read by _get.
    """
    for key, (kind, rng, default) in table.items():
        *parents, name = key.split(".")
        block = functools.reduce(dict.__getitem__, parents, root)
        if name not in block:
            if default is REQUIRED:
                errors.append(f"{where}{key} is required")
            elif parents == ["output"]:
                block[name] = default
            continue
        val = block[name]
        test, text = _TYPES.get(kind) or ((lambda v: v in kind), f"one of {', '.join(kind)}")
        if not (test(val) and all(map(_RANGES[rng], val if kind == "numbers" else [val]))):
            errors.append(f"{where}{key} must be {text} {rng}".rstrip())
        elif kind == "state":
            _walk(val, STATE_SPEC_KEYS[val["kind"]], errors, warnings, f"{where}{key}.", "kind")
    blocks = {key.split(".")[0] for key in table if "." in key}
    for name, val in root.items():
        for key in ([f"{name}.{sub}" for sub in val] if name in blocks else [name]):
            if key not in table and key != tag:
                warnings.append(f"{where}{key} is not a known key: ignored")


def _get(cfg: dict, key: str):
    """A validated config value cast to its declared type, or its default."""
    table = _SCHEMA[cfg["experiment"]]
    kind, _, default = table[key]
    *parents, name = key.split(".")
    block = functools.reduce(dict.__getitem__, parents, cfg)
    if name not in block:
        if isinstance(default, _Derived):
            return _get(cfg, default) if default in table else None
        return default
    val = block[name]
    if kind == "numbers":
        return [float(v) for v in val]
    return {"float": float, "int": int}.get(kind, lambda v: v)(val)


def validate_config(cfg: dict) -> tuple[list, list, dict]:
    """Schema and physics checks; returns (errors, warnings, normalized cfg).

    Defaults are filled into the returned copy only for the output block and
    m_max (with a warning: a physically load-bearing value had to be guessed).
    """
    if not isinstance(cfg, dict):
        return ["config must be a JSON object"], [], {}
    cfg = json.loads(json.dumps(cfg))  # deep copy, JSON-clean
    errors: list[str] = []
    warnings: list[str] = []
    exp = cfg.get("experiment")
    if exp not in EXPERIMENTS:
        errors.append(f"experiment must be one of {', '.join(EXPERIMENTS)}; got {exp!r}")
        return errors, warnings, cfg
    for block in ("params", "grid", "output"):
        if not isinstance(cfg.setdefault(block, {}), dict):
            errors.append(f"{block} must be an object")
    if errors:
        return errors, warnings, cfg
    table = _SCHEMA[exp]
    _walk(cfg, table, errors, warnings)
    if errors:
        return errors, warnings, cfg

    # checks that span several keys
    get = functools.partial(_get, cfg)
    if "m_max" not in cfg["params"]:  # load-bearing: recorded, with a warning
        m_max = table["params.m_max"][2]
        if isinstance(m_max, _Derived):  # the packet's extent in modes
            span = abs(get("params.xi")) + 12 * get("params.alpha")
            if not math.isfinite(span):
                errors.append(f"params.m_max is required: {m_max} overflows")
                return errors, warnings, cfg
            m_max = math.ceil(span)
        cfg["params"]["m_max"] = m_max
        warnings.append(f"m_max defaulted to {m_max}")
    # every int key but m_max counts points; sagnac's come from its step
    need = {"params.m_max": _MODE_BYTES * (2 * get("params.m_max") + 1)}
    need |= {key: _POINT_BYTES * get(key) for key, (kind, _, _) in table.items()
             if kind == "int" and key != "params.m_max" and get(key) is not None}
    if exp == "sagnac":
        need["grid.dt (steps from grid.t_min to grid.t_max)"] = (
            _POINT_BYTES * (get("grid.t_max") - get("grid.t_min")) / get("grid.dt"))
    if sum(need.values()) > MEMORY_BUDGET:
        errors.append(f"{max(need, key=need.get)} makes the run too large: about "
                      f"{sum(need.values()) / 2**30:.3g} GiB, over the "
                      f"{MEMORY_BUDGET / 2**30:g} GiB memory budget")
    if "grid.t_max" in table and not get("grid.t_max") > get("grid.t_min"):
        errors.append(f"grid.t_max must be > grid.t_min ({get('grid.t_min')})")
    if exp == "sagnac" and abs(get("params.omega_d") * get("params.r")) >= 1:
        errors.append("params.omega_d: frame not timelike: "
                      f"|Omega_D * r| = {abs(get('params.omega_d') * get('params.r'))} >= 1")
    window = get("params.t1_window") if exp == "kolmogorov" else None
    if window is not None and not (len(window) == 2 and window[0] < window[1]):
        errors.append("params.t1_window must be [t1_min, t1_max] with t1_min < t1_max")
    if exp == "qsymbol":
        if get("params.alpha") < QSYMBOL_MIN_ALPHA:
            warnings.append(f"alpha={get('params.alpha')} below recommended alpha >= "
                            f"{QSYMBOL_MIN_ALPHA} for Q-symbol scans")
        for spec in get("times"):
            keys = [k for k in _TIME_KEYS if isinstance(spec, dict) and k in spec]
            if len(keys) != 1:
                errors.append("times entries must be objects with exactly one of "
                              + ", ".join(_TIME_KEYS))
            elif not is_number(spec[keys[0]]):
                errors.append(f"times entry {spec!r}: {keys[0]} must be a finite number")
            elif get("params.mu") == 0 and keys[0] != "t":
                errors.append("times: t_over_tq/t_over_trec undefined for mu = 0")
    return errors, warnings, cfg


# --------------------------------------------------------------------------
# experiment runners (each returns a dict of extra manifest fields)


def _modespace(cfg: dict) -> ModeSpace:
    return ModeSpace(*(_get(cfg, f"params.{k}") for k in ("mu", "r", "m_max")))


def _coherent_params(cfg: dict) -> CoherentParams:
    return CoherentParams(*(_get(cfg, f"params.{k}") for k in ("theta", "xi", "alpha")))


def _times(cfg: dict) -> np.ndarray:
    return np.linspace(*(_get(cfg, f"grid.{k}") for k in ("t_min", "t_max", "n_t")))


def _meta(cfg: dict) -> dict:
    """The run's declared params (not state specs) as CSV metadata: a key
    that validate_config ignores is not recorded either."""
    table = _SCHEMA[cfg["experiment"]]
    meta = {k: v for k, v in cfg["params"].items()
            if f"params.{k}" in table and not isinstance(v, dict)}
    meta["experiment"] = cfg["experiment"]
    return meta


def _run_qsymbol(cfg, out_dir: Path):
    ms = _modespace(cfg)
    cp = CoherentParams(0.0, _get(cfg, "params.xi"), _get(cfg, "params.alpha"))
    phi = _get(cfg, "params.phi")
    scales = timescales(ms, cp.xi, cp.alpha)
    theta = np.linspace(0.0, 2.0 * math.pi, _get(cfg, "grid.n_theta"), endpoint=False)

    # Q(theta) at fixed detector angle phi depends on phi - theta only.  One
    # state serves every panel: pc_density at maximum localization is
    # qsymbol's own expression, K |amp_state|^2, bit for bit (validate_config
    # gives the small-alpha advice)
    state = coherent_state(ms, cp)
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    files = []
    for spec in _get(cfg, "times"):
        key = next(k for k in _TIME_KEYS if k in spec)
        label, unit = _TIME_KEYS[key]
        val = float(spec[key])
        t_val = val * getattr(scales, unit) if unit else val
        path = out_dir / f"{cfg['output']['prefix']}_{label}{format_float(val)}.csv"
        meta = _meta(cfg) | {"t": t_val, "phi": phi,
                             "t_quantum": scales.t_quantum,
                             "t_recurrence": scales.t_recurrence}
        write_csv(path, {"t": np.full_like(theta, t_val), "theta": theta,
                         "value": pc_density(state, det, t_val, phi - theta)}, meta)
        files.append(path)
    return {"outputs": files,
            "truncation": {"coherent_tail_mass": coherent_tail_mass(ms, cp)},
            "timescales": {"t_quantum": scales.t_quantum,
                           "t_recurrence": scales.t_recurrence,
                           "tick": scales.tick}}


def _run_clock(cfg, out_dir: Path):
    ms = _modespace(cfg)
    cp = _coherent_params(cfg)
    state = coherent_state(ms, cp)
    scales = timescales(ms, cp.xi, cp.alpha)

    t_min, t_max, n_t = (_get(cfg, f"grid.{k}") for k in ("t_min", "t_max", "n_t"))
    if n_t is None:
        dt = min(scales.tick / 40.0, state.packet.line.sigma / abs(velocity(ms, cp.xi)) / 5.0)
        n_t = min(int(math.ceil((t_max - t_min) / dt)) + 1, 500_000)
    t = np.linspace(t_min, t_max, n_t)
    det = localization_matrix(DetectorKernel.max_localization(), ms)
    density = pc_density(state, det, t, _get(cfg, "params.phi"))
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


def _run_noise(cfg, out_dir: Path):
    ms = _modespace(cfg)
    grid = (_get(cfg, f"grid.{k}") for k in ("omega_d_r_min", "omega_d_r_max", "n"))
    omega_d = np.linspace(*grid) / ms.r

    files, curves = [], []
    for a in _get(cfg, "params.a_values"):
        curve = noise_curve(DetectorKernel.ring_exponential(a=a), ms, omega_d)
        path = out_dir / f"{cfg['output']['prefix']}_a{format_float(a)}.csv"
        cols = {"omega_d_r": curve.omega_d_r, "eta": curve.eta}
        if curve.eta_closed is not None:
            cols["eta_closed"] = curve.eta_closed
        write_csv(path, cols, _meta(cfg) | {"a": a, "method": "mode-sum"})
        files.append(path)
        curves.append(curve)
    return {"outputs": files,
            "truncation": {"m_max_reached": max(c.m_max_reached for c in curves),
                           "tail_over_sum": max(c.tail_over_sum for c in curves)}}


def _run_sagnac(cfg, out_dir: Path):
    ms = _modespace(cfg)
    cp = CoherentParams(0.0, _get(cfg, "params.xi"), _get(cfg, "params.alpha"))
    state = symmetric_superposition(ms, coherent_state(ms, cp))
    rf = RotationFrame(omega_d=_get(cfg, "params.omega_d"), modespace=ms)
    phi = _get(cfg, "params.phi")
    t = np.arange(*(_get(cfg, f"grid.{k}") for k in ("t_min", "t_max", "dt")))
    res = sagnac_scan(state, rf, t, phi=phi)

    det = localization_matrix(DetectorKernel.max_localization(), ms)
    envelope = pc_density(state, det, t, phi)
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
    s1, s2 = (state_from_spec(ms, _get(cfg, f"params.{k}")) for k in ("state1", "state2"))
    return TwoParticleState(_get(cfg, "params.kind"), s1, s2)


def _run_mi_scan(cfg, out_dir: Path):
    ms = _modespace(cfg)
    tps = _build_pair(cfg, ms)
    t = _times(cfg)
    t1 = _get(cfg, "params.t1")
    report = violation_scan(tps, _get(cfg, "params.phi"), t, t1_fixed=t1)
    cols = {
        "t1": np.full(t.size, t1 if t1 is not None else np.nan),
        "t2": t,
        "p2": report.p2_diag,
        "margin_j": report.margin_j,
        "violated_j": report.violated_j,
    }
    if report.margin_cs is not None:
        cols["margin_cs"] = report.margin_cs
        cols["violated_cs"] = report.violated_cs
    path = write_csv(out_dir / f"{cfg['output']['prefix']}.csv", cols,
                     _meta(cfg) | {"b": tps.b, "lambda": tps.lam})
    return {"outputs": [path],
            "violations_j": int(np.count_nonzero(report.violated_j)),
            "violations_cs": (int(np.count_nonzero(report.violated_cs))
                              if report.violated_cs is not None else None)}


def _run_amplitude_check(cfg, out_dir: Path):
    ms = _modespace(cfg)
    cp = _coherent_params(cfg)
    state = coherent_state(ms, cp)
    t = _times(cfg)
    phi = _get(cfg, "params.phi")
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


def _run_kolmogorov(cfg, out_dir: Path):
    ms = _modespace(cfg)
    tps = _build_pair(cfg, ms)
    window = _get(cfg, "params.t1_window") or [0.0, 2.0 * math.pi * ms.r]
    t2 = _times(cfg)
    report = kolmogorov_check(tps, _get(cfg, "params.phi1"), _get(cfg, "params.phi2"),
                              t2, tuple(window), n_t1=_get(cfg, "params.n_t1"))
    path = write_csv(out_dir / f"{cfg['output']['prefix']}.csv",
                     {"t2": t2, "marginal": report["marginal"],
                      "p1": report["p1"], "rel_dev": report["rel_dev"]},
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
    return write_text(out_dir / f"{prefix}_plot.gp", "\n".join(lines) + "\n")


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

    out_dir = Path(args.out)
    started = time.perf_counter()
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        extras = RUNNERS[cfg["experiment"]](cfg, out_dir)
        wall = time.perf_counter() - started
        outputs = [Path(f) for f in extras.pop("outputs")]
        if args.gnuplot_stub:
            outputs.append(_emit_gnuplot_stub(out_dir, cfg["output"]["prefix"], outputs))
        manifest_path = write_json(out_dir / "run_manifest.json", {
            "experiment": cfg["experiment"],
            "config": cfg,
            "package_version": __version__,
            "normalization": NORMALIZATION_TAG,
            "outputs": [p.name for p in outputs],
            "extras": extras,
            "wall_time_s": wall,
        })
    except (RingToAError, ValueError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return 4
    for p in outputs:
        print(f"wrote {p}")
    print(f"wrote {manifest_path}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once a process and shared: parse_args keeps
    no state in it, and no caller may change it."""
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
            # accepted and ignored, for command lines that still pass it
            p.add_argument("--threads", type=int, default=1, help=argparse.SUPPRESS)
            p.add_argument("--gnuplot-stub", action="store_true",
                           help="also emit a gnuplot script referencing the CSVs")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
