"""Per-layer tracing of ringtoa from outside the package.

The tracer rebinds each module's public functions to timing wrappers.  A
function is rebound at every import site: ``cli``, ``probability``,
``rotation`` and ``multitime`` import ``amp_state`` and friends by name, so
patching ``ringtoa.amplitudes`` alone would miss their calls.  Every module
attribute in the package that holds the original object gets the wrapper.

A layer's self time is the time spent inside its functions minus the time of
nested calls into traced functions (of any layer).  Private helpers such as
``_mode_sum`` or ``_eta_sum`` are not spans: their time is self time of the
public function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

import numpy as np

# layer -> (module, attribute) pairs; "Class.attr" names a method or property
LAYERS = {
    "cli": ("cli", ["main", "validate_config"]),
    "states": ("states", [
        "coherent_state", "from_modes", "line_to_ring", "symmetric_superposition",
        "state_from_spec", "post_select", "gaussian_line", "spread_at_time",
        "coherent_tail_mass", "RingState.__post_init__",
    ]),
    "detector": ("detector", [
        "localization_matrix", "kernel_from_spec", "kernel_eval", "absorption",
        "wigner_weyl", "DetectorKernel.raw_value",
        "LocalizationMatrix.is_max_localization", "LocalizationMatrix.require_support",
    ]),
    "amplitudes.mode_sum": ("amplitudes", ["amp_state", "amp_rotating_split", "amp_ring"]),
    "amplitudes.oracle": ("amplitudes", ["amp_poisson", "line_arrival_amp"]),
    "probability": ("probability", [
        "pc_density", "qsymbol", "vacuum_noise", "timescales", "autocorrelation",
    ]),
    "clock": ("clock", ["cumulative", "extract_ticks", "clock_quality"]),
    "rotation": ("rotation", ["eta", "eta_closed_form", "noise_curve", "sagnac_scan"]),
    "emit": ("emit", ["write_csv", "write_json"]),
    "multitime": ("multitime", [
        "p1_single", "p2_joint", "kolmogorov_check", "mi_inequality_j",
        "mi_inequality_cs", "violation_scan",
    ]),
}

MODE_SUM_ENTRY_BYTES = 16  # one complex128 phase entry per active mode x point


def unit(key: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if key.endswith("self_s") or key.endswith("s_per_quad_call"):
        return "s"
    if key.endswith("_per_s"):
        return "1/s"
    if key.endswith("bytes") or key.endswith("bytes_computed"):
        return "B"
    if key.endswith("frac"):
        return "1"
    return "count"


def _key(x):
    a = np.asarray(x)
    return (a.dtype.str, a.shape, a.tobytes())


def _mode_points(args, kwargs) -> tuple[int, tuple]:
    """Active modes x points of a mode-sum call, and its input identity.

    A mode is active when its coefficient times sqrt(|v_m|) is non-zero; the
    speed weight vanishes only at m = 0, so that is the non-zero coefficients
    off the zero mode.  Points are the broadcast size of (t, phi).
    """
    names = ("state", "frame", "t", "phi")
    bound = dict(zip(names, args)) | kwargs
    state = bound["state"]
    coeffs = state.coeffs
    active = int(np.count_nonzero(coeffs)) - int(coeffs[state.modespace.m_max] != 0)
    t, phi = bound["t"], bound["phi"]
    points = int(np.broadcast(np.asarray(t), np.asarray(phi)).size)
    ident = (state.modespace, _key(coeffs), bound["frame"], _key(t), _key(phi))
    return active * points, ident


class Tracer:
    """Call counts and self time per layer; counters reset with ``reset``."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []
        self.calls = Counter()
        self.self_s = Counter()
        self.extra = Counter()
        self._seen: set = set()

    def reset(self):
        # cleared in place: the installed wrappers hold these counters
        self.calls.clear()
        self.self_s.clear()
        self.extra.clear()
        self._seen = set()

    def begin_op(self):
        """Start a new operation: repeats are counted within one operation."""
        self._seen = set()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter
        hook = self._on_mode_sum if layer == "amplitudes.mode_sum" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(fn.__name__, args, kwargs)
            frame = [layer, clock(), 0.0]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                calls[layer] += 1
                self_s[layer] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            # CSV rows and bytes; the run manifest's wall time makes JSON volatile
            if layer == "emit" and fn.__name__ == "write_csv":
                first = next(iter(args[1].values()))
                self.extra["emit.rows"] += int(np.atleast_1d(first).size)
                self.extra["emit.bytes"] += os.path.getsize(out)
            return out

        return wrapper

    def _on_mode_sum(self, name, args, kwargs):
        if name == "amp_ring":  # bare amplitude: no state to identify
            return
        if name == "amp_state":
            args = (args[0], None) + tuple(args[2:4])  # (state, ms, t, phi)
        points, ident = _mode_points(args, kwargs)
        self.extra["amplitudes.mode_sum.mode_points"] += points
        if ident in self._seen:
            self.extra["amplitudes.mode_sum.repeats"] += 1
        self._seen.add(ident)
        if any(f[0] == "multitime" for f in self._stack):
            self.extra["multitime.amp_calls"] += 1

    def _count_quad(self, quad):
        extra = self.extra

        def counted(*args, **kwargs):
            extra["amplitudes.oracle.quad_calls"] += 1
            return quad(*args, **kwargs)

        return counted

    def _rebind(self, owner, name, new):
        self._originals.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self) -> "Tracer":
        for modname, _ in LAYERS.values():
            importlib.import_module(f"ringtoa.{modname}")
        pkg = [m for n, m in sys.modules.items()
               if n == "ringtoa" or n.startswith("ringtoa.")]
        for layer, (modname, attrs) in LAYERS.items():
            mod = sys.modules[f"ringtoa.{modname}"]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    if isinstance(orig, property):
                        new = property(self._wrap(layer, orig.fget))
                    else:
                        new = self._wrap(layer, orig)
                    self._rebind(cls, meth, new)
                    continue
                orig = getattr(mod, attr)
                new = self._wrap(layer, orig)
                for site in pkg:
                    for name, val in list(vars(site).items()):
                        if val is orig:
                            self._rebind(site, name, new)
        amp = sys.modules["ringtoa.amplitudes"]
        self._rebind(amp, "quad", self._count_quad(amp.quad))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._originals):
            setattr(owner, name, orig)
        self._originals.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- report -----------------------------------------------------------

    def counters(self) -> dict:
        """Deterministic per-layer counts (no times)."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
        e = self.extra
        points = e["amplitudes.mode_sum.mode_points"]
        n_amp = self.calls["amplitudes.mode_sum"]
        out["amplitudes.mode_sum.mode_points"] = points
        out["amplitudes.mode_sum.bytes_computed"] = MODE_SUM_ENTRY_BYTES * points
        out["amplitudes.mode_sum.repeat_frac"] = (
            e["amplitudes.mode_sum.repeats"] / n_amp if n_amp else 0.0)
        out["amplitudes.oracle.quad_calls"] = e["amplitudes.oracle.quad_calls"]
        out["emit.rows"] = e["emit.rows"]
        out["emit.bytes"] = e["emit.bytes"]
        out["multitime.amp_calls"] = e["multitime.amp_calls"]
        return out

    def times(self) -> dict:
        """Per-layer self times and the rates derived from them."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS}
        c = self.counters()

        def rate(num, den):
            return num / den if den > 0 else 0.0

        out["amplitudes.mode_sum.mode_points_per_s"] = rate(
            c["amplitudes.mode_sum.mode_points"], out["amplitudes.mode_sum.self_s"])
        out["amplitudes.oracle.s_per_quad_call"] = rate(
            out["amplitudes.oracle.self_s"], c["amplitudes.oracle.quad_calls"])
        out["emit.rows_per_s"] = rate(c["emit.rows"], out["emit.self_s"])
        return out
