"""The benchmark's workloads: inputs from a seed, one pass of operations, checks.

A workload builds its inputs from the seed alone, then exposes a fixed list
of operations.  One pass runs the list in order; the benchmark times each
operation and repeats passes.  ``check`` compares the first pass's outputs
with the independent references in ``reference.py`` and the paper's
acceptance criteria; later passes must reproduce the first pass bit for bit.

* ``figures`` runs the CLI on the five shipped configs plus one seeded
  ``kolmogorov`` config: the user-facing product, uniform grids throughout.
* ``oracle`` compares the Poisson/line-quadrature amplitude with the mode sum
  at seeded points of seeded coherent states, as the oracle tests do.
* ``scatter`` calls the library on unstructured inputs: scattered time and
  angle clouds, mixed states, general detectors, random rotation rates.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from collections import namedtuple
from pathlib import Path

import numpy as np
from mpmath import conj as mp_conj

import reference as ref

# ringtoa is imported by run.py after the source tree is put on sys.path;
# every call below goes through a module attribute so the tracer sees it.
from ringtoa import amplitudes, cli, clock, detector, multitime, probability, rotation, states
from ringtoa.modes import ModeSpace, RotationFrame

TWO_PI = 2.0 * math.pi

# relative deviation from the reference above which an operation fails
DENSITY_TOL = 1e-8     # mode-sum densities against 30-digit sums
ETA_TOL = 1e-8         # noise ratio against its closed form (absolute)
MARGINAL_TOL = 1e-6    # Kolmogorov marginal against P1
SAGNAC_TOL = 0.01      # fringe frequency against xi * Omega_D
ORACLE_TOL = {0.0: 1e-8, 1000.0: 1e-6}  # by mass, as in the oracle tests

# rows re-evaluated per output: seeded ones plus the largest values, where
# the absolute error of a mode sum is largest
RANDOM_ROWS, TOP_ROWS = 12, 4


# outcome of checking one operation: within tolerance, and the deviation
Result = namedtuple("Result", "ok err")


def same(a, b) -> bool:
    """Bitwise equality of two operation outputs."""
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(np.asarray(a), np.asarray(b))
    return a == b


def _rows(rng, values):
    """Indices to re-evaluate: seeded rows plus the rows of largest magnitude."""
    n = len(values)
    pick = rng.choice(n, size=min(RANDOM_ROWS, n), replace=False)
    top = np.argpartition(np.abs(values), -TOP_ROWS)[-TOP_ROWS:]
    return sorted(set(int(i) for i in pick) | set(int(i) for i in top))


def _rel_check(rng, values, ref_fn, tol, scale=None):
    """Max deviation of sampled rows from ref_fn(i), relative to scale.

    scale defaults to the largest magnitude in the output.
    """
    values = np.asarray(values)
    scale = float(np.max(np.abs(values))) if scale is None else scale
    err = max(abs(complex(values[i]) - complex(ref_fn(i))) for i in _rows(rng, values))
    err /= scale
    return Result(err <= tol, err)


class Workload:
    same = staticmethod(same)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = Path(out_dir)
        self.ops: list[tuple[str, object]] = []

    def begin_pass(self):
        """Called before each pass."""

    def collect(self, i: int, raw):
        """The comparable output of operation i, taken outside its timing."""
        return raw

    def check(self, outputs: list) -> list[Result]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# figures


CONFIGS = ("fig-probcoh", "fig-noise", "fig-steps", "fig-miviolation", "sagnac")


def _read_csv(path: Path):
    meta, lines = {}, path.read_text().splitlines()
    body = [ln for ln in lines if not ln.startswith("#")]
    for ln in lines:
        if ln.startswith("# ") and ": " in ln:
            key, val = ln[2:].split(": ", 1)
            meta[key] = val
    names = body[0].split(",")
    data = np.array([[float(x) for x in ln.split(",")] for ln in body[1:]])
    return {n: data[:, j] for j, n in enumerate(names)}, meta


class Figures(Workload):
    """CLI runs over the shipped configs and one seeded kolmogorov config."""

    def __init__(self, seed: int, out_dir: Path, config_dir: Path):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        self.configs = {c: config_dir / f"{c}.json" for c in CONFIGS}
        # A fixed alpha and a lattice holding every non-zero coefficient (a
        # Gaussian underflows ~38.6 alpha from its centre) keep the number of
        # active modes, hence the cost, independent of the seed.
        alpha = 7.0
        xi1, xi2 = rng.uniform(450.0, 650.0, 2)
        t_min = rng.uniform(0.5, 3.0)
        kolm = {
            "experiment": "kolmogorov",
            "params": {
                "mu": 0.0, "r": 1.0,
                "m_max": int(math.ceil(max(xi1, xi2) + 40 * alpha)),
                "kind": "symmetrized",
                "state1": {"kind": "coherent", "theta": rng.uniform(0, TWO_PI),
                           "xi": xi1, "alpha": alpha},
                "state2": {"kind": "coherent", "theta": rng.uniform(0, TWO_PI),
                           "xi": xi2, "alpha": alpha},
                "phi1": rng.uniform(0, TWO_PI), "phi2": rng.uniform(0, TWO_PI),
                "n_t1": 4096,
            },
            "grid": {"t_min": t_min, "t_max": t_min + TWO_PI, "n_t": 8},
            "output": {"prefix": "kolmogorov", "format": "csv"},
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.configs["kolmogorov"] = self.out_dir / "kolmogorov.json"
        self.configs["kolmogorov"].write_text(json.dumps(kolm, indent=1))
        self.ops = [(name, self._runner(name, path)) for name, path in self.configs.items()]

    def _runner(self, name, path):
        argv = ["run", str(path), "--out", str(self.out_dir / name), "--threads", "1"]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        return run

    def collect(self, i, raw):
        """Exit code plus a digest of every data file (the manifest's wall time varies)."""
        name = self.ops[i][0]
        files = sorted(p for p in (self.out_dir / name).iterdir()
                       if p.name != "run_manifest.json")
        return raw, {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}

    def check(self, outputs):
        rng = np.random.default_rng(self.seed + 1)
        results = []
        for (name, _), (code, _) in zip(self.ops, outputs):
            if code != 0:
                results.append(Result(False, math.inf))
                continue
            cfg = json.loads(self.configs[name].read_text())
            res = getattr(self, "_check_" + name.replace("-", "_"))(
                cfg, self.out_dir / name, rng)
            results.append(res)
        return results

    @staticmethod
    def _coherent(p, spec=None):
        """Reference coherent state on the config's ring; spec defaults to params."""
        spec = spec or p
        return ref.PureState.coherent(p["mu"], p["r"], p["m_max"], spec["xi"],
                                      spec["alpha"], spec.get("theta", 0.0))

    def _check_fig_probcoh(self, cfg, out, rng):
        p = cfg["params"]
        terms = ref.weighted_terms(self._coherent(p | {"theta": 0.0}))
        worst, ok = 0.0, True
        for path in sorted(out.glob("*.csv")):
            cols, meta = _read_csv(path)
            t_q, t_rec = float(meta["t_quantum"]), float(meta["t_recurrence"])
            # paper timescales at the reference parameters (criterion 1)
            ok &= 280.0 <= t_q <= 285.0 and 35000.0 <= t_rec <= 36000.0
            phi = p.get("phi", math.pi)
            res = _rel_check(rng, cols["value"], lambda i: ref.density(
                terms, p["r"], cols["t"][i], phi - cols["theta"][i]), DENSITY_TOL)
            ok &= res.ok
            worst = max(worst, res.err)
        return Result(ok, worst)

    def _check_fig_noise(self, cfg, out, rng):
        worst, ok = 0.0, True
        for path in sorted(out.glob("*.csv")):
            cols, meta = _read_csv(path)
            a = float(meta["a"])
            for x, e in zip(cols["omega_d_r"], cols["eta"]):
                want = ref.eta_closed(a, x)
                ok &= abs(e - want) <= ETA_TOL
                worst = max(worst, float(abs(e - want) / want))
        return Result(ok, worst)

    def _check_fig_steps(self, cfg, out, rng):
        p = cfg["params"]
        cols, _ = _read_csv(out / f"{cfg['output']['prefix']}.csv")
        t, dens = cols["t"], cols["density"]
        terms = ref.weighted_terms(self._coherent(p))
        phi = p.get("phi", math.pi)
        res = _rel_check(rng, dens, lambda i: ref.density(terms, p["r"], t[i], phi),
                         DENSITY_TOL)
        w = cols["cumulative"]
        res_w = _rel_check(rng, w, ref.trapezoid_prefixes(t, dens).__getitem__, DENSITY_TOL)
        ticks = json.loads((out / f"{cfg['output']['prefix']}_ticks.json").read_text())
        times = np.array([tk["t"] for tk in ticks["ticks"]])
        # staircase: ticks every 2 pi r to within one grid step (criterion 3)
        spacing_ok = times.size >= 3 and bool(
            np.all(np.abs(np.diff(times) - TWO_PI * p["r"]) < (t[1] - t[0])))
        return Result(res.ok and res_w.ok and spacing_ok, max(res.err, res_w.err))

    def _check_fig_miviolation(self, cfg, out, rng):
        p = cfg["params"]
        s1 = self._coherent(p, p["state1"])
        s2 = self._coherent(p, p["state2"])
        ov = s1.overlap(s2)
        b = abs(ov) ** 2
        t1, t2 = ref.weighted_terms(s1), ref.weighted_terms(s2)
        cols, _ = _read_csv(out / f"{cfg['output']['prefix']}.csv")
        t, phi, r = cols["t2"], p["phi"], p["r"]
        res = _rel_check(rng, cols["p2"], lambda i: ref.joint_symmetrized(
            t1, t2, b, r, t[i], phi, t[i], phi), DENSITY_TOL)

        def margin(i):
            p1 = ref.single_symmetrized(t1, t2, ov, r, t[i], phi)
            return ref.joint_symmetrized(t1, t2, b, r, t[i], phi, t[i], phi) - p1**2

        res_m = _rel_check(rng, cols["margin_j"], margin, DENSITY_TOL,
                           scale=float(np.max(cols["p2"])))
        # both inequalities are violated at the figure parameters (criterion 7)
        violated = cols["violated_j"].sum() > 0 and cols["violated_cs"].sum() > 0
        return Result(res.ok and res_m.ok and violated, max(res.err, res_m.err))

    def _check_sagnac(self, cfg, out, rng):
        p = cfg["params"]
        sym = self._coherent(p).symmetric()
        rot = ref.weighted_terms(sym, omega_d=p["omega_d"], rotating_speed=False)
        static = ref.weighted_terms(sym)
        cols, meta = _read_csv(out / f"{cfg['output']['prefix']}.csv")
        t, phi, r = cols["t"], p.get("phi", 0.0), p["r"]
        res = _rel_check(rng, cols["density"],
                         lambda i: ref.density(rot, r, t[i], phi), DENSITY_TOL)
        res_e = _rel_check(rng, cols["fitted_envelope"],
                           lambda i: ref.density(static, r, t[i], phi), DENSITY_TOL)
        # fringe frequency xi * Omega_D within 1 % (criterion 6)
        expected = p["xi"] * p["omega_d"]
        fringe_ok = abs(float(meta["fringe_frequency"]) - expected) <= SAGNAC_TOL * expected
        return Result(res.ok and res_e.ok and fringe_ok, max(res.err, res_e.err))

    def _check_kolmogorov(self, cfg, out, rng):
        p = cfg["params"]
        s1 = self._coherent(p, p["state1"])
        s2 = self._coherent(p, p["state2"])
        ov = s1.overlap(s2)
        t1, t2 = ref.weighted_terms(s1), ref.weighted_terms(s2)
        cols, _ = _read_csv(out / f"{cfg['output']['prefix']}.csv")
        t = cols["t2"]
        res = _rel_check(rng, cols["p1"], lambda i: ref.single_symmetrized(
            t1, t2, ov, p["r"], t[i], p["phi2"]), DENSITY_TOL)
        # marginal of the joint density equals P1 (criterion 8)
        dev = float(np.max(np.abs(cols["marginal"] - cols["p1"])) / np.max(cols["p1"]))
        return Result(res.ok and dev <= MARGINAL_TOL, res.err)


# --------------------------------------------------------------------------
# oracle


class Oracle(Workload):
    """Poisson/line-quadrature amplitude against the mode sum, point by point."""

    MASSES = (0.0, 1000.0) * 4

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        self.points = []  # (state index, mass, t, phi)
        self.states = []
        for k, mu in enumerate(self.MASSES):
            # quadrature cost grows with alpha (the k window is ~ 11 alpha wide),
            # so a narrow alpha range keeps the cost of a pass seed-independent
            xi, alpha = rng.uniform(700.0, 1000.0), rng.uniform(9.5, 10.5)
            theta = rng.uniform(0.0, TWO_PI)
            ms = ModeSpace(mu=mu, r=1.0, m_max=int(math.ceil(xi + 12 * alpha)))
            st = states.coherent_state(ms, states.CoherentParams(theta, xi, alpha))
            self.states.append((ms, st))
            v = xi / math.hypot(mu, xi)
            if mu == 0.0:
                t = rng.uniform(3.0, 20.0)
            else:  # before T_q / 2, where the image window is reliable
                t = rng.uniform(0.1, 0.45) * probability.timescales(ms, xi, alpha).t_quantum
            on = (theta + v * t) % TWO_PI
            off = (on + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.9)) % TWO_PI
            self.points += [(k, mu, t, on), (k, mu, t, off)]
        self.ops = [(f"{'massless' if mu == 0 else 'massive'}-{k}-{where}", self._op(k, t, phi))
                    for (k, mu, t, phi), where in zip(self.points, ("on", "off") * 8)]

    def _op(self, k, t, phi):
        ms, st = self.states[k]

        def run():
            return (amplitudes.amp_poisson(ms, t, phi, state=st),
                    amplitudes.amp_state(st, ms, t, phi))

        return run

    def check(self, outputs):
        # errors relative to the largest oracle amplitude of the same state
        scale = {}
        for (k, *_), (pois, _) in zip(self.points, outputs):
            scale[k] = max(scale.get(k, 0.0), abs(pois))
        results = []
        for (k, mu, _, _), (pois, mode) in zip(self.points, outputs):
            err = abs(pois - mode) / scale[k]
            results.append(Result(err <= ORACLE_TOL[mu], err))
        return results


# --------------------------------------------------------------------------
# scatter


def _cloud(rng, n, t_lo, t_hi):
    """Sorted random times in (t_lo, t_hi) with independent random angles."""
    return np.sort(rng.uniform(t_lo, t_hi, n)), rng.uniform(0.0, TWO_PI, n)


def _coherent_coeffs(ms: ModeSpace, xi, alpha, theta, support):
    """Coherent Gaussian truncated to support = (lo, hi), normalized."""
    m = ms.modes().astype(float)
    c = np.exp(-((m - xi) ** 2) / (2 * alpha**2) - 1j * m * theta)
    c[(m < support[0]) | (m > support[1])] = 0.0
    return c / np.linalg.norm(c)


class Scatter(Workload):
    """Library calls on unstructured inputs; reaches detector and mixed states.

    Rings, states and point counts follow the shipped configs, so the library
    sees figure-sized inputs, only scattered.  The cost of every operation
    depends on its count of active modes, so each state's non-zero support is
    fixed and only its values are seeded: a Gaussian is non-zero up to ~38.6
    alpha from its centre, and where the lattice cuts it off first, its centre
    is fixed too.
    """

    N_MIX = 3
    # 601 modes: the mixed-state size whose build (0.16 s) was profiled; its
    # densities are taken on a cloud as large as the fig-miviolation grid
    MIX_MAX = 300
    MIX_SUPPORT = (40, 260)
    MIX_POINTS = 2001
    # fig-probcoh: mu 1000, m_max 2000, xi 1000, alpha 10, 4096 angles a panel,
    # T_q = 282.8.  Its max-localization matrix (4001^2 float64, 128 MB, about
    # 0.4 s) is the workload's largest array.
    BIG = dict(mu=1000.0, m_max=2000, alpha=10.0, n=4096, t_max=2.0 * 282.8)
    # sagnac: massless, m_max 1130, xi 1000, alpha 10.  Its general double sum
    # over ~1000 active modes costs ~1.3 ms a point, hence a 256-point cloud.
    ROT = dict(m_max=1130, xi=1000.0, alpha=10.0, n=256, t_max=30.0)
    # fig-miviolation: mu 1000, m_max 1130, xi 1005 and 995, alpha 10, t in
    # [40, 60] on 2001 points
    PAIR = dict(mu=1000.0, m_max=1130, xis=(1005.0, 995.0), alpha=10.0, n=2001)
    # fig-noise: massless, m_max 400, a in [0.5, 2], Omega_D r in [0, 0.95]
    NOISE_MAX = 400
    # fig-steps: t_max 65 sampled at sigma / 5 (xi 1000, alpha 10) = 4598 points
    CUM = dict(n=4598, t_max=65.0)

    def __init__(self, seed: int, out_dir: Path):
        super().__init__(seed, out_dir)
        rng = np.random.default_rng(seed)
        u = rng.uniform
        self.cache = {}

        # mixed state: a mixture of narrow coherent states on a massive ring
        n_mix = 2 * self.MIX_MAX + 1
        self.ms_mix = ModeSpace(mu=50.0, r=1.0, m_max=self.MIX_MAX)
        self.mix = [(w, u(140.0, 160.0), u(4.0, 5.0), u(0.0, TWO_PI))
                    for w in rng.dirichlet(np.ones(self.N_MIX))]
        rho = np.zeros((n_mix, n_mix), dtype=complex)
        for w, xi, alpha, theta in self.mix:
            c = _coherent_coeffs(self.ms_mix, xi, alpha, theta, self.MIX_SUPPORT)
            rho += w * np.outer(c, c.conj())
        self.rho = rho
        # custom kernel log R = -a omega + kappa m^2 on half-integer m: its
        # localization matrix is exactly exp(-kappa (m - m')^2 / 4)
        self.kappa, a = u(0.001, 0.003), u(0.02, 0.08)
        w_hi = math.hypot(50.0, self.MIX_MAX) + 1.0
        m_grid = np.arange(-2 * self.MIX_MAX, 2 * self.MIX_MAX + 1) / 2.0
        self.table = {"family": "custom", "table": [
            [w, m, math.exp(-a * w + self.kappa * (m * m - self.MIX_MAX**2))]
            for w in (49.0, w_hi) for m in m_grid]}
        self.ring_a = u(0.5, 2.0)
        self.t_mix, self.phi_mix = _cloud(rng, self.MIX_POINTS, 0.0, 40.0)

        # fig-probcoh's ring and state under maximum localization, and its
        # Q-symbol, at scattered times up to twice T_q
        big = self.BIG
        self.ms_big = ModeSpace(mu=big["mu"], r=1.0, m_max=big["m_max"])
        self.cp_pure = states.CoherentParams(u(0, TWO_PI), u(950.0, 1050.0), big["alpha"])
        self.pure = states.coherent_state(self.ms_big, self.cp_pure)
        self.gamma0 = u(0.0, 0.5)
        self.t_pure, self.phi_pure = _cloud(rng, big["n"], 0.0, big["t_max"])
        self.cp_q = states.CoherentParams(u(0, TWO_PI), u(950.0, 1050.0), big["alpha"])
        self.t_q, self.phi_q = _cloud(rng, big["n"], 0.0, big["t_max"])

        # sagnac's ring and symmetric packet in a rotating frame: general double sum
        rot = self.ROT
        self.ms_rot = ModeSpace(mu=0.0, r=1.0, m_max=rot["m_max"])
        self.cp_rot = states.CoherentParams(u(0, TWO_PI), rot["xi"], rot["alpha"])
        self.rot_state = states.symmetric_superposition(
            self.ms_rot, states.coherent_state(self.ms_rot, self.cp_rot))
        self.omega_d = u(1e-4, 1e-3)
        self.t_rot, self.phi_rot = _cloud(rng, rot["n"], 0.0, rot["t_max"])

        # rotation noise at random Omega_D
        self.eta_args = [(u(0.5, 2.0), u(0.05, 0.95)) for _ in range(3)]

        # cumulative detection on a scattered grid
        self.t_cum = np.sort(u(0.0, self.CUM["t_max"], self.CUM["n"]))
        self.y_cum = u(0.0, 1.0, self.CUM["n"])

        # fig-miviolation's pair as a product state at scattered time pairs
        pair = self.PAIR
        self.ms_pair = ModeSpace(mu=pair["mu"], r=1.0, m_max=pair["m_max"])
        self.pair_cps = [states.CoherentParams(u(0, TWO_PI), xi, pair["alpha"])
                         for xi in pair["xis"]]
        self.pair = multitime.TwoParticleState(
            "product", *(states.coherent_state(self.ms_pair, cp) for cp in self.pair_cps))
        self.t_pair = [_cloud(rng, pair["n"], 40.0, 60.0) for _ in range(2)]

        self.ops = [
            ("mixed_state", self._mixed_state),
            ("loc_custom", self._loc_custom),
            ("loc_ring_exp", self._loc_ring_exp),
            ("loc_max", self._loc_max),
            ("loc_rotating", self._loc_rotating),
            ("pc_mixed_custom", self._pc_mixed_custom),
            ("pc_mixed_ring_exp", self._pc_mixed_ring_exp),
            ("pc_pure_max", self._pc_pure_max),
            ("pc_rotating", self._pc_rotating),
            ("qsymbol", self._qsymbol),
            *((f"eta-{j}", self._eta(j)) for j in range(len(self.eta_args))),
            ("cumulative", self._cumulative),
            ("p2_product", self._p2_product),
        ]

    def begin_pass(self):
        """Drop the last pass's matrices, so two never coexist."""
        self.cache.clear()

    # operations: later ones use the states and matrices earlier ones built

    def _mixed_state(self):
        st = states.RingState(self.ms_mix, rho=self.rho)
        self.cache["mixed"] = st
        return st.rho

    def _loc_custom(self):
        dk = detector.kernel_from_spec(self.table)
        self.cache["L_custom"] = detector.localization_matrix(dk, self.ms_mix)
        return self.cache["L_custom"].matrix

    def _loc_ring_exp(self):
        dk = detector.DetectorKernel.ring_exponential(a=self.ring_a)
        self.cache["L_ring"] = detector.localization_matrix(dk, self.ms_mix)
        return self.cache["L_ring"].matrix

    def _loc_max(self):
        dk = detector.DetectorKernel.max_localization(gamma0=self.gamma0)
        self.cache["L_max"] = detector.localization_matrix(dk, self.ms_big)
        return self.cache["L_max"].matrix

    def _loc_rotating(self):
        rf = RotationFrame(omega_d=self.omega_d, modespace=self.ms_rot)
        dk = detector.DetectorKernel.max_localization()
        self.cache["L_rot"] = detector.localization_matrix(dk, self.ms_rot, frame=rf)
        return self.cache["L_rot"].matrix

    def _pc_mixed_custom(self):
        return probability.pc_density(self.cache["mixed"], self.cache["L_custom"],
                                      self.t_mix, self.phi_mix)

    def _pc_mixed_ring_exp(self):
        return probability.pc_density(self.cache["mixed"], self.cache["L_ring"],
                                      self.t_mix, self.phi_mix)

    def _pc_pure_max(self):
        return probability.pc_density(self.pure, self.cache["L_max"],
                                      self.t_pure, self.phi_pure)

    def _pc_rotating(self):
        L = self.cache["L_rot"]
        return probability.pc_density(self.rot_state, L, self.t_rot, self.phi_rot,
                                      frame=L.frame)

    def _qsymbol(self):
        return probability.qsymbol(self.ms_big, self.cp_q, self.t_q, self.phi_q)

    def _eta(self, j):
        a, x = self.eta_args[j]
        dk = detector.DetectorKernel.ring_exponential(a=a)
        ms = ModeSpace(mu=0.0, r=1.0, m_max=self.NOISE_MAX)
        return lambda: rotation.eta(dk, ms, x)

    def _cumulative(self):
        return clock.cumulative(self.t_cum, self.y_cum)

    def _p2_product(self):
        (t1, p1), (t2, p2) = self.t_pair
        return multitime.p2_joint(self.pair, t1, p1, t2, p2)

    # checks

    def check(self, outputs):
        rng = np.random.default_rng(self.seed + 1)
        out = dict(zip((name for name, _ in self.ops), outputs))
        mm = self.MIX_MAX
        comps = [(w, ref.PureState.coherent(50.0, 1.0, mm, xi, al, th, self.MIX_SUPPORT))
                 for w, xi, al, th in self.mix]
        mix = [(w, ref.weighted_terms(s)) for w, s in comps]
        kappa = self.kappa
        results = {}

        def rho_ref(i):
            m, n = divmod(i, 2 * mm + 1)
            return sum(w * s.coeffs.get(m - mm, 0) * mp_conj(s.coeffs.get(n - mm, 0))
                       for w, s in comps)

        results["mixed_state"] = _rel_check(rng, out["mixed_state"].ravel(), rho_ref,
                                            DENSITY_TOL)

        def band(i, mat, fn):
            m, n = divmod(i, mat.shape[0])
            return fn(m - mat.shape[0] // 2, n - mat.shape[0] // 2)

        for name, fn in (
            ("loc_custom", lambda m, n: math.exp(-kappa * (m - n) ** 2 / 4)),
            ("loc_ring_exp", lambda m, n: float(m > 0 and n > 0)),
            ("loc_max", lambda m, n: 1.0),
            ("loc_rotating", lambda m, n: 1.0),
        ):
            mat = out[name]
            flat = mat.ravel()
            results[name] = _rel_check(rng, flat, lambda i: band(i, mat, fn), DENSITY_TOL)

        r = 1.0
        for name, kernel in (
            ("pc_mixed_custom", lambda m, n: math.exp(-kappa * (m - n) ** 2 / 4)),
            ("pc_mixed_ring_exp", lambda m, n: float(m > 0 and n > 0)),
        ):
            dens = ref.mixed_density(mix, kernel, r)
            results[name] = _rel_check(
                rng, out[name], lambda i: dens(self.t_mix[i], self.phi_mix[i]), DENSITY_TOL)

        cp = self.cp_pure
        big = self.BIG
        pure = ref.weighted_terms(ref.PureState.coherent(big["mu"], r, big["m_max"], cp.xi,
                                                         cp.alpha, cp.theta))
        results["pc_pure_max"] = _rel_check(
            rng, out["pc_pure_max"],
            lambda i: ref.density(pure, r, self.t_pure[i], self.phi_pure[i]), DENSITY_TOL)

        cp = self.cp_rot
        rot = ref.weighted_terms(ref.PureState.coherent(0.0, r, self.ROT["m_max"], cp.xi,
                                                        cp.alpha, cp.theta).symmetric(),
                                 omega_d=self.omega_d)
        results["pc_rotating"] = _rel_check(
            rng, out["pc_rotating"],
            lambda i: ref.density(rot, r, self.t_rot[i], self.phi_rot[i]), DENSITY_TOL)

        cp = self.cp_q
        q = ref.weighted_terms(ref.PureState.coherent(big["mu"], r, big["m_max"], cp.xi,
                                                      cp.alpha, cp.theta))
        results["qsymbol"] = _rel_check(
            rng, out["qsymbol"],
            lambda i: ref.density(q, r, self.t_q[i], self.phi_q[i]), DENSITY_TOL)

        for j, (a, x) in enumerate(self.eta_args):
            got, want = out[f"eta-{j}"], ref.eta_closed(a, x)
            results[f"eta-{j}"] = Result(abs(got - want) <= ETA_TOL,
                                         float(abs(got - want) / want))

        prefixes = ref.trapezoid_prefixes(self.t_cum, self.y_cum)
        results["cumulative"] = _rel_check(rng, out["cumulative"], prefixes.__getitem__,
                                           DENSITY_TOL)

        pair = self.PAIR
        pa = [ref.weighted_terms(ref.PureState.coherent(pair["mu"], r, pair["m_max"], c.xi,
                                                        c.alpha, c.theta))
              for c in self.pair_cps]
        (t1, p1), (t2, p2) = self.t_pair
        results["p2_product"] = _rel_check(
            rng, out["p2_product"],
            lambda i: ref.density(pa[0], r, t1[i], p1[i]) * ref.density(pa[1], r, t2[i], p2[i]),
            DENSITY_TOL)
        return [results[name] for name, _ in self.ops]


WORKLOADS = {"figures": Figures, "oracle": Oracle, "scatter": Scatter}
