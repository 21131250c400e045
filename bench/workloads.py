"""The four workloads: their CLI invocations, made from the seed, and the
checks of their outputs against independent computations or properties the
method must have.

Every workload is one `hyperwalk` CLI command.  A round runs it once with a
walk seed derived from (workload, --seed, round index); llt-n3 draws nothing
at random, so its input is the same for every seed.

The reference side uses scipy quadrature of the bump written out here, the
closed-form n = 3 heat kernel, Sturm's variance inequality, a linearised
prediction of the Sturm mean and the Kolmogorov distribution; where a check
compares the program with itself (walk-csv-n5), it compares the Monte Carlo
route with the spectral route.  Reference values that do not depend on the
seed are computed once per run, after the timed rounds.
"""

import csv
import hashlib
import json
import math
import os

import numpy as np

# Kolmogorov critical value at alpha = 1e-9: sqrt(-ln(alpha / 2) / 2).  A
# correct sampler fails a round with probability 1e-9, so the thousands of
# rounds the benchmark makes over its life never fail by chance.
_KS_C = math.sqrt(-math.log(0.5e-9) / 2.0)


def round_seed(name: str, seed: int, k: int) -> int:
    digest = hashlib.sha256(f"{name}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def bump_expect(n: int, eta_max: float, f) -> float:
    """E f(eta) under the radial law of exp(-1/(1 - (eta/eta_max)^2)) in dimension n."""
    from scipy.integrate import quad

    def dens(e, g):
        u = e / eta_max
        return g(e) * math.exp(-1.0 / (1.0 - u * u)) * math.sinh(e) ** (n - 1)

    opts = {"epsabs": 0.0, "epsrel": 1e-13, "limit": 200}
    return quad(dens, 0.0, eta_max, args=(f,), **opts)[0] / quad(
        dens, 0.0, eta_max, args=(lambda e: 1.0,), **opts)[0]


def _square(e):
    return e * e


def heat_kernel_n3(s: float, etas) -> np.ndarray:
    """Closed-form kernel of d/ds = Laplacian on H^3."""
    etas = np.asarray(etas, dtype=float)
    ratio = np.ones_like(etas)
    pos = etas > 0.0
    ratio[pos] = etas[pos] / np.sinh(etas[pos])
    return (4.0 * math.pi * s) ** -1.5 * ratio * np.exp(-s - etas**2 / (4.0 * s))


def psi_clt_rel_err(hw, t: float, etas) -> float:
    """Relative distance of the program's limit density psi_clt(t, ., 3),
    the kernel at time t/2, from the closed form."""
    want = heat_kernel_n3(t / 2.0, etas)
    return float(np.max(np.abs(hw.heat_kernel.psi_clt(t, etas, 3) - want) / want))


def _psi_fails(ref):
    if ref["psi_rel_err"] < 1e-10:
        return []
    return [f"psi_clt off the closed-form n=3 kernel by {ref['psi_rel_err']:.3e}"]


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _verdict(out_dir, name, fails):
    v = _read_json(os.path.join(out_dir, "verdict.json"))
    if v["name"] != name or v["pass"] is not True:
        fails.append(f"{name} verdict did not pass: statistic {v['statistic']}, "
                     f"threshold {v['threshold']}, slope {v['slope']}")
    return v


def _close(a, b, rel):
    return abs(a - b) <= rel * abs(b)


class Workload:
    name = ""
    hk_dim = None  # dimension of the heat kernel the command calls, if any

    def argv(self, seed: int, out_dir: str) -> list:
        raise NotImplementedError

    def reference(self, hw) -> dict:
        """Seed-independent reference values; hw is the imported hyperwalk package."""
        raise NotImplementedError

    def check(self, out_dir: str, seed: int, ref: dict) -> list:
        """Failures found in one round's outputs (empty when correct)."""
        raise NotImplementedError

    def _verify_argv(self, check, cfg, out_dir):
        path = os.path.join(out_dir, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return ["verify", check, "--config", path, "--out", os.path.join(out_dir, "verdict.json")]


class CltN3(Workload):
    """Monte Carlo CLT route: KS distance of the terminal radii to the limit law."""

    name = "clt-n3"
    hk_dim = 3
    N, PATHS = 250, 20000

    def argv(self, seed, out_dir):
        cfg = {"density": {"family": "bump", "eta_max": 1.0, "dim": 3},
               "N": self.N, "paths": self.PATHS, "seed": seed}
        return self._verify_argv("clt", cfg, out_dir)

    def reference(self, hw):
        t = bump_expect(3, 1.0, _square) / 3.0
        # the verdict tabulates the limit law on [0, max(6 sqrt(t), 1.05 max
        # eta)], covered here with margin
        etas = np.linspace(0.0, 10.0 * math.sqrt(t), 501)
        return {"t": t, "psi_rel_err": psi_clt_rel_err(hw, t, etas)}

    def check(self, out_dir, seed, ref):
        fails = []
        v = _verdict(out_dir, "clt", fails)
        d = v["details"]
        if (d["N"], d["paths"], v["seed"], d["t_scale"]) != (self.N, self.PATHS, seed, 1.0):
            fails.append(f"clt verdict echoes the wrong configuration: {d}")
        if not _close(d["t"], ref["t"], 1e-9):
            fails.append(f"clt limit time {d['t']!r} != E eta^2 / 3 = {ref['t']!r}")
        fails += _psi_fails(ref)
        return fails


class LltN3(Workload):
    """Exact spectral LLT route: sup-norm error of the N-step density, rate fit."""

    name = "llt-n3"
    hk_dim = 3
    NS = [16, 32, 64, 128, 256]

    def argv(self, seed, out_dir):
        cfg = {"density": {"family": "bump", "eta_max": 1.0, "dim": 3}, "Ns": self.NS}
        return self._verify_argv("llt", cfg, out_dir)

    def reference(self, hw):
        t = bump_expect(3, 1.0, _square) / 3.0
        s = t / 2.0
        etas = np.linspace(0.0, 2.0 * math.sqrt(t) + 2.0, 200)  # the verdict's grid
        inv = hw.spectral.fh_inverse_grid(
            lambda lam: hw.heat_kernel.hk_fourier(s, lam, 3), etas, 3)
        return {"t": t, "inverse_abs_err": float(np.max(np.abs(inv - heat_kernel_n3(s, etas)))),
                "psi_rel_err": psi_clt_rel_err(hw, t, etas)}

    def check(self, out_dir, seed, ref):
        fails = []
        v = _verdict(out_dir, "llt", fails)
        errs = np.array([v["details"]["errors"][str(N)] for N in self.NS])
        slope = float(np.polyfit(np.log(self.NS), np.log(errs), 1)[0])
        if not (-1.3 <= slope <= -0.8 and _close(v["slope"], slope, 1e-9)):
            fails.append(f"llt slope {v['slope']!r} (refit {slope!r}) outside [-1.3, -0.8]")
        if not np.all(np.diff(errs) < 0.0):
            fails.append(f"llt errors not decreasing in N: {errs.tolist()}")
        if not _close(v["details"]["t"], ref["t"], 1e-9):
            fails.append(f"llt limit time {v['details']['t']!r} != E eta^2 / 3 = {ref['t']!r}")
        # the same tolerance as the acceptance test of the heat-kernel Fourier pair
        if not ref["inverse_abs_err"] < 1e-8:
            fails.append(f"inverse transform of hk_fourier off the closed form by "
                         f"{ref['inverse_abs_err']:.3e}")
        fails += _psi_fails(ref)
        return fails


class SturmN2(Workload):
    """Sturm's geodesic inductive mean: mean terminal radius over a ladder of N."""

    name = "sturm-n2"
    NS = [100, 1000, 10000]
    PATHS = 300

    def argv(self, seed, out_dir):
        cfg = {"density": {"family": "bump", "eta_max": 1.0, "dim": 2},
               "Ns": self.NS, "paths": self.PATHS, "seed": seed, "scaling": "sturm"}
        return self._verify_argv("lln", cfg, out_dir)

    def reference(self, hw):
        m2 = bump_expect(2, 1.0, _square)
        # Near the barycenter o the step s -> s + (log_s z)/k linearises to
        # s + (xi - H s)/k, with xi = log_o z and H the Hessian of d(., z)^2/2
        # at o, whose isotropic mean is h = (1 + E[eta coth eta])/2 in n = 2.
        # So v_k = E d(S_k, o)^2 follows v_{k+1} = (1 - h/(k+1))^2 v_k
        # + E eta^2/(k+1)^2 from v_1 = E eta^2, and S_N is nearly Gaussian on
        # the tangent plane: E d(S_N, o) = sqrt(pi v_N / 4).
        h = 0.5 * (1.0 + bump_expect(2, 1.0, lambda e: e / math.tanh(e) if e > 0.0 else 1.0))
        predicted, v = {}, m2
        for k in range(1, max(self.NS) + 1):
            if k in self.NS:
                predicted[k] = math.sqrt(math.pi * v / 4.0)
            v = (1.0 - h / (k + 1)) ** 2 * v + m2 / (k + 1) ** 2
        return {"mean": bump_expect(2, 1.0, lambda e: e), "second_moment": m2,
                "predicted": predicted}

    def check(self, out_dir, seed, ref):
        fails = []
        v = _verdict(out_dir, "lln", fails)
        d = v["details"]
        if d["scaling"] != "sturm" or v["seed"] != seed:
            fails.append(f"lln verdict echoes the wrong configuration: {d}")
        if not _close(d["single_step_mean"], ref["mean"], 1e-9):
            fails.append(f"single-step mean {d['single_step_mean']!r} != E eta = {ref['mean']!r}")
        for N in self.NS:
            mean, se = d["means"][str(N)], d["standard_errors"][str(N)]
            # Sturm: E d(S_N, o)^2 <= E eta^2 / N in an NPC space; Jensen gives
            # the mean, and 4 standard errors cover the sampling noise
            bound = math.sqrt(ref["second_moment"] / N) + 4.0 * se
            if not 0.0 < mean <= bound:
                fails.append(f"sturm mean radius at N={N} is {mean!r}, above {bound!r}")
            # the linearisation neglects O(d^2) terms: 1% covers them (4000-path
            # runs at N = 100 and 1000 sit 0.3-0.5% from it, within their noise)
            pred = ref["predicted"][N]
            if not abs(mean - pred) <= 5.0 * se + 0.01 * pred:
                fails.append(f"sturm mean radius at N={N} is {mean!r}, linearised "
                             f"prediction {pred!r} (se {se!r})")
        return fails


class WalkCsvN5(Workload):
    """Many short CLT walks written as CSV; terminal law against the spectral route."""

    name = "walk-csv-n5"
    N, PATHS = 20, 100000
    DENSITY = {"family": "bump", "eta_max": 1.0, "dim": 5}
    ETA_TOP = 3.0  # the 20-step density is below 1e-13 of its peak beyond here

    def argv(self, seed, out_dir):
        return ["walk", "--dim", "5", "--density", "bump:1.0", "--N", str(self.N),
                "--paths", str(self.PATHS), "--seed", str(seed),
                "--out", os.path.join(out_dir, "walk.csv")]

    def reference(self, hw):
        from scipy.integrate import cumulative_simpson
        from scipy.interpolate import CubicHermiteSpline

        p = hw.radial_density.profile_from_config(self.DENSITY)
        grid = np.linspace(0.0, self.ETA_TOP, 401)
        dens = hw.spectral.walk_density_grid(p, self.N, grid)
        area = 8.0 * math.pi**2 / 3.0  # surface area of the unit 4-sphere
        pdf = area * dens * np.sinh(grid) ** 4
        cdf = cumulative_simpson(pdf, x=grid, initial=0.0)
        return {"cdf": CubicHermiteSpline(grid, cdf, pdf), "mass": float(cdf[-1])}

    def check(self, out_dir, seed, ref):
        fails = []
        path = os.path.join(out_dir, "walk.csv")
        with open(path, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["path", "eta"] or len(rows) != self.PATHS + 1:
            return [f"walk CSV has header {rows[0]} and {len(rows) - 1} rows, "
                    f"expected {self.PATHS}"]
        index = np.array([int(r[0]) for r in rows[1:]])
        etas = np.array([float(r[1]) for r in rows[1:]])
        if not np.array_equal(index, np.arange(self.PATHS)):
            fails.append("walk CSV paths are not indexed 0..paths-1 in order")
        side = _read_json(path + ".json")
        want = {"command": "walk", "N": self.N, "paths": self.PATHS, "scaling": "clt",
                "master_seed": seed, "density": self.DENSITY}
        if any(side.get(k) != val for k, val in want.items()):
            fails.append(f"walk sidecar {side} does not echo {want}")
        if not abs(ref["mass"] - 1.0) < 1e-6:
            fails.append(f"spectral 20-step density has mass {ref['mass']!r}")
        if not (np.all(np.isfinite(etas)) and etas.min() >= 0.0 and etas.max() < self.ETA_TOP):
            fails.append("walk terminal radii outside [0, ETA_TOP)")
            return fails
        x = np.sort(etas)
        f = ref["cdf"](x)
        m = x.size
        ks = float(max(np.max(np.arange(1, m + 1) / m - f), np.max(f - np.arange(m) / m)))
        if not ks < _KS_C / math.sqrt(m):
            fails.append(f"walk terminal law: KS {ks:.5f} against the spectral route, "
                         f"critical value {_KS_C / math.sqrt(m):.5f}")
        return fails


WORKLOADS = {w.name: w for w in (CltN3(), LltN3(), SturmN2(), WalkCsvN5())}
