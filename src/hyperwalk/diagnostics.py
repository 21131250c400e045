"""Numerical verification of the limit theorems: KS tests against the exact
limit law, sup-norm rate fits for the density convergence, variance-rate fits
and the gyrogroup identity suite.

Every check returns a Verdict that is bitwise reproducible from its inputs
and seed; thresholds record the statistical noise floor and the finite-N bias
allowance separately.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_dim, require_int, sphere_area
from .gyro import mobius_add_raw, mobius_scalar_raw
from .heat_kernel import hk, psi_clt, require_validated_dim
from .quadrature import cumulative_gl
from .radial_density import RadialProfile, limit_time, mean_eta, scale_profile
from .spectral import variance_direct, walk_density_grid
from .walk_sim import WalkConfig, run_walk

_KS_COEFF = 1.36  # 95% Kolmogorov quantile scale for the noise floor
_BIAS_COEFF = 5.0  # the clt verdict's finite-N bias allowance is _BIAS_COEFF / N
_LLT_WINDOW = (-1.3, -0.8)  # rate windows of a correct walk's log-log slope
_VARIANCE_WINDOW = (-1.5, -0.8)


@dataclass
class Verdict:
    """Machine-readable outcome of one check."""

    name: str
    statistic: float
    threshold: float
    passed: bool
    fitted_slope: float = None
    slope_window: tuple = None
    details: dict = field(default_factory=dict)
    seed: int = None
    config: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "statistic": self.statistic,
            "threshold": self.threshold,
            "slope": self.fitted_slope,
            "window": list(self.slope_window) if self.slope_window else None,
            "pass": bool(self.passed),
            "details": self.details,
            "seed": self.seed,
            "config": self.config,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)


def _ks_statistic(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample KS distance given the model CDF evaluated at the samples."""
    order = np.argsort(samples)
    f = cdf_values[order]
    m = samples.size
    hi = np.arange(1, m + 1) / m - f
    lo = f - np.arange(0, m) / m
    return float(max(hi.max(), lo.max()))


def _limit_radial_cdf(t: float, n: int, eta_hi: float, points: int = 2001):
    """Tabulated radial CDF of the limit density on [0, eta_hi]."""
    grid = np.linspace(0.0, eta_hi, points)
    area = sphere_area(n)

    def meas(etas):
        return area * psi_clt(t, etas, n) * np.sinh(etas) ** (n - 1)

    vals = cumulative_gl(meas, grid, q=12)
    return grid, np.minimum(vals, 1.0)


def clt_check(p: RadialProfile, N: int, paths: int, seed: int,
              t_scale: float = 1.0) -> Verdict:
    """KS distance between the terminal radial law of the CLT walk and the
    radial CDF of the limit density at t = limit_time (times t_scale; values
    other than 1 are deliberate corruptions for negative controls).  A
    dimension where the heat kernel is not validated is a ValueError before
    any walk runs."""
    if N < 100 or paths < 10**4:
        raise ValueError("clt_check needs N >= 100 and paths >= 1e4")
    n = require_validated_dim(p.dim)
    t = t_scale * limit_time(p)
    etas = run_walk(WalkConfig(p, N, paths, "clt", seed))
    eta_hi = max(float(etas.max()) * 1.05, 6.0 * math.sqrt(max(t, 1e-12)))
    grid, cdf_vals = _limit_radial_cdf(t, n, eta_hi)
    ks = _ks_statistic(etas, np.interp(etas, grid, cdf_vals))
    noise = _KS_COEFF / math.sqrt(paths)
    bias = _BIAS_COEFF / N
    thr = noise + bias
    return Verdict(
        name="clt", statistic=ks, threshold=thr, passed=ks < thr, seed=seed,
        details={"t": t, "t_scale": t_scale, "noise_floor": noise,
                 "bias_allowance": bias, "N": N, "paths": paths},
        config={"density": p.config(), "N": N, "paths": paths})


def _ladder(Ns, least: int, purpose: str) -> list:
    """The N values of a ladder, sorted; each must be an integer, and there
    must be at least `least` of them."""
    Ns = list(Ns)
    for N in Ns:
        require_int("Ns", N)
    if len(Ns) < least:
        raise ValueError(f"need at least {least} N values for {purpose}, got {len(Ns)}")
    return sorted(int(N) for N in Ns)


def _in_window(slope: float, window: tuple) -> bool:
    return window[0] <= slope <= window[1]


def _llt_eta_grid(p: RadialProfile, points: int) -> np.ndarray:
    """The llt check's default grid: points radii from 0 to 2 sqrt(t) + 2,
    t the limit time, which holds the bulk of the limit density."""
    return np.linspace(0.0, 2.0 * math.sqrt(limit_time(p)) + 2.0, points)


def llt_check(p: RadialProfile, Ns, eta_grid=None, limit: str = "clt") -> Verdict:
    """Sup-norm distance between the exact walk density and the limit density
    across a geometric ladder of N, with a log-log rate fit.

    limit="unhalved" compares against the kernel at the unhalved time; that
    wrong scaling must plateau and is the negative control.  Any other limit
    than "clt" and "unhalved" is a ValueError.  The verdict passes when the
    errors do not grow and the fitted slope lies inside the rate window
    (-1.3, -0.8) of a correct walk, which it records.  A dimension where the
    heat kernel is not validated is a ValueError before any transform runs.
    """
    if limit not in ("clt", "unhalved"):
        raise ValueError(f'limit must be "clt" or "unhalved", got {limit!r}')
    Ns = _ladder(Ns, 3, "a slope fit")
    n = require_validated_dim(p.dim)
    t = limit_time(p)
    eta_grid = _llt_eta_grid(p, 200) if eta_grid is None else np.asarray(eta_grid, dtype=float)
    target = psi_clt(t, eta_grid, n) if limit == "clt" else hk(t, eta_grid, n)
    errors = {}
    for N in Ns:
        dens = walk_density_grid(p, N, eta_grid)
        errors[N] = float(np.max(np.abs(dens - target)))
    evals = np.array([errors[N] for N in Ns])
    slope = float(np.polyfit(np.log(Ns), np.log(evals), 1)[0])
    monotone = bool(np.all(evals[1:] <= 1.1 * evals[:-1]))
    return Verdict(
        name="llt", statistic=float(evals[-1]), threshold=float(evals[0]),
        passed=_in_window(slope, _LLT_WINDOW) and monotone, fitted_slope=slope,
        slope_window=_LLT_WINDOW,
        details={"errors": {str(N): errors[N] for N in Ns}, "t": t,
                 "monotone": monotone, "eta_max_grid": float(eta_grid.max()),
                 "grid_points": int(eta_grid.size), "limit": limit},
        config={"density": p.config(), "Ns": Ns})


def lln_check(p: RadialProfile, Ns, paths: int, seed: int,
              scaling: str = "lln") -> Verdict:
    """Mean terminal radius of the LLN walk must decay across Ns and end below
    10% of the single-step mean radius.  scaling="clt" is the negative control.
    The decay needs two N values, and each mean's standard error two paths."""
    Ns = _ladder(Ns, 2, "a decay")
    require_int("paths", paths)
    if paths < 2:
        raise ValueError(f"need at least 2 paths for a standard error, got {paths!r}")
    means, ses = [], []
    for i, N in enumerate(Ns):
        etas = run_walk(WalkConfig(p, N, paths, scaling, seed + i))
        means.append(float(np.mean(etas)))
        ses.append(float(np.std(etas, ddof=1)) / math.sqrt(paths))
    decreasing = all(
        means[i + 1] < means[i] + 2.0 * (ses[i] + ses[i + 1]) for i in range(len(Ns) - 1))
    single_step = mean_eta(p)
    final_ok = means[-1] < 0.1 * single_step
    return Verdict(
        name="lln", statistic=means[-1], threshold=0.1 * single_step,
        passed=decreasing and final_ok, seed=seed,
        details={"means": dict(zip(map(str, Ns), means)),
                 "standard_errors": dict(zip(map(str, Ns), ses)),
                 "single_step_mean": single_step, "decreasing": decreasing,
                 "scaling": scaling},
        config={"density": p.config(), "Ns": Ns, "paths": paths})


def variance_rate_check(p: RadialProfile, Ns) -> Verdict:
    """Rate of |V_{S_N} - t|: the walk variance is N times the one-step
    variance of the contracted law (variance additivity), and must approach
    the limit time at rate 1/N; the verdict passes when the fitted slope lies
    inside the window (-1.5, -0.8), which it records."""
    Ns = _ladder(Ns, 3, "a slope fit")
    t = limit_time(p)
    gaps = {}
    for N in Ns:
        v = N * variance_direct(scale_profile(p, 1.0 / math.sqrt(N)))
        gaps[N] = abs(v - t)
    vals = np.array([gaps[N] for N in Ns])
    slope = float(np.polyfit(np.log(Ns), np.log(vals), 1)[0])
    return Verdict(
        name="variance_rate", statistic=float(vals[-1]), threshold=float(vals[0]),
        passed=_in_window(slope, _VARIANCE_WINDOW), fitted_slope=slope,
        slope_window=_VARIANCE_WINDOW,
        details={"t": t, "gaps": {str(N): gaps[N] for N in Ns}},
        config={"density": p.config(), "Ns": Ns})


# -- gyrogroup identity suite --------------------------------------------------

def _random_points(rng: "np.random.Generator", trials: int, n: int, rmax=0.8):
    """Batch of interior points: uniform directions, radii uniform in [0, rmax].

    rmax = 0.8 keeps three-fold compositions away from the boundary, where
    the conformal denominators would amplify roundoff past the 1e-12 gate.
    """
    g = rng.standard_normal((trials, n))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    return rng.uniform(0.0, rmax, size=(trials, 1)) * g


def gyro_property_suite(n_list, trials: int, seed: int) -> Verdict:
    """Worst-case residuals of the gyrogroup identities over random batches;
    the suite passes when every residual is below 1e-12."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials!r}")
    rng = np.random.Generator(np.random.PCG64(seed))
    residuals = {}
    witness_gap = 0.0
    for n in n_list:
        n = as_dim(n).n
        a = _random_points(rng, trials, n)
        b = _random_points(rng, trials, n)
        c = _random_points(rng, trials, n)
        lam = rng.uniform(-2.0, 2.0, size=(trials, 1))
        mu = rng.uniform(-2.0, 2.0, size=(trials, 1))

        def rec(key, val):
            residuals[f"{key}[n={n}]"] = float(val)

        rec("left_inverse", np.max(np.linalg.norm(mobius_add_raw(-a, a), axis=1)))

        ab = mobius_add_raw(a, b)
        ba = mobius_add_raw(b, a)
        gyr_ba = mobius_add_raw(-ab, mobius_add_raw(a, mobius_add_raw(b, ba)))
        rec("gyro_commutativity", np.max(np.linalg.norm(ab - gyr_ba, axis=1)))

        gyr_c = mobius_add_raw(-ab, mobius_add_raw(a, mobius_add_raw(b, c)))
        rec("gyration_norm", np.max(np.abs(
            np.linalg.norm(gyr_c, axis=1) - np.linalg.norm(c, axis=1))))

        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        rot = (q.T[None, :, :] @ a[:, :, None])[:, :, 0]
        lhs = (q[None, :, :] @ mobius_add_raw(rot, b)[:, :, None])[:, :, 0]
        rhs = mobius_add_raw(a, (q[None, :, :] @ b[:, :, None])[:, :, 0])
        rec("orthogonal_equivariance", np.max(np.linalg.norm(lhs - rhs, axis=1)))

        ta = mobius_add_raw(-a, b)
        na2 = np.sum(a * a, axis=1)
        nb2 = np.sum(b * b, axis=1)
        dot = np.sum(a * b, axis=1)
        denom = 1.0 - 2.0 * dot + na2 * nb2
        factor = (1.0 - na2) / denom
        nt2 = np.sum(ta * ta, axis=1)
        rec("translation_identity", np.max(np.abs(
            (1.0 - nt2) - (1.0 - na2) * (1.0 - nb2) / denom)))
        rec("measure_preservation", np.max(np.abs(
            factor / (1.0 - nt2) - 1.0 / (1.0 - nb2))))
        tb = mobius_add_raw(-b, a)
        rec("radial_symmetry", np.max(np.abs(
            np.linalg.norm(ta, axis=1) - np.linalg.norm(tb, axis=1))))

        lx = mobius_scalar_raw(lam, a)
        mx = mobius_scalar_raw(mu, a)
        both = mobius_scalar_raw(lam + mu, a)
        rec("scalar_associativity", np.max(np.linalg.norm(
            mobius_add_raw(lx, mx) - both, axis=1)))

        # distributivity fails: search the batch for a separation witness
        half_ab = mobius_scalar_raw(0.5, ab)
        split = mobius_add_raw(mobius_scalar_raw(0.5, a), mobius_scalar_raw(0.5, b))
        witness_gap = max(witness_gap, float(np.max(np.linalg.norm(half_ab - split, axis=1))))

    worst = max(residuals.values())
    passed = worst < 1e-12 and witness_gap > 1e-3
    return Verdict(
        name="gyro_properties", statistic=worst, threshold=1e-12, passed=passed,
        seed=seed,
        details={"residuals": residuals, "nondistributivity_gap": witness_gap,
                 "trials": trials, "dims": [as_dim(n).n for n in n_list]},
        config={"dims": [as_dim(n).n for n in n_list], "trials": trials})
