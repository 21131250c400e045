import math

import numpy as np
import pytest
from scipy.stats import ks_2samp, kstest

from hyperwalk import (WalkConfig, cdf_eta, empirical_radial_density, limit_time,
                       make_bump, mean_radius, pdf_eta, psi_clt, run_walk,
                       sample_point, sample_points, scale_profile, sphere_area)
from hyperwalk.diagnostics import _limit_radial_cdf
from hyperwalk.gyro import mobius_add_raw
from hyperwalk.radial_density import _sample_eta_many, open_uniforms
from hyperwalk.walk_sim import path_stream_seed, splitmix64

from conftest import ks_critical


def test_config_validation(bump3):
    with pytest.raises(ValueError):
        WalkConfig(bump3, 0, 10, "clt", 1)
    with pytest.raises(ValueError):
        WalkConfig(bump3, 10, 0, "clt", 1)
    with pytest.raises(ValueError):
        WalkConfig(bump3, 10, 10, "diffusive", 1)


def test_splitmix_determinism():
    assert splitmix64(12345) == splitmix64(12345)
    assert splitmix64(12345) != splitmix64(12346)
    seeds = {path_stream_seed(42, j) for j in range(10000)}
    assert len(seeds) == 10000


def test_bitwise_reproducibility_and_thread_independence(bump3, monkeypatch):
    cfg = WalkConfig(bump3, 50, 9000, "clt", 2024)
    monkeypatch.setenv("HYPERWALK_THREADS", "1")
    a = run_walk(cfg).terminal_etas
    monkeypatch.setenv("HYPERWALK_THREADS", "4")
    b = run_walk(WalkConfig(bump3, 50, 9000, "clt", 2024)).terminal_etas
    assert np.array_equal(a, b)


def test_single_step_law_matches_scaled_profile(bump3):
    """At N = 1 the clt walk contracts by 1 and the sturm walk takes the whole
    geodesic step 1 (x) ((-0) (+) z) from the origin: both terminal laws are
    the profile's own."""
    paths = 10**5
    for mode in ("clt", "sturm"):
        ens = run_walk(WalkConfig(bump3, 1, paths, mode, 31))
        stat = kstest(ens.terminal_etas, lambda e: cdf_eta(bump3, e)).statistic
        # Kolmogorov critical value at alpha = 1e-3
        assert stat < ks_critical(1e-3, paths)


class _ZeroFirstDraw(np.random.Generator):
    """A generator whose uniform draws start with an exact 0.0, a value
    Generator.random() can return."""

    def random(self, size=None):
        u = np.array(super().random(size))
        u.reshape(-1)[0] = 0.0
        return u if size is not None else float(u)


def test_zero_uniform_draw_is_mapped_inside(bump3, monkeypatch):
    u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    assert np.array_equal(open_uniforms(u), [2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    with pytest.raises(ValueError):
        _sample_eta_many(bump3, np.array([0.0]))
    # a zero draw gives the smallest radius, and no other draw changes
    assert np.linalg.norm(sample_point(bump3, _ZeroFirstDraw(np.random.PCG64(1))).coords) < 1e-3
    pts = sample_points(bump3, _ZeroFirstDraw(np.random.PCG64(1)), 5)
    ref = sample_points(bump3, np.random.default_rng(np.random.PCG64(1)), 5)
    assert np.linalg.norm(pts[0]) < 1e-3 and np.array_equal(pts[1:], ref[1:])
    # the walk makes one generator per path through np.random.Generator
    cfg = WalkConfig(bump3, 1, 3, "clt", 9)
    ref = run_walk(cfg).terminal_etas
    monkeypatch.setattr(np.random, "Generator", _ZeroFirstDraw)
    got = run_walk(cfg).terminal_etas
    assert np.all(got < 1e-3) and np.all(ref > 1e-3)


def test_near_delta_profile_stays_near_origin():
    tiny = make_bump(0.01, 3)
    ens = run_walk(WalkConfig(tiny, 32, 2000, "clt", 5))
    assert float(np.max(ens.terminal_etas)) < 0.1


def test_permutation_invariance_of_the_law(bump3):
    """Fold the same increments in index order and in reverse order; the
    terminal radial laws agree, because the convolution of radial laws is
    commutative.  The increments are not identically distributed (one long
    first step, then short ones), so exchangeability alone does not make the
    two folds agree: a Mobius addition that is wrong away from the origin
    treats the long step differently at the start and at the end."""
    rng_global = np.random.default_rng(7)
    paths, N = 10**5, 24
    scales = np.r_[1.3, np.full(N - 1, 0.15)]  # radius factor of each step
    etas_fwd = np.empty(paths)
    etas_rev = np.empty(paths)
    block = 8192

    for start in range(0, paths, block):
        count = min(block, paths - start)
        u = rng_global.random((count, N))
        g = rng_global.standard_normal((count, N, 3))
        radii = np.tanh(0.5 * scales * _sample_eta_many(bump3, u.ravel()).reshape(count, N))
        z = radii[:, :, None] * g / np.linalg.norm(g, axis=2, keepdims=True)
        s1 = np.zeros((count, 3))
        s2 = np.zeros((count, 3))
        for k in range(N):
            s1 = mobius_add_raw(s1, z[:, k, :])
            s2 = mobius_add_raw(s2, z[:, N - 1 - k, :])
        etas_fwd[start:start + count] = 2 * np.arctanh(np.linalg.norm(s1, axis=1))
        etas_rev[start:start + count] = 2 * np.arctanh(np.linalg.norm(s2, axis=1))
    # two-sample Kolmogorov critical value at alpha = 1e-3
    assert ks_2samp(etas_fwd, etas_rev).statistic < ks_critical(1e-3, paths, paths)


def test_all_terminal_points_inside_ball(bump3):
    ens = run_walk(WalkConfig(bump3, 1000, 4000, "clt", 99))
    assert np.all(np.isfinite(ens.terminal_etas))
    assert float(np.max(np.tanh(ens.terminal_etas / 2.0))) < 1.0 - 1e-12


def test_clt_scale_stabilizes_in_n(bump3):
    """Under the N^{-1/2} scaling the terminal spread stops depending on N:
    at N = 1000 and at N = 10000 the interquartile range matches that of the
    limit law psi_clt(limit_time, .).

    The bound is 4 sigma of the sample IQR, from the asymptotic quantile
    variance Var(q_p) = p(1-p) / (paths f(q_p)^2) and
    Cov(q_25, q_75) = (1/4)(1/4) / (paths f(q_25) f(q_75)) under the limit
    radial density f; the O(1/N) bias of the walk law is far below it.
    """
    paths = 4000
    n = bump3.dim.n
    t = limit_time(bump3)
    grid, cdf = _limit_radial_cdf(t, n, 6.0 * math.sqrt(t))
    quartiles = np.interp([0.25, 0.75], cdf, grid)
    f25, f75 = sphere_area(n) * psi_clt(t, quartiles, n) * np.sinh(quartiles) ** (n - 1)
    var = (3 / 16 / f25**2 + 3 / 16 / f75**2 - 2 / 16 / (f25 * f75)) / paths
    exact = quartiles[1] - quartiles[0]
    bound = 4.0 * math.sqrt(var)
    for N, seed in ((1000, 1), (10000, 2)):
        q = np.percentile(run_walk(WalkConfig(bump3, N, paths, "clt", seed)).terminal_etas,
                          [25, 75])
        assert abs((q[1] - q[0]) - exact) < bound


def test_sturm_walk_contracts_like_lln(bump3):
    st = run_walk(WalkConfig(bump3, 500, 3000, "sturm", 12))
    ln = run_walk(WalkConfig(bump3, 500, 3000, "lln", 12))
    assert mean_radius(st) < 0.1
    assert abs(mean_radius(st) - mean_radius(ln)) < 0.02


def test_empirical_density_requires_samples(bump3):
    small = run_walk(WalkConfig(bump3, 1, 100, "clt", 1))
    with pytest.raises(ValueError):
        empirical_radial_density(small, np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        empirical_radial_density(run_walk(WalkConfig(bump3, 1, 2000, "clt", 1)),
                                 np.array([0.5]))


def test_empirical_density_against_exact_single_step(bump3):
    paths = 10**5
    ens = run_walk(WalkConfig(bump3, 1, paths, "clt", 8))
    edges = np.linspace(0.0, 1.0, 21)
    mids, emp = empirical_radial_density(ens, edges)
    from hyperwalk import radial_area_weight, sphere_area

    exact = bump3.g(mids)
    # binomial standard error per bin, expressed in density units
    probs = np.diff(cdf_eta(bump3, edges))
    widths = np.diff(edges)
    meas = sphere_area(3) * radial_area_weight(mids, 3) * widths
    se = np.sqrt(probs * (1 - probs) / paths) / meas
    assert np.all(np.abs(emp - exact) <= 4.0 * se + 1e-12)


def test_mean_radius_trivia(bump3):
    ens = run_walk(WalkConfig(make_bump(0.005, 3), 4, 1200, "lln", 3))
    assert mean_radius(ens) < 0.01


def test_lln_mean_radius_slope(bump3):
    Ns = [100, 400, 1600, 6400]
    means = []
    for i, N in enumerate(Ns):
        ens = run_walk(WalkConfig(bump3, N, 2000, "lln", 100 + i))
        means.append(mean_radius(ens))
    assert all(b < a for a, b in zip(means, means[1:]))
    slope = np.polyfit(np.log(Ns), np.log(means), 1)[0]
    assert -0.65 < slope < -0.35
