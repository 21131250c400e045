import contextlib
import hashlib
import math
import os
import subprocess
import sys
import textwrap
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import CubicSpline
from scipy.special import betainc
from scipy.stats import ks_2samp, kstest

from hyperwalk import (BoundaryError, WalkConfig, cdf_eta, limit_time, make_bump, psi_clt,
                       run_walk, sphere_area, walk_density_grid, walk_sim)
from hyperwalk.cli import main
from hyperwalk.diagnostics import _limit_radial_cdf
from hyperwalk.gyro import mobius_add_raw, mobius_scalar_raw
from hyperwalk.quadrature import cumulative_gl
from hyperwalk.radial_density import _sample_eta_many, open_uniforms
from hyperwalk.walk_sim import _angle_q, _uniforms, path_stream_seed, splitmix64

from conftest import eleven_point_table, ks_critical
from oracles import empirical_radial_density

_WORKER_RUNS = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


def assert_no_child():
    """No child process is left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def through_worker(monkeypatch):
    """Walks in the block step in the forked worker whatever their size (where
    the platform runs it: Linux, two CPUs); on leaving, the worker ran and no
    child is left."""
    forked = []
    run_forked = walk_sim._run_forked

    def counted(*args):
        forked.append(args[0])
        return run_forked(*args)

    with monkeypatch.context() as m:
        m.setattr(walk_sim, "_WORKER_STEPS", 0)
        m.setattr(walk_sim, "_run_forked", counted)
        yield
    assert forked or not _WORKER_RUNS
    assert_no_child()


def test_config_validation(bump3):
    with pytest.raises(ValueError):
        WalkConfig(bump3, 0, 10, "clt", 1)
    with pytest.raises(ValueError):
        WalkConfig(bump3, 10, 0, "clt", 1)
    with pytest.raises(ValueError):
        WalkConfig(bump3, 10, 10, "diffusive", 1)
    # a count or seed that is not an integer is rejected, not truncated
    for bad in ((10.5, 10, 1), (10, 100.0, 1), (10, 10, 1.5), (True, 10, 1), (10, 10, "1")):
        with pytest.raises(ValueError, match="integer"):
            WalkConfig(bump3, bad[0], bad[1], "clt", bad[2])
    assert WalkConfig(bump3, np.int64(10), np.int32(10), "clt", np.uint64(1)).N == 10


def test_splitmix_determinism():
    assert splitmix64(12345) == splitmix64(12345)
    assert splitmix64(12345) != splitmix64(12346)
    seeds = {path_stream_seed(42, j) for j in range(10000)}
    assert len(seeds) == 10000


def test_splitmix64_known_answers():
    """The first two outputs of the SplitMix64 stream seeded with 0, as
    published with the generator; the array and int forms agree."""
    gamma = np.uint64(0x9E3779B97F4A7C15)
    words = splitmix64(np.arange(2, dtype=np.uint64) * gamma)
    assert words.dtype == np.uint64
    assert words.tolist() == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4]
    assert [splitmix64(0), splitmix64(int(gamma))] == words.tolist()
    j = np.array([0, 1, 4097, 10**6], dtype=np.uint64)
    assert path_stream_seed(42, j).tolist() == [path_stream_seed(42, int(i)) for i in j]


@pytest.mark.parametrize("mode", ["clt", "lln", "sturm"])
def test_draws_independent_of_chunk_and_block_size(mode, monkeypatch):
    """Draw i of path j depends on (master seed, j, i) alone, so the terminal
    radii are bitwise the same for any path chunk and any block of steps."""
    cfg = WalkConfig(make_bump(1.0, 5), 30, 100, mode, 77)
    ref = run_walk(cfg)
    for chunk, block in ((7, 50), (64, 1), (1, 3), (33, 10**6)):
        monkeypatch.setattr(walk_sim, "_CHUNK", chunk)
        monkeypatch.setattr(walk_sim, "_BLOCK", block)
        assert np.array_equal(run_walk(cfg), ref)
        with through_worker(monkeypatch):
            assert np.array_equal(run_walk(cfg), ref)


def test_boundary_guard_stops_the_walk(monkeypatch):
    """Steps from a bump on [0, 40] in n = 2 mostly exceed the radius
    2 atanh(1 - 1e-12) = 28.3 of the guard band.  The worker raises the
    same error, text and all, from the first of five chunks."""
    cfg = WalkConfig(make_bump(40.0, 2), 1, 50, "clt", 1)
    with pytest.raises(BoundaryError, match=r"reached the boundary guard at step 1"):
        run_walk(cfg)
    monkeypatch.setattr(walk_sim, "_CHUNK", 10)
    with pytest.raises(BoundaryError, match=r"paths \[0, 1, .*9\] reached") as caught:
        run_walk(cfg)
    with through_worker(monkeypatch), pytest.raises(BoundaryError) as forwarded:
        run_walk(cfg)
    assert str(forwarded.value) == str(caught.value)


@pytest.mark.parametrize("mode", ["clt", "sturm"])
def test_nan_radius_stops_the_walk(mode, bump3, monkeypatch):
    """A radius that is not a number fails the boundary guard's comparison,
    so the walk raises instead of returning NaN (clt) or standing still at a
    NaN Sturm distance (sturm); the worker raises the same error, one step a
    block."""
    monkeypatch.setattr(walk_sim, "_sample_eta_many", lambda p, u: np.full(np.shape(u), np.nan))
    cfg = WalkConfig(bump3, 4, 10, mode, 1)
    with pytest.raises(BoundaryError, match=r"reached the boundary guard at step 1") as caught:
        run_walk(cfg)
    monkeypatch.setattr(walk_sim, "_BLOCK", 10)
    with through_worker(monkeypatch), pytest.raises(BoundaryError) as forwarded:
        run_walk(cfg)
    assert str(forwarded.value) == str(caught.value)


def test_worker_only_for_large_walks(bump3, monkeypatch):
    """A walk forks its step worker from _WORKER_STEPS path-steps on, and
    only when it has two blocks of steps or more to overlap."""
    forked = []
    monkeypatch.setattr(walk_sim, "_run_forked", lambda cfg, plan: forked.append(cfg))
    monkeypatch.setattr(walk_sim, "_WORKER_STEPS", 400)
    monkeypatch.setattr(walk_sim, "_BLOCK", 100)  # 5 steps a block at 20 paths
    for N, paths in ((19, 20), (20, 20), (1, 500)):
        run_walk(WalkConfig(bump3, N, paths, "clt", 1))
    # 20 x 20 is four blocks of 5 steps; 1 x 500 is one block
    assert [(c.N, c.paths) for c in forked] == ([(20, 20)] if _WORKER_RUNS else [])


def test_worker_forwards_other_exceptions(monkeypatch):
    """An exception the worker raises comes back with its type and message;
    one that cannot be pickled comes back as a RuntimeError that names its
    type.  A failure of the caller's own draws raises as it is, but not
    before the worker's failure at an earlier step."""
    cfg = WalkConfig(make_bump(1.0, 2), 40, 200, "sturm", 5)
    monkeypatch.setattr(walk_sim, "_BLOCK", 2000)  # four blocks of 10 steps
    stewart, draws = walk_sim._stewart, walk_sim._sample_eta_many

    def stewart_failing_at(step, error):
        def failing(s_half, sinh_half_s, h_z, weight, work):
            if weight == 1.0 / step:
                raise error
            stewart(s_half, sinh_half_s, h_z, weight, work)
        return failing

    def draws_failing_at(block):
        calls = []

        def failing(p, u):
            calls.append(None)
            if len(calls) == block:
                raise ValueError(f"draws failed in block {block}")
            return draws(p, u)
        return failing

    class Unpicklable(Exception):
        pass

    for error, kind, text in (
            (FloatingPointError("at step 17"), FloatingPointError, "at step 17"),
            (Unpicklable("at step 17"), RuntimeError, "Unpicklable: at step 17")):
        monkeypatch.setattr(walk_sim, "_stewart", stewart_failing_at(17, error))
        with through_worker(monkeypatch), pytest.raises(kind) as caught:
            run_walk(cfg)
        assert type(caught.value) is kind and str(caught.value) == text
    # the caller fails mid-walk, drawing block 3
    monkeypatch.setattr(walk_sim, "_stewart", stewart)
    monkeypatch.setattr(walk_sim, "_sample_eta_many", draws_failing_at(3))
    with through_worker(monkeypatch), pytest.raises(ValueError, match="block 3"):
        run_walk(cfg)
    # the worker fails at step 2, in block 1, while the caller fails drawing
    # block 2: stepping in-process would have raised the worker's error
    monkeypatch.setattr(walk_sim, "_stewart", stewart_failing_at(2, FloatingPointError("step 2")))
    monkeypatch.setattr(walk_sim, "_sample_eta_many", draws_failing_at(2))
    with through_worker(monkeypatch), pytest.raises(FloatingPointError, match="step 2"):
        run_walk(cfg)


def test_fork_warning_is_raised_after_the_worker_is_reaped(bump3, monkeypatch):
    """On Python >= 3.12 os.fork warns where other threads exist.  Under an
    error filter that warning raises from run_walk, not from os.fork before
    the worker's pid is known, so the worker is still reaped."""
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn("this process is multi-threaded", DeprecationWarning)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        with through_worker(monkeypatch), pytest.raises(DeprecationWarning, match="threaded"):
            run_walk(WalkConfig(bump3, 20, 5000, "clt", 1))


def test_worker_exits_when_its_caller_dies(tmp_path):
    """A caller killed mid-walk leaves its worker at EOF on its pipe, and the
    worker exits instead of waiting for a block that never comes."""
    if not _WORKER_RUNS:
        pytest.skip("the step worker runs on Linux with two CPUs or more")
    script = textwrap.dedent("""
        import os
        from hyperwalk import WalkConfig, make_bump, run_walk, walk_sim

        fork, draws, calls = os.fork, walk_sim._sample_eta_many, []

        def forked():
            pid = fork()
            if pid:
                print(pid, flush=True)
            return pid

        def sample(p, u):
            calls.append(None)
            if len(calls) == 3:
                os._exit(3)  # dies as a killed process does, its pipes still open
            return draws(p, u)

        os.fork, walk_sim._sample_eta_many, walk_sim._WORKER_STEPS = forked, sample, 0
        run_walk(WalkConfig(make_bump(1.0, 3), 100, 2000, "clt", 1))
    """)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    # files, not pipes: the worker inherits them, and the run waits for the
    # EOF of a pipe it holds, which would wait for the worker's exit
    out, err = tmp_path / "stdout", tmp_path / "stderr"
    with open(out, "w") as stdout, open(err, "w") as stderr:
        code = subprocess.run([sys.executable, "-c", script], stdout=stdout, stderr=stderr,
                              env=env, timeout=60).returncode
    assert code == 3, err.read_text()
    pid = int(out.read_text())
    for _ in range(200):
        try:
            status = Path(f"/proc/{pid}/status").read_text()
        except FileNotFoundError:
            return
        # a zombie has exited, and waits only for a reaper
        if "\nState:\tZ" in status:
            return
        time.sleep(0.05)
    pytest.fail(f"the worker {pid} outlived its caller")


def test_single_step_law_matches_scaled_profile(bump3):
    """At N = 1 the clt walk contracts by 1 and the sturm walk takes the whole
    geodesic step 1 (x) ((-0) (+) z) from the origin: both terminal laws are
    the profile's own."""
    paths = 10**5
    for mode in ("clt", "sturm"):
        etas = run_walk(WalkConfig(bump3, 1, paths, mode, 31))
        stat = kstest(etas, lambda e: cdf_eta(bump3, e)).statistic
        # Kolmogorov critical value at alpha = 1e-3
        assert stat < ks_critical(1e-3, paths)


def test_zero_uniform_draw_is_mapped_inside(bump3, monkeypatch):
    u = np.array([0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    assert np.array_equal(open_uniforms(u), [2.0**-54, 2.0**-53, 0.5, 1.0 - 2.0**-53])
    with pytest.raises(ValueError):
        _sample_eta_many(bump3, np.array([0.0]))
    # a zero draw gives the smallest radius, and no other draw changes
    etas = _sample_eta_many(bump3, open_uniforms(u))
    assert etas[0] < 1e-3 and np.array_equal(etas[1:], _sample_eta_many(bump3, u[1:]))
    # in the walk, the counter stream gives the radius draw of step 0 the
    # word splitmix64(seed of the path); make that word 0 for every path
    cfg = WalkConfig(bump3, 1, 3, "clt", 9)
    ref = run_walk(cfg)
    seeds = path_stream_seed(9, np.arange(3, dtype=np.uint64))
    mix = walk_sim.splitmix64

    def zero_first_radius_word(x):
        w = mix(x)
        if isinstance(x, np.ndarray):
            w[np.isin(x, seeds)] = 0
        return w

    monkeypatch.setattr(walk_sim, "splitmix64", zero_first_radius_word)
    got = run_walk(cfg)
    assert np.all(got < 1e-3) and np.all(ref > 1e-3)


def test_near_delta_profile_stays_near_origin():
    tiny = make_bump(0.01, 3)
    assert float(np.max(run_walk(WalkConfig(tiny, 32, 2000, "clt", 5)))) < 0.1


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
    etas = run_walk(WalkConfig(bump3, 1000, 4000, "clt", 99))
    assert np.all(np.isfinite(etas))
    assert float(np.max(np.tanh(etas / 2.0))) < 1.0 - 1e-12


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
        q = np.percentile(run_walk(WalkConfig(bump3, N, paths, "clt", seed)),
                          [25, 75])
        assert abs((q[1] - q[0]) - exact) < bound


def test_sturm_walk_contracts_like_lln(bump3):
    st = np.mean(run_walk(WalkConfig(bump3, 500, 3000, "sturm", 12)))
    ln = np.mean(run_walk(WalkConfig(bump3, 500, 3000, "lln", 12)))
    assert st < 0.1
    assert abs(st - ln) < 0.02


def test_empirical_density_requires_samples(bump3):
    small = run_walk(WalkConfig(bump3, 1, 100, "clt", 1))
    with pytest.raises(ValueError):
        empirical_radial_density(small, 3, np.linspace(0, 1, 11))
    with pytest.raises(ValueError):
        empirical_radial_density(run_walk(WalkConfig(bump3, 1, 2000, "clt", 1)), 3,
                                 np.array([0.5]))


def test_empirical_density_against_exact_single_step(bump3):
    """Each bin's histogram density against the exact bin average: the bin's
    cdf_eta mass over its volume, 4 pi int sinh^2 = 4 pi [sinh(2 eta)/4 - eta/2]
    in n = 3.  (The density at the bin midpoint is not the bin average: on
    [0.90, 0.95] the two differ by 4.9 standard errors.)"""
    paths = 10**5
    etas = run_walk(WalkConfig(bump3, 1, paths, "clt", 8))
    edges = np.linspace(0.0, 1.0, 21)
    _, emp = empirical_radial_density(etas, 3, edges)
    probs = np.diff(cdf_eta(bump3, edges))
    meas = 4.0 * math.pi * np.diff(np.sinh(2.0 * edges) / 4.0 - edges / 2.0)
    exact = probs / meas
    # binomial standard error per bin, expressed in density units
    se = np.sqrt(probs * (1 - probs) / paths) / meas
    assert np.all(np.abs(emp - exact) <= 4.0 * se + 1e-12)


def test_mean_radius_trivia(bump3):
    assert np.mean(run_walk(WalkConfig(make_bump(0.005, 3), 4, 1200, "lln", 3))) < 0.01


def test_lln_mean_radius_slope(bump3):
    Ns = [100, 400, 1600, 6400]
    means = []
    for i, N in enumerate(Ns):
        means.append(np.mean(run_walk(WalkConfig(bump3, N, 2000, "lln", 100 + i))))
    assert all(b < a for a, b in zip(means, means[1:]))
    slope = np.polyfit(np.log(Ns), np.log(means), 1)[0]
    assert -0.65 < slope < -0.35


def _vector_walk(p, N, paths, mode, rng):
    """Law oracle: the walk of points in the ball, folded with Mobius addition
    and scalar multiplication as the paper defines it (contracted increments
    for clt and lln, the Sturm geodesic step s (+) (1/k) (x) ((-s) (+) z))."""
    eps = {"clt": 1.0 / math.sqrt(N), "lln": 1.0 / N, "sturm": 1.0}[mode]
    s = np.zeros((paths, p.dim.n))
    for k in range(N):
        radii = np.tanh(0.5 * eps * _sample_eta_many(p, open_uniforms(rng.random(paths))))
        g = rng.standard_normal((paths, p.dim.n))
        z = radii[:, None] * g / np.linalg.norm(g, axis=1, keepdims=True)
        if mode == "sturm":
            s = mobius_add_raw(s, mobius_scalar_raw(1.0 / (k + 1), mobius_add_raw(-s, z)))
        else:
            s = mobius_add_raw(s, z)
    return 2.0 * np.arctanh(np.linalg.norm(s, axis=1))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("mode", ["clt", "lln", "sturm"])
def test_radial_chain_matches_vector_oracle(mode, n):
    """The radial chain of run_walk and the vector walk have one terminal law.
    At N = 2 and 16 that law still depends on the angle law and on the step
    rule, which the limit theorems wash out at large N."""
    p = make_bump(1.0, n)
    paths = 20000
    rng = np.random.default_rng(1000 + n)
    for N in (2, 16):
        chain = run_walk(WalkConfig(p, N, paths, mode, 17 + n))
        oracle = _vector_walk(p, N, paths, mode, rng)
        # two-sample Kolmogorov critical value at alpha = 1e-3
        assert ks_2samp(chain, oracle).statistic < ks_critical(1e-3, paths, paths)


def _pathwise_points_walk(p, N, paths, mode, seed):
    """Terminal radii of the walk of points in the ball, folded with Mobius
    addition and scalar multiplication, from run_walk's own counter-stream
    draws: step k's radius eta_z from draw k and its q from draw N + k, and
    z placed at cosine 1 - 2q to -s (to s in the Sturm mode), with the rest
    of its direction random, since the law of cosines sees only the angle."""
    n = p.dim.n
    eps = {"clt": 1.0 / math.sqrt(N), "lln": 1.0 / N, "sturm": 1.0}[mode]
    seeds = path_stream_seed(seed, np.arange(paths, dtype=np.uint64))
    eta_z = eps * _sample_eta_many(p, _uniforms(seeds, 0, N))
    cos = 1.0 - 2.0 * _angle_q(n, _uniforms(seeds, N, N))
    rng = np.random.default_rng(seed)
    s = np.zeros((paths, n))
    for k in range(N):
        if k == 0:
            e = np.tile(np.eye(n)[0], (paths, 1))  # s = 0: any direction will do
        else:
            e = s / np.linalg.norm(s, axis=1, keepdims=True)
        if mode != "sturm":
            e = -e
        f = rng.standard_normal((paths, n))
        f -= np.sum(f * e, axis=1, keepdims=True) * e
        f /= np.linalg.norm(f, axis=1, keepdims=True)
        c = cos[k][:, None]
        z = np.tanh(0.5 * eta_z[k])[:, None] * (c * e + np.sqrt(1.0 - c * c) * f)
        if mode == "sturm":
            s = mobius_add_raw(s, mobius_scalar_raw(1.0 / (k + 1), mobius_add_raw(-s, z)))
        else:
            s = mobius_add_raw(s, z)
    return 2.0 * np.arctanh(np.linalg.norm(s, axis=1))


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("mode", ["clt", "lln", "sturm"])
def test_radial_chain_matches_points_walk_pathwise(mode, n):
    """Path by path, the radial chain's terminal radius is that of the walk of
    points built from the same draws, to 1e-12 relative: a check of the law
    of cosines, the Stewart step and the step weights 1/k that a law test at
    its noise floor cannot make."""
    p, N, paths, seed = make_bump(1.0, n), 8, 50, 300 + n
    chain = run_walk(WalkConfig(p, N, paths, mode, seed))
    points = _pathwise_points_walk(p, N, paths, mode, seed)
    assert float(np.max(np.abs(chain - points) / points)) < 1e-12


@pytest.mark.parametrize("profile,N", [
    (lambda: make_bump(1.0, 3), 4), (lambda: make_bump(1.0, 3), 16),
    (lambda: make_bump(1.0, 2), 16), (lambda: make_bump(1.0, 5), 8),
    (lambda: eleven_point_table(3), 16)],
    ids=["bump-n3-N4", "bump-n3-N16", "bump-n2-N16", "bump-n5-N8", "table11-n3-N16"])
def test_clt_walk_matches_exact_finite_N_law(profile, N):
    """The terminal law of the N-step clt walk against the exact N-step law
    of the spectral route, walk_density_grid: a finite-N oracle with no bias
    term, so the threshold is the Kolmogorov critical value alone.  The law
    is supported on [0, sqrt(N) eta_max], and its radial CDF is the integral
    of a cubic spline through the density there.  A 1% radius error and a
    contraction of N^-0.45 fail every case, uniform q at n = 5 the n = 5 one."""
    p, paths = profile(), 400000
    n = p.dim.n
    grid = np.linspace(0.0, math.sqrt(N) * p.eta_max, 401)
    spline = CubicSpline(grid, walk_density_grid(p, N, grid))
    cdf = cumulative_gl(lambda e: sphere_area(n) * spline(e) * np.sinh(e) ** (n - 1), grid, q=8)
    assert abs(cdf[-1] - 1.0) < 1e-6
    etas = run_walk(WalkConfig(p, N, paths, "clt", 500 + N + n))
    assert kstest(etas, lambda e: np.interp(e, grid, cdf)).statistic < ks_critical(1e-6, paths)


@pytest.mark.parametrize("n", [2, 4, 5, 7])
def test_angle_draws_invert_the_beta_law(n):
    """q = (1 - c)/2 has the CDF betainc(a, a, q), a = (n - 1)/2.  The angle
    tables of n >= 4 are built to 1e-12; the bound leaves room for the
    rounding of q near 1, where n = 2 (no table) reaches 3e-12."""
    u = (np.arange(10**5) + 0.5) / 10**5
    q = walk_sim._angle_q(n, u)
    assert float(np.max(np.abs(betainc(0.5 * (n - 1), 0.5 * (n - 1), q) - u))) < 1e-11


# SHA-256 of run_walk(WalkConfig(make_bump(1.0, n), 40, 700, mode, 1000 + n))
# .tobytes(), and of the stdout of one `hyperwalk walk` call, recorded with
# one Newton step per draw from its cell's inverse cubic (further steps in
# the flagged cells) on CDF tables built with the Newton-iteration
# Gauss-Legendre rule.  They pin the draws and the steps' arithmetic bit for
# bit.  numpy's elementwise sinh and arcsinh may round differently on
# another CPU family or numpy build, which would need the hashes re-recorded.
_PINNED = {
    ("clt", 2): "4e856396603faef3d16866a7753c4434d996fbff29e302dbde78db940de7ad81",
    ("clt", 3): "2eace7d9c801405de139fb32400c2082b87adcf1eb5c12f3d826210fdec8cab2",
    ("clt", 5): "3c82cb2da4f4cbc5728efe0f7330fc25ba0e86f7133679ed3701316083cb6bf0",
    ("lln", 2): "62febe1d9b4fa2afcb9f8da40a84bcc5d1bb3b1973711bf0889049ff358f6b5e",
    ("lln", 3): "06463fedef119ffbff4aea123c27eaa998ec7d0e41c25c36da5efbd3ef70e17a",
    ("lln", 5): "dbf72d1cf145ba565e5626d7ed84f510b020e512b47ff231ddedb463c9c0e2c9",
    ("sturm", 2): "6112bcf0c0a9343cf63cc831a008ed4f5b4e5edd37fde3d8a698d850f740459e",
    ("sturm", 3): "62929167d837282ff0c7ac2a7d8bcda6da73e6f39778f4cf41682be5899d3663",
    ("sturm", 5): "dd19b52d2ce1259a5c3a5c5bb7412abac605528ecc1ba1b1653919e539062899",
}
_PINNED_CSV = "dfdc9c371d47bfae614a5656093f7bdc310db50a2c77bec17fb1f082a014f392"
# the same at N = 120, recorded with blocks of 2^13 draws of each kind
_PINNED_120 = {
    ("clt", 2): "ff2c3716e380600e72aa42936b45a9e40c7e55009c3478854a2c470fc614c06c",
    ("clt", 3): "6ebdc21bbe366c5a8562178e3dc9a12ade988aabe579b4032dbbe6b59c7f5999",
    ("clt", 5): "3e405c97973640fc028476b9bd4c0051bb7b2bf0e95c43ec45d72a77b28a368c",
    ("lln", 2): "78f14de264a99e0bd3f04b925ea828f9fac3e13b86fd6ff2b5a4d650b6ace89a",
    ("lln", 3): "d3ce51f5a4ec1a4c575d78580e6a0b559c2c776cbe5bed5da77c439a8e84348d",
    ("lln", 5): "0c385ec51e7063a8516fb2c366f2da143154f2815d5eecb719028344dc7b5f7e",
    ("sturm", 2): "04c13048184db828d27c858d25c7b290f7f5a1911b647f2051b554e2ca13202f",
    ("sturm", 3): "2acc57b8da23001e9d1533ff879fcc05dd9ca968eb172a6d16cd262a25a86ffc",
    ("sturm", 5): "eff24a932f116ac16080e80feca80ea310f8c74f074bbefe8dd2abe934c71383",
}


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("mode", ["clt", "lln", "sturm"])
def test_terminal_radii_pinned(mode, n, monkeypatch):
    """Recorded when every path took four blocks of steps; at the default
    _BLOCK the 40 steps fit in one.  The worker gets four blocks again."""
    cfg = WalkConfig(make_bump(1.0, n), 40, 700, mode, 1000 + n)
    assert hashlib.sha256(run_walk(cfg).tobytes()).hexdigest() == _PINNED[mode, n]
    monkeypatch.setattr(walk_sim, "_BLOCK", 7000)  # four blocks, for the worker
    with through_worker(monkeypatch):
        assert hashlib.sha256(run_walk(cfg).tobytes()).hexdigest() == _PINNED[mode, n]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("mode", ["clt", "lln", "sturm"])
def test_terminal_radii_pinned_across_blocks(mode, n, monkeypatch):
    """Every path takes several blocks of steps at the default _BLOCK (three
    at 2^15 draws), and the radii are bitwise those of eleven blocks of
    2^13 draws."""
    N, paths = 120, 700
    assert N > walk_sim._BLOCK // paths
    cfg = WalkConfig(make_bump(1.0, n), N, paths, mode, 1000 + n)
    assert hashlib.sha256(run_walk(cfg).tobytes()).hexdigest() == _PINNED_120[mode, n]
    with through_worker(monkeypatch):
        assert hashlib.sha256(run_walk(cfg).tobytes()).hexdigest() == _PINNED_120[mode, n]


def test_walk_csv_pinned(capsys, monkeypatch):
    argv = ["walk", "--dim", "5", "--density", "bump:0.8", "--N", "20", "--paths", "5000",
            "--seed", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _PINNED_CSV
    with through_worker(monkeypatch):
        assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == _PINNED_CSV
