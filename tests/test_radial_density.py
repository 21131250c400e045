import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator
from scipy.stats import ks_2samp, kstest

from hyperwalk import (cdf_eta, limit_time, make_bump, make_table, mean_eta,
                       pdf_eta, profile_from_config, scale_profile, second_moment,
                       sphere_area, walk_sim)
from hyperwalk.gyro import mobius_scalar_raw
from hyperwalk.quadrature import QuadratureError, integrate_adaptive
from hyperwalk import radial_density
from hyperwalk.radial_density import (CubicHermite, _invert_cdf, _sample_eta_many, open_uniforms,
                                      pchip_slopes)

from conftest import eleven_point_table, ks_critical


def test_make_bump_rejects_bad_support():
    with pytest.raises(ValueError):
        make_bump(0.0, 3)
    with pytest.raises(ValueError):
        make_bump(-1.0, 2)


def test_bump_vanishes_smoothly_at_edge(bump3):
    assert bump3.g(np.array([1.0]))[0] == 0.0
    assert bump3.g(np.array([1.5]))[0] == 0.0
    edge = bump3.g(np.array([0.999999]))[0]
    assert edge < 1e-6 * bump3.g(np.array([0.0]))[0]


def test_bump_normalization_against_quad(bump3):
    mass = quad(lambda e: float(pdf_eta(bump3, np.array([e]))[0]), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-13)[0]
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert second_moment(bump3) > 0.0


def test_pdf_eta_support_and_fd_oracle(bump3):
    assert pdf_eta(bump3, 0.0) == 0.0
    assert pdf_eta(bump3, 1.0) == 0.0
    assert pdf_eta(bump3, 2.0) == 0.0
    h = 1e-5
    for eta in (0.3, 0.55, 0.8):
        fd = (cdf_eta(bump3, eta + h) - cdf_eta(bump3, eta - h)) / (2 * h)
        assert float(pdf_eta(bump3, eta)) == pytest.approx(fd, rel=1e-6)


def test_cdf_monotone_and_ends(bump3):
    grid = np.linspace(0.0, 1.0, 200)
    vals = cdf_eta(bump3, grid)
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-10)
    assert np.all(np.diff(vals) >= 0.0)
    # for n = 5 the density vanishes like eta^4 inside the first table cell
    near0 = cdf_eta(make_bump(1.0, 5), np.linspace(0.0, 2e-4, 2001))
    assert near0.min() == 0.0
    assert np.all(np.diff(near0) >= 0.0)


def test_cdf_keeps_the_scalar_or_array_contract(bump3):
    """A float or a 0-d array gives a float, as phi_many, fh_transform and hk
    do; an array gives an array of its shape, each value the scalar one."""
    grid = np.array([[0.0, 0.3, 0.6], [0.9, 1.0, 1.5]])
    got = cdf_eta(bump3, grid)
    assert got.shape == (2, 3)
    assert cdf_eta(bump3, grid[0]).shape == (3,)
    for eta, value in zip(grid.ravel().tolist(), got.ravel().tolist()):
        assert type(cdf_eta(bump3, eta)) is float
        assert type(cdf_eta(bump3, np.array(eta))) is float
        assert cdf_eta(bump3, np.array(eta)) == value


def test_sample_eta_limits(bump3):
    etas = _sample_eta_many(bump3, np.array([1e-12, 1.0 - 1e-12]))
    assert etas[0] < 0.05 and etas[1] > 0.95
    for u in (0.0, 1.0):
        with pytest.raises(ValueError):
            _sample_eta_many(bump3, np.array([0.5, u]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sample_eta_rejects_draws_outside_the_open_interval(bump3):
    """A NaN fails every compare, so it is rejected like 0, 1 and +-inf,
    with the ValueError and before any cast of it to a cell index."""
    for u in (math.nan, math.inf, -math.inf, 0.0, 1.0):
        with pytest.raises(ValueError, match="strictly inside"):
            _sample_eta_many(bump3, np.array([0.25, u, 0.5]))
    assert _sample_eta_many(bump3, np.empty(0)).shape == (0,)


def test_sample_eta_inverts_cdf(bump3):
    us = np.random.default_rng(0).random(500)
    etas = _sample_eta_many(bump3, us)
    assert float(np.max(np.abs(cdf_eta(bump3, etas) - us))) < 1e-10


def test_radial_sampling_ks(bump3):
    rng = np.random.default_rng(101)
    etas = _sample_eta_many(bump3, rng.random(10**6))
    stat = kstest(etas, lambda e: cdf_eta(bump3, e)).statistic
    assert stat < 0.002


def test_scale_profile_identity_and_support(bump3):
    assert scale_profile(bump3, 1.0) is bump3
    s = scale_profile(bump3, 0.25)
    assert s.eta_max == pytest.approx(0.25)
    assert s.g(np.array([0.26]))[0] == 0.0
    assert s.g(np.array([0.2]))[0] > 0.0
    with pytest.raises(ValueError):
        scale_profile(bump3, 0.0)
    with pytest.raises(ValueError):
        scale_profile(bump3, 1.5)


def test_scale_profile_measure_law(bump3):
    s = scale_profile(bump3, 0.3)
    for tau in (0.1, 0.4, 0.7, 1.0):
        assert cdf_eta(s, 0.3 * tau) == pytest.approx(cdf_eta(bump3, tau), abs=1e-8)
    mass = quad(lambda e: float(pdf_eta(s, np.array([e]))[0]), 0.0, s.eta_max,
                epsabs=1e-13, epsrel=1e-13, limit=100)[0]
    assert mass == pytest.approx(1.0, abs=1e-10)


def test_scaled_samples_match_contracted_points(bump3):
    """Draws from scale_profile(p, eps) and Mobius contractions eps (x) Z of
    draws from p share one radial law, the exact CDF of the scaled profile.

    The scalar product is radial, so the contracted points lie on one axis.
    Bounds are Kolmogorov critical values at alpha = 1e-3, so a correct law
    fails each comparison with probability 1e-3.
    """
    rng = np.random.default_rng(77)
    eps = 0.4
    m = k = 10**5
    scaled = scale_profile(bump3, eps)
    eta_direct = _sample_eta_many(scaled, open_uniforms(rng.random(m)))
    radii = np.tanh(0.5 * _sample_eta_many(bump3, open_uniforms(rng.random(k))))
    contracted = mobius_scalar_raw(eps, radii[:, None] * np.array([1.0, 0.0, 0.0]))
    eta_contracted = 2.0 * np.arctanh(np.linalg.norm(contracted, axis=1))
    assert ks_2samp(eta_direct, eta_contracted).statistic < ks_critical(1e-3, m, k)
    exact = lambda e: cdf_eta(scaled, e)
    assert kstest(eta_direct, exact).statistic < ks_critical(1e-3, m)
    assert kstest(eta_contracted, exact).statistic < ks_critical(1e-3, k)


def test_second_moment_monte_carlo(bump3):
    rng = np.random.default_rng(8)
    etas = _sample_eta_many(bump3, rng.random(10**6))
    mc = float(np.mean(etas**2 / 3.0))
    se = float(np.std(etas**2 / 3.0, ddof=1)) / 1000.0
    assert abs(limit_time(bump3) - mc) < 3.0 * se


def test_limit_time_definition(bump3):
    assert limit_time(bump3) == pytest.approx(second_moment(bump3) / 3.0, rel=1e-14)
    tiny = make_bump(1e-3, 3)
    assert limit_time(tiny) < 1e-6


def test_limit_time_scaling(bump3):
    for eps in (0.5, 0.1):
        assert limit_time(scale_profile(bump3, eps)) == pytest.approx(
            eps**2 * limit_time(bump3), rel=1e-8)


def test_mean_eta_positive(bump3):
    assert 0.0 < mean_eta(bump3) < 1.0


def test_table_profile_roundtrip(bump3):
    grid = np.linspace(0.0, 1.0, 200)
    table = make_table(grid, bump3.g(grid), 3)
    xs = np.linspace(0.05, 0.95, 17)
    assert float(np.max(np.abs(table.g(xs) - bump3.g(xs)))) < 1e-5
    assert table.g(np.array([1.2]))[0] == 0.0


def test_profile_from_config():
    p = profile_from_config({"family": "bump", "eta_max": 0.8, "dim": 2})
    assert p.eta_max == 0.8 and p.dim.n == 2
    grid = list(np.linspace(0.0, 1.0, 32))
    vals = list(np.exp(-np.linspace(0.0, 1.0, 32) ** 2) * (np.linspace(0, 1, 32) < 0.9))
    t = profile_from_config({"family": "table", "etas": grid, "values": vals, "dim": 3})
    assert t.dim.n == 3
    with pytest.raises(ValueError):
        profile_from_config({"family": "bump", "eta_max": 1.0, "dim": 3, "extra": 1})
    with pytest.raises(ValueError):
        profile_from_config({"family": "gaussian", "dim": 3})


def test_normalization_invariant_after_scaling(bump2):
    s = scale_profile(bump2, 0.2)
    area = sphere_area(2)
    mass = quad(lambda e: area * float(s.g(np.array([e]))[0]) * math.sinh(e), 0.0,
                s.eta_max, epsabs=1e-13, epsrel=1e-13, limit=100)[0]
    assert mass == pytest.approx(1.0, abs=1e-10)


def _invert_cdf_searchsorted(table, u):
    """The binary-search inverter that the guide replaced, kept as the oracle
    of _invert_cdf, written as plain formulas: the same cell, the same start
    (the inverse cubic, built here from the table's nodes and slopes, or in
    the first cell the smaller root of the cubic's s^2 and s^3 terms), the
    same clamped Newton step, and in flagged cells the same further steps,
    each draw's until its move is 0 or no smaller than its last one."""
    x, c, total = table.interp.x, table.interp.c, table.total
    y = np.append(c[3], total)
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = 3.0 * np.diff(x) / np.diff(y)
        inv = 1.0 / table.slopes
        inv = np.minimum(inv, np.append(cut, np.inf))
        inv = np.minimum(inv, np.append(np.inf, cut))
        # the Hermite cubic of x against y with the slopes inv
        dy, slope = np.diff(y), np.diff(x) / np.diff(y)
        tt = (inv[:-1] + inv[1:] - 2 * slope) / dy
        a3, a2, a1 = tt / dy, (slope - inv[:-1]) / dy - tt, inv[:-1]
    uu = u * total
    i = np.searchsorted(c[3], uu, side="right") - 1  # c[3] holds the left node values
    width = x[i + 1] - x[i]
    c0, c1, c2, t = c[0, i], c[1, i], c[2, i], uu - c[3, i]
    s = ((a3[i] * t + a2[i]) * t + a1[i]) * t
    first = i == 0
    with np.errstate(divide="ignore"):
        s[first] = np.minimum(np.cbrt(t[first] / max(c[0, 0], 0.0)),
                              np.sqrt(t[first] / max(c[1, 0], 0.0)))

    def step(s):
        c0s = c0 * s
        p = c0s + c1
        q = p * s + c2
        return np.clip(s - (q * s - t) / np.maximum((c0s + p) * s + q, 1e-300), 0.0, width)

    s = step(s)
    going, last = table.flagged[i], np.inf
    while going.any():
        new = step(s)
        move = np.abs(new - s)
        s = np.where(going, new, s)
        going &= (move < last) & (move > 0.0)
        last = move
    return x[i] + s


@pytest.mark.parametrize("n", [2, 3, 5])
def test_scaled_profile_normaliser_is_one(n):
    """The scaled shape carries the Jacobian eps^-n of eta -> eps*eta, so the
    contracted radial measure has mass 1 without a normaliser of its own; a
    wrong power would leave a mass of eps^k."""
    p = make_bump(1.0, n)
    for eps in (0.3, 1.0 / 16.0, 1e-4):
        scaled = scale_profile(p, eps)
        mass = integrate_adaptive(lambda e: pdf_eta(scaled, e), scaled.eta_max,
                                  abs_tol=1e-15, rel_tol=1e-15)
        assert abs(mass - 1.0) < 1e-13


def _zero_run_profile():
    """A table profile that vanishes on [0.3, 0.6]: its CDF repeats one node
    value across thousands of cells."""
    etas = np.linspace(0.0, 1.0, 41)
    values = np.where((etas >= 0.3) & (etas <= 0.6), 0.0, np.exp(-etas))
    return make_table(etas, values, 3)


_INVERSION_TABLES = {
    "bump2": lambda: make_bump(1.0, 2)._cdf_interp(),
    "bump3": lambda: make_bump(1.0, 3)._cdf_interp(),
    "bump5": lambda: make_bump(1.0, 5)._cdf_interp(),
    "bump3-eps-1/sqrt1000": lambda: scale_profile(make_bump(1.0, 3),
                                                  1.0 / math.sqrt(1000))._cdf_interp(),
    "bump3-eps-1e-4": lambda: scale_profile(make_bump(1.0, 3), 1e-4)._cdf_interp(),
    "angle4": lambda: walk_sim._angle_table(4),
    "angle5": lambda: walk_sim._angle_table(5),
    "angle7": lambda: walk_sim._angle_table(7),
    "zero-run": lambda: _zero_run_profile()._cdf_interp(),
}


@pytest.mark.parametrize("name", sorted(_INVERSION_TABLES))
def test_guide_inversion_matches_binary_search_bitwise(name):
    """The guide inverter gives every draw bitwise what the binary search
    gives: on 10^6 random draws, at the extreme draws 2^-54 and 1 - 2^-53,
    at every u whose u*total lands exactly on a node value, and at the
    neighbours of those u and of every bucket edge of the guide."""
    table = _INVERSION_TABLES[name]()
    lo, total, m = table.interp.c[3], table.total, table.guide.size
    u = np.random.default_rng(2024).random(10**6)
    near = np.concatenate([lo[1:] / total, np.arange(1, m) / m])
    near = np.concatenate([near, np.nextafter(near, 0.0), np.nextafter(near, 1.0)])
    on_node = near[np.isin(near * total, lo)]
    u = np.concatenate([u, [2.0**-54, 1.0 - 2.0**-53], near, on_node])
    u = u[(u > 0.0) & (u < 1.0)]
    assert on_node.size > 0.5 * lo.size  # most node values are hit exactly
    if name == "zero-run":
        assert np.count_nonzero(np.diff(lo) == 0.0) > 1000
    got = _invert_cdf(table, u)
    want = _invert_cdf_searchsorted(table, u)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    # the draws' array shape does not matter
    block = u[:1000].reshape(10, 100)
    assert np.array_equal(_invert_cdf(table, block), got[:1000].reshape(10, 100))


@pytest.mark.parametrize("name", ["bump2", "bump3", "bump5", "table2"])
def test_first_cell_draws_are_roots_of_the_cubic(name):
    """In the first cell the density vanishes like eta^{n-1}, and a draw u far
    below that cell's mass m (1.4e-7 for the n = 2 bump, 1.3e-19 for n = 5)
    lies far above the secant guess.  For u from 1e-15 m up to m (which
    holds u from 1e-15 up to m) the draw is the root of the cell's cubic to
    1e-12 relative, against bisection; the secant start was up to 1 629
    times the root at u = 1e-15."""
    p = eleven_point_table(2) if name == "table2" else make_bump(1.0, int(name[-1]))
    table = p._cdf_interp()
    c, width, total = table.interp.c[:, 0], table.interp.x[1], table.total
    assert c[3] == 0.0 and c[2] == 0.0  # the cubic of cell 0 starts at 0 with slope 0
    uu = table.interp.c[3, 1] * np.geomspace(1e-15, 1.0, 301)
    a, b = np.zeros_like(uu), np.full_like(uu, width)
    for _ in range(200):
        mid = 0.5 * (a + b)
        up = ((c[0] * mid + c[1]) * mid + c[2]) * mid + c[3] >= uu
        b, a = np.where(up, mid, b), np.where(up, a, mid)
    got = _invert_cdf(table, uu / total)
    assert float(np.max(np.abs(got / b - 1.0))) <= 1e-12


_ROOT_TABLES = {**_INVERSION_TABLES,
                "table2": lambda: eleven_point_table(2)._cdf_interp(),
                "table3": lambda: eleven_point_table(3)._cdf_interp()}


def _assert_roots_of_their_cell_cubic(table, u):
    """Every draw of u is the root of its cell's cubic to 2e-15 relative,
    against 200 bisection steps on c0 s^3 + c1 s^2 + c2 s = u*total - lo."""
    x, c, total = table.interp.x, table.interp.c, table.total
    uu = u * total
    i = np.searchsorted(c[3], uu, side="right") - 1
    c0, c1, c2, rhs = c[0, i], c[1, i], c[2, i], uu - c[3, i]
    a, b = np.zeros_like(uu), x[i + 1] - x[i]
    mid, f = np.empty_like(uu), np.empty_like(uu)
    for _ in range(200):
        # mid = 0.5 (a + b) and f = ((c0 mid + c1) mid + c2) mid, in place
        np.add(a, b, out=mid)
        mid *= 0.5
        np.multiply(c0, mid, out=f)
        f += c1
        f *= mid
        f += c2
        f *= mid
        up = f >= rhs
        np.copyto(b, mid, where=up)
        np.copyto(a, mid, where=~up)
    got = _invert_cdf(table, u)
    assert float(np.max(np.abs(got / (x[i] + b) - 1.0))) <= 2e-15


_EXTREME_DRAWS = [2.0**-54, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 1.0 - 1e-12]


@pytest.mark.parametrize("name", sorted(_ROOT_TABLES))
def test_draws_are_roots_of_their_cell_cubic(name):
    """Every draw is the root of its cell's cubic to 2e-15 relative, against
    200 bisection steps on c0 s^3 + c1 s^2 + c2 s = u*total - lo: at 64
    fractions of every cell's mass and at u = 2^-54, 1 - 2^-53, 1 - 2^-52 and
    1 - 1e-12.  One Newton step from the inverse cubic meets this outside the
    flagged cells; inside them the draws take further steps.  The four steps
    from the secant guess that came before stopped short of the root where
    the density vanishes: by 1.4e-4 (n = 4) and 4.0e-5 (n = 5) at u = 1 - 2^-53
    in the last angle cell, where it vanishes like (pi - theta)^(n-2), and by
    2.2e-2 in the second cell of the n = 7 angle table."""
    table = _ROOT_TABLES[name]()
    lo, hi = table.interp.c[3], np.append(table.interp.c[3, 1:], table.total)
    u = ((lo[:, None] + (hi - lo)[:, None] * ((np.arange(64) + 0.5) / 64)) / table.total).ravel()
    # a cell of zero mass gives one u 64 times
    u = np.unique(np.concatenate([u, _EXTREME_DRAWS]))
    _assert_roots_of_their_cell_cubic(table, u[(u > 0.0) & (u < 1.0)])


@pytest.mark.parametrize("points,n", [(201, 2), (201, 3), (201, 5), (401, 3)])
def test_rough_table_draws_are_roots_of_their_cell_cubic(points, n):
    """The 201- and 401-point sawtooth tables, their values alternating 0.1
    and 1.0, converge at fourth order and meet _CDF_TOL at 102 400 and
    204 800 cells, within _CDF_CELLS.  A budget of 8 levels stopped them at
    51 200 and 102 400 cells (3.2e-12 and 2.6e-11 apart at n = 3), so they
    built but could not be sampled.  Their draws, 10^5 at random and the
    extreme ones, are roots of their cell's cubic."""
    etas = np.linspace(0.0, 1.0, points)
    table = make_table(etas, np.where(np.arange(points) % 2, 1.0, 0.1), n)._cdf_interp()
    assert table.interp.x.size - 1 <= radial_density._CDF_CELLS
    u = np.random.default_rng(points + n).random(10**5)
    _assert_roots_of_their_cell_cubic(table, np.concatenate([u, _EXTREME_DRAWS]))


_ROUGH_401 = ("import numpy as np\n"
              "from hyperwalk import make_table\n"
              "etas = np.linspace(0.0, 1.0, 401)\n"
              "table = make_table(etas, np.where(np.arange(401) % 2, 1.0, 0.1), 3)._cdf_interp()\n")


def _fresh_peak_mib(code):
    """VmHWM, in MiB, of a fresh interpreter that runs code: the peak of that
    process's own memory map (ru_maxrss would keep the test runner's
    resident size, which the child had before its exec)."""
    code += ("print(next(l.split()[1] for l in open('/proc/self/status')\n"
             "           if l.startswith('VmHWM:')))\n")
    src = str(Path(radial_density.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout) / 1024.0  # VmHWM is in kB


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_rough_table_cdf_peaks_below_200_mib():
    """The 401-point sawtooth's CDF table, 204 800 cells at its last level,
    builds in a fresh interpreter within 200 MiB of resident memory: its
    measure is evaluated on 4 096 cells' nodes at a time.  Evaluated on all
    of a level's nodes at once it peaked at about 320 MiB."""
    assert _fresh_peak_mib(_ROUGH_401) < 200.0


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_rough_table_guide_peaks_below_128_mib():
    """The same table's cells, step-miss flags and guide of 2^21 buckets
    build within 128 MiB: the flags take _SLICE cells and the guide _SLICE
    buckets at a time.  With (cells, 4) temporaries and full-size bucket
    arrays they peaked at about 161 MiB."""
    code = _ROUGH_401 + "table.cells, table.flagged, table.guide\n"
    assert _fresh_peak_mib(code) < 128.0


def test_draws_that_do_not_converge_are_a_hard_error(monkeypatch):
    """A draw in a flagged cell that is still moving after _MAX_STEPS further
    Newton steps raises instead of returning a point short of its root."""
    table = make_bump(1.0, 2)._cdf_interp()
    lo = table.interp.c[3]
    u = (lo[1] + (lo[2] - lo[1]) * (np.arange(64) + 0.5) / 64) / table.total
    assert table.flagged[1]
    _invert_cdf(table, u)
    monkeypatch.setattr(radial_density, "_MAX_STEPS", 1)
    with pytest.raises(RuntimeError, match="Newton steps"):
        _invert_cdf(table, u)


@pytest.mark.parametrize("n", [2, 3])
def test_table_profile_cdf_converges_at_its_edge(n, monkeypatch):
    """A table profile ends at a nonzero density (1.22 just below eta_max for
    the 11-point table at n = 3), so the CDF table's last slope must be the
    density's left limit, not g(eta_max) = 0.  With the zero slope the
    doubling stopped at its cap with levels 9e-6 apart, and the table was
    5.5e-6 off the quadrature CDF just below eta_max."""
    p = eleven_point_table(n)
    built = []

    class Recording(CubicHermite):
        def __init__(self, x, y, d):
            super().__init__(x, y, d)
            built.append(self)

    monkeypatch.setattr(radial_density, "CubicHermite", Recording)
    p._cdf_interp()
    # the doubling stopped on its criterion, in fewer than 8 levels
    assert len(built) < 8
    last, prev = built[-1], built[-2]
    assert float(np.max(np.abs(prev(last.x[:-1]) - last.c[3]))) < radial_density._CDF_TOL
    for gap in (1e-5, 2e-5, 3e-5):
        eta = p.eta_max - gap
        exact = integrate_adaptive(lambda e: pdf_eta(p, e), eta,
                                   abs_tol=1e-15, rel_tol=1e-15)
        assert abs(cdf_eta(p, eta) - exact) < 1e-12


def test_table_cdf_on_knot_aligned_grid_meets_its_tolerance(monkeypatch):
    """The zero-run table's pchip knots at multiples of 0.025, where its
    density meets 0, are nodes of every level of the CDF grid, so the
    doubling converges at fourth order and stops on _CDF_TOL in fewer than 8
    levels.  With the knots inside cells of a uniform grid the levels were
    still 1.5e-11 apart after 8."""
    p = _zero_run_profile()
    built = []

    class Recording(CubicHermite):
        def __init__(self, x, y, d):
            super().__init__(x, y, d)
            built.append(self)

    monkeypatch.setattr(radial_density, "CubicHermite", Recording)
    p._cdf_interp()
    assert len(built) < 8
    last, prev = built[-1], built[-2]
    assert float(np.max(np.abs(prev(last.x[:-1]) - last.c[3]))) < radial_density._CDF_TOL
    assert all(np.isin(p.knots, b.x).all() for b in built)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_table_normalisation_does_not_depend_on_its_scale(n):
    """The values of a table are taken up to scale: from 1e-20 to 1e20 times
    the 11-point table, the density, the moments and the CDF's total stay
    within 1e-14 of the unscaled table's (up to 6e-6 off at 1e-10 when the
    normaliser's absolute tolerance saw the small values)."""
    etas = np.linspace(0.0, 1.0, 11)
    values = np.cos(1.5 * etas) ** 2 * (1.0 - etas) + 0.05
    ref = eleven_point_table(n)
    grid = np.linspace(0.0, 1.0, 201)
    for k in range(-20, 21, 5):
        p = make_table(etas, values * 10.0**k, n)
        np.testing.assert_allclose(p.g(grid), ref.g(grid), rtol=0.0, atol=1e-14)
        for f in (mean_eta, second_moment):
            assert f(p) == pytest.approx(f(ref), rel=0.0, abs=1e-14)
        assert p._cdf_interp().total == pytest.approx(ref._cdf_interp().total, rel=0.0, abs=1e-14)


@pytest.mark.parametrize("points", [41, 101])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_rough_tables_normalise(points, n):
    """A sawtooth table, its values alternating 0.1 and 1.0, is a cubic
    between its knots and kinked at each.  The normaliser and both moments
    put their panel edges at the knots, so they agree with quad summed over
    the knot intervals to 1e-14.  On uniform panels, which cut across the
    kinks, the normaliser raised a QuadratureError at its 15-level cap."""
    etas = np.linspace(0.0, 1.0, points)
    p = make_table(etas, np.where(np.arange(points) % 2, 1.0, 0.1), n)
    area = sphere_area(n)

    def raw(k):
        def f(e):
            return e**k * area * float(p._shape(np.array([e]))[0]) * math.sinh(e) ** (n - 1)
        return math.fsum(quad(f, lo, hi, epsabs=1e-17, epsrel=1.2e-14)[0]
                         for lo, hi in zip(etas[:-1], etas[1:]))

    mass = raw(0)
    assert p.norm_const == pytest.approx(mass, rel=1e-14, abs=0.0)
    assert mean_eta(p) == pytest.approx(raw(1) / mass, rel=1e-14, abs=0.0)
    assert second_moment(p) == pytest.approx(raw(2) / mass, rel=1e-14, abs=0.0)


def test_cdf_table_that_cannot_converge_is_hard_error():
    """A density with a jump inside a cell of every level converges at first
    order, so the last level within _CDF_CELLS cells is still far from
    _CDF_TOL and the table raises instead of returning."""
    with pytest.raises(QuadratureError):
        radial_density._cdf_table(lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0), 1.0)


def test_cdf_table_of_more_intervals_than_its_budget_still_doubles(monkeypatch):
    """A table whose first level already has more than _CDF_CELLS cells still
    compares two levels, and returns where they agree."""
    monkeypatch.setattr(radial_density, "_CDF_CELLS", 1)
    table = radial_density._cdf_table(np.ones_like, 1.0)
    assert table.interp.x.size - 1 == 512


@pytest.mark.parametrize("kind,n", [("angle", 4), ("angle", 5), ("angle", 7), ("angle", 12),
                                    ("angle", 17), ("bump", 2), ("bump", 3), ("bump", 5)])
def test_edge_slope_moves_no_table_whose_density_vanishes_there(kind, n, monkeypatch):
    """The last node's slope is the density's left limit at the table's end.
    Where the density vanishes there, as the angle density sin^(n-2) theta
    does at pi and the bump does at eta_max, the table keeps every bit of
    the cubic that the slope at the end itself gives."""
    def table():
        if kind == "angle":
            return radial_density._cdf_table(lambda th: np.sin(th) ** (n - 2), math.pi)
        return make_bump(1.0, n)._cdf_interp()

    left = table()
    monkeypatch.setattr(radial_density.math, "nextafter", lambda x, toward: x)
    assert np.array_equal(left.interp.c, table().interp.c)


def _assert_same_cubic(got, want, x):
    """Coefficients and values bitwise equal, at 10^4 random points of [x[0],
    x[-1]] and at every node."""
    assert np.array_equal(got.x, want.x)
    assert np.array_equal(got.c, want.c)
    pts = np.random.default_rng(7).uniform(x[0], x[-1], 10**4)
    pts = np.concatenate([pts, x, np.nextafter(x[1:], -np.inf)])
    assert np.array_equal(got(pts), want(pts))


@pytest.mark.parametrize("name", ["bump2", "bump3", "bump5", "table11"])
def test_cdf_tables_match_cubic_hermite_spline_bitwise(name, monkeypatch):
    """Every cubic the CDF doubling builds, the final table among them, is
    bitwise scipy's CubicHermiteSpline on the same values and slopes, so the
    draws and walk outputs did not move when the package dropped scipy."""
    built = []

    class Recording(CubicHermite):
        def __init__(self, x, y, d):
            super().__init__(x, y, d)
            built.append((x, y, d, self))

    monkeypatch.setattr(radial_density, "CubicHermite", Recording)
    p = eleven_point_table(3) if name == "table11" else make_bump(1.0, int(name[-1]))
    table = p._cdf_interp()
    assert table.interp is built[-1][3]
    for x, y, d, got in built:
        _assert_same_cubic(got, CubicHermiteSpline(x, y, d, extrapolate=False), x)


def test_pchip_matches_pchip_interpolator_bitwise():
    """The table profiles' pchip slopes and cubics are bitwise scipy's: on the
    11-point table, on data with flat runs, sign changes and both end-slope
    fixes, and on random data at uneven nodes."""
    rng = np.random.default_rng(3)
    even = np.linspace(0.0, 1.0, 11)
    uneven = np.cumsum(rng.uniform(0.1, 1.0, 40))
    shaped = np.array([0.0, 0.1, 0.6, 0.6, 3.0, 3.0, 2.0, 0.2, 1.0, 0.5, 0.6])
    cases = [(even, np.cos(1.5 * even) ** 2 * (1.0 - even) + 0.05), (even, shaped),
             (uneven, rng.uniform(0.0, 1.0, 40)), (uneven, np.exp(-uneven / 10.0))]
    for x, y in cases:
        want = PchipInterpolator(x, y, extrapolate=False)
        _assert_same_cubic(CubicHermite(x, y, pchip_slopes(x, y)), want, x)
    # the shaped data takes both end fixes: at the left end the three-point
    # slope has the wrong sign and becomes 0, at the right end it is more
    # than three times the end secant, whose sign differs from the next one
    d = pchip_slopes(even, shaped)
    assert d[0] == 0.0 and d[-1] == 3.0 * ((shaped[-1] - shaped[-2]) / (even[-1] - even[-2]))
