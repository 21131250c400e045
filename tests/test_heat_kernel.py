import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from hyperwalk import (fh_inverse_grid, fh_transform, heat_kernel, hk, hk_even, hk_fourier,
                       hk_odd, psi_clt, sphere_area)
from hyperwalk.quadrature import QuadratureError, cumulative_gl

from oracles import spline_profile


def classical_h3(t, etas):
    etas = np.asarray(etas, dtype=float)
    shape = np.where(etas > 0, etas / np.sinh(np.maximum(etas, 1e-300)), 1.0)
    return (4 * math.pi * t) ** -1.5 * shape * np.exp(-t - etas**2 / (4 * t))


def test_hk_fourier_values():
    assert hk_fourier(1.0, 0.0, 3) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert hk_fourier(1.0, 0.0, 2) == pytest.approx(math.exp(-0.25), rel=1e-15)
    # second-kind normalization
    t, lam = 0.7, 1.3
    ratio = hk_fourier(t, lam, 5) / hk_fourier(t, 0.0, 5)
    assert ratio == pytest.approx(math.exp(-lam * lam * t), rel=1e-14)
    with pytest.raises(ValueError):
        hk_fourier(-1.0, 0.0, 3)
    # NaN passes a 't <= 0' guard; every kernel must still reject it
    for kernel, arg in ((hk_fourier, 3), (hk_odd, 1), (hk_even, 1)):
        with pytest.raises(ValueError):
            kernel(math.nan, 0.5, arg)


def test_hk_odd_m1_closed_form():
    etas = np.array([0.0, 0.2, 1.0, 2.5, 5.0])
    for t in (0.3, 1.0, 2.0):
        assert np.allclose(hk_odd(t, etas, 1), classical_h3(t, etas),
                           rtol=1e-13, atol=1e-300)


def test_hk_odd_m2_nested_fd_oracle():
    """Apply (-(1/sinh) d/ds)^2 to the Gaussian by nested central differences."""
    t = 0.8
    tau = 2.0 * t
    h = 1e-4

    def gauss(s):
        return np.exp(-s * s / (2.0 * tau))

    def op(f):
        return lambda s: -(f(s + h) - f(s - h)) / (2.0 * h * np.sinh(s))

    twice = op(op(gauss))
    pref = math.exp(-4.0 * t) / ((2 * math.pi) ** 2 * math.sqrt(4 * math.pi * t))
    for eta in (0.4, 1.0, 2.2):
        assert hk_odd(t, eta, 2) == pytest.approx(pref * float(twice(eta)), rel=1e-6)


def mckean_h2(t, eta):
    """McKean's n = 2 kernel, sqrt(2) e^{-t/4} (4 pi t)^{-3/2} times the integral
    over s > eta of s e^{-s^2/4t} / sqrt(cosh s - cosh eta), by scipy quad with
    s = eta + u^2 and cosh s - cosh eta = 2 sinh((s+eta)/2) sinh(u^2/2); the
    integrand is cut where the Gaussian is below e^{-100} of its peak."""
    def f(u):
        s = eta + u * u
        return 2.0 * u * s * math.exp(-s * s / (4.0 * t)) / math.sqrt(
            2.0 * math.sinh(0.5 * (s + eta)) * math.sinh(0.5 * u * u))

    val, _ = quad(f, 0.0, math.sqrt(20.0 * math.sqrt(t)), epsabs=0.0, epsrel=1e-13,
                  limit=200)
    return math.sqrt(2.0) * math.exp(-t / 4.0) * (4.0 * math.pi * t) ** -1.5 * val


def test_hk_even_m1_mckean_oracle():
    for t in (0.5, 1.5):
        etas = np.array([0.0, 0.3, 1.2, 3.0])
        ref = np.array([mckean_h2(t, e) for e in etas])
        assert np.allclose(hk_even(t, etas, 1), ref, rtol=1e-10)


def test_small_eta_series_branch_continuity(monkeypatch):
    # at each eta around the series/direct switch of order m, force the series
    # branch and then the direct branch; the two must agree there.  The
    # series converges for eta < pi and takes _series_order(m) terms, so it is
    # exact to ~(eta/pi)^order here; the 1e-8 leaves room for the
    # cancellation among the singular terms of the direct branch.
    for t in (0.4, 1.1):
        for m in range(1, 8):
            switch = heat_kernel._small_eta(m)
            for eta in (0.999 * switch, switch, 1.001 * switch):
                monkeypatch.setattr(heat_kernel, "_small_eta", lambda m, e=eta: 2.0 * e)
                series = hk_odd(t, eta, m)
                monkeypatch.setattr(heat_kernel, "_small_eta", lambda m, e=eta: 0.5 * e)
                direct = hk_odd(t, eta, m)
                monkeypatch.undo()
                assert series == pytest.approx(direct, rel=1e-8)


def hk_odd_mp(t, eta, m):
    """hk_odd as a 60-digit mpmath sum of the same order-m terms, with the same
    prefactor and Gaussian: no series, and no cancellation left to see."""
    import mpmath

    with mpmath.workdps(60):
        e, t = mpmath.mpf(eta), mpmath.mpf(t)
        tau = 2 * t
        coth, csch = mpmath.coth(e), mpmath.csch(e)
        terms = mpmath.fsum(coef * e**a * coth**b * csch**c * tau**-d
                            for (a, b, c, d), coef in heat_kernel._odd_terms(m))
        pref = mpmath.exp(-m * m * t) / ((2 * mpmath.pi) ** m * mpmath.sqrt(2 * mpmath.pi * tau))
        return float(pref * terms * mpmath.exp(-e * e / (2 * tau)))


def test_hk_odd_against_60_digit_sum_around_each_switch():
    """Both branches are accurate where they meet: below the switch of order
    m the series answers, at and above it the direct sum.  At the same
    multiples of a switch fixed at 0.125 for every m, and the same times,
    hk_odd missed by 1.4e-9 at m = 4, 7e-5 at m = 6 and 6e-2 at m = 7."""
    for m in range(1, 8):
        switch = heat_kernel._small_eta(m)
        etas = switch * np.array([0.5, 0.9, 0.999, 1.0, 1.001, 1.1, 1.5])
        for t in (0.025, 0.4, 1.1, 5.0):
            want = np.array([hk_odd_mp(t, e, m) for e in etas])
            assert hk_odd(t, etas, m) == pytest.approx(want, rel=1e-10, abs=0.0)


def test_series_table_exact_coefficients():
    # n = 3: the prefactor is eta csch(eta) / tau, whose Taylor coefficients
    # are (2 - 4^k) B_2k / (2k)!; the table must hold them correctly rounded.
    exact = [Fraction(1), Fraction(-1, 6), Fraction(7, 360), Fraction(-31, 15120),
             Fraction(127, 604800), Fraction(-73, 3421440),
             Fraction(1414477, 653837184000), Fraction(-8191, 37362124800)]
    table = heat_kernel._series_table(heat_kernel._odd_terms(1))
    expect = np.zeros(table.shape[0])
    expect[::2] = [float(q) for q in exact]
    assert np.array_equal(table[:, 1], expect)
    assert not np.any(table[:, 0])
    # csch alone keeps its 1/eta pole: the exact cancellation check must fire
    with pytest.raises(AssertionError):
        heat_kernel._series_table((((0, 0, 1, 0), 1),))


def _run_fresh(code: str):
    """Run code in a fresh interpreter that imports this package; assert exit 0."""
    src = str(Path(heat_kernel.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_kernels_do_not_load_sympy():
    _run_fresh("import sys\n"
               "from hyperwalk import hk\n"
               "for n in range(2, 10):\n"
               "    hk(0.5, [0.0, 0.05, 1.0], n)\n"
               "assert 'sympy' not in sys.modules, 'sympy was imported'\n")


def test_cold_start_loads_neither_numpy_random_nor_polynomial():
    """Importing the CLI and a first small-eta kernel call leave numpy.random
    (only the gyro property suite seeds a generator) and numpy.polynomial out
    of the process: each costs import time and resident memory on every
    command."""
    _run_fresh("import sys\n"
               "import hyperwalk.cli\n"
               "from hyperwalk.heat_kernel import hk\n"
               "hk(1.0, [0.0, 1.0], 3)\n"
               "loaded = [m for m in ('numpy.random', 'numpy.polynomial') if m in sys.modules]\n"
               "assert not loaded, loaded\n")


def test_positivity_and_even_monotone_decay():
    etas = np.linspace(0.0, 5.0, 60)
    for n in (2, 3, 5):
        vals = hk(1.0, etas, n)
        assert np.all(vals > 0.0)
    even = hk_even(1.0, etas, 1)
    assert np.all(np.diff(even) < 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", range(1, 9))
def test_kernels_raise_no_floating_point_warning(m):
    """Every validated order, odd and even n, from short to long times: the
    even descent reaches s past 40 at t = 20, where sinh(s)^(b+c) of the
    high-order terms overflows, and s near 400 at t = 1000, where cosh(s)^b
    overflows too; no warning reaches the caller."""
    etas = np.linspace(0.0, 4.0, 33)
    for t in (0.05, 1.0, 20.0, 100.0, 300.0, 1000.0):
        assert np.all(np.isfinite(hk_odd(t, etas, m)))
        assert np.all(np.isfinite(hk_even(t, etas, m)))


@pytest.mark.parametrize("n", [2, 4, 10, 14, 16])
def test_long_time_kernel_matches_spectral_inverse(n):
    """At long times the space side agrees with the inverse of exp(-(lambda^2
    + rho^2) t) to 1e-10 relative where that is nonzero, and is exactly 0
    where it underflows (every eta for n >= 10 at t >= 100)."""
    etas = np.linspace(0.0, 4.0, 9)
    for t in (20.0, 100.0, 300.0, 1000.0):
        ref = fh_inverse_grid(lambda lam: hk_fourier(t, lam, n), etas, n)
        vals = hk(t, etas, n)
        nz = ref != 0.0
        np.testing.assert_allclose(vals[nz], ref[nz], rtol=1e-10, atol=0.0)
        np.testing.assert_array_equal(vals[~nz], 0.0)


@pytest.mark.parametrize("n", [2, 4, 10, 16])
def test_even_kernel_array_is_its_scalar_calls(n):
    """Each radius stops at its own first agreeing level, so an array call
    is bitwise the scalar calls: every level sums a radius's own contiguous
    (panels, nodes) row, in the same order whatever the other radii."""
    etas = np.linspace(0.0, 4.0, 41)
    for t in (0.05, 1.0, 100.0):
        np.testing.assert_array_equal(hk(t, etas, n), [hk(t, e, n) for e in etas])


@pytest.mark.parametrize("n,count", [(10, 3001), (12, 800)])
def test_even_kernel_on_a_fine_grid(n, count):
    """Every radius of these grids converges alone, but some radius misses the
    stop tolerance at each doubling; a shared stop level raised
    QuadratureError here."""
    etas = np.linspace(0.0, 1.2, count)
    vals = hk(1.0, etas, n)
    assert np.all(np.isfinite(vals)) and np.all(vals > 0.0)
    picks = np.arange(0, count, 97)
    np.testing.assert_array_equal(vals[picks], [hk(1.0, etas[i], n) for i in picks])


def test_even_kernel_without_agreeing_levels_is_hard_error(monkeypatch):
    """No panel doubling left to agree with: a QuadratureError, not the last
    level's value."""
    monkeypatch.setattr(heat_kernel, "_EVEN_DOUBLINGS", 0)
    with pytest.raises(QuadratureError):
        hk_even(1.0, np.array([0.0, 1.0]), 1)


@pytest.mark.parametrize("n,tol", [(2, 1e-7), (3, 1e-8), (4, 1e-8), (5, 1e-8)])
def test_fourier_pair(n, tol):
    etas = np.linspace(0.0, 5.0, 21)
    for t in (0.5, 1.0, 2.0):
        inv = fh_inverse_grid(lambda lam: hk_fourier(t, lam, n), etas, n)
        assert float(np.max(np.abs(inv - hk(t, etas, n)))) < tol


def test_spectral_consistency_via_table_profile():
    """Transform of the kernel tabulated as a profile equals the spectral side."""
    t = 1.0
    for n, tol in ((3, 1e-8), (2, 1e-7)):
        cut = 2.0 * (n - 1) * t + 14.0 * math.sqrt(t)
        grid = np.linspace(0.0, cut, 1200)
        prof = spline_profile(grid, hk(t, grid, n), n)
        for lam in (0.0, 0.8, 2.0):
            assert fh_transform(prof, lam) == pytest.approx(
                hk_fourier(t, lam, n), abs=tol)


def test_psi_clt_definition_and_display():
    etas = np.linspace(0.0, 4.0, 17)
    for t in (0.5, 1.3):
        assert np.array_equal(psi_clt(t, etas, 3), hk(t / 2.0, etas, 3))
    # n=3 half-time form: e^{-t/2}/((2 pi)^{3/2} t^{3/2}) (eta/sinh eta) e^{-eta^2/(2t)}
    t = 0.9
    shape = np.where(etas > 0, etas / np.sinh(np.maximum(etas, 1e-300)), 1.0)
    display = (math.exp(-t / 2.0) / ((2 * math.pi) ** 1.5 * t**1.5)
               * shape * np.exp(-etas**2 / (2 * t)))
    assert np.allclose(psi_clt(t, etas, 3), display, rtol=1e-13)


def test_kernels_reject_dimensions_past_the_validated_orders():
    """The space-side kernel is validated for m <= 8, n <= 17; from n = 18
    hk and psi_clt raise instead of returning a value off by up to 6.4e-9
    relative, and the message names the validated range."""
    etas = np.array([0.5, 1.0])
    for n in (16, 17):
        assert np.all(np.isfinite(hk(1.1, etas, n))) and np.all(psi_clt(1.1, etas, n) > 0.0)
    for n in (18, 19, 25):
        for kernel in (hk, psi_clt):
            with pytest.raises(ValueError, match="dimensions 2 to 17"):
                kernel(1.1, etas, n)


def test_psi_mass_conservation():
    for n in (2, 3, 5):
        for t in (0.25, 1.0):
            hi = 2.0 * (n - 1) * t + 14.0 * math.sqrt(t) + 3.0
            grid = np.linspace(0.0, hi, 500)
            mass = cumulative_gl(
                lambda e: sphere_area(n) * psi_clt(t, e, n) * np.sinh(e) ** (n - 1),
                grid, q=8)[-1]
            assert mass == pytest.approx(1.0, abs=1e-6)


def test_semigroup_on_spectral_side():
    for lam in (0.0, 1.0, 3.0):
        assert hk_fourier(0.4, lam, 4) * hk_fourier(0.6, lam, 4) == pytest.approx(
            hk_fourier(1.0, lam, 4), rel=1e-14)


def test_spatial_semigroup_n3():
    """Convolving kernels at times t and s gives the kernel at t+s; checked on
    the spectral route through a tabulated profile."""
    t, s = 0.6, 0.9
    cut = 4.0 * (t + s) + 14.0
    grid = np.linspace(0.0, cut, 1500)
    prof_t = spline_profile(grid, hk(t, grid, 3), 3)
    prof_s = spline_profile(grid, hk(s, grid, 3), 3)
    for lam in (0.3, 1.1, 2.4):
        product = fh_transform(prof_t, lam) * fh_transform(prof_s, lam)
        assert product == pytest.approx(hk_fourier(t + s, lam, 3), abs=1e-7)
