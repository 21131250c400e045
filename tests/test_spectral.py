import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import loggamma, roots_jacobi

from hyperwalk import (fh_inverse_grid, fh_transform, hk, hk_fourier, inversion_constant,
                       llt_check, make_bump, make_table, phi_many, plancherel_density, scale_profile,
                       second_moment, spectral, variance_direct, walk_density_grid,
                       walk_transform)
from hyperwalk import radial_density
from hyperwalk.diagnostics import _llt_eta_grid
from hyperwalk.geometry import as_dim
from hyperwalk.quadrature import QuadratureError, gauss_jacobi_sym, integrate_adaptive
from hyperwalk.spectral import TruncationError

from conftest import bump_transform_envelope, eleven_point_table
from oracles import (SeriesError, convolution_profile, convolve_direct, fh_inverse_kronrod,
                     fh_transform_jacobi, phi_jacobi, phi_series, variance_jacobi)


def closed3(lam, eta):
    if eta == 0.0:
        return 1.0
    if lam == 0.0:
        return eta / math.sinh(eta)
    return math.sin(lam * eta) / (lam * math.sinh(eta))


# -- spherical function representations ---------------------------------------

def test_phi_at_origin_is_one():
    for n in (2, 3, 4, 5):
        for lam in (0.0, 1.0, 17.3):
            assert phi_many(lam, 0.0, n) == 1.0
            assert phi_series(lam, 0.0, n) == 1.0


def test_phi_integral_matches_closed_form_n3():
    for lam in (0.0, 0.7, 3.0, 12.0):
        for eta in (0.1, 0.6, 1.7, 4.0):
            assert phi_many(lam, eta, 3) == pytest.approx(
                closed3(lam, eta), abs=1e-12)


def test_phi_series_matches_closed_form_n3():
    for lam in (0.0, 0.7, 3.0, 12.0):
        for eta in (0.05, 0.2, 0.5):
            assert phi_series(lam, eta, 3) == pytest.approx(
                closed3(lam, eta), abs=1e-12)


def test_phi_representations_agree_small_radius():
    """The Jacobi rule against the series oracle where the series converges
    fastest: radii up to 0.5, down to 1e-6."""
    etas = np.concatenate([[1e-6, 1e-3], np.linspace(0.01, 0.5, 7)])
    for n in (2, 3, 4, 5, 7, 9):
        for lam in np.linspace(0.0, 20.0, 9):
            a = phi_series(lam, etas, n)
            b = phi_many(lam, etas, n)
            assert float(np.max(np.abs(a - b))) < 1e-13


def test_phi_closed_form_n3_matches_oracles():
    """The closed form of phi_many at n = 3 against 30-digit values of
    sin(lambda eta)/(lambda sinh eta), against the Jacobi-rule oracle on
    scipy's rules (whose own error against the 30-digit values is 6e-15 up to
    lambda = 50 and 2.5e-14 up to lambda = 150), and against the series for
    eta <= 0.5 and lambda <= 15 (where the series is within 3e-15)."""
    import mpmath

    lams = np.concatenate([[0.0, 1e-9], np.linspace(0.5, 20.0, 40), np.linspace(25.0, 150.0, 6)])
    etas = np.concatenate([[0.0, 1e-6, 1e-3], np.linspace(0.1, 3.0, 30)])
    got = phi_many(lams, etas, 3)
    assert got.shape == (lams.size, etas.size)
    assert np.all(got[:, 0] == 1.0) and np.all(got[0] == phi_many(0.0, etas, 3))
    np.testing.assert_array_equal(phi_many(-lams, etas, 3), got)
    with mpmath.workdps(30):
        exact = np.array([[1.0 if e == 0.0 else float(
            mpmath.mpf(e) / mpmath.sinh(e) if lam == 0.0 else
            mpmath.sin(mpmath.mpf(lam) * e) / (lam * mpmath.sinh(e)))
            for e in etas] for lam in lams])
    assert float(np.max(np.abs(got - exact))) < 1e-15
    jacobi = np.array([[1.0] + list(phi_jacobi(lam, etas[1:], 3)) for lam in lams])
    err = np.abs(got - jacobi)
    assert float(np.max(err[lams <= 50.0])) < 1e-14
    assert float(np.max(err)) < 5e-14
    small, low = etas[etas <= 0.5], lams[lams <= 15.0]
    series = phi_series(low[:, None], small, 3)
    assert float(np.max(np.abs(phi_many(low, small, 3) - series))) < 1e-14


def test_phi_series_divergence_is_hard_error():
    with pytest.raises(SeriesError):
        phi_series(1.0, 5.0, 3)  # sinh(eta/2)^2 > 1: series diverges


def test_phi_integral_doubled_nodes_oracle(monkeypatch):
    values = []
    for q in (48, 96):
        monkeypatch.setattr(spectral, "_gj_order", lambda lam, eta_max, q=q: np.full(lam.shape, q))
        values.append(phi_many(0.0, 1.0, 2))
    v1, v2 = values
    assert 0.0 < v1 < 1.0
    assert v1 == pytest.approx(v2, abs=1e-13)


def test_phi_domination_and_strict_bound():
    etas = np.linspace(0.05, 4.0, 30)
    for n in (2, 3, 5):
        phi0 = phi_many(0.0, etas, n)
        assert np.all(phi0 <= 1.0 + 1e-14)
        for lam in (0.5, 2.0, 9.0):
            vals = phi_many(lam, etas, n)
            assert np.all(np.abs(vals) <= phi0 + 1e-12)
    # |phi| strictly below 1 when lam * eta/2 > 1
    worst = 0.0
    for lam in (1.0, 4.0, 20.0):
        for eta in (2.5 / lam, 8.0 / lam, 3.0):
            worst = max(worst, abs(phi_many(lam, eta, 3)))
    assert worst < 1.0


def phi_legendre_check(lam, eta, n):
    """Odd-n evaluation through the half-integer Legendre-function reduction.

    The associated Legendre function of order 1 - n/2 and complex degree is
    evaluated through its radial integral representation (elementary for odd
    n) and reassembled with the connection constants; an oracle independent
    of both production representations.
    """
    d = as_dim(n).n
    if d % 2 == 0:
        raise ValueError("Legendre reduction is exposed for odd dimensions only")
    lam = abs(float(lam))
    eta = float(eta)
    if eta == 0.0:
        return 1.0
    rho = (d - 1) / 2.0
    k = (d - 3) // 2  # integer power: no endpoint singularity for odd n

    def integrand(s):
        return (np.cosh(eta) - np.cosh(s)) ** k * np.cos(lam * s)

    npanels = max(2, int(lam * eta / 3.0) + 1)
    radial = integrate_adaptive(integrand, eta, np.linspace(0.0, eta, npanels + 1)[1:],
                                abs_tol=1e-15, rel_tol=1e-14)
    legendre = (math.sqrt(2.0 / math.pi) * math.sinh(eta) ** (1.0 - d / 2.0)
                / math.gamma(rho) * radial)
    return (2.0 ** (rho - 0.5) * math.gamma(rho + 0.5)
            * math.sinh(eta) ** (0.5 - rho) * legendre)


def test_phi_legendre_reduction():
    assert phi_legendre_check(1.0, 0.0, 3) == 1.0
    assert phi_legendre_check(1.0, 1.0, 3) == pytest.approx(closed3(1.0, 1.0), abs=1e-13)
    rng = np.random.default_rng(4)
    for n in (3, 5):
        for _ in range(6):
            lam = float(rng.uniform(0.1, 6.0))
            eta = float(rng.uniform(0.1, 2.5))
            assert phi_legendre_check(lam, eta, n) == pytest.approx(
                phi_many(lam, eta, n), abs=1e-10)
    with pytest.raises(ValueError):
        phi_legendre_check(1.0, 1.0, 4)


def _roots_jacobi_sym(q, alpha):
    return roots_jacobi(q, alpha, alpha)


@pytest.mark.parametrize("n", range(2, 18))
def test_phi_matches_roots_jacobi_route(n, monkeypatch):
    """phi_many with the package's Jacobi rules agrees to 1e-13 with phi_many
    on scipy's Gauss-Jacobi rules, for lambda <= 150 and eta <= 3.  At n = 3,
    where phi_many is in closed form, the other side is oracles.phi_jacobi."""
    lams = np.concatenate([np.linspace(0.0, 20.0, 41), np.linspace(25.0, 150.0, 6)])
    etas = np.linspace(0.0, 3.0, 31)
    got = phi_many(lams, etas, n)
    if n == 3:
        ref = np.array([phi_jacobi(lam, etas, n) for lam in lams])
        assert float(np.max(np.abs(got - ref))) < 1e-13
        return
    monkeypatch.setattr(spectral, "_ROWS", {})
    monkeypatch.setattr(spectral, "gauss_jacobi_sym", _roots_jacobi_sym)
    assert float(np.max(np.abs(got - phi_many(lams, etas, n)))) < 1e-13


def _mp_legendre_node(q, x0):
    """A zero of P_q and its Gauss-Legendre weight in 32-digit arithmetic,
    by Newton steps on the three-term recurrence from x0."""
    import mpmath

    with mpmath.workdps(32):
        def step(x):
            p0, p1 = mpmath.mpf(1), x
            for j in range(2, q + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            return p1, q * (p0 - x * p1) / (1 - x * x)

        x = mpmath.mpf(float(x0))
        for _ in range(3):
            p, dp = step(x)
            x -= p / dp
        dp = step(x)[1]
        return x, 2 / ((1 - x * x) * dp * dp)


@pytest.mark.parametrize("q", [64, 512, 4096])
@pytest.mark.parametrize("n", [3, 9])
def test_odd_jacobi_rule_matches_mpmath(q, n):
    """For odd n the weight (1-v^2)^alpha is a polynomial: the rule is
    Gauss-Legendre with it as a factor of the weights.  Nodes agree with
    32-digit ones to 1e-16.  Near +-1 a weight's relative error is about q^2
    times its node's rounding error, so the weights are held to 1e-16 q^2
    relative (scipy's roots_jacobi misses that from q = 512 on)."""
    alpha = (n - 3) // 2
    x, w = gauss_jacobi_sym(q, float(alpha))
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    assert np.all(np.diff(x) > 0.0)
    for i in (q - 1, q - 2, q - 3, q - 1 - q // 8, q // 2, q // 2 + 1):
        xi, wi = _mp_legendre_node(q, x[i])
        wi *= (1 - xi * xi) ** alpha
        assert abs(float(x[i] - xi)) <= 1e-16
        assert abs(float((w[i] - wi) / wi)) <= 1e-16 * q * q


@pytest.mark.parametrize("n", [2, 4, 6, 9, 12])
def test_jacobi_rules_integrate_moments(n):
    """The rules of even and odd n integrate v^(2k) (1-v^2)^alpha to
    B(k + 1/2, alpha + 1) while the integrand is in their exact range."""
    alpha = (n - 3) / 2.0
    for q in (16, 48):
        x, w = gauss_jacobi_sym(q, alpha)
        for k in range(q - 2 - n // 2):
            exact = math.exp(math.lgamma(k + 0.5) + math.lgamma(alpha + 1.0)
                             - math.lgamma(k + alpha + 1.5))
            assert float(np.dot(w, x ** (2 * k))) == pytest.approx(exact, rel=1e-13)
    with pytest.raises(ValueError):
        gauss_jacobi_sym(8, 0.25)


# -- Plancherel density --------------------------------------------------------

def _plancherel_loggamma(lam, n):
    """|c(lambda)|^{-2} assembled in log space from the Gamma factors of c."""
    s = 2.0 * lam
    log_abs_c2 = 2.0 * ((3.0 - n) * math.log(2.0) + math.lgamma(n / 2.0)
                        + loggamma(1j * s).real - loggamma((n - 1) / 2.0 + 0.5j * s).real
                        - loggamma(0.5 + 0.5j * s).real)
    return np.exp(-log_abs_c2)


@pytest.mark.parametrize("n", range(2, 18))
def test_plancherel_matches_loggamma_form(n):
    lams = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(1.0, 200.0, 400)])
    got = plancherel_density(lams, n)
    assert float(np.max(np.abs(got / _plancherel_loggamma(lams, n) - 1.0))) < 1e-12
    assert plancherel_density(0.0, n) == 0.0


def test_plancherel_zero_and_positivity():
    for n in (2, 3, 4, 5):
        assert plancherel_density(0.0, n) == 0.0
        for lam in (0.01, 1.0, 300.0):
            assert plancherel_density(lam, n) > 0.0


def test_plancherel_n3_proportional_to_lambda_squared():
    lams = np.geomspace(0.1, 50.0, 25)
    ratios = np.array([plancherel_density(l, 3) / l**2 for l in lams])
    assert float(np.max(np.abs(ratios / ratios[0] - 1.0))) < 1e-10


def test_plancherel_asymptotic_slopes():
    for n in (2, 3, 4, 5):
        lo = np.array([1e-3, 3e-3, 1e-2])
        slope0 = np.polyfit(np.log(lo), np.log([plancherel_density(l, n) for l in lo]), 1)[0]
        assert slope0 == pytest.approx(2.0, abs=0.05)
        hi = np.array([100.0, 300.0, 1000.0])
        slope_inf = np.polyfit(np.log(hi), np.log([plancherel_density(l, n) for l in hi]), 1)[0]
        assert slope_inf == pytest.approx(n - 1.0, abs=0.05)


# -- transforms -----------------------------------------------------------------

def test_transform_even_in_lambda(bump3):
    for lam in (0.3, 1.7, 6.0):
        assert fh_transform(bump3, lam) == fh_transform(bump3, -lam)


def test_transform_of_point_mass_limit():
    tiny = make_bump(1e-3, 3)
    for lam in (0.0, 1.0, 5.0, 10.0):
        assert fh_transform(tiny, lam) == pytest.approx(1.0, abs=2e-5)


def test_transform_closed_form_oracle_n3(bump3):
    for lam in (0.0, 0.9, 2.6, 7.5):
        oracle = quad(lambda e: float(4 * math.pi * bump3.g(np.array([e]))[0]
                                      * math.sinh(e) ** 2 * closed3(lam, e)),
                      0.0, 1.0, epsabs=1e-14, epsrel=1e-13)[0]
        assert fh_transform(bump3, lam) == pytest.approx(oracle, abs=1e-10)
    # lambda eta_max > 64: quad takes the oscillation as its sine weight
    for lam in (80.0, 150.0):
        oracle = quad(lambda e: float(4 * math.pi / lam * bump3.g(np.array([e]))[0]
                                      * math.sinh(e)),
                      0.0, 1.0, weight="sin", wvar=lam, epsabs=1e-14, epsrel=1e-13)[0]
        assert fh_transform(bump3, lam) == pytest.approx(oracle, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 12])
@pytest.mark.parametrize("eps", [1.0, 1.0 / 16.0])
def test_transform_matches_jacobi_oracle(n, eps):
    """The Abel-table transform against phi_many integrated over the radial
    measure, for the unit bump and the bump scaled by 1/16, up to
    lambda eta_max = 300 (unit) and 150 (scaled): start levels 0-4."""
    prof = scale_profile(make_bump(1.0, n), eps)
    lams = np.concatenate([np.linspace(0.0, 40.0, 81), [80.0, 150.0, 300.0]])
    if eps != 1.0:
        # 154.4: the oracle's levels 0 and 1 agree 1e-12 away from the value
        lams = np.append(8.0 * lams, 154.4)
    err = np.abs(fh_transform(prof, lams) - fh_transform_jacobi(prof, lams))
    assert float(np.max(err)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("eps", [1.0, 0.25])
def test_variance_matches_jacobi_oracle(n, eps):
    prof = scale_profile(make_bump(1.0, n), eps)
    assert variance_direct(prof) == pytest.approx(variance_jacobi(prof), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kinked_table_matches_jacobi_oracle(n):
    """A pchip table with knots at multiples of 1/4, whose kinks the
    oracle's dyadic panels also meet at their edges, and whose value jumps to
    0 at eta_max: the Abel table's half-integer powers there (even n) and its
    knot-aligned panels converge like those of the bump."""
    prof = make_table([0.0, 0.25, 0.5, 0.75, 1.0], [1.0, 0.9, 0.6, 0.2, 0.05], n)
    lams = np.concatenate([np.linspace(0.0, 40.0, 41), [80.0, 150.0]])
    err = np.abs(fh_transform(prof, lams) - fh_transform_jacobi(prof, lams))
    assert float(np.max(err)) <= 1e-13
    assert variance_direct(prof) == pytest.approx(variance_jacobi(prof), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("n", [2, 4, 5])
def test_kinked_table_needs_two_levels(n, monkeypatch):
    """Knots at tenths, which no dyadic panel edge meets: the transform at
    lambda <= 20 and the variance stop at panel level 1, and the inner rule of
    each Abel table at its level 1, so the tables cost O(S) for S nodes."""
    etas = np.linspace(0.0, 1.0, 11)
    prof = make_table(etas, np.cos(1.5 * etas) ** 2 * (1.0 - etas), n)
    inner = []
    abel_inner = spectral._abel_inner

    def counted(p, s, m, level):
        inner.append(level)
        return abel_inner(p, s, m, level)

    monkeypatch.setattr(spectral, "_abel_inner", counted)
    fh_transform(prof, np.array([0.0, 1.0, 5.0, 20.0]))
    variance_direct(prof)
    assert sorted(key[1] for key in prof._cache if key[0] == "abel") == [0, 1]
    assert inner == [0, 1, 0, 1]


def test_round_trip_identity_n3(bump3):
    grid = np.linspace(0.05, 0.95, 10)
    rec = fh_inverse_kronrod(lambda lam: fh_transform(bump3, lam), grid, 3,
                             envelope=bump_transform_envelope(bump3), tail_tol=1e-9)
    assert float(np.max(np.abs(rec - bump3.g(grid)))) < 1e-8


def test_round_trip_identity_n2(bump2):
    grid = np.linspace(0.1, 0.9, 5)
    rec = fh_inverse_kronrod(lambda lam: fh_transform(bump2, lam), grid, 2,
                             envelope=bump_transform_envelope(bump2), tail_tol=1e-8)
    assert float(np.max(np.abs(rec - bump2.g(grid)))) < 1e-8


def test_inverse_decays_beyond_support(bump3):
    val = fh_inverse_kronrod(lambda lam: fh_transform(bump3, lam), np.array([2.5]), 3,
                             envelope=bump_transform_envelope(bump3), tail_tol=1e-8)[0]
    assert abs(val) < 1e-6


def test_truncation_failure_is_hard_error():
    with pytest.raises(TruncationError):
        fh_inverse_grid(lambda lam: 1.0, np.array([0.5]), 3)


# -- lambda arrays ------------------------------------------------------------------

def _same(batch, stacked):
    np.testing.assert_allclose(batch, stacked, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_lambda_arrays_match_scalar_calls(n, monkeypatch):
    """A lambda array gives each lambda the value of its own scalar call: the
    Jacobi node count, the cosine blocks, the series oracle's per-pair stop
    and the per-lambda transform levels do not depend on the other lambdas."""
    etas = np.linspace(0.0, 3.0, 61)
    lams = np.concatenate([[0.0, 0.3, 1.0, 1.9], np.linspace(2.5, 150.0, 23)])
    stacked = np.array([phi_many(lam, etas, n) for lam in lams])
    _same(phi_many(lams, etas, n), stacked)
    _same(phi_series(lams[:4, None], etas[:20], n),
          [phi_series(lam, etas[:20], n) for lam in lams[:4]])
    _same(plancherel_density(lams, n), [plancherel_density(lam, n) for lam in lams])
    # transform lambdas spanning start levels 0-3, in a 2-d array with signs
    prof = make_bump(1.0, n)
    grid = np.concatenate([-lams[:3], lams[3:]]).reshape(3, 9)
    transform = fh_transform(prof, grid)
    _same(transform, [[fh_transform(prof, lam) for lam in row] for row in grid])
    # blocks of one lambda (and one radius of the Abel table) at a time
    monkeypatch.setattr(spectral, "_COS_BLOCK", 1)
    _same(phi_many(lams, etas, n), stacked)
    _same(fh_transform(make_bump(1.0, n), grid), transform)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inverse_accepts_scalar_or_array_F(n, monkeypatch):
    """F gets 1-d lambda arrays, the truncation scan's first block of 32
    nodes among them; a scalar F value holds for the whole call, here one
    lambda per call.  A grid of only eta = 0 inverts the heat kernel's
    transform."""
    t, etas = 0.7, np.array([0.0, 0.4, 1.1])
    shapes, blocks = [], []

    def F(lam):
        shapes.append(np.shape(lam))
        return float(hk_fourier(t, lam[0], n))

    def F_array(lam):
        blocks.append(np.shape(lam))
        return hk_fourier(t, lam, n)

    array = fh_inverse_grid(F_array, etas, n)
    monkeypatch.setattr(spectral, "_COS_BLOCK", 1)
    scalar = fh_inverse_grid(F, etas, n)
    assert blocks[0] == (32,) and all(len(b) == 1 for b in blocks)
    assert set(shapes) == {(1,)}
    np.testing.assert_array_equal(scalar, array)
    origin = fh_inverse_grid(lambda lam: hk_fourier(t, lam, n), np.array([0.0]), n)
    assert origin[0] == pytest.approx(hk(t, 0.0, n), rel=1e-10, abs=0.0)
    assert fh_inverse_grid(lambda lam: 0.0, np.array([0.0]), n)[0] == 0.0


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inverse_is_bitwise_independent_of_lambda_blocks(n, monkeypatch):
    """The exact walk density with every new node of a level in one F call
    is bitwise the density with one lambda per call, forced by _COS_BLOCK =
    1, which leaves every lambda's transform and spherical function as it
    is: the rows are summed in node order whatever the blocks."""
    etas = np.linspace(0.0, 3.0, 41)
    prof = make_bump(1.0, n)
    sizes = []

    def density():
        def F(lam):
            sizes.append(np.size(lam))
            return walk_transform(prof, 16, lam)

        return fh_inverse_grid(F, etas, n)

    batched = density()
    assert max(sizes) > 16
    sizes.clear()
    monkeypatch.setattr(spectral, "_COS_BLOCK", 1)
    single = density()
    assert 1 in sizes and max(sizes) <= max(1, spectral._COS_BLOCK // etas.size)
    np.testing.assert_array_equal(batched, single)


@pytest.mark.parametrize("kind,n", [("bump", 2), ("bump", 3), ("bump", 5), ("bump", 7),
                                    ("table", 2), ("table", 3)])
def test_walk_density_matches_kronrod_route(kind, n):
    """The trapezoid levels agree with the adaptive Kronrod rule of the
    oracle within 5e-14 on the llt grid of 200 radii, at N = 16 and 256:
    bumps at odd and even n, and the 11-point table, whose even-n transform
    has kinked Abel panels."""
    prof = make_bump(1.0, n) if kind == "bump" else eleven_point_table(n)
    grid = _llt_eta_grid(prof, 200)
    for N in (16, 256):
        exact = walk_density_grid(prof, N, grid)
        oracle = fh_inverse_kronrod(lambda lam: walk_transform(prof, N, lam), grid, n)
        assert float(np.max(np.abs(exact - oracle))) < 5e-14


@pytest.mark.parametrize("n", [2, 3, 5])
def test_inverse_of_a_cut_off_integrand_is_hard_error(n):
    """F = exp(-lambda^2) on the truncation scan's nodes k pi / 1.1 and 1 at
    every other lambda: the scan certifies a tail that the later levels do
    not see, the integrand is cut off where it is far from 0, so no two
    trapezoid levels agree and the inverse raises instead of returning the
    cut-off integral."""
    h0 = math.pi / 1.1

    def F(lam):
        k = lam / h0
        return np.where(np.abs(k - np.round(k)) < 1e-9, np.exp(-lam**2), 1.0)

    with pytest.raises(QuadratureError):
        fh_inverse_grid(F, np.array([0.0, 0.4, 1.1]), n)


def test_llt_n3_inversions_take_few_lambda_nodes(monkeypatch):
    """llt_check on the unit bump in n = 3 over N = 16...256, the benchmark's
    llt-n3 configuration: each inversion evaluates at most 64 lambda nodes
    (the adaptive Kronrod rule took 525 to 570)."""
    nodes = []
    inverse, phi = spectral.fh_inverse_grid, spectral.phi_many

    def counted_inverse(*args, **kwargs):
        nodes.append(0)
        return inverse(*args, **kwargs)

    def counted_phi(lam, eta, n):
        nodes[-1] += np.size(lam)
        return phi(lam, eta, n)

    monkeypatch.setattr(spectral, "fh_inverse_grid", counted_inverse)
    monkeypatch.setattr(spectral, "phi_many", counted_phi)
    assert llt_check(make_bump(1.0, 3), [16, 32, 64, 128, 256]).passed
    assert len(nodes) == 5 and 0 < max(nodes) <= 64


def test_llt_n3_transform_evaluates_each_lambda_once(monkeypatch):
    """The level-0 nodes of each inversion are its truncation scan, so in
    llt_check on the llt-n3 configuration no (profile, lambda) pair reaches
    fh_transform twice, and the check takes at most 360 lambda values in at
    most 16 calls (a separate scan took 532 values in 29 calls)."""
    calls, seen = [], set()
    transform = spectral.fh_transform

    def counted(p, lam, **kwargs):
        lams = np.atleast_1d(lam).tolist()
        calls.append(len(lams))
        for lv in lams:
            assert (id(p), lv) not in seen
            seen.add((id(p), lv))
        return transform(p, lam, **kwargs)

    monkeypatch.setattr(spectral, "fh_transform", counted)
    assert llt_check(make_bump(1.0, 3), [16, 32, 64, 128, 256]).passed
    assert 0 < len(calls) <= 16 and sum(calls) <= 360


@pytest.mark.parametrize("kind,n", [("bump", 2), ("bump", 3), ("bump", 5), ("table", 2)])
def test_deficit_start_levels_do_not_depend_on_the_call(kind, n, monkeypatch):
    """Each lambda starts at the higher of its oscillation level and one
    below its profile's converged level, both fixed by the profile and the
    lambda, so the deficit of a contracted profile is bitwise the same in a
    lambda array, in reversed order, in scalar calls that begin at the
    largest lambda, and in blocks of one kernel entry, each on a profile
    whose tables are built by that call."""
    base = make_bump(1.0, n) if kind == "bump" else eleven_point_table(n)
    lams = np.concatenate([[0.0], np.geomspace(0.05, 600.0, 24)])
    for N in (16, 256):
        def fresh():
            return scale_profile(base, 1.0 / math.sqrt(N))

        array = fh_transform(fresh(), lams, deficit=True)
        np.testing.assert_array_equal(fh_transform(fresh(), lams[::-1], deficit=True)[::-1],
                                      array)
        p = fresh()
        scalar = [fh_transform(p, lam, deficit=True) for lam in lams[::-1]][::-1]
        np.testing.assert_array_equal(scalar, array)
        with monkeypatch.context() as m:
            m.setattr(spectral, "_COS_BLOCK", 1)
            np.testing.assert_array_equal(fh_transform(fresh(), lams, deficit=True), array)


def test_llt_n3_sums_each_lambda_at_two_levels(monkeypatch):
    """In llt_check on the llt-n3 configuration the contracted profiles
    converge at panel level 3, so every lambda starts at level 2 and stops at
    level 3: each is summed at exactly two table levels (summing from level
    0, as its oscillation alone would allow, took four)."""
    rows, sizes, lams = [], set(), []
    transform, deficit = spectral.fh_transform, spectral._sinc_deficit

    def counted_transform(p, lam, **kwargs):
        lams.append(np.size(lam))
        return transform(p, lam, **kwargs)

    def counted_deficit(x, *args):
        if np.ndim(x) == 2:  # a block of (lambda, s) kernel entries
            rows.append(x.shape[0])
            sizes.add(x.shape[1])
        return deficit(x, *args)

    monkeypatch.setattr(spectral, "fh_transform", counted_transform)
    monkeypatch.setattr(spectral, "_sinc_deficit", counted_deficit)
    assert llt_check(make_bump(1.0, 3), [16, 32, 64, 128, 256]).passed
    assert sum(rows) == 2 * sum(lams) > 0
    assert sizes == {32 << 2, 32 << 3}


def test_llt_n3_contracted_profiles_take_no_quadrature(monkeypatch):
    """The contracted profiles of llt_check on the llt-n3 configuration are
    normalised by the substitution eta -> eps eta alone: no adaptive
    quadrature runs over a contracted support (one per N did before)."""
    prof = make_bump(1.0, 3)
    uppers = []
    integrate = radial_density.integrate_adaptive

    def counted(f, upper, *args, **kwargs):
        uppers.append(upper)
        return integrate(f, upper, *args, **kwargs)

    monkeypatch.setattr(radial_density, "integrate_adaptive", counted)
    assert llt_check(prof, [16, 32, 64, 128, 256]).passed
    assert all(upper == prof.eta_max for upper in uppers)


@pytest.mark.parametrize("n", range(2, 18))
def test_inverse_heat_kernel_relative_accuracy(n):
    """Inverting the heat kernel's transform e^{-(lambda^2 + rho^2) t} gives
    hk to 1e-10 relative in every dimension, though hk at eta = 1 falls to
    1e-37 by n = 17: the tail and Kronrod tolerances follow the integrand's
    peak.  A zero transform still inverts to 0."""
    etas = np.array([0.5, 1.0, 2.0])
    for t in (0.5, 1.1, 2.0):
        inv = fh_inverse_grid(lambda lam: hk_fourier(t, lam, n), etas, n)
        assert float(np.max(np.abs(inv / hk(t, etas, n) - 1.0))) < 1e-10
    assert np.all(fh_inverse_grid(lambda lam: 0.0, etas, n) == 0.0)


# -- characteristic function and variance ---------------------------------------

def char2(p, lam):
    """Characteristic function of the second kind: the transform normalized
    to 1 at lambda = 0."""
    return fh_transform(p, lam) / fh_transform(p, 0.0)


def test_char2_normalization_and_bound(bump3):
    assert char2(bump3, 0.0) == 1.0
    vals = char2(bump3, np.linspace(0.0, 10.0, 21))
    assert float(np.max(np.abs(vals))) <= 1.0 + 1e-12


def test_char2_odd_derivatives_vanish(bump3):
    for h in (1e-2, 5e-3, 2.5e-3):
        c2, c1, m1, m2 = char2(bump3, np.array([2 * h, h, -h, -2 * h]))
        d1 = (c1 - m1) / (2 * h)
        d3 = (c2 - 2 * c1 + 2 * m1 - m2) / (2 * h**3)
        assert abs(d1) < 1e-6
        assert abs(d3) < 1e-6


def test_variance_against_fd_oracle(bump3):
    v = variance_direct(bump3)
    d1 = -(char2(bump3, 1e-2) - 2.0 + char2(bump3, -1e-2)) / 1e-4
    d2 = -(char2(bump3, 5e-3) - 2.0 + char2(bump3, -5e-3)) / 2.5e-5
    richardson = d2 + (d2 - d1) / 3.0
    assert v == pytest.approx(richardson, rel=1e-6)


def test_variance_scaling_limit(bump3):
    target = second_moment(bump3) / 3.0
    ratios = [variance_direct(scale_profile(bump3, eps)) / eps**2
              for eps in (0.1, 0.05, 0.025)]
    gaps = [abs(r - target) for r in ratios]
    assert gaps[1] < 0.3 * gaps[0] and gaps[2] < 0.3 * gaps[1]  # O(eps^2)
    extrapolated = ratios[2] + (ratios[2] - ratios[1]) / 3.0
    assert extrapolated == pytest.approx(target, rel=1e-5)


def test_variance_vanishes_with_support():
    assert variance_direct(make_bump(1e-2, 3)) < 1e-4


# -- walk transform and density ---------------------------------------------------

def test_walk_transform_basics(bump3):
    assert walk_transform(bump3, 1, 1.3) == pytest.approx(fh_transform(bump3, 1.3),
                                                          rel=1e-12)
    for N in (1, 10, 100):
        v0 = walk_transform(bump3, N, 0.0)
        assert 0.0 < v0 <= 1.0
    with pytest.raises(ValueError):
        walk_transform(bump3, 0, 1.0)


def _walk_power_long_double(p, lams, N):
    """(1 - delta)^N in long double, delta = int (phi_{i rho} - phi_lambda)
    dmu summed over the float64 Abel table that fh_transform's level rule
    picks, from its start level, with the kernels cosh(rho s) - cos(lambda
    s) (n = 2) and sinh(rho s)/rho - sin(lambda s)/lambda (n >= 3)."""
    ld = np.longdouble
    rho = ld(0.5 * (p.dim.n - 1))
    out = []
    for lam in lams:
        start = max(int(lam * p.eta_max / 34.0).bit_length(), spectral._converged_level(p) - 1)
        prev = None
        for lv in range(start, start + 14):
            s, wt = (a.astype(ld) for a in spectral._abel_table(p, lv))
            if p.dim.n == 2:
                k = np.cosh(rho * s) - np.cos(ld(lam) * s)
            else:
                k = np.sinh(rho * s) / rho - (np.sin(ld(lam) * s) / ld(lam) if lam else s)
            cur = np.sum(k * wt)
            if prev is not None and abs(cur - prev) <= max(ld(1e-13), ld(1e-13) * abs(cur)):
                break
            prev = cur
        out.append((1 - cur) ** N)
    return np.array(out)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_walk_transform_power_is_not_rounded_n_fold(n):
    """F^N at N = 256 from the deficit 1 - F agrees with the same Abel table
    summed in long double to 1e-14 relative wherever F^N > 1e-12; raising
    the float64 F to the 256th power was up to 1.7e-13 off.  At N = 3,
    where F < 0 past its first zero, the plain power of 1 - delta is F^3,
    sign and all."""
    if np.finfo(np.longdouble).eps > 1e-18:
        pytest.skip("long double is no wider than float64 here")
    prof = make_bump(1.0, n)
    lams = np.linspace(0.0, 40.0, 161)
    ref = _walk_power_long_double(spectral._scaled_for_walk(prof, 256), lams, 256)
    keep = ref > 1e-12
    got = walk_transform(prof, 256, lams)
    assert float(np.max(np.abs(got[keep] / ref[keep] - 1.0))) < 1e-14
    lams = np.linspace(0.0, 30.0, 121)
    F = fh_transform(spectral._scaled_for_walk(prof, 3), lams)
    neg = F < 0.0
    assert np.any(neg)
    cubed = walk_transform(prof, 3, lams[neg])
    assert np.all(cubed < 0.0) and float(np.max(np.abs(cubed - F[neg] ** 3))) < 1e-16


def test_walk_transform_power_matches_40_digit_transform():
    """F^N of the unit bump at n = 3, N = 256, against the transform of the
    contracted law as a 40-digit mpmath integral (the closed-form spherical
    function against the bump's radial measure), raised to the 256th power:
    within 5e-14 relative, where the float64 F raised to that power was
    0.9-1.3e-13 off."""
    import mpmath

    prof, N = make_bump(1.0, 3), 256
    lams = [0.0, 1.0, 3.0, 6.0, 10.0, 16.0]
    with mpmath.workdps(40):
        eps = 1 / mpmath.sqrt(N)

        def weight(e):
            return mpmath.exp(-1 / (1 - e * e)) * mpmath.sinh(e) ** 2 if e < 1 else 0

        def phi(lam, e):  # phi_lambda(eps * e) at n = 3
            x = eps * e
            return (mpmath.sin(lam * x) / (lam * x) if lam else 1) * x / mpmath.sinh(x) if e else 1

        mass = mpmath.quad(weight, [0, 0.5, 1])
        exact = [float((mpmath.quad(lambda e: weight(e) * phi(lam, e), [0, 0.5, 1]) / mass) ** N)
                 for lam in lams]
    got = walk_transform(prof, N, np.array(lams))
    assert float(np.max(np.abs(got / np.array(exact) - 1.0))) < 5e-14


def test_walk_characteristic_converges_to_gaussian(bump3):
    from hyperwalk import limit_time

    t = limit_time(bump3)
    for lam in (0.5, 1.0, 2.0):
        target = math.exp(-lam * lam * t / 2.0)
        errs = [abs(walk_transform(bump3, N, lam) / walk_transform(bump3, N, 0.0)
                    - target) for N in (100, 1000, 10000)]
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 1e-6


def test_walk_density_reproduces_profile_at_n1(bump3):
    grid = np.linspace(0.05, 0.95, 8)
    vals = fh_inverse_kronrod(lambda lam: walk_transform(bump3, 1, lam), grid, 3,
                              envelope=bump_transform_envelope(bump3), tail_tol=1e-9)
    assert float(np.max(np.abs(vals - bump3.g(grid)))) < 1e-8


def test_walk_density_total_mass(bump3):
    from hyperwalk import sphere_area
    from hyperwalk.quadrature import cumulative_gl

    grid = np.linspace(0.0, 3.0, 301)
    dens_grid = walk_density_grid(bump3, 16, grid)
    from scipy.interpolate import CubicSpline
    dens = CubicSpline(grid, dens_grid)
    mass = cumulative_gl(
        lambda e: sphere_area(3) * dens(e) * np.sinh(e) ** 2, grid, q=8)[-1]
    assert mass == pytest.approx(1.0, abs=1e-6)


# -- space-side convolution -------------------------------------------------------

def test_convolution_near_identity(bump3):
    delta = make_bump(0.02, 3)
    etas = np.array([0.3, 0.6])
    approx = convolve_direct(bump3, delta, etas)
    assert float(np.max(np.abs(approx / bump3.g(etas) - 1.0))) < 5e-3


@pytest.mark.parametrize("n", [2, 3])
def test_convolution_commutativity(n):
    f = make_bump(1.0, n)
    g = make_bump(0.7, n)
    etas = np.linspace(0.05, 1.6, 9)
    assert float(np.max(np.abs(convolve_direct(f, g, etas)
                               - convolve_direct(g, f, etas)))) < 1e-8


@pytest.mark.parametrize("n", [2, 3])
def test_convolution_product_rule(n):
    f = make_bump(1.0, n)
    g = make_bump(0.7, n)
    conv = convolution_profile(f, g, points=301)
    for lam in (0.0, 0.8, 1.9, 3.4):
        lhs = fh_transform(conv, lam)
        rhs = fh_transform(f, lam) * fh_transform(g, lam)
        assert lhs == pytest.approx(rhs, rel=1e-6)


def test_variance_additivity(bump3):
    g = make_bump(0.7, 3)
    conv = convolution_profile(bump3, g, points=301)
    assert variance_direct(conv) == pytest.approx(
        variance_direct(bump3) + variance_direct(g), abs=1e-6)


def test_stop_levels_pinned():
    """The n = 3 bump's Abel tables agree first at level 3, and the n = 5
    bump's CDF table stops at 8 192 cells; the pinned walk hashes and the
    transform start levels rest on both."""
    assert spectral._converged_level(make_bump(1.0, 3)) == 3
    assert make_bump(1.0, 5)._cdf_interp().interp.x.size - 1 == 8192
