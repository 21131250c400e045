"""Hyperbolic heat kernels: spectral side, explicit space side, and the
half-time normal density that appears as the walk limit.

hk(t, .) is the fundamental solution of d/dt = Laplacian, whose radial
transform is exp(-(lambda^2 + rho^2) t); psi_clt(t, .) = hk(t/2, .) solves the
probabilist's d/dt = Laplacian/2 and has second-kind characteristic function
exp(-lambda^2 t / 2).

The iterated operator (-1/sinh(eta) d/deta)^m applied to the Gaussian factor
is expanded once per order by a term-rewriting recurrence over monomials
coef * eta^a * coth(eta)^b * csch(eta)^c * tau^{-d}; evaluation is then exact
up to floating point.  Near eta = 0 every term is singular but the sum is
removable, so the assembled prefactor is replaced by its power series.  That
series is built in exact rational arithmetic from the series of eta coth(eta)
and eta csch(eta); its negative powers cancel exactly before any rounding.
"""

import math
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import as_dim
from .quadrature import doubling_each, gauss_legendre, panel_nodes

# Near eta = 0 the direct sum of the order-m terms cancels singular parts of
# size eta^(1 - 2m) down to a finite value and loses about two digits per
# order, so the series branch reaches further as m grows, and takes more
# terms to stay exact there.  Against a 60-digit sum of the terms, both
# branches are within 3e-11 relative from a quarter of the switch to twice
# it, for m <= 8 and tau = 2t from 0.05 to 1000.  The cap keeps the switch
# well inside the series' radius of convergence, pi.
_SMALL_ETA = 0.125  # the switch for m = 1
_MAX_DIM = 17  # n = 2m + 1 or 2m with m <= 8, the validated orders
_SERIES_ORDER = 16  # the series terms for m = 1
_SWITCH_CAP = 1.0
_EVEN_DOUBLINGS = 6  # panel doublings of the even-n descent integral
_EVEN_TOL = 1e-11  # their relative tolerance; rounding leaves levels 2e-12 apart


def _small_eta(m: int) -> float:
    """Series/direct switch for the terms of order m."""
    return min(_SMALL_ETA * 1.4 ** (m - 1), _SWITCH_CAP)


def _series_order(m: int) -> int:
    """Number of series terms (powers eta^0 ... eta^(order-1)) for order m."""
    return _SERIES_ORDER + 4 * (m - 1)


# term keys are (a, b, c, d) for eta^a coth^b csch^c tau^{-d}; integer coefs.
_UNIT = ((0, 0, 0, 0), 1)


def _apply_neg_csch_d(terms: dict) -> dict:
    """Rewrite rules for -(csch eta) d/deta acting on P(eta) e^{-eta^2/(2 tau)}."""
    out = {}

    def add(key, coef):
        out[key] = out.get(key, 0) + coef

    for (a, b, c, d), coef in terms.items():
        if a:
            add((a - 1, b, c + 1, d), -a * coef)
        if b:
            add((a, b - 1, c + 3, d), b * coef)
        if c:
            add((a, b + 1, c + 1, d), c * coef)
        add((a + 1, b, c + 1, d + 1), coef)
    return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=64)
def _odd_terms(m: int):
    terms = dict([_UNIT])
    for _ in range(m):
        terms = _apply_neg_csch_d(terms)
    return tuple(sorted(terms.items()))


def _mul_series(p: list, q: list) -> list:
    """Cauchy product of two power series, truncated to len(p) terms."""
    return [sum(p[i] * q[k - i] for i in range(k + 1)) for k in range(len(p))]


@lru_cache(maxsize=64)
def _series_table(terms_key):
    """Power-series coefficients of the assembled prefactor near eta = 0.

    Returns an array C with C[k, j] the coefficient of eta^k * tau^{-j}, for
    k below _series_order(m), m the largest power of 1/tau.  Each term is
    eta^(a-b-c) (eta coth eta)^b (eta csch eta)^c tau^-d, with both factors
    power series in exact rationals; the negative Laurent powers must cancel
    exactly, and only the finished coefficients are rounded to float.
    """
    m = max(d for (_, _, _, d), _ in terms_key)
    rows = _series_order(m)
    order = rows + max(0, max(b + c - a for (a, b, c, _), _ in terms_key))
    sinhc = [Fraction(1 - k % 2, math.factorial(k + 1)) for k in range(order)]
    cosh = [Fraction(1 - k % 2, math.factorial(k)) for k in range(order)]
    xcsch = [Fraction(1)] + [Fraction(0)] * (order - 1)  # reciprocal of sinhc
    for k in range(1, order):
        xcsch[k] = -sum(sinhc[i] * xcsch[k - i] for i in range(1, k + 1))
    xcoth = _mul_series(cosh, xcsch)

    powers = {(0, 0): [Fraction(1)] + [Fraction(0)] * (order - 1)}

    def power(b, c):
        if (b, c) not in powers:
            powers[b, c] = (_mul_series(power(b - 1, c), xcoth) if b
                            else _mul_series(power(0, c - 1), xcsch))
        return powers[b, c]

    acc = {}
    for (a, b, c, d), coef in terms_key:
        for j, v in enumerate(power(b, c)):
            k = a - b - c + j
            acc[k, d] = acc.get((k, d), 0) + coef * v
    if any(v != 0 for (k, _), v in acc.items() if k < 0):
        raise AssertionError("Laurent part failed to cancel")
    table = np.zeros((rows, m + 1))
    for (k, d), v in acc.items():
        if 0 <= k < rows:
            table[k, d] = float(v)
    return table


def _eval_terms(m: int, etas: np.ndarray, tau: float) -> np.ndarray:
    """P(eta) e^{m eta}, P the prefactor of the order-m terms with the Gaussian
    factored out: free of overflow and underflow at every finite radius, as
    every term has c >= m; series branch below _small_eta(m)."""
    terms_key = _odd_terms(m)
    etas = np.asarray(etas, dtype=float)
    out = np.empty(etas.shape)
    small = etas < _small_eta(m)
    if np.any(small):
        table = _series_table(terms_key)
        u_pows = (1.0 / tau) ** np.arange(table.shape[1])
        coef_eta = table @ u_pows
        # Horner's rule, as numpy.polynomial's polyval, which costs an import
        x = etas[small]
        acc = coef_eta[-1] + x * 0
        for c in coef_eta[-2::-1]:
            acc = c + acc * x
        out[small] = acc * np.exp(m * x)
    big = ~small
    if np.any(big):
        e = etas[big]
        acc = np.zeros(e.shape)
        # cosh and sinh over e^e, and decay^(c - m) the rest of e^{m e} csch^c
        sh = -0.5 * np.expm1(-2.0 * e)
        ch = 1.0 - sh
        decay = np.exp(-e)
        for (a, b, c, d), coef in terms_key:
            acc += coef * e**a * ch**b / sh ** (b + c) * tau ** (-d) * decay ** (c - m)
        out[big] = acc
    return out


def hk_fourier(t: float, lam, n) -> float:
    """Spectral side: exp(-(lambda^2 + rho^2) t)."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t!r}")
    rho = (as_dim(n).n - 1) / 2.0
    lam = np.asarray(lam, dtype=float)
    out = np.exp(-(lam**2 + rho**2) * t)
    return float(out) if out.ndim == 0 else out


def _frame(t: float, eta, m: int, shift: float):
    """The preamble of hk_odd and hk_even: eta as a 1-d array of radii, tau =
    2t, the Gaussian's scale e^{-(eta + shift tau)^2 / (2 tau)} that takes the
    e^{-shift eta} of the kernel's terms (0 where it underflows), and whether
    eta is a scalar.  A ValueError unless t > 0, m >= 1 and every radius is
    >= 0 (NaN is not)."""
    etas = np.atleast_1d(np.asarray(eta, dtype=float))
    if not (t > 0.0 and m >= 1 and np.all(etas >= 0.0)):
        raise ValueError(f"need t > 0, m >= 1 and radii >= 0, got t = {t}, m = {m} "
                         f"and a least radius of {etas.min(initial=math.inf)}")
    tau = 2.0 * t
    # past sqrt(1600 tau) the scale is below e^-800, which is 0.0: clamping
    # there keeps the square finite for every radius up to inf
    top = np.minimum(etas + shift * tau, math.sqrt(1600.0 * tau))
    return etas, tau, np.exp(-(top**2) / (2.0 * tau)), np.ndim(eta) == 0


def hk_odd(t: float, eta, m: int):
    """Space side for n = 2m+1 via the iterated sinh-derivative operator, as
    pref (P(eta) e^{m eta}) e^{-(eta + m tau)^2 / (2 tau)}, tau = 2t: the
    Gaussian's scale is taken as hk_even takes it, and 0 where it underflows."""
    etas, tau, scale, scalar = _frame(t, eta, m, m)
    pref = 1.0 / ((2.0 * math.pi) ** m * math.sqrt(2.0 * math.pi * tau))
    live = scale > 0.0
    out = np.zeros(etas.size)
    out[live] = pref * _eval_terms(m, etas[live], tau) * scale[live]
    return float(out[0]) if scalar else out


def hk_even(t: float, eta, m: int):
    """Space side for n = 2m via the regularized descent integral.

    The descent integrand csch(s) (-d/ds) (-csch(s) d/ds)^(m-1) applied to the
    Gaussian is (-csch(s) d/ds)^m of it, so it shares the n = 2m+1 terms and
    series table.  The substitution u^2 = cosh(s) - cosh(eta) removes the
    endpoint singularity, and s comes back stably from sinh(s/2) =
    hypot(sinh(eta/2), u/sqrt(2)).  The integrand is taken relative to its
    scale at eta, e^{-eta^2/(2 tau) - (m - 1/2) eta}, which the prefactor takes
    as _frame's e^{-(eta + (m - 1/2) tau)^2 / (2 tau)}: no node value underflows
    where the kernel is a normal float, and a radius where that factor
    underflows is 0.  u and s are finite while s < 1419, past every descent
    that the other radii need (s up to eta + sqrt(4t ln 10^18), below 1150).
    The Gauss-Legendre panels double, _EVEN_DOUBLINGS times at most, until
    two levels agree to _EVEN_TOL relative, each radius on its own in
    quadrature.doubling_each, so it gets the value a call with it alone would.
    """
    etas, tau, scale, scalar = _frame(t, eta, m, m - 0.5)
    pref = 1.0 / ((2.0 * math.pi) ** m * math.sqrt(math.pi * tau))
    reach = math.sqrt(2.0 * tau * math.log(1e18))
    npanels = max(8, int(reach / math.sqrt(tau)) + 2)

    def level(k, radii):
        # panel edges follow a uniform s-grid so the nodes track the Gaussian;
        # a uniform u-grid would pile almost everything into the far tail.
        frac = np.linspace(0.0, 1.0, (npanels << k) + 1)
        s_edges = radii[:, None] + reach * frac[None, :]
        # u^2 = 2 sinh((s + eta)/2) sinh((s - eta)/2) with e^{s/2} taken out
        u_edges = np.exp(0.5 * s_edges) * np.sqrt(0.5 * np.expm1(radii[:, None] - s_edges)
                                                  * np.expm1(-radii[:, None] - s_edges))
        u, wu = panel_nodes(u_edges, *gauss_legendre(24))
        r = radii[:, None, None]
        s = 2.0 * np.arcsinh(np.hypot(np.sinh(0.5 * r), math.sqrt(0.5) * u))
        # P(s) e^{-s^2/(2 tau)} over its scale at eta
        vals = _eval_terms(m, s.ravel(), tau).reshape(s.shape) * np.exp(
            -(s - r) * ((s + r) / (2.0 * tau) + m) - 0.5 * r)
        return 2.0 * np.sum(wu * vals, axis=(1, 2))

    live = scale > 0.0
    out = np.zeros(etas.size)
    out[live] = pref * (scale[live] * doubling_each(f"even-n heat kernel (t={t}, m={m})",
                                                    etas[live], 0, _EVEN_DOUBLINGS + 1, level,
                                                    rel_tol=_EVEN_TOL))
    return float(out[0]) if scalar else out


def require_validated_dim(n) -> int:
    """n as an int; a ValueError for n above 17, where the space-side kernel
    is not validated: past m = 8 its direct branch loses digits with m (6.4e-9
    relative at m = 12)."""
    d = as_dim(n).n
    if d > _MAX_DIM:
        raise ValueError(f"the heat kernel is validated for dimensions 2 to {_MAX_DIM}, "
                         f"got {d}")
    return d


def hk(t: float, eta, n):
    """Heat kernel of d/dt = Laplacian: hk_odd for n = 2m+1, hk_even for
    n = 2m, m = n // 2 in both cases; n is at most 17 (require_validated_dim)."""
    d = require_validated_dim(n)
    return (hk_odd if d % 2 else hk_even)(t, eta, d // 2)


def psi_clt(t: float, eta, n):
    """Normal density of the walk limit: the kernel at half time."""
    return hk(t / 2.0, eta, n)
