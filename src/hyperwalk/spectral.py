"""Radial Fourier analysis on the ball: spherical functions, the Helgason
transform and its inverse, characteristic functions and variance.

The spherical function is computed by an endpoint-regularized Gauss-Jacobi
form of its radial integral: the substitution s = eta*v and the product
formula cosh(eta) - cosh(eta*v) = 2 sinh(eta(1+v)/2) sinh(eta(1-v)/2) turn
the endpoint singularity into the Jacobi weight (1-v^2)^{(n-3)/2}.  A
hypergeometric-type power series in sinh(eta/2) is kept beside it as an
independent oracle for small radii; no production route calls it.

Transforms of radial profiles are therefore one-dimensional quadratures, and
the inverse transform is an adaptive Gauss-Kronrod integral against the
Plancherel density |c(lambda)|^{-2} of the Harish-Chandra c-function.

Array contract: `phi_many`, `fh_transform` and `plancherel_density` take a
scalar or an array of lambda and evaluate every lambda in one call; each
lambda gets exactly the value a scalar call would give it.
`fh_inverse_grid` evaluates its spectral integrand one 15-node Kronrod panel
at a time, so the F and envelope it is given receive 1-d lambda arrays (and
may return a scalar, which is broadcast).
"""

import math

import numpy as np
from scipy.special import loggamma

from .geometry import as_dim, sphere_area
from .quadrature import (QuadratureError, gauss_jacobi_sym, gk_adaptive_vector,
                         integrate_adaptive, panel_nodes)
from .radial_density import RadialProfile, pdf_eta, scale_profile, sinch

_ABS_TARGET = 1e-13
_TAIL_THRESHOLD = 1e-14
_LAMBDA_CAP = 1e4
# elements of one (lambda, eta, Jacobi node) cosine block: 2 MiB of float64
_COS_BLOCK = 1 << 18
# truncation scan points whose envelope is evaluated in one call
_SCAN_BLOCK = 16
_SERIES_TOL = 1e-17  # the series oracle stops at two terms below this, relative
_SERIES_TERMS = 200  # and fails after this many


class SeriesError(RuntimeError):
    """phi_series failed to converge in _SERIES_TERMS terms."""


class TruncationError(RuntimeError):
    """No admissible truncation point for the inverse transform."""


def _kn(n: int) -> float:
    return math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))


def _gj_order(lam, eta_max: float):
    q = 24 + (0.55 * np.abs(lam) * eta_max).astype(int)
    return np.minimum(-(-q // 8) * 8, 4096)


def _gj_half(q: int, alpha: float):
    """Positive half of the symmetric Jacobi rule; the radial integrands are
    even in the node variable, so the folded rule halves the work."""
    if q % 2:
        q += 1
    v, w = gauss_jacobi_sym(q, alpha)
    half = q // 2
    return v[half:], w[half:]


def _lam_shape(lam, out: np.ndarray, eta_shape: tuple):
    """Reshape (L, M) values to lam's shape followed by eta's shape."""
    out = out.reshape(np.shape(lam) + eta_shape)
    return float(out) if out.ndim == 0 else out


def phi_integral(lam, eta, n, order=None):
    """Spherical function by Gauss-Jacobi quadrature of its radial integral.

    Accepts scalar or array lam and eta; the result has lam's shape followed
    by eta's.  Each lambda takes the node count _gj_order(lambda, max eta),
    and the lambdas sharing a node count are evaluated together in blocks of
    at most _COS_BLOCK cosines.  `order` overrides the node count (used by
    doubled-resolution oracle tests).
    """
    d = as_dim(n).n
    lams = np.abs(np.asarray(lam, dtype=float)).reshape(-1)
    etas = np.asarray(eta, dtype=float)
    e = etas.reshape(-1)
    out = np.ones((lams.size, e.size))
    pos = np.nonzero(e > 0.0)[0]
    if pos.size and lams.size:
        ep = e[pos]
        alpha = (d - 3) / 2.0
        scale = _kn(d) * sinch(ep) ** (2 - d)
        orders = np.full(lams.size, order) if order else _gj_order(lams, float(np.max(ep)))
        for q in np.unique(orders):
            rows = np.nonzero(orders == q)[0]
            v, w = _gj_half(int(q), alpha)
            a = 0.5 * ep[:, None] * (1.0 + v[None, :])
            b = 0.5 * ep[:, None] * (1.0 - v[None, :])
            smooth_w = (sinch(a) * sinch(b)) ** alpha * w
            step = max(1, _COS_BLOCK // smooth_w.size)
            for i in range(0, rows.size, step):
                r = rows[i:i + step]
                c = (lams[r, None] * ep[None, :])[:, :, None] * v
                np.cos(c, out=c)
                c *= smooth_w
                out[r[:, None], pos] = scale * (2.0 * c.sum(axis=-1))
    return _lam_shape(lam, out, etas.shape)


# the production spherical function: (L, M) values for an array lam of L
# values and M radii, (M,) for a scalar lam
phi_many = phi_integral


def phi_series(lam, eta, n):
    """Spherical function as the hypergeometric series with parameters
    rho +- i*lambda and argument -sinh(eta/2)^2: the small-radius oracle
    that tests compare phi_integral against.

    lam and eta broadcast against each other.  Each (lambda, eta) pair sums
    its own terms and stops after two consecutive terms below
    _SERIES_TOL * (1 + |partial sum|).

    The lambda scaling is pinned by the eigenvalue -(lambda^2 + rho^2): the
    eta^2 coefficient must be -(lambda^2 + rho^2)/(2n), which the Pochhammer
    factors (rho+j)^2 + lambda^2 reproduce.  Raises SeriesError if
    _SERIES_TERMS terms do not converge, as for sinh(eta/2) >= 1.
    """
    d = as_dim(n).n
    rho = (d - 1) / 2.0
    mser = d / 2.0 - 1.0
    lams, etas = np.broadcast_arrays(np.abs(np.asarray(lam, dtype=float)),
                                     np.asarray(eta, dtype=float))
    shape = etas.shape
    lams, etas = lams.reshape(-1), etas.reshape(-1)
    neg_x = -np.sinh(etas / 2.0) ** 2
    total = np.ones(etas.size)
    term = np.ones(etas.size)
    lam2 = lams * lams
    runs = np.zeros(etas.size, dtype=int)
    for q in range(1, _SERIES_TERMS + 1):
        term = term * neg_x * ((rho + q - 1.0) ** 2 + lam2) / (q * (mser + q))
        total += term
        runs = (runs + 1) * (np.abs(term) <= _SERIES_TOL * (1.0 + np.abs(total)))
        done = runs >= 2
        if np.all(done):
            return float(total[0]) if not shape else total.reshape(shape)
        term[done] = 0.0  # a finished pair adds nothing more
    bad = runs < 2
    raise SeriesError(f"no convergence after {_SERIES_TERMS} terms "
                      f"(lam={np.max(lams[bad])}, max eta={np.max(etas[bad])})")


def phi(lam, eta, n):
    """Spherical function at one lambda and one radius, as a float."""
    return float(phi_many(lam, float(eta), n))


# -- Harish-Chandra c-function and Plancherel density -------------------------

def plancherel_density(lam, n):
    """|c(lambda)|^{-2} for the c-function

        c(lambda) = 2^{3-n-2i lam} Gamma(n/2) Gamma(2i lam)
                    / (Gamma((n-1+2i lam)/2) Gamma((1+2i lam)/2)),

    assembled in log space.  The doubled spectral argument inside the Gamma
    factors is pinned by the eigenvalue normalization of the spherical
    functions: it reproduces the classical densities lambda*tanh(pi lambda)
    (n=2), 16 lambda^2 (n=3) and lambda^2(lambda^2+1) up to constants (n=5),
    and makes the inverse transform exactly undo the forward one.  Vanishes
    like lambda^2 at the origin (the Gamma pole) and grows like
    lambda^{n-1} at infinity.  Scalar or array lam.
    """
    d = as_dim(n).n
    lam = np.abs(np.asarray(lam, dtype=float))
    nonzero = lam > 0.0
    s = np.where(nonzero, 2.0 * lam, 1.0)  # lambda = 0 is the pole, set below
    log_abs_c2 = 2.0 * (
        (3.0 - d) * math.log(2.0)
        + math.lgamma(d / 2.0)
        + loggamma(1j * s).real
        - loggamma((d - 1) / 2.0 + 0.5j * s).real
        - loggamma(0.5 + 0.5j * s).real
    )
    out = np.where(nonzero, np.exp(-log_abs_c2), 0.0)
    return float(out) if out.ndim == 0 else out


def inversion_constant(n) -> float:
    """Constant in front of the inverse transform, 2^{6-3n} / (pi Omega_{n-1}).

    Pinned by the requirement that inverting the transform of the explicit
    heat kernel reproduces it: checked in closed form against the classical
    kernels for n = 3 and n = 5 (both orders of the short-time trace) and by
    the flat short-time limit for general n.
    """
    d = as_dim(n).n
    return 2.0 ** (6 - 3 * d) / (math.pi * sphere_area(d))


# -- transforms ----------------------------------------------------------------

def _measure_nodes(p: RadialProfile, level: int):
    """Cached (nodes, pdf*weights) table of the radial measure at a dyadic
    panel refinement level; shared by every transform of the profile."""
    tables = p._cache.setdefault("measure_nodes", {})
    entry = tables.get(level)
    if entry is None:
        nodes, weights = panel_nodes(0.0, p.eta_max, 2**level, 32)
        entry = (nodes, weights * pdf_eta(p, nodes))
        tables[level] = entry
    return entry


def _phi_for_transform(lams: np.ndarray, etas: np.ndarray, d: int) -> np.ndarray:
    # far-oscillatory fast path: for n=3 the spherical function is elementary
    # and the generic Jacobi rule would cost O(lambda^2); the closed form
    # agrees with it to machine precision and only serves lam*eta_max > 64,
    # keeping the generic quadrature as the production route in the band
    # where the closed form acts as an oracle.
    far = np.zeros(lams.shape, dtype=bool)
    if d == 3:
        far = lams * float(np.max(etas, initial=0.0)) > 64.0
    out = np.ones((lams.size, etas.size))
    if np.any(far):
        pos = etas > 0.0
        lf = lams[far, None]
        out[np.ix_(far, pos)] = np.sin(lf * etas[pos]) / (lf * np.sinh(etas[pos]))
    if not np.all(far):
        out[~far] = phi_many(lams[~far], etas, d)
    return out


def fh_transform(p: RadialProfile, lam):
    """Radial Helgason transform: integral of the spherical function against
    the radial measure of the profile, to ~1e-13 absolute.

    Scalar or array lam.  Each lambda starts at its own panel level, stops
    when two consecutive levels agree and has a budget of 14 levels; only the
    lambdas still open are evaluated at the next level.
    """
    lams = np.abs(np.asarray(lam, dtype=float))
    flat = lams.reshape(-1)
    d = p.dim.n
    start = np.array([int(l * p.eta_max / 34.0).bit_length() for l in flat], dtype=int)
    out = np.empty(flat.size)
    prev = np.full(flat.size, np.inf)
    pending = np.ones(flat.size, dtype=bool)
    for lv in range(int(start.max(initial=-14)) + 14):
        sel = np.nonzero(pending & (start <= lv) & (lv < start + 14))[0]
        if sel.size == 0:
            continue
        nodes, wpdf = _measure_nodes(p, lv)
        cur = (_phi_for_transform(flat[sel], nodes, d) * wpdf).sum(axis=1)
        done = np.abs(cur - prev[sel]) <= np.maximum(_ABS_TARGET, 1e-13 * np.abs(cur))
        out[sel[done]] = cur[done]
        pending[sel[done]] = False
        prev[sel] = cur
    if np.any(pending):
        raise QuadratureError(f"transform quadrature did not converge (lam={flat[pending][0]})")
    return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def find_truncation(envelope, n, tail_tol=_TAIL_THRESHOLD) -> float:
    """Smallest grid point beyond which |F| |c|^{-2} stays below the tail
    tolerance (three consecutive grid points); hard error past _LAMBDA_CAP.

    The scan grid is fine near the origin and coarsens proportionally at
    large lambda, so super-polynomially decaying transforms are located in
    O(100) envelope evaluations.  envelope receives the grid in 1-d blocks of
    _SCAN_BLOCK points and returns an array of bounds (or a scalar); the
    points are then judged in grid order, so a block may be evaluated a few
    points past the answer.
    """
    d = as_dim(n).n
    lam = 0.25
    run = 0
    first = None
    prev_bound = math.inf
    growing = 0
    while lam <= _LAMBDA_CAP:
        block = []
        while lam <= _LAMBDA_CAP and len(block) < _SCAN_BLOCK:
            block.append(lam)
            lam += max(0.25, lam / 16.0)
        lams = np.array(block)
        bounds = np.abs(envelope(lams)) * plancherel_density(lams, d)
        for at, bound in zip(block, bounds):
            if bound < tail_tol:
                run += 1
                if first is None:
                    first = at
                if run >= 3:
                    return first
            else:
                run = 0
                first = None
                # a numerically computed transform bottoms out at its quadrature
                # noise floor and the bound then grows like lambda^{n-1} forever
                growing = growing + 1 if bound >= prev_bound and at > 50.0 else 0
                if growing >= 24:
                    raise TruncationError(
                        "envelope stopped decaying before certifying the tail; "
                        "supply an analytic decay certificate")
            prev_bound = bound
    raise TruncationError(f"no admissible truncation below lambda = {_LAMBDA_CAP}")


def fh_inverse_grid(F, etas, n, envelope=None, tail_tol=_TAIL_THRESHOLD):
    """Inverse transform in dimension n on a grid of radii, sharing the
    lambda panels.

    F is a callable lambda -> value.  It is called once per 15-node Kronrod
    panel with a 1-d lambda array and returns the values at those lambdas,
    or a scalar that holds for all of them.
    envelope is a decay certificate bounding |F| (defaults to |F| itself),
    called with blocks of the truncation scan grid in the same way.
    Transforms whose numerically computed values bottom out at the
    quadrature noise floor need either an analytic envelope or a tail_tol
    matched to the target accuracy, since the default integrand bound of
    1e-14 is then never certified.
    """
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)

    def func(lams):
        return np.broadcast_to(np.asarray(F(lams), dtype=float), lams.shape)

    env = envelope or (lambda lams: np.abs(func(lams)))
    lam_max = find_truncation(env, d, tail_tol=tail_tol)
    eta_top = float(np.max(etas)) if etas.size else 0.0

    def rows(lams):
        return (func(lams) * plancherel_density(lams, d))[:, None] * phi_many(lams, etas, d)

    # uniform panels over the bulk, geometric growth into the decayed tail;
    # the panel tolerance follows the truncation budget
    width = min(4.0, 8.0 / max(1.0, eta_top))
    edges = [0.0]
    step = width
    while edges[-1] < lam_max:
        if edges[-1] > 8.0 * width:
            step *= 1.35
        edges.append(min(edges[-1] + step, lam_max))
    integral = gk_adaptive_vector(rows, np.asarray(edges),
                                  abs_tol=max(_ABS_TARGET, 0.1 * tail_tol))
    return inversion_constant(d) * integral


# -- characteristic function, variance, walk transforms ------------------------

def _fhat0(p: RadialProfile) -> float:
    val = p._cache.get("fhat0")
    if val is None:
        val = fh_transform(p, 0.0)
        if not val > 0.0:
            raise AssertionError("transform at 0 must be positive for a valid profile")
        p._cache["fhat0"] = val
    return val


def char2(p: RadialProfile, lam) -> float:
    """Characteristic function of the second kind: transform normalized to 1 at 0."""
    lam = float(lam)
    if lam == 0.0:
        return 1.0
    return fh_transform(p, lam) / _fhat0(p)


def variance_kernel(etas, n):
    """Radial kernel whose integral against the law gives the raw second
    spectral derivative at 0 (with opposite sign)."""
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)
    alpha = (d - 3) / 2.0
    v, w = _gj_half(48, alpha)
    a = 0.5 * etas[:, None] * (1.0 + v[None, :])
    b = 0.5 * etas[:, None] * (1.0 - v[None, :])
    smooth = (sinch(a) * sinch(b)) ** alpha
    j = 2.0 * ((smooth * v[None, :] ** 2) @ w)
    return _kn(d) * sinch(etas) ** (2 - d) * etas**2 * j


def variance_direct(p: RadialProfile) -> float:
    """Variance as the exact radial double integral (no finite differences)."""
    d = p.dim.n

    def integrand(etas):
        return variance_kernel(etas, d) * pdf_eta(p, etas)

    raw = integrate_adaptive(integrand, 0.0, p.eta_max, abs_tol=1e-15,
                             rel_tol=1e-13, q=32)
    return raw / _fhat0(p)


def _scaled_for_walk(p: RadialProfile, N: int) -> RadialProfile:
    per = p._cache.setdefault("scaled_for_walk", {})
    scaled = per.get(N)
    if scaled is None:
        scaled = scale_profile(p, 1.0 / math.sqrt(N))
        per[N] = scaled
    return scaled


def walk_transform(p: RadialProfile, N: int, lam):
    """Exact transform of the N-step normalized sum: the one-step transform of
    the contracted law raised to the N-th power."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    return fh_transform(_scaled_for_walk(p, int(N)), lam) ** int(N)


def walk_density_grid(p: RadialProfile, N: int, etas, envelope=None,
                      tail_tol=_TAIL_THRESHOLD) -> np.ndarray:
    """Exact density of the N-step walk in the geodesic radial coordinate,
    by spectral inversion of the product transform.

    For N = 1 the product decays only like the raw profile transform, whose
    computed values bottom out at the quadrature noise floor; that case needs
    an analytic envelope and/or a tail_tol matched to the accuracy target
    (see fh_inverse_grid).
    """
    return fh_inverse_grid(lambda lam: walk_transform(p, N, lam), etas, p.dim.n,
                           envelope=envelope, tail_tol=tail_tol)


# -- direct (space-side) convolution ------------------------------------------

def convolve_direct(f: RadialProfile, g: RadialProfile, etas):
    """Brute-force convolution of two radial densities, evaluated at radii etas.

    The translation identity for 1 - ||T_y(x)||^2 reduces the ball integral to
    a 2-d quadrature over (radial coordinate of y, polar angle): eight
    32-node Gauss-Legendre panels in y and a 128-node Gauss-Jacobi rule in
    the angle.  This is the independent oracle for the product rule of the
    transform.
    """
    if f.dim.n != g.dim.n:
        raise ValueError("profiles must share the dimension")
    d = f.dim.n
    scalar = np.isscalar(etas) or np.asarray(etas).ndim == 0
    etas = np.atleast_1d(np.asarray(etas, dtype=float))
    alpha = (d - 3) / 2.0
    area_angle = 2.0 * math.pi ** ((d - 1) / 2.0) / math.gamma((d - 1) / 2.0)

    rx = np.tanh(etas / 2.0)
    y_nodes, y_weights = panel_nodes(0.0, g.eta_max, 8, 32)
    c_nodes, c_weights = gauss_jacobi_sym(128, alpha)
    ry = np.tanh(y_nodes / 2.0)
    gy = g.g(y_nodes) * np.sinh(y_nodes) ** (d - 1)

    rx2 = (rx**2)[:, None, None]
    rxv = rx[:, None, None]
    ryv = ry[None, :, None]
    cv = c_nodes[None, None, :]
    denom = 1.0 - 2.0 * rxv * ryv * cv + rx2 * ryv**2
    one_minus_t2 = (1.0 - rx2) * (1.0 - ryv**2) / denom
    norm_t = np.sqrt(np.clip(1.0 - one_minus_t2, 0.0, None))
    eta_t = 2.0 * np.arctanh(np.minimum(norm_t, 1.0 - 1e-16))
    fvals = f.g(eta_t.ravel()).reshape(eta_t.shape)

    inner = fvals @ c_weights
    total = (inner * gy[None, :]) @ y_weights
    out = area_angle * total
    return float(out[0]) if scalar else out


def convolution_profile(f: RadialProfile, g: RadialProfile, points=301) -> RadialProfile:
    """Tabulate the direct convolution on its support and wrap it as a profile
    with a not-a-knot cubic spline."""
    from .radial_density import make_table

    support = f.eta_max + g.eta_max
    grid = np.linspace(0.0, support, points)
    vals = convolve_direct(f, g, grid)
    return make_table(grid, np.maximum(vals, 0.0), f.dim.n, interpolation="spline")
