"""Oracles that only the tests need: the hypergeometric series of the
spherical function, the transform and variance by the Jacobi rule of the
spherical function, the inverse transform by adaptive Kronrod panels, the
brute-force space-side convolution of two radial densities,
spline-interpolated table profiles and the histogram density of terminal
radii.

Each is an independent route to a quantity that the package computes
another way, so a test can compare the two.  The Jacobi rules here are
scipy's roots_jacobi, not the package's own.
"""

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.special import roots_jacobi

from hyperwalk import RadialProfile, spectral, sphere_area
from hyperwalk.geometry import as_dim
from hyperwalk.quadrature import (QuadratureError, gauss_legendre, gk_adaptive_vector,
                                  integrate_adaptive, panel_nodes)
from hyperwalk.radial_density import pdf_eta, sinch
from hyperwalk.spectral import _kn

_SERIES_TOL = 1e-17  # the series stops at two terms below this, relative
_SERIES_TERMS = 200  # and fails after this many


class SeriesError(RuntimeError):
    """phi_series failed to converge in _SERIES_TERMS terms."""


def phi_series(lam, eta, n):
    """Spherical function as the hypergeometric series with parameters
    rho +- i*lambda and argument -sinh(eta/2)^2: the small-radius oracle
    that tests compare phi_many against.

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


def phi_jacobi(lam: float, etas: np.ndarray, n) -> np.ndarray:
    """Spherical function at one lambda and the radii etas > 0, by the
    Jacobi-rule form of its radial integral that phi_many also uses, but on
    scipy's Gauss-Jacobi rule (the positive half of 32 + 0.6 lambda max(eta)
    nodes), not on the package's."""
    d = as_dim(n).n
    alpha = (d - 3) / 2.0
    q = 2 * (16 + int(0.3 * abs(lam) * float(np.max(etas))))
    v, w = roots_jacobi(q, alpha, alpha)
    v, w = v[q // 2:], w[q // 2:]
    a = 0.5 * etas[:, None] * (1.0 + v)
    b = 0.5 * etas[:, None] * (1.0 - v)
    j = 2.0 * (((sinch(a) * sinch(b)) ** alpha * np.cos(lam * etas[:, None] * v)) @ w)
    return _kn(d) * sinch(etas) ** (2 - d) * j


def fh_transform_jacobi(p: RadialProfile, lam):
    """Radial transform as the integral of phi_jacobi against the radial
    measure, on the 32-node Gauss-Legendre panels of [0, eta_max].

    Each lambda starts at the panel level int(lambda eta_max / 34).bit_length()
    and doubles the panels until three consecutive levels agree to 1e-13
    (relative above 1), within 14 levels: two levels can agree on a plateau,
    as levels 0 and 1 do 1e-12 away from the value for the bump scaled by
    1/16 at n = 2 and lambda = 154.4.  The Jacobi rule of phi_jacobi grows with lambda eta_max,
    so this route costs O(lambda^2) per lambda where the Abel route of
    fh_transform costs O(lambda).
    """
    lams = np.abs(np.asarray(lam, dtype=float))
    flat = lams.reshape(-1)
    start = np.array([int(l * p.eta_max / 34.0).bit_length() for l in flat], dtype=int)
    out = np.empty(flat.size)
    prev = np.full(flat.size, np.inf)
    agreed = np.zeros(flat.size, dtype=bool)  # the last two levels agreed
    pending = np.ones(flat.size, dtype=bool)
    for lv in range(int(start.max(initial=-14)) + 14):
        sel = np.nonzero(pending & (start <= lv) & (lv < start + 14))[0]
        if sel.size == 0:
            continue
        nodes, weights = panel_nodes(0.0, p.eta_max, 2**lv, 32)
        phis = np.array([phi_jacobi(lam, nodes, p.dim.n) for lam in flat[sel]])
        cur = (phis * (weights * pdf_eta(p, nodes))).sum(axis=1)
        close = np.abs(cur - prev[sel]) <= np.maximum(1e-13, 1e-13 * np.abs(cur))
        done = close & agreed[sel]
        agreed[sel] = close
        out[sel[done]] = cur[done]
        pending[sel[done]] = False
        prev[sel] = cur
    if np.any(pending):
        raise QuadratureError(f"transform quadrature did not converge (lam={flat[pending][0]})")
    return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def variance_jacobi(p: RadialProfile) -> float:
    """Variance -F''(0)/F(0) as a radial integral of the second lambda
    derivative of the spherical function at 0, by the positive half of a
    48-node Jacobi rule, against the radial measure, over fh_transform_jacobi
    at 0."""
    d = p.dim.n
    alpha = (d - 3) / 2.0
    v, w = roots_jacobi(48, alpha, alpha)
    v, w = v[24:], w[24:]

    def integrand(etas):
        a = 0.5 * etas[:, None] * (1.0 + v[None, :])
        b = 0.5 * etas[:, None] * (1.0 - v[None, :])
        j = 2.0 * (((sinch(a) * sinch(b)) ** alpha * v[None, :] ** 2) @ w)
        return _kn(d) * sinch(etas) ** (2 - d) * etas**2 * j * pdf_eta(p, etas)

    raw = integrate_adaptive(integrand, 0.0, p.eta_max, abs_tol=1e-15, rel_tol=1e-13, q=32)
    return raw / fh_transform_jacobi(p, 0.0)


def fh_inverse_kronrod(F, etas, n):
    """The inverse transform by adaptive Gauss-Kronrod panels in lambda, a
    rule independent of fh_inverse_grid's trapezoid levels with the same
    truncation and tolerance: uniform panels of width min(4, 8 / max(1,
    eta_top)) over the bulk, growing by 1.35 into the tail, refined by
    quadrature.gk_adaptive_vector.  F returns an array for an array of
    lambda."""
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)
    lam_max, peak = spectral.find_truncation(lambda lams: np.abs(F(lams)), d)

    def rows(lams):
        return (F(lams) * spectral.plancherel_density(lams, d))[:, None] * spectral.phi_many(
            lams, etas, d)

    width = min(4.0, 8.0 / max(1.0, float(np.max(etas))))
    edges = [0.0]
    step = width
    while edges[-1] < lam_max:
        if edges[-1] > 8.0 * width:
            step *= 1.35
        edges.append(min(edges[-1] + step, lam_max))
    integral = gk_adaptive_vector(rows, np.asarray(edges),
                                  abs_tol=spectral._ABS_TARGET * min(1.0, peak))
    return spectral.inversion_constant(d) * integral


def spline_profile(etas, values, dim) -> RadialProfile:
    """Profile of tabulated (eta, value) pairs under a not-a-knot cubic
    spline, zero beyond the last eta and clipped at zero.  Higher order than
    the package's pchip tables for smooth data such as heat kernels."""
    etas = np.asarray(etas, dtype=float)
    interp = CubicSpline(etas, np.asarray(values, dtype=float), extrapolate=False)
    eta_max = float(etas[-1])

    def shape(e):
        out = interp(np.clip(np.asarray(e, dtype=float), 0.0, eta_max))
        return np.maximum(np.nan_to_num(out, nan=0.0), 0.0)

    return RadialProfile(shape, eta_max, dim, family="table",
                         params={"points": int(etas.size)})


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
    c_nodes, c_weights = roots_jacobi(128, alpha, alpha)
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
    """Tabulate the direct convolution on its support and wrap it as a
    spline profile."""
    grid = np.linspace(0.0, f.eta_max + g.eta_max, points)
    return spline_profile(grid, np.maximum(convolve_direct(f, g, grid), 0.0), f.dim.n)


def empirical_radial_density(etas, n, bins) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density per unit Riemannian volume of the terminal radii
    etas of a walk in dimension n, on the given bin edges.

    Each bin divides its count by paths * Omega_{n-1} * int sinh^{n-1}, so the
    result is directly comparable to exact radial densities.
    """
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("bins must be a strictly increasing grid of edges")
    if etas.size < 1000:
        raise ValueError("need at least 1e3 samples for a stable histogram")
    counts, _ = np.histogram(etas, bins=edges)
    x, w = gauss_legendre(16)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    bin_measure = sphere_area(n) * half * (np.sinh(nodes) ** (n - 1) @ w)
    density = counts / (etas.size * bin_measure)
    return mid, density
