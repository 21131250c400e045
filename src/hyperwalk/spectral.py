"""Radial Fourier analysis on the ball: spherical functions, the Helgason
transform and its inverse, the variance and the exact N-step walk densities.

The spherical function is computed by an endpoint-regularized Gauss-Jacobi
form of its radial integral: the substitution s = eta*v and the product
formula cosh(eta) - cosh(eta*v) = 2 sinh(eta(1+v)/2) sinh(eta(1-v)/2) turn
the endpoint singularity into the Jacobi weight (1-v^2)^{(n-3)/2}.

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


def _jacobi_factor(etas: np.ndarray, v: np.ndarray, alpha: float) -> np.ndarray:
    """(sinch(a) sinch(b))^alpha at a, b = eta (1 +- v)/2, as (M, nodes): the
    smooth part of the radial integrand left by the Jacobi weight."""
    a = 0.5 * etas[:, None] * (1.0 + v[None, :])
    b = 0.5 * etas[:, None] * (1.0 - v[None, :])
    return (sinch(a) * sinch(b)) ** alpha


def _lam_shape(lam, out: np.ndarray, eta_shape: tuple):
    """Reshape (L, M) values to lam's shape followed by eta's shape."""
    out = out.reshape(np.shape(lam) + eta_shape)
    return float(out) if out.ndim == 0 else out


def phi_many(lam, eta, n):
    """Spherical function by Gauss-Jacobi quadrature of its radial integral.

    Accepts scalar or array lam and eta; the result has lam's shape followed
    by eta's.  Each lambda takes the node count _gj_order(lambda, max eta),
    and the lambdas sharing a node count are evaluated together in blocks of
    at most _COS_BLOCK cosines.
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
        orders = _gj_order(lams, float(np.max(ep)))
        for q in np.unique(orders):
            rows = np.nonzero(orders == q)[0]
            v, w = _gj_half(int(q), alpha)
            smooth_w = _jacobi_factor(ep, v, alpha) * w
            step = max(1, _COS_BLOCK // smooth_w.size)
            for i in range(0, rows.size, step):
                r = rows[i:i + step]
                c = (lams[r, None] * ep[None, :])[:, :, None] * v
                np.cos(c, out=c)
                c *= smooth_w
                out[r[:, None], pos] = scale * (2.0 * c.sum(axis=-1))
    return _lam_shape(lam, out, etas.shape)


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


# -- variance and walk transforms ---------------------------------------------

def _fhat0(p: RadialProfile) -> float:
    val = p._cache.get("fhat0")
    if val is None:
        val = fh_transform(p, 0.0)
        if not val > 0.0:
            raise AssertionError("transform at 0 must be positive for a valid profile")
        p._cache["fhat0"] = val
    return val


def variance_kernel(etas, n):
    """Radial kernel whose integral against the law gives the raw second
    spectral derivative at 0 (with opposite sign)."""
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)
    alpha = (d - 3) / 2.0
    v, w = _gj_half(48, alpha)
    j = 2.0 * ((_jacobi_factor(etas, v, alpha) * v[None, :] ** 2) @ w)
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

