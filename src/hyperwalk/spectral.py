"""Radial Fourier analysis on the ball: spherical functions, the Helgason
transform and its inverse, the variance and the exact N-step walk densities.

The forward transform factors through the Abel transform of the profile
(Koornwinder 1984; Helgason, Groups and Geometric Analysis, ch. IV),
F(lambda) = 2 int cos(lambda s) A(s) ds with A(s) = 2^alpha k_n Omega_{n-1}
int_s g(eta) sinh(eta) (cosh(eta) - cosh(s))^alpha d eta, alpha = (n-3)/2.
A table of A (n = 2) or -A' (n >= 3) per profile and quadrature level makes
each lambda one row of cosines or sines, and the variance a moment ratio.
The table's panels end at the profile's knots, and its inner integral has
its own level doubling, so a table of S nodes costs O(S).

The spherical function, which the inverse transform needs, is
sin(lambda eta)/(lambda eta) * eta/sinh(eta) in closed form for n = 3.  For
every other n it is computed by an endpoint-regularized Jacobi-rule form of
its radial integral: the substitution s = eta*v and the product formula
cosh(eta) - cosh(eta*v) = 2 sinh(eta(1+v)/2) sinh(eta(1-v)/2) turn the
endpoint singularity into the weight (1-v^2)^{(n-3)/2}, which
quadrature.gauss_jacobi_sym integrates in closed form: Gauss-Legendre with
the weight as a factor for odd n, where it is a polynomial, and the midpoint
rule in v = cos(theta) for even n.  The inverse transform is an adaptive
Gauss-Kronrod integral against the Plancherel density |c(lambda)|^{-2} of
the Harish-Chandra c-function, an elementary function of lambda in every
dimension, with tail and panel tolerances relative to the integrand's peak
where that peak is below 1.

Array contract: `phi_many`, `fh_transform` and `plancherel_density` take a
scalar or an array of lambda and evaluate every lambda in one call; each
lambda gets exactly the value a scalar call would give it.
`fh_inverse_grid` evaluates its spectral integrand once per round of
15-node Kronrod panels (all the initial panels, then the two halves of each
bisected panel), so the F it is given receives 1-d lambda arrays whose
length is a multiple of 15 (and may return a scalar, which is broadcast);
the envelope receives blocks of the truncation scan.  For an F that, like
`fh_transform`, gives every lambda its scalar value, the result does not
depend on how the panels are grouped.
"""

import math

import numpy as np

from .geometry import as_dim, sphere_area
from .quadrature import QuadratureError, gauss_jacobi_sym, gauss_legendre, gk_adaptive_vector
from .radial_density import RadialProfile, scale_profile, sinch

_ABS_TARGET = 1e-13
_TAIL_THRESHOLD = 1e-14
_LAMBDA_CAP = 1e4
# elements of one block of (lambda, eta, Jacobi node) cosines, of (lambda, s)
# transform kernels, of (s, u) Abel-transform nodes or of the (lambda, eta)
# rows of one call of the inverse transform's integrand: 2 MiB of float64
_COS_BLOCK = 1 << 18
# truncation scan points whose envelope is evaluated in one call
_SCAN_BLOCK = 16
# Jacobi factors of phi_many kept between calls, with their total bytes cap
_ROWS = {}
_ROWS_BYTES = 1 << 24


class TruncationError(RuntimeError):
    """No admissible truncation point for the inverse transform."""


def _kn(n: int) -> float:
    return math.gamma(n / 2.0) / (math.sqrt(math.pi) * math.gamma((n - 1) / 2.0))


def _gj_order(lam, eta_max: float):
    q = 24 + (0.55 * np.abs(lam) * eta_max).astype(int)
    return np.minimum(-(-q // 8) * 8, 4096)


def _radial_rows(ep: np.ndarray, d: int, q: int):
    """Positive half of the even Jacobi rule of order q (the integrand is even
    in v), the scale k_n sinch^{2-n} and the weights times (sinch(a)
    sinch(b))^alpha, a, b = eta (1 +- v)/2, at the radii ep: fixed for all
    the Kronrod panels of one inversion, so kept in _ROWS, which is emptied
    before the weights it holds would pass _ROWS_BYTES."""
    key = (ep.tobytes(), d, q)
    if key not in _ROWS:
        alpha = (d - 3) / 2.0
        v, w = gauss_jacobi_sym(q, alpha)
        v, w = v[q // 2:], w[q // 2:]
        a = 0.5 * ep[:, None] * (1.0 + v[None, :])
        b = 0.5 * ep[:, None] * (1.0 - v[None, :])
        rows = (v, _kn(d) * sinch(ep) ** (2 - d), (sinch(a) * sinch(b)) ** alpha * w)
        for r in rows:
            r.setflags(write=False)  # the cache hands the same arrays to every call
        if sum(r[2].nbytes for r in _ROWS.values()) + rows[2].nbytes > _ROWS_BYTES:
            _ROWS.clear()
        _ROWS[key] = rows
    return _ROWS[key]


def phi_many(lam, eta, n):
    """Spherical function: sin(lambda eta)/(lambda eta) * eta/sinh(eta) in
    closed form for n = 3, by the Jacobi rule of its radial integral for
    every other n.

    Accepts scalar or array lam and eta; the result has lam's shape followed
    by eta's, and a negative lambda gives the value at |lambda|.  For n != 3
    each lambda takes the node count _gj_order(lambda, max eta), and the
    lambdas sharing a node count are evaluated together in blocks of at most
    _COS_BLOCK cosines.
    """
    d = as_dim(n).n
    lams = np.abs(np.asarray(lam, dtype=float)).reshape(-1)
    etas = np.asarray(eta, dtype=float)
    e = etas.reshape(-1)
    out = np.ones((lams.size, e.size))
    pos = np.nonzero(e > 0.0)[0]
    if d == 3 and pos.size and lams.size:
        ep = e[pos]
        x = lams[:, None] * ep
        sinc = np.divide(np.sin(x), x, out=np.ones_like(x), where=x != 0.0)
        out[:, pos] = sinc / sinch(ep)
    elif pos.size and lams.size:
        ep = e[pos]
        orders = _gj_order(lams, float(np.max(ep)))
        for q in sorted(set(orders.tolist())):
            rows = np.nonzero(orders == q)[0]
            v, scale, smooth_w = _radial_rows(ep, d, int(q))
            step = max(1, _COS_BLOCK // smooth_w.size)
            for i in range(0, rows.size, step):
                r = rows[i:i + step]
                c = (lams[r, None] * ep[None, :])[:, :, None] * v
                np.cos(c, out=c)
                c *= smooth_w
                out[r[:, None], pos] = scale * (2.0 * c.sum(axis=-1))
    out = out.reshape(np.shape(lam) + etas.shape)
    return float(out) if out.ndim == 0 else out


# -- Harish-Chandra c-function and Plancherel density -------------------------

def plancherel_density(lam, n):
    """|c(lambda)|^{-2} for the c-function

        c(lambda) = 2^{3-n-2i lam} Gamma(n/2) Gamma(2i lam)
                    / (Gamma((n-1+2i lam)/2) Gamma((1+2i lam)/2)),

    in closed form: with |Gamma(i y)|^2 = pi/(y sinh(pi y)), |Gamma(1/2 + i
    y)|^2 = pi/cosh(pi y) and the recurrence of Gamma, it is

        odd n:  16 lam^2 prod_{j=1}^{(n-3)/2} 16 (j^2 + lam^2) / (j + 1/2)^2,
        even n: pi lam tanh(pi lam) prod_{i=0}^{(n-4)/2} 16 ((i+1/2)^2 + lam^2) / (i+1)^2,

    each factor holding its share of 2^{2(n-3)} 4 pi / Gamma(n/2)^2, so that
    no partial product overflows before the density does.  The doubled
    spectral argument inside the Gamma factors is pinned by the eigenvalue
    normalization of the spherical functions: it reproduces the classical
    densities lambda*tanh(pi lambda) (n=2), 16 lambda^2 (n=3) and
    lambda^2(lambda^2+1) up to constants (n=5), and makes the inverse
    transform exactly undo the forward one.  Vanishes like lambda^2 at the
    origin (the Gamma pole) and grows like lambda^{n-1} at infinity.  Scalar
    or array lam.
    """
    d = as_dim(n).n
    lam = np.abs(np.asarray(lam, dtype=float))
    lam2 = lam * lam
    if d % 2:
        out = 16.0 * lam2
        factors = [(j * j, (j + 0.5) ** 2) for j in range(1, (d - 1) // 2)]
    else:
        out = math.pi * lam * np.tanh(math.pi * lam)
        factors = [((i + 0.5) ** 2, (i + 1) ** 2) for i in range(d // 2 - 1)]
    for shift, div in factors:
        out = out * ((shift + lam2) * (16.0 / div))
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

def _edges(p: RadialProfile, level: int):
    """Panel edges of a dyadic level, each interval between 0, the profile's
    knots and eta_max cut into 2^level equal panels, and a flag per panel,
    set on the first panel and on the last panel below each knot, where the
    Abel table may be rough."""
    ends = [0.0, *p.knots]  # the knots are sorted, distinct and in (0, eta_max]
    if ends[-1] < p.eta_max:
        ends.append(p.eta_max)
    ends = np.array(ends)
    cuts = ends[:-1, None] + np.diff(ends)[:, None] * (np.arange(2**level) / 2**level)
    kinked = np.zeros(cuts.shape, dtype=bool)
    kinked[:len(p.knots), -1] = True
    kinked[0, 0] = True
    return np.append(cuts.ravel(), p.eta_max), kinked.ravel()


def _abel_inner(p: RadialProfile, s: np.ndarray, m: int, level: int) -> np.ndarray:
    """2 int_0^U g(eta) u^m du at each s, u^2 = cosh(eta) - cosh(s), in the
    variable tau of u = sqrt(2) a sinh(tau), a = sinh(s/2), so that
    sinh(eta/2) = a cosh(tau): the branch point of eta(u) at u = i sqrt(2) a,
    which nears the path as s -> 0, moves to tau = i pi/2.  The rule is
    32-node Gauss-Legendre in tau on the images of the panels of _edges(p,
    level) cut at s, in blocks of at most _COS_BLOCK nodes.  An edge e maps
    to asinh(sqrt(sinh((e+s)/2) sinh((e-s)/2)) / a), free of cancellation.
    The panels below s have zero width: their nodes keep the zeros they add
    without being evaluated, so each row is summed as a full row is."""
    x, w = gauss_legendre(32)
    grid = _edges(p, level)[0]
    out = np.empty(s.size)
    step = max(1, _COS_BLOCK // (32 * (grid.size - 1)))
    for i in range(0, s.size, step):
        sb = s[i:i + step, None]
        a = np.sinh(0.5 * sb)
        edges = np.maximum(grid, sb)
        te = np.arcsinh(np.sqrt(np.sinh(0.5 * (edges + sb)) * np.sinh(0.5 * (edges - sb))) / a)
        half = 0.5 * (te[:, 1:] - te[:, :-1])
        row, col = np.nonzero(half > 0.0)
        h = half[row, col, None]
        tau = 0.5 * (te[row, col + 1] + te[row, col])[:, None] + h * x
        ra = math.sqrt(2.0) * a[row]
        vals = np.zeros(half.shape + (32,))
        vals[row, col] = (p.g(2.0 * np.arcsinh(a[row] * np.cosh(tau)))
                          * (ra * np.sinh(tau)) ** m * ra * np.cosh(tau) * (h * w))
        out[i:i + step] = 2.0 * vals.reshape(len(vals), -1).sum(axis=1)
    return out


def _abel_table(p: RadialProfile, level: int):
    """Cached (s, 2 w T(s)) on the 32-node Gauss-Legendre panels of _edges(p,
    level): T is A for n = 2 and -A' for n >= 3, that is c g(s) sinh(s) for
    n = 3 and c alpha sinh(s) times the Abel integral of exponent alpha - 1
    above, c = 2^alpha k_n Omega_{n-1}.  For even n, T has half-integer
    powers of the distance to a knot below it, and terms like s^2 log(s)
    at 0 unless g is even; on the kinked panels of _edges the map
    t -> (3t - t^3)/2 of the panel onto itself tames them (the powers become
    integer ones).  Elsewhere, as near the flat end of a bump, the map would
    only cost accuracy.

    The inner rule's level doubles from 0, whatever the outer level, until
    the sum of 2 w |change of T| |kernel| falls to _ABS_TARGET (|kernel| <= 1
    for the cosines of n = 2 and <= s for the sines of n >= 3), which bounds
    the change of every transform value, and the finer table is kept.  So a
    table of S nodes costs O(S) inner nodes.
    """
    tables = p._cache.setdefault("abel", {})
    entry = tables.get(level)
    if entry is None:
        d = p.dim.n
        alpha = (d - 3) / 2.0
        c = 2.0**alpha * _kn(d) * sphere_area(d)
        x, w = gauss_legendre(32)
        e, kinked = _edges(p, level)
        x, w = np.tile(x, (kinked.size, 1)), np.tile(w, (kinked.size, 1))
        if d % 2 == 0:
            xk = x[kinked]
            x[kinked], w[kinked] = 0.5 * xk * (3.0 - xk * xk), 1.5 * w[kinked] * (1.0 - xk * xk)
        mid, half = 0.5 * (e[:-1] + e[1:])[:, None], 0.5 * np.diff(e)[:, None]
        s, w = (mid + half * x).ravel(), (half * w).ravel()
        if d == 3:
            t = c * np.sinh(s) * p.g(s)
        else:
            m, scale = (0, c) if d == 2 else (d - 4, c * alpha * np.sinh(s))
            bound = 2.0 * w * (1.0 if d == 2 else s)
            prev = scale * _abel_inner(p, s, m, 0)
            for inner in range(1, 14):
                t = scale * _abel_inner(p, s, m, inner)
                if np.sum(bound * np.abs(t - prev)) <= _ABS_TARGET:
                    break
                prev = t
            else:
                raise QuadratureError("Abel transform quadrature did not converge")
        entry = tables[level] = (s, 2.0 * w * t)
    return entry


def fh_transform(p: RadialProfile, lam):
    """Radial Helgason transform: integral of the spherical function against
    the radial measure of the profile, to ~1e-13 absolute.

    For n = 2 it is the cosine sum of the Abel table; for n >= 3 it is taken
    by parts, F = 2 int B(s) sin(lambda s)/lambda ds with B = -A', whose
    rounding error falls like 1/lambda where the cosine sum's stays near
    1e-16 and the Plancherel density's growth carries it into an inverse.

    Scalar or array lam.  Each lambda starts at its own panel level, stops
    when two consecutive levels agree and has a budget of 14 levels; only the
    lambdas still open are evaluated at the next level, one row of the Abel
    table each, in blocks of at most _COS_BLOCK.
    """
    lams = np.abs(np.asarray(lam, dtype=float))
    flat = lams.reshape(-1)
    start = np.array([int(l * p.eta_max / 34.0).bit_length() for l in flat], dtype=int)
    out = np.empty(flat.size)
    prev = np.full(flat.size, np.inf)
    pending = np.ones(flat.size, dtype=bool)
    for lv in range(int(start.max(initial=-14)) + 14):
        sel = np.nonzero(pending & (start <= lv) & (lv < start + 14))[0]
        if sel.size == 0:
            continue
        s, wt = _abel_table(p, lv)
        cur = np.empty(sel.size)
        step = max(1, _COS_BLOCK // s.size)
        for i in range(0, sel.size, step):
            r = flat[sel[i:i + step], None]
            k = s * np.sinc(r * s / np.pi) if p.dim.n > 2 else np.cos(r * s)
            cur[i:i + step] = (k * wt).sum(axis=1)
        done = np.abs(cur - prev[sel]) <= np.maximum(_ABS_TARGET, 1e-13 * np.abs(cur))
        out[sel[done]] = cur[done]
        pending[sel[done]] = False
        prev[sel] = cur
    if np.any(pending):
        raise QuadratureError(f"transform quadrature did not converge (lam={flat[pending][0]})")
    return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def find_truncation(envelope, n, tail_tol=_TAIL_THRESHOLD):
    """Smallest grid point beyond which |F| |c|^{-2} stays below the tail
    tolerance (three consecutive grid points), and the peak of |F| |c|^{-2}
    over the points judged up to there; hard error past _LAMBDA_CAP.

    The tolerance is tail_tol * min(1, running peak): relative to the
    integrand where its peak is below 1, as for the heat kernel transform
    e^{-(lambda^2 + rho^2) t} in high dimension, and tail_tol itself
    elsewhere.  The scan grid is fine near the origin and coarsens
    proportionally at large lambda, so super-polynomially decaying
    transforms are located in O(100) envelope evaluations.  envelope
    receives the grid in 1-d blocks of _SCAN_BLOCK points and returns an
    array of bounds (or a scalar); the points are then judged in grid order,
    so a block may be evaluated a few points past the answer.
    """
    d = as_dim(n).n
    lam = 0.25
    run = 0
    first = None
    peak = 0.0
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
            peak = max(peak, float(bound))
            if bound <= tail_tol * min(1.0, peak):
                run += 1
                if first is None:
                    first = at
                if run >= 3:
                    return first, peak
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

    F is a callable lambda -> value.  It is called once per round of the
    adaptive Kronrod rule, with the 15 nodes of each panel of the round in
    one 1-d lambda array (so its length is a multiple of 15), and returns
    the values at those lambdas, or a scalar that holds for all of them.
    A call holds at most _COS_BLOCK // (15 * len(etas)) panels (at least
    one), which bounds its (lambda, eta) block of spherical functions.
    envelope is a decay certificate bounding |F| (defaults to |F| itself),
    called with blocks of the truncation scan grid in the same way.  The
    tail and the Kronrod tolerances are scaled by min(1, peak of
    |envelope| |c|^{-2}) (see find_truncation), so an integrand far below 1
    keeps its relative accuracy.  Transforms whose numerically computed
    values bottom out at the quadrature noise floor need either an analytic
    envelope or a tail_tol matched to the target accuracy, since the default
    integrand bound of 1e-14 is then never certified.
    """
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)

    def func(lams):
        return np.broadcast_to(np.asarray(F(lams), dtype=float), lams.shape)

    env = envelope or (lambda lams: np.abs(func(lams)))
    lam_max, peak = find_truncation(env, d, tail_tol=tail_tol)
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
                                  abs_tol=max(_ABS_TARGET, 0.1 * tail_tol) * min(1.0, peak),
                                  batch=max(1, _COS_BLOCK // (15 * max(1, etas.size))))
    return inversion_constant(d) * integral


# -- variance and walk transforms ---------------------------------------------

def variance_direct(p: RadialProfile) -> float:
    """Variance -F''(0)/F(0) as the exact ratio int s^2 A / int A (no finite
    differences), for n >= 3 by parts as int s^3 B / (3 int s B), from the
    Abel table; the levels double until two ratios agree to 1e-13 relative."""
    k = 0 if p.dim.n == 2 else 1
    prev = math.inf
    for lv in range(14):
        s, wt = _abel_table(p, lv)
        cur = float(np.sum(wt * s ** (2 + k)) / ((1 + 2 * k) * np.sum(wt * s**k)))
        if abs(cur - prev) <= 1e-13 * abs(cur):
            return cur
        prev = cur
    raise QuadratureError("variance quadrature did not converge")


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


def walk_density_grid(p: RadialProfile, N: int, etas) -> np.ndarray:
    """Exact density of the N-step walk in the geodesic radial coordinate,
    by spectral inversion of the product transform."""
    return fh_inverse_grid(lambda lam: walk_transform(p, N, lam), etas, p.dim.n)
