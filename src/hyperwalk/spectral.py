"""Radial Fourier analysis on the ball: spherical functions, the Helgason
transform and its inverse, the variance and the exact N-step walk densities.

The forward transform factors through the Abel transform of the profile
(Koornwinder 1984; Helgason, Groups and Geometric Analysis, ch. IV),
F(lambda) = 2 int cos(lambda s) A(s) ds with A(s) = 2^alpha k_n Omega_{n-1}
int_s g(eta) sinh(eta) (cosh(eta) - cosh(s))^alpha d eta, alpha = (n-3)/2.
A table of A (n = 2) or -A' (n >= 3) per profile and quadrature level makes
each lambda one row of cosines or sines, and the variance a moment ratio.
The table's panels end at the profile's knots, and its inner integral has
its own level doubling, so a table of S nodes costs O(S).  Each lambda
starts one level below the profile's converged level, the first whose
table's mass agrees with the previous level's, or higher where its
oscillation needs finer panels, so the levels below, which no lambda would
keep, are not summed.

The spherical function, which the inverse transform needs, is
sin(lambda eta)/(lambda eta) * eta/sinh(eta) in closed form for n = 3.  For
every other n it is computed by an endpoint-regularized Jacobi-rule form of
its radial integral: the substitution s = eta*v and the product formula
cosh(eta) - cosh(eta*v) = 2 sinh(eta(1+v)/2) sinh(eta(1-v)/2) turn the
endpoint singularity into the weight (1-v^2)^{(n-3)/2}, which
quadrature.gauss_jacobi_sym integrates in closed form: Gauss-Legendre with
the weight as a factor for odd n, where it is a polynomial, and the midpoint
rule in v = cos(theta) for even n.  The inverse transform integrates
against the Plancherel density |c(lambda)|^{-2} of the Harish-Chandra
c-function, an elementary function of lambda in every dimension, by nested
trapezoid levels in lambda up to a certified truncation point, with tail
and level tolerances relative to the integrand's peak where that peak is
below 1.  The first level is the truncation scan: its nodes are judged in
order until the tail is certified, so every F value it computes up to the
truncation point is a node of the sum.  The N-step walk law is supported
on [0, S], so at odd n its integrand is the Fourier transform of a
function supported on |x| <= S + eta, and a step below 2 pi / (S + eta) is
exact but for rounding (Poisson summation); at even n the poles of
tanh(pi lambda) at +-i/2 add an error that falls like e^{-pi/step}.

Array contract: `phi_many`, `fh_transform` and `plancherel_density` take a
scalar or an array of lambda and evaluate every lambda in one call; each
lambda gets exactly the value a scalar call would give it.  How
`fh_inverse_grid` calls its F is in its docstring.
"""

import math

import numpy as np

from .geometry import as_dim, sphere_area
from .quadrature import (doubling, doubling_each, gauss_jacobi_sym, gauss_legendre, knot_grid,
                         panel_nodes)
# unused here, but the benchmark's tracer rebinds this name and needs it
from .quadrature import gk_adaptive_vector  # noqa: F401
from .radial_density import RadialProfile, scale_profile, sinch

_ABS_TARGET = 1e-13
_TAIL_THRESHOLD = 1e-14
_LAMBDA_CAP = 1e4
# halvings of the inverse transform's lambda step before a QuadratureError
_LEVELS = 12
_TABLE_LEVELS = 14  # levels of the Abel table's panels before a QuadratureError
_INNER_LEVELS = 14  # levels of its inner Abel integral before a QuadratureError
# elements of one block of (lambda, eta, Jacobi node) cosines, of (lambda, s)
# transform kernels, of (s, u) Abel-transform nodes or of the (lambda, eta)
# rows of one call of the inverse transform's integrand: 2 MiB of float64
_COS_BLOCK = 1 << 18


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
    sinch(b))^alpha, a, b = eta (1 +- v)/2, at the radii ep."""
    alpha = (d - 3) / 2.0
    v, w = gauss_jacobi_sym(q, alpha)
    v, w = v[q // 2:], w[q // 2:]
    a, b = 0.5 * ep[:, None] * (1.0 + v), 0.5 * ep[:, None] * (1.0 - v)
    return v, _kn(d) * sinch(ep) ** (2 - d), (sinch(a) * sinch(b)) ** alpha * w


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
    grid = knot_grid(p.knots, p.eta_max, level)
    kinked = np.zeros(((grid.size - 1) >> level, 1 << level), dtype=bool)
    kinked[:len(p.knots), -1] = True
    kinked[0, 0] = True
    return grid, kinked.ravel()


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

    The inner rule's level doubles from 0, whatever the outer level, for
    _INNER_LEVELS levels at most, until the sum of 2 w |change of T| |kernel|
    falls to _ABS_TARGET (|kernel| <= 1 for the cosines of n = 2 and <= s for
    the sines of n >= 3), which bounds the change of every transform value,
    and the finer table is kept.  So a table of S nodes costs O(S) inner
    nodes.
    """
    def build():
        d = p.dim.n
        alpha = (d - 3) / 2.0
        c = 2.0**alpha * _kn(d) * sphere_area(d)
        x, w = gauss_legendre(32)
        e, kinked = _edges(p, level)
        x, w = np.tile(x, (kinked.size, 1)), np.tile(w, (kinked.size, 1))
        if d % 2 == 0:
            xk = x[kinked]
            x[kinked], w[kinked] = 0.5 * xk * (3.0 - xk * xk), 1.5 * w[kinked] * (1.0 - xk * xk)
        s, w = (a.ravel() for a in panel_nodes(e, x, w))
        if d == 3:
            t = c * np.sinh(s) * p.g(s)
        else:
            m, scale = (0, c) if d == 2 else (d - 4, c * alpha * np.sinh(s))
            bound = 2.0 * w * (1.0 if d == 2 else s)
            t = doubling("Abel inner integral", range(_INNER_LEVELS),
                         lambda inner: scale * _abel_inner(p, s, m, inner), _ABS_TARGET,
                         gap=lambda prev, cur: np.sum(bound * np.abs(cur - prev)))[0]
        return s, 2.0 * w * t

    return p.cached(("abel", level), build)


# 1/(2k+1)!, k = 1...9: the Taylor series of sinc - 1 in x^2 to rounding at |x| = 1
_SINC_TAYLOR = [1.0 / math.factorial(2 * k + 1) for k in range(1, 10)]


def _sinc_deficit(x, sign=-1.0):
    """1 - sin(x)/x (sign -1) or sinh(x)/x - 1 (sign 1) at x >= 0, without
    cancellation: the Taylor series in x^2 below x = 1, the difference above."""
    out = np.sinh(x) if sign > 0.0 else np.sin(x)
    np.divide(out, x, out=out, where=x != 0.0)
    out -= 1.0
    small = x < 1.0
    u = x[small]
    u *= sign * u
    series = np.zeros_like(u)
    for c in reversed(_SINC_TAYLOR):
        series += c
        series *= u
    out[small] = series
    out *= sign
    return out


def _deficit_base(p: RadialProfile, level: int) -> float:
    """The lambda-free half of the deficit (see fh_transform) over the Abel
    table of the level, cached."""
    def build():
        s, wt = _abel_table(p, level)
        rho = 0.5 * (p.dim.n - 1)
        k = 2.0 * np.sinh(0.5 * rho * s) ** 2 if p.dim.n == 2 else s * _sinc_deficit(rho * s, 1.0)
        return float(np.sum(wt * k))

    return p.cached(("deficit_base", level), build)


def _converged_level(p: RadialProfile) -> int:
    """The first panel level whose Abel table's mass, the transform at
    lambda = 0, agrees with the previous level's to fh_transform's
    tolerance, cached; a QuadratureError after _TABLE_LEVELS levels.  It
    reads the profile's tables alone, so it does not depend on which calls
    came before."""
    def mass(level):
        s, wt = _abel_table(p, level)
        return float(np.sum(wt) if p.dim.n == 2 else np.sum(wt * s))

    return p.cached("converged_level", lambda: doubling("transform mass", range(_TABLE_LEVELS),
                                                        mass, _ABS_TARGET, 1e-13)[1])


def fh_transform(p: RadialProfile, lam, deficit: bool = False):
    """Radial Helgason transform: integral of the spherical function against
    the radial measure of the profile, to ~1e-13 absolute; with deficit set,
    the deficit 1 - F instead.

    For n = 2 it is the cosine sum of the Abel table; for n >= 3 it is taken
    by parts, F = 2 int B(s) sin(lambda s)/lambda ds with B = -A', whose
    rounding error falls like 1/lambda where the cosine sum's stays near
    1e-16 and the Plancherel density's growth carries it into an inverse.
    The deficit is int (phi_{i rho} - phi_lambda) dmu, as phi_{i rho} = 1,
    rho = (n-1)/2, so its kernel cosh(rho s) - cos(lambda s) (n = 2), or
    sinh(rho s)/rho - sin(lambda s)/lambda (n >= 3), splits into a lambda-free
    and a lambda term, both >= 0 and computed without cancellation.

    Scalar or array lam.  Each lambda runs _TABLE_LEVELS panel levels at
    most in quadrature.doubling_each, from the level its oscillation needs,
    bit_length(lambda eta_max / 34), or one below the profile's converged
    level (_converged_level), whichever is higher, so the lower levels, which
    only the stop test would read, are skipped.  The lambdas still open are
    evaluated, one row of the Abel table each, in blocks of at most
    _COS_BLOCK.  Both start terms depend on the profile and the lambda alone,
    so each lambda gets the value of its scalar call.
    """
    d = p.dim.n
    lams = np.abs(np.asarray(lam, dtype=float))
    flat = lams.reshape(-1)
    start = np.array([int(l * p.eta_max / 34.0).bit_length() for l in flat], dtype=int)
    if flat.size:
        np.maximum(start, _converged_level(p) - 1, out=start)

    def value(lv, open_lams):
        s, wt = _abel_table(p, lv)
        base = _deficit_base(p, lv) if deficit else 0.0
        cur = np.empty(open_lams.size)
        step = max(1, _COS_BLOCK // s.size)
        for i in range(0, open_lams.size, step):
            r = open_lams[i:i + step, None]
            if d == 2:
                k = 2.0 * np.sin(0.5 * r * s) ** 2 if deficit else np.cos(r * s)
            else:
                k = s * (_sinc_deficit(r * s) if deficit else np.sinc(r * s / np.pi))
            cur[i:i + step] = base + (k * wt).sum(axis=1)
        return cur

    out = doubling_each("transform", flat, start, _TABLE_LEVELS, value, _ABS_TARGET, 1e-13)
    return float(out[0]) if lams.ndim == 0 else out.reshape(lams.shape)


def _level0(F, d, step, block):
    """Level 0 of the inverse transform, which is also its truncation scan:
    the bounds |F| |c|^{-2} at the nodes k step, k = 1, 2, ..., are judged in
    node order until three consecutive ones lie below _TAIL_THRESHOLD *
    min(1, running peak), a tolerance relative to the integrand where its
    peak is below 1 (the heat kernel transform in high dimension).  Returns
    the count K of nodes up to the first of those three, the peak, and F at
    those K nodes.  Each call of F takes as many nodes as all calls before,
    from 32 up to block; hard error past _LAMBDA_CAP."""
    vals = []
    k = run = 0
    peak = 0.0
    last = int(_LAMBDA_CAP / step)
    while k < last:
        lams = np.arange(k + 1, min(k + min(block, max(32, k)), last) + 1) * step
        vals.append(F(lams))
        bounds = np.abs(vals[-1]) * plancherel_density(lams, d)
        for bound in bounds.tolist():
            k += 1
            peak = max(peak, bound)
            if bound <= _TAIL_THRESHOLD * min(1.0, peak):
                run += 1
                if run >= 3:
                    return k - 2, peak, np.concatenate(vals)[:k - 2]
            else:
                run = 0
    raise TruncationError(f"no admissible truncation below lambda = {_LAMBDA_CAP}")


def fh_inverse_grid(F, etas, n):
    """Inverse transform in dimension n on a 1-d grid of radii, sharing the
    lambda nodes.

    The lambda integral over [0, lam_max] is taken by nested trapezoid
    levels.  Level 0 has the step pi / max(eta_top, 1), eta_top the largest
    radius, and is the truncation scan (_level0), so lam_max is one of its
    nodes and every F value it computes up to there is a node of the sum.
    Each later level halves the step and evaluates only the new midpoints.
    The integrand is even in lambda and vanishes at 0, so a level's sum is
    its step times the sum over its nodes in (0, lam_max].  Two consecutive
    levels must agree to max(_ABS_TARGET min(1, peak), 1e-14 max |result|),
    the peak of |F| |c|^{-2}, so an integrand far below 1 keeps its relative
    accuracy; _LEVELS halvings without that agreement are a QuadratureError.

    F is a callable lambda -> value.  It is called with 1-d arrays of nodes
    in node order, at most _COS_BLOCK // len(etas) of them (at least one),
    which bounds the call's (lambda, eta) block of spherical functions, and
    returns the values at those lambdas, or a scalar that holds for all of
    them.  Each node's row is added to the running sum in node order, so for
    an F that, like fh_transform, gives every lambda its scalar value, the
    result does not depend on the blocks.  The tail is certified from F's
    own values, so a transform that decays only to its quadrature noise
    floor, as a raw compactly supported profile's does, never certifies it
    and raises a TruncationError at _LAMBDA_CAP; the N-step walk transforms
    and the heat kernel's decay like Gaussians and need no more.
    """
    d = as_dim(n).n
    etas = np.asarray(etas, dtype=float)

    def func(lams):
        return np.broadcast_to(np.asarray(F(lams), dtype=float), lams.shape)

    block = max(1, _COS_BLOCK // max(1, etas.size))
    step = math.pi / max(float(np.max(etas, initial=0.0)), 1.0)
    nodes, peak, vals = _level0(func, d, step, block)
    abs_tol = _ABS_TARGET * min(1.0, peak)
    total = np.zeros(etas.size)  # the integrand summed over every node so far

    def value(level):
        h = math.ldexp(step, -level)
        ks = np.arange(1, nodes + 1) if level == 0 else np.arange(1, nodes << level, 2)
        for i in range(0, ks.size, block):
            lams = ks[i:i + block] * h
            f = vals[i:i + block] if level == 0 else func(lams)
            rows = (f * plancherel_density(lams, d))[:, None] * phi_many(lams, etas, d)
            for row in rows:
                np.add(total, row, out=total)
        return h * total

    return inversion_constant(d) * doubling("inverse transform", range(_LEVELS + 1), value,
                                            abs_tol, 1e-14)[0]


# -- variance and walk transforms ---------------------------------------------

def variance_direct(p: RadialProfile) -> float:
    """Variance -F''(0)/F(0) as the exact ratio int s^2 A / int A (no finite
    differences), for n >= 3 by parts as int s^3 B / (3 int s B), from the
    Abel table; the levels double until two ratios agree to 1e-13 relative,
    _TABLE_LEVELS levels at most."""
    k = 0 if p.dim.n == 2 else 1

    def ratio(lv):
        s, wt = _abel_table(p, lv)
        return float(np.sum(wt * s ** (2 + k)) / ((1 + 2 * k) * np.sum(wt * s**k)))

    return doubling("variance", range(_TABLE_LEVELS), ratio, rel_tol=1e-13)[0]


def _scaled_for_walk(p: RadialProfile, N: int) -> RadialProfile:
    return p.cached(("scaled_for_walk", N), lambda: scale_profile(p, 1.0 / math.sqrt(N)))


def walk_transform(p: RadialProfile, N: int, lam):
    """Exact transform of the N-step normalized sum: the one-step transform F
    of the contracted law raised to the N-th power.  For N > 1 that is
    exp(N log1p(-delta)) of the deficit delta = 1 - F (see fh_transform), so
    that the rounding of F is not raised N-fold, or where F <= 0 the plain
    power of 1 - delta."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N!r}")
    N = int(N)
    if N == 1:
        return fh_transform(p, lam)
    delta = fh_transform(_scaled_for_walk(p, N), lam, deficit=True)
    with np.errstate(divide="ignore", invalid="ignore"):  # log1p where delta >= 1, unused
        return np.where(delta < 1.0, np.exp(N * np.log1p(-delta)), (1.0 - delta) ** N)[()]


def walk_density_grid(p: RadialProfile, N: int, etas) -> np.ndarray:
    """Exact density of the N-step walk in the geodesic radial coordinate,
    by spectral inversion of the product transform."""
    return fh_inverse_grid(lambda lam: walk_transform(p, N, lam), etas, p.dim.n)
