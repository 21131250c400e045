"""Compactly supported radial densities on the ball.

A profile stores the density value g(eta) per unit Riemannian volume as a
function of the geodesic radial coordinate, normalized so that

    Omega_{n-1} * int_0^{eta_max} g(eta) sinh(eta)^{n-1} d eta = 1.

The induced radial measure, its CDF, inverse-CDF sampling, the eps-scaling
law and the moments all live here.  Support bounds are tracked in eta units;
the ball-norm bound is R = tanh(eta_max / 2).
"""

import math
from functools import cached_property

import numpy as np

from .geometry import as_dim, sphere_area
from .quadrature import cumulative_gl, doubling, integrate_adaptive, knot_grid

_CDF_TOL = 1e-12
_CDF_CELLS = 2**18  # cells of a CDF table's last level before a QuadratureError
_MAX_STEPS = 100  # Newton steps of a draw in a flagged cell
_SLICE = 2**16  # cells flagged, or guide buckets filled, at a time


def sinch(x):
    """sinh(x)/x, stable through 0."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-4
    xs = np.where(small, 1.0, x)
    out = np.where(small, 1.0 + x * x / 6.0 * (1.0 + x * x / 20.0), np.sinh(xs) / xs)
    return out


class CubicHermite:
    """Piecewise cubic through the values y with the slopes d at the
    increasing nodes x.  c[k, i] is the coefficient of (t - x[i])^(3 - k) in
    cell i.  The coefficients are the standard Hermite formulas and a call
    sums the powers of t - x[i] (not Horner), each in a fixed operation
    order that the tests hold bitwise to a reference spline library.  A
    point outside [x[0], x[-1]] takes its end cell's cubic."""

    def __init__(self, x, y, d):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        t = (d[:-1] + d[1:] - 2 * slope) / dx
        self.x = x
        self.c = np.array([t / dx, (slope - d[:-1]) / dx - t, d[:-1], y[:-1]])

    def __call__(self, pts):
        pts = np.asarray(pts, dtype=float)
        i = np.clip(np.searchsorted(self.x, pts, side="right") - 1, 0, self.x.size - 2)
        s = pts - self.x[i]
        c0, c1, c2, c3 = self.c[:, i]
        return c3 + c2 * s + c1 * (s * s) + c0 * (s * s * s)


def _pchip_end(h0, h1, m0, m1):
    """pchip's one-sided three-point slope at an end node, with its two
    shape fixes."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_slopes(x, y):
    """Slopes of the monotone pchip interpolant (Fritsch-Carlson): at an
    inner node, 0 where the adjacent secants differ in sign or one is 0,
    else their weighted harmonic mean; at the ends, _pchip_end."""
    h = np.diff(x)
    m = np.diff(y) / h
    w1, w2 = 2 * h[1:] + h[:-1], h[1:] + 2 * h[:-1]
    flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0) | (m[:-1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):  # where flat is set
        inner = np.where(flat, 0.0, 1.0 / ((w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)))
    return np.concatenate([[_pchip_end(h[0], h[1], m[0], m[1])], inner,
                           [_pchip_end(h[-1], h[-2], m[-1], m[-2])]])


def _cdf_table(measure, upper, knots=()):
    """Cubic Hermite table of the CDF of a density on [0, upper], smooth
    between its knots.

    Its nodes are the knot_grid of the first level with at least 256 cells,
    knot-aligned as the panels of the profile's normaliser and moments are.
    Its values sum 16-node Gauss-Legendre over the cells, and its slopes are
    the exact density, the last one its left limit at upper.  The table is
    doubled until the previous level's interpolant matches the new node
    values to below _CDF_TOL: the criterion bounds the interpolant between
    nodes, not only the nodes themselves.  No agreement by the last level
    with at most _CDF_CELLS cells, and the second level at least, is a
    QuadratureError (doubling).  Returns a CdfTable with the final cubic and
    its slopes.
    """
    intervals = knot_grid(knots, upper, 0).size - 1
    first = (255 // intervals).bit_length()  # the least level with 256 cells or more
    last = max(first + 1, (_CDF_CELLS // intervals).bit_length() - 1)

    def value(level):
        grid = knot_grid(knots, upper, level)
        vals = cumulative_gl(measure, grid, q=16)
        vals = np.minimum.accumulate(np.minimum(vals, vals[-1])[::-1])[::-1]
        vals = np.maximum.accumulate(vals)
        # a slope above three times an adjacent secant is cut to it, which
        # keeps each cubic monotone; the cut binds only where the density is
        # far from linear across a cell, such as a cell where it vanishes
        # like x^k with k >= 3 (the first radial cell for n >= 4)
        slopes = measure(grid)
        # a density cut off at upper, such as a table profile's, is 0 there
        slopes[-1] = measure(np.array([math.nextafter(upper, 0.0)]))[0]
        secant = np.diff(vals) / np.diff(grid)
        slopes[:-1] = np.minimum(slopes[:-1], 3.0 * secant)
        slopes[1:] = np.minimum(slopes[1:], 3.0 * secant)
        return CdfTable(CubicHermite(grid, vals, slopes), float(vals[-1]), slopes)

    def gap(prev, cur):  # the new node values are the cubics' constant terms and the total
        return np.max(np.abs(prev.interp(cur.interp.x) - np.append(cur.interp.c[3], cur.total)))

    # the largest float below _CDF_TOL: the gap must stay strictly below it
    return doubling("CDF table", range(first, last + 1), value,
                    math.nextafter(_CDF_TOL, 0.0), gap=gap)[0]


class CdfTable:
    """A cubic CDF table: the CubicHermite `interp`, its total mass `total`,
    the density `slopes` at its nodes, and the three arrays _invert_cdf
    reads, built at the first draw.

    `cells` packs, per cell, the rows left node, width, lo, c0, c1, c2, a1,
    a2, a3, hi as one contiguous (10, cells) array, so that one gather
    fetches a draw's cell.  lo and hi are the CDF at the two nodes and c0,
    c1, c2 the cubic's coefficients.  a1, a2, a3 are those of the inverse
    cubic s(t) = ((a3 t + a2) t + a1) t, t = u*total - lo: it runs from 0 to
    the width as t runs from 0 to hi - lo, with the slope 1/pdf at each node
    cut to three times an adjacent inverse secant, as the table cuts its own
    slopes, so it is monotone and finite where the density vanishes.

    `flagged` marks the cells where one Newton step from that start may
    miss the root (_one_step_misses), and the first cell.  `guide` is the
    bucket index of the inversion: bucket b of M (a power of two at least 8
    times the cell count) holds the uniforms in [b/M, (b+1)/M), and guide[b]
    is the cell of the bucket's lower edge, or -1 when the bucket spans more
    than two cells or meets a flagged one.
    """

    def __init__(self, interp, total, slopes):
        self.interp = interp
        self.total = total
        self.slopes = slopes

    @cached_property
    def cells(self):
        x, c = self.interp.x, self.interp.c
        y = np.append(c[3], self.total)
        # a cell of zero mass has an infinite inverse secant and a NaN
        # inverse cubic; no draw lands in it
        with np.errstate(divide="ignore", invalid="ignore"):
            secant = 3.0 * np.diff(x) / np.diff(y)
            inv = 1.0 / self.slopes
            inv[:-1] = np.minimum(inv[:-1], secant)
            inv[1:] = np.minimum(inv[1:], secant)
            a = CubicHermite(y, x, inv).c
        return np.array([x[:-1], np.diff(x), c[3], c[0], c[1], c[2], a[2], a[1], a[0], y[1:]])

    @cached_property
    def flagged(self):
        return _one_step_misses(self.cells)

    @cached_property
    def guide(self):
        return _guide(self.cells[2], self.total, self.flagged)


def _one_step_misses(cells):
    """Flags of the cells where one Newton step from the inverse cubic's
    start may miss the root of the cell's cubic by more than half an ulp of
    the draw, and of the first cell.

    The step from s misses by about its quadratic term |F''| d^2 / (2 F'),
    d = f/F' the step itself, which rounding does not blur as it blurs the
    step's result.  That term is taken at the starts of four points of the
    cell, t = (hi - lo)(2k + 1)/8; a cell of zero mass gives NaN and is
    flagged.  On the bump tables (n = 2, 3, 5), the angle tables (n = 4, 5,
    7) and the 11-point tables (n = 2, 3) this flags runs of cells at the
    two ends (2.2e-4 of the mass for the n = 2 bump, 1.0e-3 for the 11-point
    table at n = 2), and outside them one step is within 2.3e-16 relative of
    the root at 64 points of every cell.  The cells are taken _SLICE at a
    time, so the (cells, 4) temporaries of a large table are never whole.
    """
    flagged = np.empty(cells.shape[1], dtype=bool)
    fractions = np.arange(1, 8, 2) / 8.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in range(0, flagged.size, _SLICE):
            left, width, lo, c0, c1, c2, a1, a2, a3, hi = cells[:, k:k + _SLICE, None]
            t = (hi - lo) * fractions
            s = ((a3 * t + a2) * t + a1) * t
            df = (3.0 * c0 * s + 2.0 * c1) * s + c2
            d = (((c0 * s + c1) * s + c2) * s - t) / df
            miss = np.abs(3.0 * c0 * s + c1) * d * d / df
            flagged[k:k + _SLICE] = ~np.all(miss <= 2.0**-53 * (left + s), axis=1)
    flagged[0] = True
    return flagged


def _guide(lo, total, flagged):
    """Guide of the node values lo (see CdfTable).  A uniform u in bucket b
    has u*total between edges[b] and edges[b + 1], the products rounded as
    _invert_cdf rounds them, so its cell lies between theirs.  Every draw in
    a flagged cell takes the guide's -1.  The buckets are filled _SLICE at a
    time, so only the guide itself is full size."""
    m = 1 << (8 * lo.size - 1).bit_length()
    guide = np.empty(m, dtype=np.int64)
    for k in range(0, m, _SLICE):
        edges = np.arange(k, min(k + _SLICE, m) + 1) / m * total
        cell = np.searchsorted(lo, edges, side="right") - 1  # the cell _invert_cdf gives u*total
        part, span = cell[:-1], np.diff(cell)
        meets = flagged[part] | (span > 0) & flagged[np.minimum(part + 1, lo.size - 1)]
        part[(span > 1) | meets] = -1
        guide[k:k + _SLICE] = part
    return guide


def _newton(s, t, width, c0, c1, c2, f, df):
    """One Newton step on the cell cubic c0 s^3 + c1 s^2 + c2 s = t, in
    place on s and clamped to [0, width]; f and df are scratch rows.

    With p = c0 s + c1 and q = p s + c2 (Horner's scheme and its derivative)
    the residual is q s - t and the derivative (c0 s + p) s + q.  The calls
    below compute them in place, in the operation order of these formulas,
    so every draw is bitwise that of the formulas.  The clamp passes a NaN
    through, and a -0.0 adds to the left node as 0.0 does.
    """
    np.multiply(c0, s, out=df)
    np.add(df, c1, out=f)
    df += f
    df *= s
    f *= s
    f += c2
    df += f
    f *= s
    f -= t
    np.maximum(df, 1e-300, out=df)
    f /= df
    s -= f
    np.maximum(s, 0.0, out=s)
    np.minimum(s, width, out=s)


def _converge(s, t, cells):
    """Newton steps on the draws s of flagged cells, whose rows of `cells`
    are given, until a draw's move is 0 or no smaller than its last one:
    then it has reached the root to rounding.  Each draw stops on its own,
    so it does not depend on the draws it is inverted with.  A draw still
    going after _MAX_STEPS steps is a RuntimeError.

    The flagged cells hold about 1e-3 of the mass or less, a handful of the
    draws of a call, so each draw steps as Python floats: as numpy calls on
    the handful, a step cost some twenty calls.  The step is _newton's, in
    its operation order; a comparison that is false for NaN passes NaN
    through the clamps, as np.maximum and np.minimum do.
    """
    out, stuck = [], 0
    for x, u, width, c0, c1, c2 in zip(s.tolist(), t.tolist(), *cells[[1, 3, 4, 5]].tolist()):
        last = math.inf
        for _ in range(_MAX_STEPS):
            p = c0 * x + c1
            q = p * x + c2
            df = (c0 * x + p) * x + q
            new = x - (q * x - u) / (1e-300 if df < 1e-300 else df)
            new = 0.0 if new < 0.0 else width if new > width else new
            step = abs(new - x)
            x = new
            if not last > step > 0.0:
                break
            last = step
        else:
            stuck += 1
        out.append(x)
    if stuck:
        raise RuntimeError(f"{stuck} draws took more than {_MAX_STEPS} Newton steps")
    return np.array(out)


def _invert_cdf(table, u):
    """Invert a CdfTable at the fractions u of its total mass.

    A draw's cell is the last whose left node value is at most u*total.  The
    guide gives it with one compare against the cell's right node value;
    draws in the few buckets that span more than two cells or meet a
    flagged cell (the guide's -1) take a binary search instead.  The root
    then starts at the cell's inverse cubic and takes one Newton step on the
    cell's cubic, clamped to the cell, so a draw never leaves its bracket.
    Outside the flagged cells that step is within an ulp of the root.

    Draws in a flagged cell take further steps until they converge
    (_converge).  In the first cell, where the density vanishes like
    eta^{n-1}, n >= 2, the inverse cubic of a small u lies far from the
    root, so those draws start at the smaller root of the cubic's s^2 and
    s^3 terms (its slope at 0 is 0), which is close to the root and above
    it where neither term is negative.
    """
    shape = np.shape(u)
    u = np.reshape(u, -1)
    cells, guide = table.cells, table.guide
    uu = u * table.total
    i = guide.take((u * guide.size).astype(np.intp))
    wide = np.flatnonzero(i < 0)
    if wide.size:
        i[wide] = np.searchsorted(cells[2], uu[wide], side="right") - 1
    i += cells[9].take(i) <= uu
    left, width, lo, c0, c1, c2, a1, a2, a3 = cells[:9].take(i, axis=1)
    t = np.subtract(uu, lo, out=lo)
    # s = ((a3 t + a2) t + a1) t, in place but in the formula's operation order
    s = np.multiply(a3, t, out=a3)
    s += a2
    s *= t
    s += a1
    s *= t
    hard = wide[table.flagged.take(i[wide])]
    first = hard[i[hard] == 0]
    if first.size:
        k3, k2 = (max(k, 0.0) for k in table.interp.c[:2, 0])  # the cubic is 0 at 0
        with np.errstate(divide="ignore"):  # a zero coefficient's root is inf
            s[first] = np.minimum(np.cbrt(t[first] / k3), np.sqrt(t[first] / k2))
    _newton(s, t, width, c0, c1, c2, a1, a2)
    if hard.size:
        s[hard] = _converge(s[hard], t[hard], cells.take(i[hard], axis=1))
    s += left
    return s.reshape(shape)


class RadialProfile:
    """A normalized radial density with compact support [0, eta_max]; the
    shape is smooth between its `knots` in (0, eta_max] (eta_max is one if
    the density does not vanish smoothly there).  Every integral over it, the
    normaliser, the moments, the CDF table and the Abel tables, takes its
    panels from knot_grid, so no panel straddles a knot.  Each table built
    once per profile, here or in spectral, is kept by cached under its key."""

    def __init__(self, shape, eta_max, dim, family="custom", params=None, knots=()):
        self._define(shape, eta_max, dim, family, params, knots)
        area = sphere_area(self.dim)
        nm1 = self.dim.n - 1

        def raw_measure(etas):
            etas = np.asarray(etas, dtype=float)
            return area * shape(etas) * np.sinh(etas) ** nm1

        self.norm_const = integrate_adaptive(raw_measure, self.eta_max, self.knots,
                                             abs_tol=1e-14, rel_tol=1e-14)
        if not (self.norm_const > 0.0 and math.isfinite(self.norm_const)):
            raise ValueError("profile shape must have positive finite mass")

    def _define(self, shape, eta_max, dim, family, params, knots):
        """Every attribute but the normaliser norm_const."""
        if not 0.0 < eta_max < math.inf:
            raise ValueError(f"eta_max must be positive and finite, got {eta_max!r}")
        self.dim = as_dim(dim)
        self.eta_max = float(eta_max)
        self.knots = tuple(sorted({float(k) for k in knots if 0.0 < k <= self.eta_max}))
        self.family = family
        self.params = dict(params or {})
        self._shape = shape
        self._cache = {}

    def cached(self, key, build):
        """build(), called at the first use of key and kept for every later one."""
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- density views ------------------------------------------------------

    def g(self, etas):
        """Density per unit Riemannian volume at geodesic radius eta."""
        etas = np.asarray(etas, dtype=float)
        vals = np.where(etas < self.eta_max, self._shape(np.minimum(etas, self.eta_max)), 0.0)
        return vals / self.norm_const

    def config(self) -> dict:
        cfg = {"family": self.family, "dim": self.dim.n, "eta_max": self.eta_max}
        cfg.update(self.params)
        return cfg

    # -- CDF tabulation ------------------------------------------------------

    def _cdf_interp(self) -> CdfTable:
        return self.cached("cdf", lambda: _cdf_table(lambda etas: pdf_eta(self, etas),
                                                     self.eta_max, self.knots))

    def _moment(self, k: int) -> float:
        area, nm1 = sphere_area(self.dim), self.dim.n - 1
        return self.cached(("moment", k), lambda: integrate_adaptive(
            lambda etas: etas**k * area * self.g(etas) * np.sinh(etas) ** nm1,
            self.eta_max, self.knots, abs_tol=1e-14, rel_tol=1e-13))


def make_bump(eta_max, dim) -> RadialProfile:
    """Smooth bump exp(-1/(1-(eta/eta_max)^2)) on [0, eta_max), normalized;
    an eta_max that is not positive and finite is a ValueError."""
    eta_max = float(eta_max)

    def shape(etas):
        etas = np.asarray(etas, dtype=float)
        u = etas / eta_max
        inside = u < 1.0
        usafe = np.where(inside, u, 0.0)
        with np.errstate(over="ignore"):
            vals = np.where(inside, np.exp(-1.0 / (1.0 - usafe * usafe)), 0.0)
        return vals

    return RadialProfile(shape, eta_max, dim, family="bump")


def make_table(etas, values, dim) -> RadialProfile:
    """Profile from tabulated (eta, value) pairs; zero beyond the last eta.

    Values are interpreted per unit Riemannian volume and renormalized, and
    interpolated by pchip, which preserves their shape; their scale does not
    matter.
    """
    etas = np.asarray(etas, dtype=float)
    values = np.asarray(values, dtype=float)
    if etas.ndim != 1 or etas.size < 4 or etas.shape != values.shape:
        raise ValueError("table needs matching 1-d arrays with at least 4 entries")
    if etas[0] != 0.0 or np.any(np.diff(etas) <= 0.0):
        raise ValueError("etas must start at 0 and increase strictly")
    if np.any(values < 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("table values must be finite and nonnegative")
    # the normaliser's tolerance has an absolute part: an exact power of two
    # brings the largest value into [1, 2), so every scale is normalised alike
    values = np.ldexp(values, 1 - math.frexp(float(values.max()))[1])
    interp = CubicHermite(etas, values, pchip_slopes(etas, values))
    eta_max = float(etas[-1])

    def shape(e):
        return np.maximum(interp(np.clip(e, 0.0, eta_max)), 0.0)

    return RadialProfile(shape, eta_max, dim, family="table",
                         params={"points": int(etas.size)}, knots=etas[1:])


def profile_from_config(cfg: dict) -> RadialProfile:
    """Build a profile from its JSON configuration document."""
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ValueError("density config must be an object with a 'family' key")
    family = cfg["family"]
    if family == "bump":
        allowed = {"family", "eta_max", "dim"}
        unknown = set(cfg) - allowed
        if unknown:
            raise ValueError(f"unknown density keys: {sorted(unknown)}")
        return make_bump(float(cfg["eta_max"]), cfg["dim"])
    if family == "table":
        allowed = {"family", "etas", "values", "dim"}
        unknown = set(cfg) - allowed
        if unknown:
            raise ValueError(f"unknown density keys: {sorted(unknown)}")
        return make_table(cfg["etas"], cfg["values"], cfg["dim"])
    raise ValueError(f"unknown density family {family!r}")


# -- measure, sampling and moments -------------------------------------------

def pdf_eta(p: RadialProfile, eta):
    """Density of the radial measure: Omega_{n-1} g(eta) sinh(eta)^{n-1}."""
    eta = np.asarray(eta, dtype=float)
    return sphere_area(p.dim) * p.g(eta) * np.sinh(eta) ** (p.dim.n - 1)


def cdf_eta(p: RadialProfile, eta):
    """Radial CDF, monotone with cdf(0) = 0 and cdf(eta_max) = 1: a float
    for a scalar or 0-d eta, else an array of eta's shape."""
    table = p._cdf_interp()
    etas = np.asarray(eta, dtype=float)
    e = etas.reshape(-1)
    out = table.interp(np.clip(e, 0.0, p.eta_max))
    out[e >= p.eta_max] = table.total
    out[e <= 0.0] = 0.0
    return float(out[0]) if etas.ndim == 0 else out.reshape(etas.shape)


def open_uniforms(u, out=None):
    """Map uniform draws from [0, 1) into (0, 1).

    The draws are multiples of 2^-53, as the walk's counter-based streams
    (and numpy's Generator.random()) make them, so the only one outside
    (0, 1) is 0 itself; it becomes 2^-54, the middle of the first step.
    Every other draw is returned unchanged, bit for bit.  `out` is passed to
    np.maximum, so a caller that owns the draws can map them in place.
    """
    return np.maximum(u, 2.0**-54, out=out)


def _sample_eta_many(p: RadialProfile, u: np.ndarray) -> np.ndarray:
    """Vectorized inversion of the cubic CDF table at the draws u in (0, 1).

    The inversion is _invert_cdf's: a guide-table lookup of each draw's
    cell, then one clamped Newton step on its cubic from the cell's inverse
    cubic, and in the flagged cells at the table's ends further steps until
    the draw converges.  In the first cell, where the density vanishes like
    eta^{n-1}, the steps start at the smaller root of the cubic's s^2 and
    s^3 terms, so even a draw far below that cell's mass (1.4e-7 for the
    unit bump in n = 2) is the cubic's root to rounding.
    The table's own error is what the 1e-12 doubling criterion of _cdf_table
    bounds: successive interpolants agree to 1e-12 at the finer nodes.
    """
    u = np.asarray(u, dtype=float)
    # two reductions, not a pass per compare; a NaN fails both compares
    if not (u.min(initial=0.5) > 0.0 and u.max(initial=0.5) < 1.0):
        raise ValueError("uniform draws must lie strictly inside (0, 1)")
    return _invert_cdf(p._cdf_interp(), u)


def scale_profile(p: RadialProfile, eps: float) -> RadialProfile:
    """Profile of the contracted variable whose radial law is eta -> eps*eta.

    g_eps(eta) = eps^{-1} g(eta/eps) (sinh(eta/eps)/sinh(eta))^{n-1}, support
    shrinking to [0, eps*eta_max]; this is the law of eps (x) Z.
    """
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must lie in (0, 1], got {eps!r}")
    if eps == 1.0:
        return p
    nm1 = p.dim.n - 1
    parent_g = p.g
    inv = 1.0 / eps

    def shape(etas):
        etas = np.asarray(etas, dtype=float)
        ratio = (sinch(etas * inv) / sinch(etas)) ** nm1
        return inv ** p.dim.n * parent_g(etas * inv) * ratio

    # the substitution eta -> eps*eta carries the parent's mass of 1 over, so
    # the normaliser is 1 without a quadrature, and the parent's
    # positive-finite-mass check holds for it
    scaled = RadialProfile.__new__(RadialProfile)
    scaled._define(shape, eps * p.eta_max, p.dim, p.family, p.params,
                   [eps * k for k in p.knots])
    scaled.norm_const = 1.0
    return scaled


def second_moment(p: RadialProfile) -> float:
    """int eta^2 d(mu) over the radial law."""
    return p._moment(2)


def mean_eta(p: RadialProfile) -> float:
    return p._moment(1)


def limit_time(p: RadialProfile) -> float:
    """Asymptotic time parameter t = (second moment) / n of the walk limit."""
    return second_moment(p) / p.dim.n
