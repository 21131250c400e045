"""Deterministic quadrature machinery shared by the analysis modules.

All rules are fixed-node rules (Gauss families, and a midpoint rule for the
Jacobi weights of even dimension) with doubling-based error control, so
results are bit-reproducible for a given input; nothing here depends on
runtime state.
"""

import math
from functools import lru_cache

import numpy as np

# budgets of integrate_adaptive and of gk_adaptive_vector, the tests' oracle
# of the inverse transform, which the benchmark's tracer rebinds by name
_MAX_DOUBLINGS = 14
_MAX_PANELS = 400


class QuadratureError(RuntimeError):
    """An adaptive rule failed to reach its tolerance within its budget."""


@lru_cache(maxsize=512)
def gauss_legendre(q: int):
    """Gauss-Legendre rule of order q on [-1, 1], nodes ascending, as
    read-only arrays: Newton steps on the three-term recurrence of P_q from
    Tricomi's estimate of its zeros, O(q^2) operations.  numpy's leggauss
    takes the eigenvalues of the companion matrix, O(q^3), and its 32-node
    weights are up to 5.8e-14 off, against 40-digit values."""
    x = np.cos(np.pi * (np.arange(q, 0, -1) - 0.25) / (q + 0.5))
    x *= 1.0 - (q - 1) / (8.0 * q**3)
    dx = np.inf
    for _ in range(12):
        p0, p1 = np.ones(q), x
        for j in range(2, q + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        dp = q * (p0 - x * p1) / ((1.0 - x) * (1.0 + x))  # P_q'(x)
        # after a step below 1e-14 x is at rounding, and the weights take dp
        # at x itself: near +-1 a step dx moves dp by about q^2 dx relative
        if np.max(np.abs(dx)) < 1e-14:
            break
        dx = p1 / dp
        x = x - dx
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


@lru_cache(maxsize=512)
def gauss_jacobi_sym(q: int, alpha: float):
    """A q-node rule for the symmetric weight (1-v)^alpha (1+v)^alpha on
    [-1, 1], alpha a whole or half integer >= -1/2 (alpha = (n-3)/2 in
    dimension n); nodes ascending.

    Whole alpha: Gauss-Legendre with the weight, a polynomial, as a factor
    of the weights, exact to degree 2q - 1 - 2 alpha.  Half-integer alpha:
    the midpoint rule in theta, v = cos(theta), where the weight is
    sin(theta)^(2 alpha + 1): exact for trigonometric polynomials in theta
    of degree below 2q, so as accurate as Gauss for integrands analytic in v
    (it is Gauss-Chebyshev for alpha = -1/2).
    """
    if alpha < -0.5 or 2 * alpha != int(2 * alpha):
        raise ValueError(f"alpha must be a whole or half integer >= -1/2, got {alpha!r}")
    if alpha == int(alpha):
        x, w = gauss_legendre(q)
        w = w * ((1.0 - x) * (1.0 + x)) ** int(alpha)
    else:
        theta = np.pi * (np.arange(q, 0, -1) - 0.5) / q
        x, w = np.cos(theta), np.sin(theta) ** int(2 * alpha + 1) * (np.pi / q)
        x, w = 0.5 * (x - x[::-1]), 0.5 * (w + w[::-1])
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def panel_nodes(a: float, b: float, npanels: int, q: int):
    """Composite Gauss-Legendre nodes and weights on [a, b]."""
    x, w = gauss_legendre(q)
    edges = np.linspace(a, b, npanels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def doubling(name: str, levels, value, abs_tol=0.0, rel_tol=0.0, gap=None):
    """Run the level-doubling loop `name`: value(level) over the range
    `levels` until gap(prev, cur), by default max|cur - prev|, is at most
    max(abs_tol, rel_tol max|cur|), rel_tol 0 for values that are not numbers.
    Returns (cur, level); a QuadratureError with the last gap if none agree."""
    prev, last = value(levels[0]), math.nan
    # abs for floats: a numpy reduction costs microseconds per comparison
    norm = abs if isinstance(prev, float) else lambda x: float(np.max(np.abs(x), initial=0.0))
    for level in levels[1:]:
        cur = value(level)
        last = gap(prev, cur) if gap else norm(cur - prev)
        if last <= max(abs_tol, rel_tol * norm(cur) if rel_tol else 0.0):
            return cur, level
        prev = cur
    raise QuadratureError(f"{name} did not converge in {len(levels)} levels "
                          f"(last gap {last:.3e})")


def integrate_adaptive(f, a: float, b: float, abs_tol: float = 1e-13,
                       rel_tol: float = 1e-13, npanels: int = 1, q: int = 32) -> float:
    """Composite GL with panel doubling until two consecutive levels agree to
    max(abs_tol, rel_tol |value|), _MAX_DOUBLINGS doublings at most."""
    if b <= a:
        return 0.0

    def value(level):
        nodes, weights = panel_nodes(a, b, npanels << level, q)
        return float(np.dot(weights, np.asarray(f(nodes), dtype=float)))

    return doubling("integrate_adaptive", range(_MAX_DOUBLINGS + 1), value, abs_tol, rel_tol)[0]


def cumulative_gl(f, grid: np.ndarray, q: int = 16) -> np.ndarray:
    """Cumulative integral of f along a grid, one GL rule per interval."""
    grid = np.asarray(grid, dtype=float)
    x, w = gauss_legendre(q)
    mid = 0.5 * (grid[:-1] + grid[1:])
    half = 0.5 * (grid[1:] - grid[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    vals = np.asarray(f(nodes.ravel()), dtype=float).reshape(nodes.shape)
    per_interval = half * (vals @ w)
    out = np.empty(grid.size)
    out[0] = 0.0
    np.cumsum(per_interval, out=out[1:])
    return out


# Gauss-Kronrod (7, 15) pair: classical node/weight constants.
_K15_HALF_NODES = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898,
])
_K15_HALF_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298,
])
_K15_CENTER_WEIGHT = 0.209482141084728
_G7_HALF_WEIGHTS = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119])
_G7_CENTER_WEIGHT = 0.417959183673469

GK_NODES = np.concatenate([-_K15_HALF_NODES, [0.0], _K15_HALF_NODES[::-1]])
GK_K_WEIGHTS = np.concatenate([_K15_HALF_WEIGHTS, [_K15_CENTER_WEIGHT], _K15_HALF_WEIGHTS[::-1]])
_gw = np.zeros(15)
_gw[7] = _G7_CENTER_WEIGHT
for _i, _wv in zip((1, 3, 5), _G7_HALF_WEIGHTS):
    _gw[_i] = _wv
    _gw[14 - _i] = _wv
GK_G_WEIGHTS = _gw
del _gw, _i, _wv


def _gk_panels(fvec, segs):
    """Kronrod sums and error estimates [err, lo, hi, (K,) value] of the
    panels segs [(lo, hi), ...] of a vector integrand fvec(lams) -> (L, K),
    calling fvec once with all their 15-node abscissae."""
    out = []
    lo, hi = np.array(segs).T
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    vals = np.asarray(fvec((mid[:, None] + half[:, None] * GK_NODES).ravel()), dtype=float)
    for j in range(lo.size):
        v = vals[15 * j:15 * j + 15]
        k15 = half[j] * (GK_K_WEIGHTS @ v)
        g7 = half[j] * (GK_G_WEIGHTS @ v)
        err = float(np.max(np.abs(k15 - g7))) if k15.size else 0.0
        out.append([err, lo[j], hi[j], k15])
    return out


def gk_adaptive_vector(fvec, edges, abs_tol: float = 1e-13):
    """Adaptive Gauss-Kronrod panels for a vector integrand; bisects worst panel.

    fvec maps an array of abscissae (L,) to values (L, K); `edges` is the
    initial panel subdivision; returns the (K,) integral.  The error criterion
    is the max-norm over the K components.  fvec is called once per round of
    panels, with the 15 abscissae of each panel in turn: all the initial
    panels in one call and both halves of a bisected panel in one call.
    """
    edges = np.asarray(edges, dtype=float)
    if edges[-1] <= edges[0]:
        probe = np.asarray(fvec(np.array([edges[0]])), dtype=float)
        return np.zeros(probe.shape[1])
    panels = _gk_panels(fvec, list(zip(edges[:-1], edges[1:])))
    while True:
        total = sum(p[3] for p in panels)
        tol = max(abs_tol, 1e-14 * float(np.max(np.abs(total))))
        errs = [p[0] for p in panels]
        if sum(errs) <= tol:
            return total
        if len(panels) >= _MAX_PANELS:
            raise QuadratureError(
                f"Kronrod refinement exceeded {_MAX_PANELS} panels (residual {sum(errs):.3e})")
        _, lo, hi, _ = panels.pop(int(np.argmax(errs)))
        mid = 0.5 * (lo + hi)
        panels += _gk_panels(fvec, [(lo, mid), (mid, hi)])
