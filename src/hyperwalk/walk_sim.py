"""Monte Carlo simulation of the gyrogroup random walks.

Three modes share one engine: the CLT walk folds increments contracted by
eps = N^{-1/2}, the LLN walk by eps = N^{-1}, and the Sturm mode iterates the
geodesic-interpolation update s_k = s_{k-1} (+) (1/k) (x) ((-s_{k-1}) (+) z_k).

The engine follows the radius alone, a Markov chain.  Increments are
isotropic, so by the left-gyro isometry the next radius
eta' = d(0, s (+) z) = d(-s, z) depends only on the current radius eta_s, the
step radius eta_z (eps * eta, or eta in the Sturm mode) and q = (1 - c)/2,
where c is the cosine of the angle between the step and the position, and
q ~ Beta((n-1)/2, (n-1)/2).  The hyperbolic law of cosines, in a form that
stays accurate for small radii,

    sinh^2(eta'/2) = sinh^2((eta_s - eta_z)/2) + sinh(eta_s) sinh(eta_z) q,

is the CLT and LLN step.  The Sturm step moves to the point at distance
x = D/k from s on the geodesic to z, with D = d(s, z) from the same law; the
hyperbolic Stewart theorem, cosh(eta') sinh D = cosh(eta_s) sinh(D - x)
+ cosh(eta_z) sinh x, written in sinh^2 form, gives its radius.  Each step
costs the same in every dimension n; the terminal radial law is that of the
walk of points in the ball.  A path that reaches the guard band
||s|| >= 1 - BOUNDARY_TOL, or whose radius is NaN, raises BoundaryError at
that step.

Randomness is counter-based.  Path j has the seed
sigma_j = path_stream_seed(master_seed, j), and its draw i is the SplitMix64
output w = splitmix64(sigma_j + i * gamma), gamma the golden-ratio increment,
read as the uniform (w >> 11) * 2^-53 and mapped into (0, 1) by
open_uniforms.  Step k = 0..N-1 takes draw k for its radius and draw N + k
for its angle: N radii, then N angles.  A draw depends only on
(master_seed, j, i), so ensembles are bitwise reproducible for any chunking
and step blocking.

Paths run in chunks of _CHUNK, and a chunk makes its draws one block of
steps at a time, at most _BLOCK = 2^13 draws of each kind per block, so the
memory a walk needs does not grow with N.  At 64 KiB an array of a block
stays in cache and below malloc's mmap threshold, so making it faults in no
fresh pages; the steps reuse their temporaries in place.
"""

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .geometry import BOUNDARY_TOL, require_int
from .gyro import BoundaryError
# bench/tracing.py rebinds these two names in this module to count their
# calls; the radial chain makes none
from .gyro import mobius_add_raw, mobius_scalar_raw  # noqa: F401
from .radial_density import (RadialProfile, _cdf_table, _invert_cdf, _sample_eta_many,
                             open_uniforms)

_CHUNK = 4096
_BLOCK = 2**13  # draws of each kind per block of steps, as one (steps, paths) array
_MODES = ("clt", "lln", "sturm")
_ETA_GUARD = 2.0 * math.atanh(1.0 - BOUNDARY_TOL)  # radius of ||s|| = 1 - BOUNDARY_TOL


@dataclass(frozen=True)
class WalkConfig:
    profile: RadialProfile
    N: int
    paths: int
    scaling: str
    master_seed: int

    def __post_init__(self):
        for key in ("N", "paths", "master_seed"):
            require_int(key, getattr(self, key))
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N!r}")
        if self.paths < 1:
            raise ValueError(f"paths must be >= 1, got {self.paths!r}")
        if self.scaling not in _MODES:
            raise ValueError(f"scaling must be one of {_MODES}, got {self.scaling!r}")
        object.__setattr__(self, "master_seed", int(self.master_seed) & 0xFFFFFFFFFFFFFFFF)

    def describe(self) -> dict:
        return {
            "density": self.profile.config(),
            "N": int(self.N),
            "paths": int(self.paths),
            "scaling": self.scaling,
            "master_seed": int(self.master_seed),
        }


_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x):
    """SplitMix64 output for the state x: the 64-bit finaliser of x + gamma.

    Output i of the SplitMix64 stream seeded with s is splitmix64(s + i*gamma),
    mod 2^64.  Takes a Python int (returns an int) or a uint64 array (returns
    a uint64 array).
    """
    w = np.array(x, dtype=np.uint64, ndmin=1) + np.uint64(_GOLDEN)
    w = (w ^ (w >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    w = (w ^ (w >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    w ^= w >> np.uint64(31)
    return w if isinstance(x, np.ndarray) else int(w[0])


def path_stream_seed(master_seed: int, path_index):
    """Seed of path j's stream, splitmix64(master_seed + j*gamma) mod 2^64; j is
    an int (returns an int) or an integer array (returns a uint64 array)."""
    j = np.array(path_index, dtype=np.uint64, ndmin=1)
    seeds = splitmix64(j * np.uint64(_GOLDEN) + np.uint64(master_seed))
    return seeds if isinstance(path_index, np.ndarray) else int(seeds[0])


def _uniforms(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws first, ..., first + count - 1 of every stream, as (count, paths)
    uniforms in (0, 1)."""
    i = np.arange(first, first + count, dtype=np.uint64)[:, None]
    u = (splitmix64(seeds[None, :] + i * np.uint64(_GOLDEN)) >> np.uint64(11)).astype(float)
    u *= 2.0**-53
    return open_uniforms(u, out=u)


@cache
def _angle_table(n: int):
    """CDF table of the angle theta in [0, pi] between a fixed direction and a
    uniform one in R^n.  Its density is proportional to sin^{n-2}(theta), and
    its normalized CDF is betainc(a, a, sin^2(theta/2)) with a = (n-1)/2."""
    return _cdf_table(lambda theta: np.sin(theta) ** (n - 2), math.pi)


def _angle_q(n: int, u: np.ndarray) -> np.ndarray:
    """q = (1 - cos theta)/2 = sin^2(theta/2) ~ Beta((n-1)/2, (n-1)/2) from
    uniforms u: q = u for n = 3, theta = pi u for n = 2, and theta from the
    inverted angle table for n >= 4."""
    if n == 3:
        return u
    theta = np.pi * u if n == 2 else _invert_cdf(_angle_table(n), u)
    return np.sin(0.5 * theta) ** 2


def _run_chunk(cfg: WalkConfig, start: int, count: int) -> np.ndarray:
    """Terminal radii of paths start, ..., start + count - 1."""
    n, N = cfg.profile.dim.n, cfg.N
    sturm = cfg.scaling == "sturm"
    eps = {"clt": 1.0 / math.sqrt(N), "lln": 1.0 / N, "sturm": 1.0}[cfg.scaling]
    seeds = path_stream_seed(cfg.master_seed, np.arange(start, start + count, dtype=np.uint64))
    eta = np.zeros(count)
    # the step's temporaries, reused by every step: h and rows of `work`
    h = np.empty(count)
    work = np.empty((5 if sturm else 1, count))
    steps = max(1, _BLOCK // count)
    for k0 in range(0, N, steps):
        block = min(steps, N - k0)
        eta_z = eps * _sample_eta_many(cfg.profile, _uniforms(seeds, k0, block))
        sq = np.sinh(eta_z) * _angle_q(n, _uniforms(seeds, N + k0, block))
        if sturm:
            h_z = np.sinh(0.5 * eta_z) ** 2
        for k in range(block):
            # h = sinh^2(d/2) = sinh^2((eta - eta_z)/2) + sinh(eta) sq, with d
            # the distance between -s (Sturm: s) and z
            np.subtract(eta, eta_z[k], out=h)
            h *= 0.5
            np.sinh(h, out=h)
            np.square(h, out=h)
            np.sinh(eta, out=work[0])
            work[0] *= sq[k]
            h += work[0]
            if sturm:
                _stewart(eta, h_z[k], h, 1.0 / (k0 + k + 1), work)
            else:
                # eta = 2 arcsinh(sqrt(h))
                np.sqrt(h, out=h)
                np.arcsinh(h, out=eta)
                eta *= 2.0
            # a NaN radius fails the comparison too
            if not float(np.max(eta)) < _ETA_GUARD:
                bad = np.nonzero(~(eta < _ETA_GUARD))[0]
                raise BoundaryError(f"paths {(start + bad).tolist()} reached the boundary "
                                    f"guard at step {k0 + k + 1}")
    return eta


def _stewart(eta_s, h_z, h_d, weight, work):
    """Radius of the point at distance x = weight * D from s on the geodesic
    from s to z, given eta_s = |s|, h_z = sinh^2(|z|/2) and h_d = sinh^2(D/2),
    D = d(s, z).  The radius is written into eta_s; h_d and the five rows of
    `work`, arrays of eta_s's shape, are overwritten.

    Stewart's cosh(eta') sinh D = cosh(eta_s) sinh(D - x) + cosh(eta_z) sinh x,
    with cosh = 1 + 2 sinh^2(./2) and sinh(D - x) + sinh x - sinh D
    = -4 sinh((D - x)/2) sinh(x/2) sinh(D/2), reads
    sinh^2(eta'/2) sinh D = h_s sinh(D - x) + h_z sinh x
    - 2 sinh((D - x)/2) sinh(x/2) sinh(D/2), with no arccosh near 1.
    """
    s_half = np.sqrt(h_d, out=h_d)
    d, x, y, num, term = work
    np.arcsinh(s_half, out=d)
    d *= 2.0
    np.multiply(d, weight, out=x)
    np.subtract(d, x, out=y)
    sinh_d = np.sinh(d, out=d)
    h_s = np.multiply(eta_s, 0.5, out=eta_s)
    np.sinh(h_s, out=h_s)
    np.square(h_s, out=h_s)
    # num = h_s sinh(y) + h_z sinh(x) - 2 sinh(y/2) sinh(x/2) s_half
    np.sinh(y, out=num)
    num *= h_s
    np.sinh(x, out=term)
    term *= h_z
    num += term
    y *= 0.5
    np.sinh(y, out=term)
    term *= 2.0
    x *= 0.5
    np.sinh(x, out=x)
    term *= x
    term *= s_half
    num -= term
    # D = 0 means z = s, and the step stays at s; a NaN D stays NaN, so the
    # boundary guard stops the walk
    h = np.divide(num, sinh_d, out=h_s, where=sinh_d != 0.0)
    # eta' = 2 arcsinh(sqrt(max(h, 0)))
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    np.arcsinh(h, out=h)
    h *= 2.0


def run_walk(cfg: WalkConfig) -> np.ndarray:
    """Terminal radii of every path of the configuration, deterministic per
    (seed, index)."""
    out = np.empty(cfg.paths)
    for start in range(0, cfg.paths, _CHUNK):
        count = min(_CHUNK, cfg.paths - start)
        out[start:start + count] = _run_chunk(cfg, start, count)
    return out
