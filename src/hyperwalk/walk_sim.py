"""Monte Carlo simulation of the gyrogroup random walks.

Three modes share one engine: the CLT walk folds contracted increments with
scale N^{-1/2}, the LLN walk with scale N^{-1}, and the Sturm mode iterates
the geodesic-interpolation update with weights 1/k.

Randomness is counter-based: path j draws from its own generator seeded by a
fixed 64-bit mix of (master_seed, j), so ensembles are bitwise reproducible
for any execution order, chunking or worker count.  Within a path the draw
protocol is fixed: N uniforms for the radii (mapped into (0, 1) by
open_uniforms), then N*n standard normals for the directions.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .geometry import BOUNDARY_TOL, sphere_area
from .gyro import BoundaryError, mobius_add_raw, mobius_scalar_raw
from .quadrature import gauss_legendre
from .radial_density import RadialProfile, _sample_eta_many, open_uniforms

_CHUNK = 4096
_MODES = ("clt", "lln", "sturm")


@dataclass(frozen=True)
class WalkConfig:
    profile: RadialProfile
    N: int
    paths: int
    scaling: str
    master_seed: int

    def __post_init__(self):
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


@dataclass(frozen=True, eq=False)
class WalkEnsemble:
    terminal_etas: np.ndarray
    config: WalkConfig
    elapsed_seconds: float = field(compare=False, default=0.0)

    def __post_init__(self):
        etas = np.asarray(self.terminal_etas, dtype=float)
        if etas.shape != (self.config.paths,):
            raise ValueError("ensemble length must equal the path count")
        if not np.all(np.isfinite(etas)) or np.any(etas < 0.0):
            raise ValueError("terminal radii must be finite and nonnegative")
        etas.setflags(write=False)
        object.__setattr__(self, "terminal_etas", etas)


_GOLDEN = 0x9E3779B97F4A7C15
_MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64(x: int) -> int:
    """Fixed 64-bit mixing function used to derive per-path stream seeds."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return (x ^ (x >> 31)) & _MASK


def path_stream_seed(master_seed: int, path_index: int) -> int:
    return splitmix64((master_seed + (path_index * _GOLDEN & _MASK)) & _MASK)


def _run_chunk(cfg: WalkConfig, start: int, count: int) -> np.ndarray:
    n = cfg.profile.dim.n
    N = cfg.N
    uniforms = np.empty((count, N))
    normals = np.empty((count, N, n))
    for i in range(count):
        gen = np.random.Generator(np.random.PCG64(path_stream_seed(cfg.master_seed, start + i)))
        uniforms[i] = gen.random(N)
        normals[i] = gen.standard_normal((N, n))

    open_uniforms(uniforms, out=uniforms)
    etas = _sample_eta_many(cfg.profile, uniforms.ravel()).reshape(count, N)
    norms = np.linalg.norm(normals, axis=2)
    norms[norms == 0.0] = 1.0  # probability-zero guard

    if cfg.scaling == "sturm":
        radii = np.tanh(0.5 * etas)
    else:
        # the contraction acts on the radial coordinate: eps (x) z has radius
        # tanh(eps * eta / 2) along the same direction
        eps = 1.0 / math.sqrt(N) if cfg.scaling == "clt" else 1.0 / N
        radii = np.tanh(0.5 * eps * etas)

    s = np.zeros((count, n))
    guard = (1.0 - BOUNDARY_TOL) ** 2
    for k in range(N):
        z = (radii[:, k] / norms[:, k])[:, None] * normals[:, k, :]
        if cfg.scaling == "sturm":
            inner = mobius_add_raw(-s, z)
            s = mobius_add_raw(s, mobius_scalar_raw(1.0 / (k + 1), inner))
        else:
            s = mobius_add_raw(s, z)
        sq = np.sum(s * s, axis=1)
        if float(np.max(sq)) >= guard:
            bad = np.nonzero(sq >= guard)[0]
            raise BoundaryError(
                f"paths {sorted(start + b for b in bad)} reached the boundary guard at step {k + 1}")
    return 2.0 * np.arctanh(np.linalg.norm(s, axis=1))


def run_walk(cfg: WalkConfig) -> WalkEnsemble:
    """Simulate every path of the configuration; deterministic per (seed, index)."""
    t0 = time.perf_counter()
    cfg.profile._cdf_interp()  # build the shared table before any workers start
    out = np.empty(cfg.paths)
    spans = [(s, min(_CHUNK, cfg.paths - s)) for s in range(0, cfg.paths, _CHUNK)]
    workers = int(os.environ.get("HYPERWALK_THREADS", "1") or "1")
    if workers > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            for (start, count), res in zip(spans, pool.map(
                    lambda sc: _run_chunk(cfg, *sc), spans)):
                out[start:start + count] = res
    else:
        for start, count in spans:
            out[start:start + count] = _run_chunk(cfg, start, count)
    return WalkEnsemble(out, cfg, time.perf_counter() - t0)


def empirical_radial_density(e: WalkEnsemble, bins) -> tuple[np.ndarray, np.ndarray]:
    """Histogram density per unit Riemannian volume on the given bin edges.

    Each bin divides its count by paths * Omega_{n-1} * int sinh^{n-1}, so the
    result is directly comparable to exact radial densities.
    """
    edges = np.asarray(bins, dtype=float)
    if edges.ndim != 1 or edges.size < 2 or np.any(np.diff(edges) <= 0.0):
        raise ValueError("bins must be a strictly increasing grid of edges")
    if e.terminal_etas.size < 1000:
        raise ValueError("need at least 1e3 samples for a stable histogram")
    n = e.config.profile.dim.n
    counts, _ = np.histogram(e.terminal_etas, bins=edges)
    x, w = gauss_legendre(16)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = mid[:, None] + half[:, None] * x[None, :]
    bin_measure = sphere_area(n) * half * (np.sinh(nodes) ** (n - 1) @ w)
    density = counts / (e.terminal_etas.size * bin_measure)
    return mid, density


def mean_radius(e: WalkEnsemble) -> float:
    """Mean terminal geodesic radius; vanishes for the LLN scaling as N grows."""
    return float(np.mean(e.terminal_etas))
