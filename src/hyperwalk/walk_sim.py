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

Paths run in chunks of _CHUNK = 16 384, and a chunk makes its draws one
block of steps at a time, at most _BLOCK = 2^15 draws of each kind per
block, so the memory a walk needs does not grow with N.  The sizes are set
by numpy's per-call cost, not by cache: a block's draws (uniforms, cell
search, Newton step, angles) take some 80 numpy calls, about 48 us at n = 3
on a 2-core x86-64 host however few the draws.  That was a sixth of a block
of 2^13 draws; at 2^15 a draw pays a quarter as many calls.
The larger arrays cost memory: the clt walk at n = 3 (250 steps, 20 000
paths) faults in about 1 200 more pages (ru_minflt 1 700 -> 2 910), and
it raises the process's peak RSS by 2.2 MiB instead of 0.9 MiB.
splitmix64 and _uniforms build a block's stream words in place, on one
counter array and one scratch copy.

A step is a few dozen numpy calls on one chunk's paths, so on narrow chunks
(the Sturm ladders' hundreds of paths) much of its cost is per call.  The
steps write into rows made once per chunk, stack their sinh calls (one at a
step's start, one more in the Sturm tail) and carry the half radius eta/2,
the output of arcsinh.  Every value stays bitwise that of the plain
formulas, since scaling by a power of two commutes with rounding (_stewart).

A block is made by two functions, which both schedules call: _draw_block
makes its draws (the uniforms, the inverted radius and angle) and writes
the rows half_z, sq (and h_z in the Sturm mode); _step_block runs its steps.
run_walk runs them in one of two schedules, with the same outputs bit for
bit:
- in-process, each block drawn and then stepped;
- for a walk of at least _WORKER_STEPS path-steps and two blocks, on Linux
  with two CPUs or more, in one os.fork'ed step worker, which steps each
  block while the caller draws the next into the other of two shared
  buffers (_run_forked).  The caller keeps the rest: the stream seeds, every
  draw, every traced call.  The worker calls no name that bench/tracing.py
  rebinds, so a traced run counts what it counts in-process.  It forwards
  any exception it raises, and it is reaped before run_walk returns or
  raises.
A Sturm step costs somewhat more than its draws, so on 2 cores the
overlap takes the Sturm walk at n = 2 (N = 10 000, 300 paths) from 414 to
240 ms (524 to 407 ms on a busier host).  Small walks lose the fork's cost
(_WORKER_STEPS).
"""

import math
import mmap
import os
import pickle
import sys
import warnings
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

_CHUNK = 16384
_BLOCK = 2**15  # draws of each kind per block of steps, as one (steps, paths) array
# Path-steps from which a walk forks its step worker.  One walk, in-process
# -> with the worker, median of 11 interleaved runs on a shared 2-core x86-64
# host, and the runs in which the worker was faster:
#   Sturm, n = 2, N = 300, 300 paths (90 k):    15.4 -> 23.2 ms, 0 of 11
#   Sturm, n = 2, N = 1000, 300 paths (300 k):  48.9 -> 50.4 ms, 1 of 11
#   clt, n = 3, N = 250, 2 000 paths (500 k):   31.0 -> 33.7 ms, 2 of 11
#   clt, n = 3, N = 500, 2 000 paths (1 M):     61.0 -> 53.6 ms, 11 of 11
#   lln, n = 3, N = 1000, 2 000 paths (2 M):   121.5 -> 109.4 ms, 9 of 11
# The fork, the worker's exit and the wait take a few ms (a bare fork, exit
# and wait 2.3 ms), which a walk must win back; 2^20 keeps every
# measured loss in-process.
_WORKER_STEPS = 2**20
_MODES = ("clt", "lln", "sturm")
_HALF_GUARD = math.atanh(1.0 - BOUNDARY_TOL)  # half the radius of ||s|| = 1 - BOUNDARY_TOL


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
    a uint64 array).  The shift-xor-multiply rounds run in place on the new
    array x + gamma, with one shifted copy as scratch; x is not modified.
    """
    w = np.atleast_1d(np.asarray(x, dtype=np.uint64)) + np.uint64(_GOLDEN)
    t = w >> np.uint64(30)
    w ^= t
    w *= np.uint64(0xBF58476D1CE4E5B9)
    np.right_shift(w, np.uint64(27), out=t)
    w ^= t
    w *= np.uint64(0x94D049BB133111EB)
    np.right_shift(w, np.uint64(31), out=t)
    w ^= t
    return w if isinstance(x, np.ndarray) else int(w[0])


def path_stream_seed(master_seed: int, path_index):
    """Seed of path j's stream, splitmix64(master_seed + j*gamma) mod 2^64; j is
    an int (returns an int) or an integer array (returns a uint64 array)."""
    j = np.array(path_index, dtype=np.uint64, ndmin=1)
    seeds = splitmix64(j * np.uint64(_GOLDEN) + np.uint64(master_seed))
    return seeds if isinstance(path_index, np.ndarray) else int(seeds[0])


def _uniforms(seeds: np.ndarray, first: int, count: int) -> np.ndarray:
    """Draws first, ..., first + count - 1 of every stream, as (count, paths)
    uniforms in (0, 1): the top 53 bits of each word, times 2^-53."""
    i = np.arange(first, first + count, dtype=np.uint64)[:, None]
    i *= np.uint64(_GOLDEN)
    w = splitmix64(seeds[None, :] + i)
    w >>= np.uint64(11)
    # the words are below 2^53, so the conversion to float is exact
    u = np.multiply(w, 2.0**-53)
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


def _plan(cfg: WalkConfig):
    """The walk's chunks as (start, count, blocks), where blocks lists the
    (first step, steps) of each block of the chunk's steps."""
    plan = []
    for start in range(0, cfg.paths, _CHUNK):
        count = min(_CHUNK, cfg.paths - start)
        steps = max(1, _BLOCK // count)
        plan.append((start, count, [(k0, min(steps, cfg.N - k0)) for k0 in range(0, cfg.N, steps)]))
    return plan


def _block_view(buf: np.ndarray, block: int, count: int) -> np.ndarray:
    """The draws of one block, as (rows, block, count) views into the front of
    buf's rows."""
    return buf[:, :block * count].reshape(len(buf), block, count)


def _draw_block(cfg: WalkConfig, seeds: np.ndarray, k0: int, draws: np.ndarray):
    """Write the draws of steps k0, ..., k0 + block - 1 of the paths of
    `seeds` into the (block, paths) rows of draws: the step's half radius
    half_z, sq = sinh(eta_z) q, and in the Sturm mode h_z = sinh^2(half_z)."""
    n, N = cfg.profile.dim.n, cfg.N
    eps = {"clt": 1.0 / math.sqrt(N), "lln": 1.0 / N, "sturm": 1.0}[cfg.scaling]
    block = draws.shape[1]
    eta_z = eps * _sample_eta_many(cfg.profile, _uniforms(seeds, k0, block))
    np.multiply(np.sinh(eta_z), _angle_q(n, _uniforms(seeds, N + k0, block)), out=draws[1])
    np.multiply(eta_z, 0.5, out=draws[0])
    if cfg.scaling == "sturm":
        np.square(np.sinh(draws[0]), out=draws[2])


def _step_rows(count: int, sturm: bool):
    """The step's rows for count paths, made once per chunk: eta, then the
    step's h, and the carried half radius half = eta/2; with the work rows of
    _stewart in the Sturm mode, else None."""
    return np.zeros((3, count)), _stewart_rows(count) if sturm else None


def _step_block(state, draws: np.ndarray, k0: int, start: int):
    """Steps k0, ..., k0 + block - 1 of paths start, ... from the draws of
    _draw_block, on the rows of _step_rows; the new half radii are left in the
    half row.  A BoundaryError where a radius reaches the guard or is NaN."""
    rows, work = state
    eta, h, half = rows
    # one sinh maps eta and h in place; in the Sturm mode it maps half too,
    # for _stewart to square
    sinh_rows = rows if work is not None else rows[:2]
    half_z, sq = draws[0], draws[1]
    for k in range(draws.shape[1]):
        # h = sinh^2(d/2) = sinh^2(half - half_z) + sinh(eta) sq, with d
        # the distance between -s (Sturm: s) and z
        np.multiply(half, 2.0, out=eta)
        np.subtract(half, half_z[k], out=h)
        np.sinh(sinh_rows, out=sinh_rows)
        np.square(h, out=h)
        eta *= sq[k]
        h += eta
        np.sqrt(h, out=h)
        if work is not None:
            _stewart(h, half, draws[2, k], 1.0 / (k0 + k + 1), work)
        else:
            # half = arcsinh(sqrt(h))
            np.arcsinh(h, out=half)
        # a NaN radius fails the comparison too
        if not half.max() < _HALF_GUARD:
            bad = np.nonzero(~(half < _HALF_GUARD))[0]
            raise BoundaryError(f"paths {(start + bad).tolist()} reached the boundary "
                                f"guard at step {k0 + k + 1}")


def _stewart_rows(count: int):
    """The six work rows of _stewart for count paths, with the views of them
    that it passes as out=, made once per chunk."""
    rows = np.empty((6, count))
    return rows[:3], rows[3:], rows[1:], tuple(rows)


def _stewart(s_half, sinh_half_s, h_z, weight, work):
    """Sturm tail of a step: the half radius of the point at distance
    x = weight * D from s on the geodesic from s to z.  On entry
    s_half = sinh(D/2), D = d(s, z), and sinh_half_s = sinh(eta_s/2), with
    eta_s = |s|; h_z = sinh^2(|z|/2).  The new half radius eta'/2 is written
    into sinh_half_s; s_half and the rows of `work` (_stewart_rows) are
    overwritten.

    Stewart's cosh(eta') sinh D = cosh(eta_s) sinh(D - x) + cosh(eta_z) sinh x,
    with cosh = 1 + 2 sinh^2(./2) and sinh(D - x) + sinh x - sinh D
    = -4 sinh((D - x)/2) sinh(x/2) sinh(D/2), reads
    sinh^2(eta'/2) sinh D = h_s sinh(D - x) + h_z sinh x
    - 2 sinh((D - x)/2) sinh(x/2) sinh(D/2), with no arccosh near 1.

    The five sinh arguments come from delta = arcsinh(sinh(D/2)) = D/2 as
    x/2 = weight delta and (D - x)/2 = delta - x/2, and one doubling of the
    rows (delta, x/2, (D - x)/2) gives D, x and D - x.  Scaling by a power of
    two commutes with rounding, so each is bitwise the value computed from D
    itself, and one sinh maps all five rows in place.
    """
    halves, doubles, args, (delta, half_x, half_y, d, x, y) = work
    np.arcsinh(s_half, out=delta)
    np.multiply(delta, weight, out=half_x)
    np.subtract(delta, half_x, out=half_y)
    np.multiply(halves, 2.0, out=doubles)
    # from here on, each row of `args` holds the sinh of its argument
    np.sinh(args, out=args)
    h_s = np.square(sinh_half_s, out=sinh_half_s)
    # num = h_s sinh(D - x) + h_z sinh(x) - 2 sinh((D - x)/2) sinh(x/2) sinh(D/2)
    num = y
    num *= h_s
    x *= h_z
    num += x
    term = np.multiply(half_y, 2.0, out=half_y)
    term *= half_x
    term *= s_half
    num -= term
    # D = 0 means z = s, and the step stays at s; a NaN D stays NaN, so the
    # boundary guard stops the walk
    h = np.divide(num, d, out=h_s, where=d != 0.0)
    # half' = arcsinh(sqrt(max(h, 0)))
    np.maximum(h, 0.0, out=h)
    np.sqrt(h, out=h)
    np.arcsinh(h, out=h)


def run_walk(cfg: WalkConfig) -> np.ndarray:
    """Terminal radii of every path of the configuration, deterministic per
    (seed, index).  A walk of at least _WORKER_STEPS path-steps and two
    blocks, on Linux with two CPUs or more, steps in a forked worker
    (_run_forked); any other walk draws and steps each block in turn."""
    plan = _plan(cfg)
    if (cfg.paths * cfg.N >= _WORKER_STEPS and sum(len(b) for _, _, b in plan) >= 2
            and sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2):
        return _run_forked(cfg, plan)
    rows = 3 if cfg.scaling == "sturm" else 2
    out = np.empty(cfg.paths)
    for start, count, blocks in plan:
        seeds = path_stream_seed(cfg.master_seed, np.arange(start, start + count, dtype=np.uint64))
        state = _step_rows(count, rows == 3)
        buf = np.empty((rows, blocks[0][1] * count))
        for k0, block in blocks:
            draws = _block_view(buf, block, count)
            _draw_block(cfg, seeds, k0, draws)
            _step_block(state, draws, k0, start)
        out[start:start + count] = 2.0 * state[0][2]
    return out


def _run_forked(cfg: WalkConfig, plan) -> np.ndarray:
    """run_walk with the steps in one forked worker (_step_worker), which
    steps each block while this process draws the next.

    The draws pass through two block buffers in one anonymous shared mapping,
    used in turn; the worker writes each chunk's terminal radii into the same
    mapping.  One pipe tells the worker that a buffer is full (a byte per
    block), the other tells this process that one is free again (a zero
    header) or carries the worker's exception (its pickle's length, then the
    pickle), which is raised here.  The worker is always reaped: on any exit
    this process closes its ends, so the worker reads EOF or fails to write
    and exits, and then waits for it.
    """
    rows = 3 if cfg.scaling == "sturm" else 2
    size = max(blocks[0][1] * count for _, count, blocks in plan)
    shared = np.frombuffer(mmap.mmap(-1, 8 * (cfg.paths + 2 * rows * size)))
    out, bufs = shared[:cfg.paths], shared[cfg.paths:].reshape(2, rows, size)
    go_r, go_w = os.pipe()
    free_r, free_w = os.pipe()
    with warnings.catch_warnings(record=True) as forking:
        # Python >= 3.12 warns here where other threads exist (a BLAS pool);
        # the worker calls no BLAS.  The warning is issued below, where an
        # error filter cannot raise it before the worker's pid is known
        warnings.simplefilter("always")
        try:
            pid = os.fork()
        except OSError:
            for fd in (go_r, go_w, free_r, free_w):
                os.close(fd)
            raise
    if pid == 0:
        os.close(go_w)
        os.close(free_r)
        _step_worker(cfg, plan, out, bufs, go_r, free_w)
    os.close(go_r)
    os.close(free_w)
    try:
        for caught in forking:
            warnings.warn(caught.message, stacklevel=3)
        sent = pending = 0  # blocks sent, and those not yet freed
        for start, count, blocks in plan:
            seeds = path_stream_seed(cfg.master_seed, np.arange(start, start + count, dtype=np.uint64))
            for k0, block in blocks:
                if pending == 2:
                    _await_free(free_r)
                    pending -= 1
                try:
                    _draw_block(cfg, seeds, k0, _block_view(bufs[sent % 2], block, count))
                    os.write(go_w, b"\0")
                except Exception:
                    # a failure of the worker's is at an earlier step: let it
                    # step the blocks it has, and raise its exception first
                    os.close(go_w)
                    go_w = -1
                    for _ in range(pending):
                        _await_free(free_r)
                    raise
                sent += 1
                pending += 1
        for _ in range(pending):
            _await_free(free_r)
        return out.copy()
    finally:
        if go_w >= 0:
            os.close(go_w)
        os.close(free_r)
        os.waitpid(pid, 0)


def _await_free(fd: int):
    """Wait for the worker's next message: return when it frees a buffer,
    raise the exception it forwards."""
    length = int.from_bytes(_read_exact(fd, 8), "little")
    if length:
        raise pickle.loads(_read_exact(fd, length))


def _read_exact(fd: int, size: int) -> bytes:
    """size bytes from the pipe fd; a RuntimeError at EOF before them."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            raise RuntimeError("the walk's step worker exited before it finished")
        data += chunk
    return data


def _step_worker(cfg: WalkConfig, plan, out, bufs, go: int, free: int):
    """The forked step worker: _step_block on each block that the caller
    reports full, then the free message, and a chunk's terminal radii into
    out before the free message of its last block.  It calls no name that a
    tracer may rebind (the caller makes every draw), so traced counts stay
    the caller's.  It leaves only through os._exit: at EOF on go (the caller
    is gone), when a write to free fails, or after forwarding its exception.
    """
    code = 0
    try:
        i = 0
        for start, count, blocks in plan:
            state = _step_rows(count, cfg.scaling == "sturm")
            for k0, block in blocks:
                if not os.read(go, 1):
                    return
                _step_block(state, _block_view(bufs[i % 2], block, count), k0, start)
                i += 1
                if k0 + block == cfg.N:
                    np.multiply(state[0][2], 2.0, out=out[start:start + count])
                os.write(free, bytes(8))
    except BaseException as exc:  # forwarded, and the worker exits below
        code = 1
        try:
            payload = pickle.dumps(exc)
            pickle.loads(payload)  # as the caller will
        except Exception:
            payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
        try:
            message = len(payload).to_bytes(8, "little") + payload
            while message:
                message = message[os.write(free, message):]
        except OSError:
            pass
    finally:
        os._exit(code)
