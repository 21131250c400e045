"""Per-layer trace of one workload run, installed from outside the package.

`install()` rebinds, in the namespace of each calling module, the functions
that module calls in the layer below it (for example `walk_sim.mobius_add_raw`
or `diagnostics.walk_density_grid`), so every call records a span: name,
start, end, parent span and a few counts.  Nothing under src/ is edited; the
wrappers only time and count.  Spans stay in memory until the run ends.

`layer_metrics()` turns the spans into the per-layer metrics that
BENCHMARK.json lists (bench/README.md describes each).  A layer's `_s`
metric is the wall time of its outermost spans (children included); a
`self_s` metric subtracts the direct children.
"""

import math
import os
import time

import numpy as np


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, counts dict]
        self.spans = []
        self._stack = []
        self.counts = {}

    def wrap(self, owner, attr, name, measure=None, adapt=None):
        """Rebind owner.attr to a spanned call; measure(args, result) -> counts,
        adapt(args) -> args lets a wrapper also instrument a callback."""
        fn = getattr(owner, attr)

        def spanned(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            if adapt is not None:
                args = adapt(args)
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                rec[4] = measure(args, out)
            return out

        setattr(owner, attr, spanned)

    def count_calls(self, owner, attr, key):
        fn = getattr(owner, attr)

        def counted(*args, **kwargs):
            self.add_count(key, 1)
            return fn(*args, **kwargs)

        setattr(owner, attr, counted)

    def add_count(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + int(k)


def _rows(args, out):
    arr = np.asarray(out)
    return {"rows": arr.size // arr.shape[-1]}


def install() -> Tracer:
    """Wrap the layer boundaries of an imported hyperwalk and return the tracer."""
    from hyperwalk import cli, diagnostics, radial_density, spectral, walk_sim

    tr = Tracer()
    profile = "radial_density.profile"
    tr.wrap(cli, "profile_from_config", profile)
    tr.wrap(radial_density.RadialProfile, "_cdf_interp", profile)
    tr.wrap(spectral, "scale_profile", profile)
    tr.wrap(diagnostics, "scale_profile", profile)

    tr.wrap(walk_sim, "_sample_eta_many", "radial_density.sample",
            measure=lambda a, out: {"draws": np.size(a[1])})
    tr.wrap(walk_sim, "mobius_add_raw", "gyro.add", measure=_rows)
    tr.wrap(walk_sim, "mobius_scalar_raw", "gyro.scalar", measure=_rows)
    tr.count_calls(walk_sim, "path_stream_seed", "walk_sim.streams")

    def walk_counts(args, out):
        cfg = args[0]
        chunk = min(walk_sim._CHUNK, cfg.paths)
        # (chunk, N, n) normals plus (chunk, N) uniforms, radii, norms, etas
        return {"path_steps": cfg.paths * cfg.N,
                "draw_bytes": chunk * cfg.N * (cfg.profile.dim.n + 4) * 8}

    for owner in (cli, diagnostics):
        tr.wrap(owner, "run_walk", "walk_sim.run_walk", measure=walk_counts)

    tr.wrap(diagnostics, "walk_density_grid", "spectral.walk_density_grid")
    tr.wrap(spectral, "fh_transform", "spectral.fh_transform")
    tr.wrap(spectral, "phi_many", "spectral.phi_many",
            measure=lambda a, out: {"points": np.size(a[1])})
    tr.wrap(spectral, "plancherel_density", "spectral.plancherel")

    def count_nodes(args):
        fvec = args[0]

        def counted(lams):
            tr.add_count("quadrature.gk_lambda_nodes", np.size(lams))
            return fvec(lams)

        return (counted,) + tuple(args[1:])

    tr.wrap(spectral, "gk_adaptive_vector", "quadrature.gk_adaptive_vector", adapt=count_nodes)

    for attr in ("hk", "psi_clt"):
        tr.wrap(diagnostics, attr, "heat_kernel.hk",
                measure=lambda a, out: {"points": np.size(a[1])})
    for attr in ("clt_check", "llt_check", "lln_check"):
        tr.wrap(cli, attr, "diagnostics.check")

    tr.wrap(cli, "_write_csv", "cli.write_csv",
            measure=lambda a, out: {"rows": len(a[2]),
                                    "bytes": os.path.getsize(a[0]) if a[0] else 0})
    return tr


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one traced process (setup figures are added by the caller)."""
    dur = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    def outermost(name):
        """Indices of spans called name that have no ancestor of the same name."""
        out = []
        for i, span in enumerate(spans):
            if span[0] != name:
                continue
            p = span[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def total(name):
        return math.fsum(dur[i] for i in outermost(name))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    def summed(name, key, combine=sum):
        vals = [s[4][key] for s in spans if s[0] == name and s[4]]
        return combine(vals) if vals else 0

    def self_time(name):
        return math.fsum(dur[i] - child_time[i] for i, s in enumerate(spans) if s[0] == name)

    def rate(count, seconds):
        return count / seconds if seconds > 0.0 else 0.0

    draws = summed("radial_density.sample", "draws")
    sample_s = total("radial_density.sample")
    path_steps = summed("walk_sim.run_walk", "path_steps")
    run_walk_s = total("walk_sim.run_walk")
    return {
        "radial_density.profile_s": total("radial_density.profile"),
        "radial_density.draws": draws,
        "radial_density.sample_s": sample_s,
        "radial_density.draws_per_s": rate(draws, sample_s),
        "gyro.add_rows": summed("gyro.add", "rows"),
        "gyro.add_s": total("gyro.add"),
        "gyro.scalar_rows": summed("gyro.scalar", "rows"),
        "gyro.scalar_s": total("gyro.scalar"),
        "walk_sim.run_walk_s": run_walk_s,
        "walk_sim.self_s": self_time("walk_sim.run_walk"),
        "walk_sim.path_steps": path_steps,
        "walk_sim.path_steps_per_s": rate(path_steps, run_walk_s),
        "walk_sim.streams": counts.get("walk_sim.streams", 0),
        "walk_sim.draw_bytes": summed("walk_sim.run_walk", "draw_bytes", max),
        "spectral.walk_density_grid_s": total("spectral.walk_density_grid"),
        "spectral.fh_transform_calls": calls("spectral.fh_transform"),
        "spectral.fh_transform_s": total("spectral.fh_transform"),
        "spectral.phi_many_calls": calls("spectral.phi_many"),
        "spectral.phi_many_points": summed("spectral.phi_many", "points"),
        "spectral.phi_many_s": total("spectral.phi_many"),
        "spectral.plancherel_calls": calls("spectral.plancherel"),
        "spectral.plancherel_s": total("spectral.plancherel"),
        "quadrature.gk_lambda_nodes": counts.get("quadrature.gk_lambda_nodes", 0),
        "heat_kernel.hk_calls": calls("heat_kernel.hk"),
        "heat_kernel.hk_points": summed("heat_kernel.hk", "points"),
        "heat_kernel.hk_s": total("heat_kernel.hk"),
        "diagnostics.self_s": self_time("diagnostics.check"),
        "cli.csv_rows": summed("cli.write_csv", "rows"),
        "cli.csv_bytes": summed("cli.write_csv", "bytes"),
        "cli.write_s": total("cli.write_csv"),
    }
