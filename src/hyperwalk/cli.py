"""Command-line surface: evaluate tables, run walks and verify the theorems.

Exit codes: 0 success / verdict passed, 1 computational failure or failed
verdict, 2 usage or configuration error.  Every data file gets a JSON sidecar
echoing the resolved configuration so reruns are byte-identical.
"""

import argparse
import contextlib
import json
import locale  # noqa: F401  argparse's messages load it at the first parser
import math
import sys
from functools import partial

import numpy as np
import numpy.rec  # noqa: F401  numpy loads it lazily, at the first np.rec

from . import __version__
from .diagnostics import (_llt_eta_grid, clt_check, gyro_property_suite, lln_check,
                          llt_check, variance_rate_check)
from .geometry import as_dim, require_int
from .heat_kernel import hk, psi_clt
from .radial_density import profile_from_config
from .spectral import fh_transform
from .walk_sim import WalkConfig, run_walk


_CSV_SLICE = 4096  # CSV rows formatted and written at a time


class ConfigError(ValueError):
    pass


def _parse_density(spec: str, dim: int) -> dict:
    """Parse the compact --density syntax 'bump:ETA_MAX'."""
    parts = spec.split(":")
    if parts[0] == "bump" and len(parts) == 2:
        return {"family": "bump", "eta_max": float(parts[1]), "dim": dim}
    raise ConfigError(f"unsupported density spec {spec!r}; expected bump:ETA_MAX")


def _parse_grid(spec: str) -> np.ndarray:
    """Inclusive grid 'start:stop:step'."""
    try:
        start, stop, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {spec!r}; expected start:stop:step") from exc
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0.0 or stop < start:
        raise ConfigError(f"bad grid spec {spec!r}")
    count = int(round((stop - start) / step)) + 1
    return start + step * np.arange(count)


def _write_csv(path, header, rows):
    """Write the header and the rows as CSV, to the file `path` or, when it is
    None, to stdout.

    `rows` is a record array, one record per line.  It is written in slices
    of _CSV_SLICE records: a slice's columns become Python ints and floats,
    interleaved into one tuple in row order, and the slice is formatted by
    one % of the line repeated once per record.  Each value is written as
    its repr, which is what csv.writer writes for the strings str(int) and
    repr(float).  Only one slice's text is held at a time.
    """
    width = len(header)
    line = ",".join(["%r"] * width) + "\n"
    with (contextlib.nullcontext(sys.stdout) if path is None
          else open(path, "w", newline="", encoding="utf-8")) as fh:
        fh.write(",".join(header) + "\n")
        for k in range(0, len(rows), _CSV_SLICE):
            part = rows[k:k + _CSV_SLICE]
            values = [None] * (len(part) * width)
            for j in range(width):
                values[j::width] = part.field(j).tolist()
            fh.write(line * len(part) % tuple(values))


def _write_sidecar(out, payload: dict):
    if out is None:
        return
    payload = dict(payload)
    payload["version"] = __version__
    with open(f"{out}.json", "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _emit_verdict(verdict, out) -> int:
    text = verdict.to_json()
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if verdict.passed else 1


def _error(message: str, code: int) -> int:
    print(json.dumps({"error": message}), file=sys.stderr)
    return code


def _load_config(path: str, allowed: set) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _cmd_props(args) -> int:
    as_dim(args.dim)  # validates >= 2
    if args.trials < 1:
        raise ConfigError("--trials must be >= 1")
    verdict = gyro_property_suite([args.dim], args.trials, args.seed)
    return _emit_verdict(verdict, args.out)


def _cmd_transform(args) -> int:
    density = _parse_density(args.density, args.dim)
    profile = profile_from_config(density)
    lams = _parse_grid(args.lam)
    rows = np.rec.fromarrays([lams, fh_transform(profile, lams)])
    _write_csv(args.out, ["lambda", "value"], rows)
    _write_sidecar(args.out, {"command": "transform", "density": density,
                              "lambda_grid": args.lam})
    return 0


def _cmd_heat_kernel(args) -> int:
    as_dim(args.dim)
    if not 0.0 < args.t < math.inf:
        raise ConfigError(f"--t must be positive and finite, got {args.t!r}")
    etas = _parse_grid(args.eta)
    psi_vals = hk(args.t, etas, args.dim)
    big_psi = psi_clt(args.t, etas, args.dim)
    rows = np.rec.fromarrays([etas, psi_vals, big_psi])
    _write_csv(args.out, ["eta", "psi", "Psi"], rows)
    _write_sidecar(args.out, {"command": "heat-kernel", "dim": args.dim,
                              "t": args.t, "eta_grid": args.eta})
    return 0


def _cmd_walk(args) -> int:
    density = _parse_density(args.density, args.dim)
    profile = profile_from_config(density)
    cfg = WalkConfig(profile, args.N, args.paths, args.scaling, args.seed)
    rows = np.rec.fromarrays([np.arange(cfg.paths), run_walk(cfg)])
    _write_csv(args.out, ["path", "eta"], rows)
    _write_sidecar(args.out, {"command": "walk", **cfg.describe()})
    return 0


_VERIFY_KEYS = {
    "clt": {"density", "N", "paths", "seed", "t_scale"},
    "llt": {"density", "Ns", "eta_points", "limit"},
    "lln": {"density", "Ns", "paths", "seed", "scaling"},
    "variance": {"density", "Ns"},
}


def _check_integers(cfg: dict):
    """Reject a count or a seed that is not a JSON integer: 100.9, "100" and
    true are configuration errors, not truncated to 100 or 1."""
    values = [(key, cfg[key]) for key in ("N", "paths", "seed", "eta_points") if key in cfg]
    if "Ns" in cfg:
        if not isinstance(cfg["Ns"], list):
            raise ConfigError(f"Ns must be a list of integers, got {cfg['Ns']!r}")
        values += [("Ns", v) for v in cfg["Ns"]]
    for key, v in values:
        require_int(key, v)


def _cmd_verify(args) -> int:
    cfg = _load_config(args.config, _VERIFY_KEYS[args.check])
    _check_integers(cfg)
    # a KeyError is a missing key here; inside the check it is a computational failure
    try:
        profile = profile_from_config(cfg["density"])
        if args.check == "clt":
            check = partial(clt_check, profile, cfg["N"], cfg["paths"], cfg["seed"],
                            t_scale=float(cfg.get("t_scale", 1.0)))
        elif args.check == "llt":
            eta_grid = _llt_eta_grid(profile, cfg["eta_points"]) if "eta_points" in cfg else None
            check = partial(llt_check, profile, cfg["Ns"], eta_grid=eta_grid,
                            limit=cfg.get("limit", "clt"))
        elif args.check == "lln":
            check = partial(lln_check, profile, cfg["Ns"], cfg["paths"], cfg["seed"],
                            scaling=cfg.get("scaling", "lln"))
        else:
            check = partial(variance_rate_check, profile, cfg["Ns"])
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc.args[0]}")
    return _emit_verdict(check(), args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Gyrogroup random walks and radial spectral analysis on the ball")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    props = sub.add_parser("props", help="run the gyrogroup identity suite")
    props.add_argument("--dim", type=int, required=True)
    props.add_argument("--trials", type=int, default=10000)
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--out")
    props.set_defaults(func=_cmd_props)

    tr = sub.add_parser("transform", help="tabulate the radial transform of a density")
    tr.add_argument("--dim", type=int, required=True)
    tr.add_argument("--density", required=True)
    tr.add_argument("--lambda", dest="lam", required=True, metavar="GRID")
    tr.add_argument("--out")
    tr.set_defaults(func=_cmd_transform)

    hkp = sub.add_parser("heat-kernel", help="tabulate the heat kernel and its half-time form")
    hkp.add_argument("--dim", type=int, required=True)
    hkp.add_argument("--t", type=float, required=True)
    hkp.add_argument("--eta", required=True, metavar="GRID")
    hkp.add_argument("--out")
    hkp.set_defaults(func=_cmd_heat_kernel)

    walk = sub.add_parser("walk", help="simulate a walk ensemble")
    walk.add_argument("--dim", type=int, required=True)
    walk.add_argument("--density", required=True)
    walk.add_argument("--N", type=int, required=True)
    walk.add_argument("--paths", type=int, required=True)
    walk.add_argument("--seed", type=int, required=True)
    walk.add_argument("--scaling", choices=("clt", "lln", "sturm"), default="clt")
    walk.add_argument("--out")
    walk.set_defaults(func=_cmd_walk)

    verify = sub.add_parser("verify", help="run a theorem verification check")
    verify.add_argument("check", choices=("clt", "llt", "lln", "variance"))
    verify.add_argument("--config", required=True)
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        return _error(f"configuration error: {exc}", 2)
    except Exception as exc:  # quadrature/truncation/boundary failures
        return _error(f"computation failed: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
