import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperwalk import cli, diagnostics
from hyperwalk.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_props_pass(capsys):
    code, out, _ = run(capsys, "props", "--dim", "3", "--trials", "2000", "--seed", "42")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True


def test_props_bad_dimension(capsys):
    code, _, err = run(capsys, "props", "--dim", "1", "--trials", "100", "--seed", "1")
    assert code == 2
    assert "error" in json.loads(err)


def test_props_zero_trials(capsys):
    code, _, _ = run(capsys, "props", "--dim", "3", "--trials", "0", "--seed", "1")
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["props"])  # missing required --dim
    assert exc.value.code == 2


def test_heat_kernel_grid_rows(tmp_path, capsys):
    out = tmp_path / "hk.csv"
    code, _, _ = run(capsys, "heat-kernel", "--dim", "3", "--t", "1.0",
                     "--eta", "0:5:0.01", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "eta,psi,Psi"
    assert len(lines) == 502
    sidecar = json.loads((tmp_path / "hk.csv.json").read_text())
    assert sidecar["t"] == 1.0 and "version" in sidecar


def test_transform_matches_library(tmp_path, capsys):
    out = tmp_path / "tr.csv"
    code, _, _ = run(capsys, "transform", "--dim", "2", "--density", "bump:1.0",
                     "--lambda", "0:2:0.5", "--out", str(out))
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 5
    from hyperwalk import fh_transform, make_bump

    p = make_bump(1.0, 2)
    lam0, val0 = rows[0].split(",")
    assert float(lam0) == 0.0
    assert float(val0) == pytest.approx(fh_transform(p, 0.0), abs=1e-10)


def test_walk_rerun_is_byte_identical(tmp_path, capsys):
    args = ["walk", "--dim", "3", "--density", "bump:1.0", "--N", "40",
            "--paths", "4000", "--seed", "7"]
    for name in ("a.csv", "b.csv"):
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / name))
        assert code == 0
    for suffix in ("", ".json"):
        assert ((tmp_path / f"a.csv{suffix}").read_bytes()
                == (tmp_path / f"b.csv{suffix}").read_bytes())
    assert (tmp_path / "a.csv").read_text().splitlines()[0] == "path,eta"
    sidecar = json.loads((tmp_path / "a.csv.json").read_text())
    assert sidecar["master_seed"] == 7 and sidecar["N"] == 40


def test_verify_variance_and_reproducibility(tmp_path, capsys):
    cfg = tmp_path / "var.json"
    cfg.write_text(json.dumps({
        "density": {"family": "bump", "eta_max": 1.0, "dim": 3},
        "Ns": [4, 16, 64]}))
    code, out1, _ = run(capsys, "verify", "variance", "--config", str(cfg))
    assert code == 0
    code, out2, _ = run(capsys, "verify", "variance", "--config", str(cfg))
    assert out1 == out2


def test_verify_clt_negative_control(tmp_path, capsys):
    cfg = tmp_path / "bad_t.json"
    cfg.write_text(json.dumps({
        "density": {"family": "bump", "eta_max": 1.0, "dim": 3},
        "N": 120, "paths": 10000, "seed": 3, "t_scale": 2.0}))
    code, out, _ = run(capsys, "verify", "clt", "--config", str(cfg))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_missing_config(capsys):
    code, _, err = run(capsys, "verify", "clt", "--config", "/nonexistent.json")
    assert code == 2


def test_verify_unknown_key_rejected(tmp_path, capsys):
    """A typo, and the verdict settings that are fixed: the llt and variance
    rate windows, the clt bias allowance and the clt threshold."""
    bump = {"family": "bump", "eta_max": 1.0, "dim": 3}
    docs = {"clt": {"density": bump, "N": 100, "paths": 10000, "seed": 1},
            "llt": {"density": bump, "Ns": [16, 32, 64]},
            "variance": {"density": bump, "Ns": [4, 16, 64]}}
    cfg = tmp_path / "bad.json"
    for check, key, value in [("variance", "typo_key", 1), ("variance", "slope_max", 5.0),
                              ("llt", "slope_max", 5.0), ("clt", "bias_coeff", 0.0),
                              ("clt", "threshold", 1.0)]:
        cfg.write_text(json.dumps({**docs[check], key: value}))
        code, out, err = run(capsys, "verify", check, "--config", str(cfg))
        assert code == 2 and out == "", key
        assert key in json.loads(err)["error"]


@pytest.mark.parametrize("doc", [{"Ns": [], "paths": 100}, {"Ns": [10], "paths": 100},
                                 {"Ns": [10, 100], "paths": 1}],
                         ids=["empty-ladder", "one-N", "one-path"])
def test_verify_lln_needs_two_N_and_two_paths(doc, tmp_path, capsys):
    """The verdict claims a decay across the ladder and reports each mean's
    standard error: a shorter ladder or a single path is a configuration
    error, not an index error (exit 1) or a NaN in the verdict."""
    cfg = tmp_path / "lln.json"
    cfg.write_text(json.dumps({"density": {"family": "bump", "eta_max": 1.0, "dim": 3},
                               "seed": 1, **doc}))
    code, out, err = run(capsys, "verify", "lln", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "at least 2" in json.loads(err)["error"]


def test_verify_llt_unknown_limit_is_a_configuration_error(tmp_path, capsys):
    """A typo of "clt" used to run the unhalved negative control and fail
    the verdict (exit 1); it is now rejected before any computation."""
    cfg = tmp_path / "llt.json"
    cfg.write_text(json.dumps({"density": {"family": "bump", "eta_max": 1.0, "dim": 3},
                               "Ns": [16, 32, 64], "limit": "cltt"}))
    code, out, err = run(capsys, "verify", "llt", "--config", str(cfg))
    assert code == 2 and out == ""
    assert "cltt" in json.loads(err)["error"]


def test_verify_rejects_config_numbers_that_are_not_integers(tmp_path, capsys):
    """dim 3.7, N 100.9 or paths 10000.5 used to run as 3, 100 and 10000."""
    bump = {"family": "bump", "eta_max": 1.0, "dim": 3}
    clt = {"density": bump, "N": 100, "paths": 10000, "seed": 1}
    llt = {"density": bump, "Ns": [16, 32, 64], "eta_points": 50}
    cases = [("clt", {**clt, "density": {**bump, "dim": 3.7}}),
             ("clt", {**clt, "density": {**bump, "dim": "3"}}),
             ("clt", {**clt, "N": 100.9}),
             ("clt", {**clt, "paths": 10000.5}),
             ("clt", {**clt, "seed": True}),
             ("clt", {**clt, "seed": "1"}),
             ("llt", {**llt, "Ns": [16, 32.0, 64]}),
             ("llt", {**llt, "Ns": 64}),
             ("llt", {**llt, "eta_points": 50.5}),
             ("lln", {"density": bump, "Ns": [10, 100], "paths": 100, "seed": 1e3})]
    cfg = tmp_path / "cfg.json"
    for check, doc in cases:
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", check, "--config", str(cfg))
        assert code == 2 and out == "", doc
        assert "integer" in json.loads(err)["error"], doc


def test_verify_missing_key_is_a_configuration_error(tmp_path, capsys, monkeypatch):
    """A missing key exits 2 and names the key, before any walk or transform."""
    def never(*args):
        raise AssertionError("a walk or transform ran for an incomplete config")

    monkeypatch.setattr(diagnostics, "run_walk", never)
    monkeypatch.setattr(diagnostics, "walk_density_grid", never)
    bump = {"family": "bump", "eta_max": 1.0, "dim": 3}
    cases = [("clt", {"density": bump, "paths": 100, "seed": 1}, "N"),
             ("llt", {"density": bump}, "Ns"),
             ("lln", {"density": bump, "Ns": [10, 100], "seed": 1}, "paths"),
             ("variance", {"Ns": [4, 16, 64]}, "density"),
             ("llt", {"density": {"family": "bump", "dim": 3}, "Ns": [16, 32, 64]}, "eta_max")]
    cfg = tmp_path / "cfg.json"
    for check, doc, key in cases:
        cfg.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", check, "--config", str(cfg))
        assert code == 2 and out == "", key
        assert json.loads(err)["error"] == f"configuration error: missing config key: {key}"


def test_verify_key_error_inside_a_check_is_a_computational_failure(tmp_path, capsys,
                                                                     monkeypatch):
    """A KeyError raised by the check itself is a fault of the computation
    (exit 1), not a missing config key (exit 2), which it used to be."""
    def broken(*args):
        raise KeyError("rows")

    monkeypatch.setattr(diagnostics, "walk_density_grid", broken)
    cfg = tmp_path / "llt.json"
    cfg.write_text(json.dumps({"density": {"family": "bump", "eta_max": 1.0, "dim": 3},
                               "Ns": [16, 32, 64]}))
    code, out, err = run(capsys, "verify", "llt", "--config", str(cfg))
    assert code == 1 and out == ""
    assert json.loads(err)["error"] == "computation failed: 'rows'"


@pytest.mark.parametrize("t", ["nan", "inf", "-1"])
def test_heat_kernel_rejects_time_that_is_not_positive_and_finite(t, tmp_path, capsys):
    out = tmp_path / "hk.csv"
    code, _, err = run(capsys, "heat-kernel", "--dim", "3", "--t", t,
                       "--eta", "0:1:0.5", "--out", str(out))
    assert code == 2 and "--t" in json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("dim", ["2", "3"])
def test_heat_kernel_rejects_negative_radii(dim, tmp_path, capsys):
    """A negative radius wrote negative kernel values at n = 3 (exit 0) and
    failed the descent at n = 2 (exit 1)."""
    out = tmp_path / "hk.csv"
    code, stdout, err = run(capsys, "heat-kernel", "--dim", dim, "--t", "1.0",
                            "--eta=-5:0:1", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "radii >= 0" in json.loads(err)["error"]
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["walk", "--density", "bump:inf", "--N", "4", "--paths", "10", "--seed", "7"],
    ["transform", "--density", "bump:nan", "--lambda", "0:1:0.5"],
    ["verify", "llt", "--config"]], ids=["walk-inf", "transform-nan", "verify-nan"])
def test_non_finite_bump_support_is_a_configuration_error(argv, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"  # Python's json module reads NaN
    cfg.write_text('{"density": {"family": "bump", "eta_max": NaN, "dim": 3}, "Ns": [16, 32, 64]}')
    code, out, err = run(capsys, *argv, *([str(cfg)] if argv[0] == "verify" else ["--dim", "3"]))
    assert code == 2 and out == ""
    assert "eta_max" in json.loads(err)["error"]


@pytest.mark.parametrize("check", ["heat-kernel", "clt", "llt"])
def test_dimensions_past_the_validated_heat_kernel_exit_2(check, tmp_path, capsys, monkeypatch):
    """The heat kernel is validated up to n = 17: heat-kernel, verify clt and
    verify llt at n = 18 are configuration errors, raised before any walk or
    transform runs."""
    def never(*args):
        raise AssertionError("a walk or transform ran for a rejected dimension")

    monkeypatch.setattr(diagnostics, "run_walk", never)
    monkeypatch.setattr(diagnostics, "walk_density_grid", never)
    if check == "heat-kernel":
        argv = ["heat-kernel", "--dim", "18", "--t", "1.0", "--eta", "0:1:0.5",
                "--out", str(tmp_path / "hk.csv")]
    else:
        doc = {"density": {"family": "bump", "eta_max": 1.0, "dim": 18}}
        doc.update({"N": 100, "paths": 10000, "seed": 1} if check == "clt"
                   else {"Ns": [16, 32, 64]})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv = ["verify", check, "--config", str(cfg)]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert "dimensions 2 to 17" in json.loads(err)["error"]


def test_walk_and_transform_keep_every_dimension(tmp_path, capsys):
    """Neither command uses the space-side heat kernel, so n = 18 runs."""
    code, out, _ = run(capsys, "walk", "--dim", "18", "--density", "bump:1.0", "--N", "4",
                       "--paths", "10", "--seed", "7")
    assert code == 0 and len(out.splitlines()) == 11
    code, out, _ = run(capsys, "transform", "--dim", "18", "--density", "bump:1.0",
                       "--lambda", "0:1:0.5")
    assert code == 0 and len(out.splitlines()) == 4


def test_bad_grid_spec(capsys):
    code, _, _ = run(capsys, "heat-kernel", "--dim", "3", "--t", "1.0",
                     "--eta", "5:0:0.1")
    assert code == 2


@pytest.mark.parametrize("spec", ["0:inf:1", "0:1:inf", "nan:1:0.5"])
@pytest.mark.parametrize("argv", [["heat-kernel", "--t", "1.0", "--eta"],
                                  ["transform", "--density", "bump:1.0", "--lambda"]],
                         ids=["heat-kernel", "transform"])
def test_grid_bounds_that_are_not_finite_are_configuration_errors(argv, spec, tmp_path,
                                                                   capsys):
    """An infinite stop used to fail the computation (exit 1) on the grid's
    length; every start, stop and step must be finite."""
    out = tmp_path / "grid.csv"
    code, stdout, err = run(capsys, *argv, spec, "--dim", "3", "--out", str(out))
    assert code == 2 and stdout == ""
    assert "grid" in json.loads(err)["error"]
    assert not out.exists()


def _csv_writer_reference(header, rows):
    """The CSV that csv.writer makes of the header and of the rows, each value
    written as repr(float(x)) when it is a float and str(x) otherwise."""
    import csv
    import io

    def fmt(x):
        return repr(float(x)) if isinstance(x, (float, np.floating)) else str(x)

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) for v in row])
    return buf.getvalue()


def test_write_csv_matches_csv_writer(tmp_path, capsys):
    """The sliced writer gives csv.writer's bytes, to a file and to stdout,
    across several slices and for ints, zeros, tiny, huge and subnormal
    floats, and non-finite values."""
    special = [0.0, -0.0, 1e-05, 5e-324, 2.2250738585072014e-308, 1e16, 1.5e300,
               0.1, 1.0 / 3.0, -2.5, float("inf"), float("-inf"), float("nan")]
    rng = np.random.default_rng(3)
    count = 2 * cli._CSV_SLICE + 17
    col = np.concatenate([special, rng.standard_normal(count - len(special))
                          * 10.0 ** rng.integers(-20, 20, count - len(special))])
    index = np.arange(count)
    rows = np.rec.fromarrays([index, col, col[::-1].copy()])
    header = ["path", "eta", "other"]
    want = _csv_writer_reference(header, zip(index.tolist(), col, col[::-1]))
    out = tmp_path / "w.csv"
    cli._write_csv(str(out), header, rows)
    assert out.read_bytes() == want.encode()
    capsys.readouterr()
    cli._write_csv(None, header, rows)
    assert capsys.readouterr().out == want


def test_commands_do_not_load_scipy(tmp_path):
    """Every command runs on numpy alone: scipy is a test dependency only."""
    bump3 = {"family": "bump", "eta_max": 1.0, "dim": 3}
    configs = {"clt": {"density": bump3, "N": 100, "paths": 10000, "seed": 1},
               "llt": {"density": bump3, "Ns": [4, 8, 16], "eta_points": 40},
               "lln": {"density": bump3, "Ns": [10, 20], "paths": 200, "seed": 1},
               "variance": {"density": bump3, "Ns": [4, 16, 64]}}
    argvs = [["props", "--dim", "3", "--trials", "100"],
             ["transform", "--dim", "2", "--density", "bump:1.0", "--lambda", "0:4:1"],
             ["heat-kernel", "--dim", "4", "--t", "0.5", "--eta", "0:2:0.5"],
             ["walk", "--dim", "5", "--density", "bump:1.0", "--N", "20", "--paths", "100",
              "--seed", "1"]]
    for check, cfg in configs.items():
        path = tmp_path / f"{check}.json"
        path.write_text(json.dumps(cfg))
        argvs.append(["verify", check, "--config", str(path)])
    for k, argv in enumerate(argvs):
        argv += ["--out", str(tmp_path / f"out{k}")]
    code = ("import sys\n"
            "from hyperwalk.cli import main\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "assert all(c in (0, 1) for c in codes), codes\n"  # 2 would be a usage error
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
