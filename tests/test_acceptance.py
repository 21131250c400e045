"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the walk-based criteria (7, 9) dominate the runtime.
"""

import json
import math
import time

import numpy as np
import pytest

from hyperwalk import (clt_check, fh_inverse_grid, fh_transform, gyro_property_suite, hk,
                       hk_fourier, limit_time, lln_check, llt_check, make_bump, phi_many,
                       psi_clt, second_moment, scale_profile, sphere_area, variance_direct,
                       variance_rate_check)
from hyperwalk.cli import main as cli_main
from hyperwalk.quadrature import cumulative_gl

from oracles import convolution_profile, phi_series


def report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s) {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_gyro_suite():
    t0 = time.perf_counter()
    v = gyro_property_suite([2, 3, 5], 10**4, seed=42)
    elapsed = time.perf_counter() - t0
    ok = (v.passed and v.statistic < 1e-12
          and v.details["nondistributivity_gap"] > 1e-3 and elapsed < 10.0)
    report(1, "gyrogroup-suite", ok, elapsed,
           f"worst={v.statistic:.2e} gap={v.details['nondistributivity_gap']:.2e}")


def test_criterion_02_spherical_function_representations():
    t0 = time.perf_counter()
    lams = np.linspace(0.0, 20.0, 21)
    etas = np.linspace(0.0, 0.5, 14)
    worst_pair = 0.0
    for n in (2, 3, 4, 5):
        for lam in lams:
            worst_pair = max(worst_pair, float(np.max(np.abs(
                phi_series(lam, etas, n) - phi_many(lam, etas, n)))))
    worst_closed = 0.0
    for lam in lams:
        closed = np.where(etas > 0,
                          np.sin(lam * etas) / np.maximum(lam * np.sinh(etas), 1e-300)
                          if lam > 0 else etas / np.maximum(np.sinh(etas), 1e-300),
                          1.0)
        worst_closed = max(worst_closed, float(np.max(np.abs(
            phi_many(lam, etas, 3) - closed))))
    elapsed = time.perf_counter() - t0
    ok = worst_pair < 1e-10 and worst_closed < 1e-12 and elapsed < 30.0
    report(2, "spherical-representations", ok, elapsed,
           f"series-vs-integral={worst_pair:.2e} closed-form={worst_closed:.2e}")


def test_criterion_03_convolution_theorem():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (2, 3):
        f = make_bump(1.0, n)
        g = make_bump(0.7, n)
        conv = convolution_profile(f, g, points=301)
        for lam in np.linspace(0.0, 4.9, 50):
            lhs = fh_transform(conv, lam)
            rhs = fh_transform(f, lam) * fh_transform(g, lam)
            worst = max(worst, abs(lhs / rhs - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 120.0
    report(3, "convolution-theorem", ok, elapsed, f"worst rel={worst:.2e}")


def test_criterion_04_heat_kernel_fourier_pair():
    t0 = time.perf_counter()
    etas = np.linspace(0.0, 5.0, 21)
    worst = {2: 0.0, 3: 0.0, 5: 0.0}
    for n in (2, 3, 5):
        for t in (0.5, 1.0, 2.0):
            inv = fh_inverse_grid(lambda lam: hk_fourier(t, lam, n), etas, n)
            worst[n] = max(worst[n], float(np.max(np.abs(inv - hk(t, etas, n)))))
    mass_gap = 0.0
    for n in (2, 3, 5):
        t = 1.0
        hi = 2.0 * (n - 1) * t + 14.0 * math.sqrt(t) + 3.0
        grid = np.linspace(0.0, hi, 500)
        mass = cumulative_gl(
            lambda e: sphere_area(n) * psi_clt(t, e, n) * np.sinh(e) ** (n - 1),
            grid, q=8)[-1]
        mass_gap = max(mass_gap, abs(mass - 1.0))
    elapsed = time.perf_counter() - t0
    ok = (worst[3] < 1e-8 and worst[5] < 1e-8 and worst[2] < 1e-7
          and mass_gap < 1e-6 and elapsed < 60.0)
    report(4, "heat-kernel-fourier-pair", ok, elapsed,
           f"odd={max(worst[3], worst[5]):.2e} even={worst[2]:.2e} mass={mass_gap:.2e}")


def test_criterion_05_variance_additivity_and_scaling(bump3):
    t0 = time.perf_counter()
    g = make_bump(0.7, 3)
    conv = convolution_profile(bump3, g, points=301)
    additivity_gap = abs(variance_direct(conv)
                         - variance_direct(bump3) - variance_direct(g))
    ratios = {eps: variance_direct(scale_profile(bump3, eps)) / eps**2
              for eps in (0.1, 0.05, 0.025)}
    extrapolated = ratios[0.025] + (ratios[0.025] - ratios[0.05]) / 3.0
    rel_at_005 = abs(ratios[0.05] / extrapolated - 1.0)
    limit_gap = abs(extrapolated - second_moment(bump3) / 3.0)
    elapsed = time.perf_counter() - t0
    ok = additivity_gap < 1e-6 and rel_at_005 < 0.01 and limit_gap < 1e-4
    report(5, "variance-additivity-scaling", ok, elapsed,
           f"additivity={additivity_gap:.2e} eps0.05-vs-limit={rel_at_005:.2e}")


def test_criterion_06_variance_rate(bump3):
    t0 = time.perf_counter()
    v = variance_rate_check(bump3, [4, 16, 64, 256, 1024])
    elapsed = time.perf_counter() - t0
    ok = -1.5 <= v.fitted_slope <= -0.8
    report(6, "variance-rate", ok, elapsed, f"slope={v.fitted_slope:.3f}")


def test_criterion_07_clt(bump3):
    t0 = time.perf_counter()
    v = clt_check(bump3, 1000, 10**5, seed=20240809)
    control = clt_check(bump3, 1000, 10**5, seed=20240809, t_scale=2.0)
    elapsed = time.perf_counter() - t0
    ok = (v.passed and v.statistic < 0.01 and control.statistic > 0.05
          and elapsed < 300.0)
    report(7, "clt", ok, elapsed,
           f"ks={v.statistic:.4f} control-ks={control.statistic:.4f}")


def test_criterion_08_llt(bump3):
    t0 = time.perf_counter()
    v = llt_check(bump3, [16, 32, 64, 128, 256])
    elapsed = time.perf_counter() - t0
    ok = (-1.3 <= v.fitted_slope <= -0.8 and v.details["monotone"]
          and elapsed < 600.0)
    report(8, "llt", ok, elapsed,
           f"slope={v.fitted_slope:.3f} E(256)={v.statistic:.2e}")


def test_criterion_09_lln(bump3):
    t0 = time.perf_counter()
    v = lln_check(bump3, [100, 1000, 10000], 4000, seed=11)
    elapsed = time.perf_counter() - t0
    means = [v.details["means"][k] for k in ("100", "1000", "10000")]
    strictly_decreasing = means[0] > means[1] > means[2]
    ok = v.passed and strictly_decreasing
    report(9, "lln", ok, elapsed,
           f"means={['%.4f' % m for m in means]} bound={v.threshold:.4f}")


def test_criterion_10_reproducibility(tmp_path, capsys):
    t0 = time.perf_counter()
    walk_args = ["walk", "--dim", "3", "--density", "bump:1.0", "--N", "60",
                 "--paths", "6000", "--seed", "99"]
    assert cli_main(walk_args + ["--out", str(tmp_path / "w1.csv")]) == 0
    assert cli_main(walk_args + ["--out", str(tmp_path / "w2.csv")]) == 0
    walk_ok = ((tmp_path / "w1.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes())

    cfg = tmp_path / "var.json"
    cfg.write_text(json.dumps({
        "density": {"family": "bump", "eta_max": 1.0, "dim": 3},
        "Ns": [4, 16, 64]}))
    assert cli_main(["verify", "variance", "--config", str(cfg),
                     "--out", str(tmp_path / "v1.json")]) == 0
    assert cli_main(["verify", "variance", "--config", str(cfg),
                     "--out", str(tmp_path / "v2.json")]) == 0
    verify_ok = ((tmp_path / "v1.json").read_bytes() == (tmp_path / "v2.json").read_bytes())
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    ok = walk_ok and verify_ok
    report(10, "reproducibility", ok, elapsed,
           f"walk-identical={walk_ok} verify-identical={verify_ok}")
