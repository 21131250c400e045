import json

import numpy as np
import pytest

from hyperwalk import (clt_check, diagnostics, gyro_property_suite, limit_time, lln_check,
                       llt_check, make_bump, psi_clt, variance_rate_check)


def test_gyro_suite_passes_and_reports(bump3):
    v = gyro_property_suite([2, 3, 5], 2000, 42)
    assert v.passed
    assert v.statistic < 1e-12
    assert v.details["nondistributivity_gap"] > 1e-3
    assert set(v.details["residuals"]) >= {
        "left_inverse[n=2]", "gyro_commutativity[n=3]", "scalar_associativity[n=5]"}


def test_gyro_suite_rejects_empty_trials():
    with pytest.raises(ValueError):
        gyro_property_suite([3], 0, 1)


def test_gyro_suite_verdict_reproducible():
    a = gyro_property_suite([2], 500, 9).to_json()
    b = gyro_property_suite([2], 500, 9).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["pass"] is True and payload["seed"] == 9


def test_clt_check_passes_and_negative_control(bump3):
    v = clt_check(bump3, 200, 20000, seed=7)
    assert v.passed
    assert v.statistic < v.threshold
    assert v.details["noise_floor"] > 0 and v.details["bias_allowance"] > 0
    bad = clt_check(bump3, 200, 20000, seed=7, t_scale=2.0)
    assert not bad.passed
    assert bad.statistic > 0.05


def test_clt_check_preconditions(bump3):
    with pytest.raises(ValueError):
        clt_check(bump3, 50, 20000, seed=1)
    with pytest.raises(ValueError):
        clt_check(bump3, 200, 100, seed=1)


def test_llt_check_small_ladder(bump3):
    v = llt_check(bump3, [8, 16, 32, 64], eta_grid=np.linspace(0.0, 2.5, 80))
    assert v.passed
    assert v.fitted_slope <= -0.8
    assert v.details["monotone"]
    errors = [v.details["errors"][k] for k in sorted(v.details["errors"], key=int)]
    assert all(e > 0 and np.isfinite(e) for e in errors)


def test_llt_negative_control_plateaus(bump3):
    v = llt_check(bump3, [8, 16, 32, 64], eta_grid=np.linspace(0.0, 2.5, 80),
                  limit="unhalved")
    assert not v.passed


def test_llt_requires_ladder(bump3):
    with pytest.raises(ValueError):
        llt_check(bump3, [16, 32])


def test_rate_verdicts_fail_below_their_window(bump3, monkeypatch):
    """Errors that fall like 1/N^2, faster than a correct walk's 1/N, fit a
    slope of about -2, below both windows: the verdicts fail, as they do
    above the window."""
    t = limit_time(bump3)
    monkeypatch.setattr(diagnostics, "walk_density_grid",
                        lambda p, N, etas: psi_clt(t, etas, 3) + 1.0 / N**2)
    v = llt_check(bump3, [8, 16, 32, 64], eta_grid=np.linspace(0.0, 2.5, 80))
    assert v.fitted_slope == pytest.approx(-2.0, abs=1e-6)
    assert v.details["monotone"] and not v.passed
    # the profile contracted by eps = N^(-1/2) gets the variance eps^2 (t + eps^4),
    # so N * V - t = 1/N^2
    def variance(scaled):
        eps2 = (scaled.eta_max / bump3.eta_max) ** 2
        return eps2 * (t + eps2**2)

    monkeypatch.setattr(diagnostics, "variance_direct", variance)
    v = variance_rate_check(bump3, [4, 16, 64])
    assert v.fitted_slope == pytest.approx(-2.0, abs=1e-6)
    assert not v.passed


def test_ladders_reject_non_integer_N(bump3):
    """An N that is not an integer is an error, not truncated to one."""
    with pytest.raises(ValueError, match="integer"):
        llt_check(bump3, [16.7, 32, 64])
    with pytest.raises(ValueError, match="integer"):
        variance_rate_check(bump3, [4.7, 16, 64.9])
    with pytest.raises(ValueError, match="integer"):
        lln_check(bump3, [100, "1000"], 10, seed=5)
    with pytest.raises(ValueError, match="integer"):
        variance_rate_check(bump3, [4, True, 64])


def test_lln_check_passes(bump3):
    v = lln_check(bump3, [100, 1000], 3000, seed=5)
    assert v.passed
    assert v.statistic < v.threshold


def test_lln_negative_control_clt_scaling(bump3):
    v = lln_check(bump3, [100, 1000], 3000, seed=5, scaling="clt")
    assert not v.passed


def test_lln_degenerate_profile_trivially_passes():
    tiny = make_bump(0.01, 3)
    v = lln_check(tiny, [50, 200], 2000, seed=2)
    assert v.passed


def test_variance_rate_check(bump3):
    v = variance_rate_check(bump3, [4, 16, 64])
    assert v.passed
    assert v.fitted_slope <= -0.8
    # numpy integers are integers; the ladder is sorted
    assert variance_rate_check(bump3, np.array([64, 4, 16])).to_json() == v.to_json()
    with pytest.raises(ValueError):
        variance_rate_check(bump3, [4, 16])


def test_verdict_json_shape(bump3):
    v = variance_rate_check(bump3, [4, 16, 64])
    payload = json.loads(v.to_json())
    assert set(payload) == {"name", "statistic", "threshold", "slope", "window",
                            "pass", "details", "seed", "config"}
    assert payload["window"] == [-1.5, -0.8]
