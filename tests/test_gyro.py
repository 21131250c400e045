"""Values of the Mobius operations that gyro_property_suite does not check;
the identities it checks (left inverse, gyrocommutativity, norm-preserving
gyration, orthogonal equivariance, the translation identities, scalar
associativity and the failure of distributivity) are tested through it;
left cancellation is not."""

import numpy as np
import pytest

from hyperwalk.gyro import mobius_add_raw, mobius_scalar_raw


def eta(x):
    return 2.0 * np.arctanh(np.linalg.norm(x, axis=-1))


def test_add_identity_and_inverse():
    y = np.array([0.2, -0.1, 0.4])
    assert np.array_equal(mobius_add_raw(np.zeros(3), y), y)
    assert np.all(mobius_add_raw(-y, y) == 0.0)


def test_add_collinear_matches_scalar_velocity_sum():
    out = mobius_add_raw([0.5, 0.0], [0.3, 0.0])
    assert out[0] == pytest.approx(0.8 / 1.15, rel=1e-15)
    assert out[1] == 0.0


def test_right_inverse_numeric():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((200, 3))
    x *= rng.uniform(0.0, 0.8, (200, 1)) / np.linalg.norm(x, axis=1, keepdims=True)
    assert float(np.max(np.linalg.norm(mobius_add_raw(x, -x), axis=1))) < 1e-15


def test_translate_trivia_and_identity():
    """The translation T_a(x) = (-a) (+) x is undone by T_{-a}: left
    cancellation a (+) ((-a) (+) x) = x."""
    rng = np.random.default_rng(5)
    a, x = rng.uniform(-0.45, 0.45, (2, 100, 4))
    # the 1e-12 gate of gyro_property_suite
    assert float(np.max(np.abs(mobius_add_raw(a, mobius_add_raw(-a, x)) - x))) < 1e-12


def test_scalar_trivia():
    z = np.array([0.2, 0.1, -0.3])
    assert np.allclose(mobius_scalar_raw(1.0, z), z, atol=1e-16)
    assert np.all(mobius_scalar_raw(0.0, z) == 0.0)
    assert np.all(mobius_scalar_raw(2.0, np.zeros(2)) == 0.0)
    assert mobius_scalar_raw(2.0, [0.5, 0.0])[0] == pytest.approx(0.8, abs=1e-15)


def test_gyration_fixes_origin():
    """gyr[a,b]0 = -(a (+) b) (+) (a (+) (b (+) 0)) is exactly 0."""
    a, b = np.array([0.4, 0.1, 0.0]), np.array([-0.2, 0.3, 0.1])
    gyr = mobius_add_raw(-mobius_add_raw(a, b), mobius_add_raw(a, mobius_add_raw(b, np.zeros(3))))
    assert np.all(gyr == 0.0)


def test_radial_geodesic_is_linear_in_eta():
    b = np.array([0.0, 0.7, 0.0])
    for t in (0.25, 0.5, 0.75):
        assert eta(mobius_scalar_raw(t, b)) == pytest.approx(t * eta(b), rel=1e-13)
