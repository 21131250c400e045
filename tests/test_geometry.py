import math

import numpy as np
import pytest
from scipy.integrate import quad

from hyperwalk import Dimension, sphere_area
from hyperwalk.geometry import as_dim


def test_dimension_rejects_bad_values():
    with pytest.raises(ValueError):
        Dimension(1)
    with pytest.raises(ValueError):
        Dimension(0)
    # a dimension that is not an integer is an error, not truncated
    for bad in (3.7, 3.0, "3", True):
        with pytest.raises(ValueError, match="integer"):
            as_dim(bad)
    assert as_dim(np.int64(3)) == Dimension(3)


def test_sphere_area_values():
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * math.pi**2, rel=1e-15)


@pytest.mark.parametrize("n", [2, 3])
def test_measure_consistency(n):
    """Euclidean polar integral of the volume weight against the geodesic
    radial form, both by independent adaptive quadrature."""
    eta_bar = 1.4
    r_bar = math.tanh(eta_bar / 2.0)
    euclid = quad(lambda r: 2.0**n * (1 - r * r) ** (-n) * r ** (n - 1), 0.0, r_bar,
                  epsabs=1e-13, epsrel=1e-13)[0] * sphere_area(n)
    geodesic = sphere_area(n) * quad(lambda s: math.sinh(s) ** (n - 1), 0.0, eta_bar,
                                     epsabs=1e-13, epsrel=1e-13)[0]
    assert euclid == pytest.approx(geodesic, rel=1e-8)
