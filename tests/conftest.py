import math

import numpy as np
import pytest
from scipy.stats import kstwobign

from hyperwalk import make_bump, make_table
from hyperwalk.spectral import fh_transform


@pytest.fixture(scope="session")
def bump3():
    return make_bump(1.0, 3)


@pytest.fixture(scope="session")
def bump2():
    return make_bump(1.0, 2)


def bump_transform_envelope(profile, safety=10.0):
    """Analytic decay certificate b*exp(-a*sqrt(lam)) fitted from two
    measured transform values; the smooth bump transform decays at that rate
    while its numerically computed values bottom out at the quadrature noise
    floor, so the certificate is what makes truncation well defined."""
    f1 = abs(fh_transform(profile, 100.0))
    f2 = abs(fh_transform(profile, 400.0))
    a = (math.log(f1) - math.log(f2)) / 10.0
    b = math.log(f1) + 10.0 * a
    return lambda lam: safety * np.exp(b - a * np.sqrt(np.maximum(lam, 1e-9)))


def ks_critical(alpha, m, k=None):
    """Asymptotic Kolmogorov-Smirnov critical value at level alpha.

    One sample of size m: c/sqrt(m); two samples of sizes m and k:
    c*sqrt((m+k)/(m*k)), with c the upper-alpha quantile of the Kolmogorov
    distribution (c = 1.949 at alpha = 1e-3).  A correct law exceeds the
    bound with probability alpha.
    """
    c = float(kstwobign.isf(alpha))
    return c / math.sqrt(m) if k is None else c * math.sqrt((m + k) / (m * k))


def eleven_point_table(n):
    """An 11-point pchip table profile on [0, 1] that ends at a nonzero
    density."""
    etas = np.linspace(0.0, 1.0, 11)
    return make_table(etas, np.cos(1.5 * etas) ** 2 * (1.0 - etas) + 0.05, n)
