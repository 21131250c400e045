"""quadrature.doubling and the scalar loops that run on it: budgets and errors."""

import math
import re

import numpy as np
import pytest

from hyperwalk import (fh_inverse_grid, hk_fourier, make_bump, quadrature, radial_density,
                       spectral, variance_direct)
from hyperwalk.quadrature import QuadratureError, doubling, integrate_adaptive


def _kink():
    return integrate_adaptive(lambda x: np.abs(x - 1.0 / 3.0), 1.0)


def _cdf():
    return radial_density._cdf_table(lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0), 1.0)


# each scalar loop, the budget constant it reads, a budget of two levels that
# is too small for it, and a call that runs it on a fresh profile
_LOOPS = {
    "integrate_adaptive": (quadrature, "_MAX_DOUBLINGS", 1, _kink),
    "CDF table": (radial_density, "_CDF_CELLS", 512, _cdf),  # levels 8 and 9
    "Abel inner integral": (spectral, "_INNER_LEVELS", 2,
                            lambda: spectral._abel_table(make_bump(1.0, 5), 0)),
    "transform mass": (spectral, "_TABLE_LEVELS", 2,
                       lambda: spectral._converged_level(make_bump(1.0, 3))),
    "inverse transform": (spectral, "_LEVELS", 1,
                          lambda: fh_inverse_grid(lambda lam: hk_fourier(1.0, lam, 2),
                                                  np.linspace(0.0, 3.0, 7), 2)),
    "variance": (spectral, "_TABLE_LEVELS", 2, lambda: variance_direct(make_bump(1.0, 3))),
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_exhausted_budget_names_the_loop_and_its_last_gap(name, monkeypatch):
    """With its budget cut to two levels that disagree, each scalar loop
    raises a QuadratureError that names it and gives the gap between them."""
    owner, attr, budget, call = _LOOPS[name]
    monkeypatch.setattr(owner, attr, budget)
    with pytest.raises(QuadratureError) as err:
        call()
    found = re.search(rf"^{re.escape(name)} did not converge .*last gap ([^)]+)\)$",
                      str(err.value))
    assert found, str(err.value)
    gap = float(found.group(1))
    assert math.isfinite(gap) and gap > 0.0


def test_doubling_returns_the_first_agreeing_level():
    seen = []

    def value(level):
        seen.append(level)
        return 2.0**-level

    assert doubling("halving", range(2, 20), value, 0.1) == (2.0**-4, 4)
    assert seen == [2, 3, 4]
    # the gaps are 1/8, 1/16, ...: within the size of the newer value from level 3
    assert doubling("halving", range(2, 20), value, rel_tol=1.0) == (2.0**-3, 3)
    assert doubling("halving", range(2, 20), value, 0.1, gap=lambda p, c: 3 * (p - c))[1] == 5
    with pytest.raises(QuadratureError, match=r"^halving did not converge in 2 levels "
                                              r"\(last gap 1\.250e-01\)$"):
        doubling("halving", range(2, 4), value, 0.1)
