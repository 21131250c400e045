"""quadrature.doubling, quadrature.doubling_each and the loops that run on
them: budgets and errors; cumulative_gl's slices."""

import math
import re

import numpy as np
import pytest

from hyperwalk import (fh_inverse_grid, fh_transform, heat_kernel, hk_fourier, make_bump,
                       quadrature, radial_density, spectral, variance_direct)
from hyperwalk.quadrature import QuadratureError, doubling, doubling_each, integrate_adaptive


def _kink():
    return integrate_adaptive(lambda x: np.abs(x - 1.0 / 3.0), 1.0)


def _cdf():
    return radial_density._cdf_table(lambda x: np.where(x < 1.0 / 3.0, 1.0, 2.0), 1.0)


_FULL_TABLE_LEVELS = spectral._TABLE_LEVELS


def _transform():
    """lambda = 1000 on the n = 2 bump: it starts at level 5 and agrees at
    level 7.  The profile's converged level, 3, is found at the full budget,
    as the transform-mass loop needs four levels."""
    p = make_bump(1.0, 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_TABLE_LEVELS", _FULL_TABLE_LEVELS)
        spectral._converged_level(p)
    return fh_transform(p, 1000.0)

# each loop, the budget constant it reads, a budget of two levels that is too
# small for it, and a call that runs it on a fresh profile
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
    "transform": (spectral, "_TABLE_LEVELS", 2, _transform),
    # at t = 100 the radii agree at level 3
    "even-n heat kernel (t=100.0, m=1)": (heat_kernel, "_EVEN_DOUBLINGS", 1,
                                          lambda: heat_kernel.hk_even(100.0, [0.0, 1.0], 1)),
}


@pytest.mark.parametrize("name", sorted(_LOOPS))
def test_exhausted_budget_names_the_loop_and_its_last_gap(name, monkeypatch):
    """With its budget cut to two levels that disagree, each loop raises a
    QuadratureError that names it and gives the gap between them."""
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


def test_doubling_each_stops_each_element_at_its_own_level():
    """Element p of start level s runs from s, its gaps p 2^-level, and stops
    at the first within 0.1; value sees only the elements still open."""
    seen = []

    def value(level, pts):
        seen.append((level, pts.tolist()))
        return 1.0 + pts * 2.0**-level

    points, start = np.array([0.05, 1.0, 3.0]), np.array([0, 2, 1])
    got = doubling_each("halving", points, start, 10, value, 0.1)
    assert got.tolist() == [1.025, 1.0625, 1.09375]  # levels 1, 4 and 5
    assert seen == [(0, [0.05]), (1, [0.05, 3.0]), (2, [1.0, 3.0]), (3, [1.0, 3.0]),
                    (4, [1.0, 3.0]), (5, [3.0])]
    for i in range(3):
        assert doubling_each("halving", points[i:i + 1], start[i:i + 1], 10, value,
                             0.1).tolist() == [got[i]]
    # one start for all; relative to the value, 1 + p 2^-level
    assert doubling_each("halving", points, 0, 10, value, rel_tol=0.1).tolist() == [
        1.025, 1.0625, 1.09375]
    seen.clear()
    assert doubling_each("halving", np.array([]), np.array([], dtype=int), 10, value,
                         0.1).shape == (0,)
    assert seen == []
    # 3.0 runs levels 1 to 3 and is 0.375 from the level before at 3; 1.0
    # agrees at level 4, its last one
    with pytest.raises(QuadratureError, match=r"^halving did not converge in 3 levels at 3\.0 "
                                              r"\(last gap 3\.750e-01\)$"):
        doubling_each("halving", points, start, 3, value, 0.1)


def test_cumulative_gl_in_slices_is_bitwise_one_call(monkeypatch):
    """A pointwise integrand evaluated three cells at a time gives bitwise the
    table of one call over the whole 10-cell grid."""
    calls = []

    def f(x):
        calls.append(x.size)
        return np.exp(-x) * np.cos(3.0 * x)

    grid = np.cumsum(np.linspace(0.1, 0.4, 11)) - 0.1
    whole = quadrature.cumulative_gl(f, grid, q=8)
    assert calls == [80]
    calls.clear()
    monkeypatch.setattr(quadrature, "_GL_CELLS", 3)
    sliced = quadrature.cumulative_gl(f, grid, q=8)
    assert calls == [24, 24, 24, 8]
    assert sliced.tobytes() == whole.tobytes()
