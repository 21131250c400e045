"""The dimension of the Poincare ball, its boundary guard, sphere areas and
the integer check of counts and dimensions.

The model is the open Euclidean unit ball with metric 4*||dx||^2/(1-||x||^2)^2
(curvature -1).  Points are plain float arrays in Euclidean coordinates; the
geodesic radial coordinate of x is eta = 2*atanh(||x||).
"""

import math
from dataclasses import dataclass

import numpy as np

# Points with ||p|| >= 1 - BOUNDARY_TOL are rejected: eta overflows there and
# compactly supported laws never produce them, so reaching it is a caller bug.
BOUNDARY_TOL = 1e-12


def require_int(name: str, value):
    """Reject a count, seed or dimension that is not an integer: 10.5, "10"
    and True are a ValueError, not truncated; numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Dimension:
    """Ambient dimension n >= 2 of the ball."""

    n: int

    def __post_init__(self):
        require_int("dimension", self.n)
        if self.n < 2:
            raise ValueError(f"dimension must be >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))


def as_dim(n) -> Dimension:
    """n as a Dimension; an n that is not an integer (3.7, "3", True) is a
    ValueError, not truncated."""
    return n if isinstance(n, Dimension) else Dimension(n)


def sphere_area(n) -> float:
    """Surface area of the unit sphere S^{n-1}."""
    d = as_dim(n).n
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)
