"""Mobius gyrogroup operations on the open unit ball.

Everything is composed out of the single addition formula

    x (+) y = ((1 + 2<x,y> + ||y||^2) x + (1 - ||x||^2) y)
              / (1 + 2<x,y> + ||x||^2 ||y||^2),

and the scalar product t (x) z = tanh(t * atanh(||z||)) z/||z||, so gyration,
translation and the Sturm geodesic step are compositions of the two and the
algebraic identities stay honest test targets.  Both act on plain float
arrays with shape (..., n) and do not validate: the walk engine guards the
boundary band itself.
"""

import numpy as np


class BoundaryError(ArithmeticError):
    """A composed result reached the guard band ||.|| >= 1 - 1e-12."""


def mobius_add_raw(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xy = np.sum(x * y, axis=-1, keepdims=True)
    nx2 = np.sum(x * x, axis=-1, keepdims=True)
    ny2 = np.sum(y * y, axis=-1, keepdims=True)
    num = (1.0 + 2.0 * xy + ny2) * x + (1.0 - nx2) * y
    den = 1.0 + 2.0 * xy + nx2 * ny2
    return num / den


def mobius_scalar_raw(gamma, z):
    """gamma (x) z = tanh(gamma * atanh(||z||)) z/||z||, with 0 fixed."""
    z = np.asarray(z, dtype=float)
    r = np.linalg.norm(z, axis=-1, keepdims=True)
    safe = np.where(r > 0.0, r, 1.0)
    scale = np.where(r > 0.0, np.tanh(np.asarray(gamma) * np.arctanh(np.minimum(r, 1.0))) / safe, 0.0)
    return scale * z
