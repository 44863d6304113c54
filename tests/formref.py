"""Direct references for a ``CubicForm``, for the tests that compare the
kernel ``Jet`` against them: the dense symmetric tensor, the complete
polarization, and the gradient and Hessian as lists of ``Poly``."""

from typing import List, Sequence

import numpy as np

from eigencubic.cubics import CubicForm
from eigencubic.poly import Poly


def dense_tensor(u: CubicForm) -> np.ndarray:
    """The full symmetric tensor of u as float64, shape (n, n, n)."""
    T = np.zeros((u.n, u.n, u.n))
    for a, b, c, w in u.coo():
        T[a, b, c] = float(w)
    return T


def polarize(u: CubicForm, x: Sequence, y: Sequence, z: Sequence):
    """The complete linearization u(x; y; z), u(x; x; x) = 6 u(x): a
    direct loop over ``u.coo()``."""
    for pt in (x, y, z):
        if len(pt) != u.n:
            raise ValueError("point length mismatch")
    total = 0
    for a, b, c, w in u.coo():
        total = total + w * x[a] * y[b] * z[c]
    return 6 * total


def gradient(u: CubicForm) -> List[Poly]:
    p = u.to_poly()
    return [p.diff(i) for i in range(u.n)]


def hessian(u: CubicForm) -> List[List[Poly]]:
    grads = gradient(u)
    return [[grads[i].diff(j) for j in range(u.n)] for i in range(u.n)]
