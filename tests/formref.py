"""Direct references for a ``CubicForm``, for the tests that compare the
kernel ``Jet`` against them: the form as a ``Poly``, the dense symmetric
tensor, the complete polarization, the gradient, Hessian and Laplacian
as ``Poly``s, and the dense coefficient tensors of a jet's polarization,
which decide weak associativity; and a scaled copy of a form and a
seeded sparse random cubic."""

import random
from typing import List, Sequence

import numpy as np

from eigencubic.cubics import CubicForm, Jet
from eigencubic.poly import Poly
from polyref import diff


def to_poly(u: CubicForm) -> Poly:
    """u as a Poly on its n variables, with u's own coefficients."""
    return Poly(u.n, u.terms)


def scaled(u: CubicForm, t) -> CubicForm:
    """t u, each coefficient multiplied by t."""
    return CubicForm(u.n, {k: t * c for k, c in u.terms.items()})


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
    p = to_poly(u)
    return [diff(p, i) for i in range(u.n)]


def hessian(u: CubicForm) -> List[List[Poly]]:
    grads = gradient(u)
    return [[diff(grads[i], j) for j in range(u.n)] for i in range(u.n)]


def laplacian(u: CubicForm) -> Poly:
    """The trace of u's Poly Hessian, with u's own coefficients: a float
    form's Laplacian has float coefficients.  It does not go through the
    kernel."""
    H = hessian(u)
    return sum((H[i][i] for i in range(u.n)), Poly.zero(u.n))


def polarization_tensors(jet: Jet, n: int) -> list:
    """The dense coefficient tensor of the polarization on each sqrt(3)
    channel of ``jet``, on Python ints: m at (a, b, c) and (a, c, b) per
    rotation (a; b, c), as the kernel's Hessian adds m x_c at (a, b) and
    m x_b at (a, c)."""
    tensors = []
    for part in (jet, jet.sqrt3):
        if part is None:
            continue
        T = np.zeros((n, n, n), dtype=object)
        for (a, b, c), m in zip(part.ijk.T.tolist(), part.m.tolist()):
            T[a, b, c] += m
            T[a, c, b] += m
        tensors.append(T)
    return tensors


def is_cyclic(jet: Jet, n: int) -> bool:
    """Whether <x o y, z> = <y o z, x> at every triple on ``jet``: each
    polarization tensor equals its cyclic shift S[c, a, b] = T[a, b, c],
    as the difference of the two sides is the zero polynomial exactly
    then."""
    return all((T == T.transpose(1, 2, 0)).all() for T in polarization_tensors(jet, n))


def sparse_cubic(n: int, count: int, seed: int) -> CubicForm:
    """A cubic on R^n with ``count`` distinct monomials, each three
    variables drawn from ``random.Random(seed)`` and an integer coefficient
    in [-9, 9], 0 replaced by 1."""
    rng, terms = random.Random(seed), {}
    while len(terms) < count:
        key = tuple(sorted(rng.randrange(n) for _ in range(3)))
        if key not in terms:
            terms[key] = rng.randint(-9, 9) or 1
    return CubicForm(n, terms)
