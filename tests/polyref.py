"""``PolyArray`` against ``Poly``: each entry of an array as a Poly, after
checking the array's layout, for the tests that compare the two; and a
Poly's value at a point and its partial derivatives, the tests' reference
evaluation."""

from typing import Sequence

import numpy as np

from eigencubic.poly import Poly, PolyArray
from eigencubic.scalars import QSqrt3, QSqrt3Array


def monomial(code: int, nvars: int, deg: int) -> tuple:
    """The base-nvars digits of a monomial code, the most significant first."""
    digits = []
    for _ in range(deg):
        code, d = divmod(code, nvars)
        digits.append(d)
    return tuple(reversed(digits))


def to_polys(p: PolyArray) -> np.ndarray:
    """p's entries as Polys with Python-int coefficients, an object array
    of p's shape.  Asserts the layout: terms in strictly increasing
    (entry, code) order, no zero, each code a sorted monomial, int64
    coefficients exactly while the L1 norm is below 2**63."""
    key = p.idx * p.nvars ** p.deg + p.code
    assert p.idx.size == p.code.size == p.coef.size
    assert np.all(np.diff(key) > 0) and np.all(p.coef != 0)
    assert p.l1 == sum(abs(c) for c in p.coef.tolist())
    assert p.coef.dtype == (np.int64 if p.l1 < 2 ** 63 else object)
    terms = [{} for _ in range(p.size)]
    for e, code, c in zip(p.idx.tolist(), p.code.tolist(), p.coef.tolist()):
        m = monomial(code, p.nvars, p.deg)
        assert list(m) == sorted(m), m
        terms[e][m] = int(c)
    out = np.empty(p.size, dtype=object)
    out[:] = [Poly(p.nvars, t) for t in terms]
    return out.reshape(p.shape)


def joined_terms(side) -> list:
    """{monomial: coefficient} of each entry of a PolyArray, or of the
    QSqrt3Array pair of two, in flat order; a coefficient with a sqrt(3)
    part as QSqrt3."""
    if not isinstance(side, QSqrt3Array):
        return [p.terms for p in to_polys(side).ravel()]
    return [{m: QSqrt3(r.get(m, 0), s[m]) if m in s else r[m] for m in {**r, **s}}
            for r, s in zip(joined_terms(side.r), joined_terms(side.s))]


def evaluate(p: Poly, point: Sequence):
    """p at ``point``, monomial by monomial, in the arithmetic of the
    point's entries and p's coefficients."""
    if len(point) != p.nvars:
        raise ValueError("point length mismatch")
    total = 0
    for m, c in p.terms.items():
        v = c
        for i in m:
            v = v * point[i]
        total = total + v
    return total


def diff(p: Poly, i: int) -> Poly:
    """The partial derivative of p in x_i."""
    # dropping one i is injective on the monomials containing i
    out = {}
    for m, c in p.terms.items():
        e = m.count(i)
        if e:
            k = m.index(i)
            out[m[:k] + m[k + 1:]] = e * c
    return Poly(p.nvars, out)
