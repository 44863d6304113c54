"""``PolyArray`` against ``Poly``: each entry of an array as a Poly, after
checking the array's layout and decoding its prime codes, for the tests
that compare the two; and a Poly's value at a point and its partial
derivatives, the tests' reference evaluation."""

import functools
from typing import Sequence

import numpy as np

from eigencubic.poly import Poly, PolyArray
from eigencubic.scalars import QSqrt3


@functools.lru_cache(maxsize=None)
def odd_primes(count: int) -> tuple:
    """The first ``count`` odd primes, by trial division: the codes of the
    variables x0, x1, ... of a PolyArray."""
    out, k = [], 3
    while len(out) < count:
        if all(k % p for p in out):
            out.append(k)
        k += 2
    return tuple(out)


def monomial(code: int, nvars: int, deg: int) -> tuple:
    """(the sorted variable indices, whether the term carries sqrt(3)) of a
    monomial code, factored over the variable primes.  Asserts that the
    code is deg of them times 1 or 2."""
    sqrt3 = code % 2 == 0
    code //= 1 + sqrt3
    m = []
    for i, p in enumerate(odd_primes(nvars)):
        while code % p == 0:
            code //= p
            m.append(i)
    assert code == 1 and len(m) == deg, (code, m)
    return tuple(m), sqrt3


def to_polys(p: PolyArray) -> np.ndarray:
    """p's entries as Polys, an object array of p's shape, each
    coefficient a Python int, or a QSqrt3 of ints where the monomial has a
    sqrt(3) term.  Asserts the layout: terms in strictly increasing
    (entry, code) order, no zero, each code a monomial of p's degree times
    1 or 2, the L1 norm with each sqrt(3) term counted twice, and int64
    coefficients exactly while it is below 2**63."""
    assert p.idx.size == p.code.size == p.coef.size
    steps = list(zip(np.diff(p.idx).tolist(), np.diff(p.code).tolist()))
    assert all(di > 0 or (di == 0 and dc > 0) for di, dc in steps)
    assert np.all(p.coef != 0)
    assert p.l1 == sum(abs(c) * (2 - k % 2) for k, c in zip(p.code.tolist(), p.coef.tolist()))
    assert p.coef.dtype == (np.int64 if p.l1 < 2 ** 63 else object)
    terms = [{} for _ in range(p.size)]
    for e, code, c in zip(p.idx.tolist(), p.code.tolist(), p.coef.tolist()):
        m, sqrt3 = monomial(code, p.nvars, p.deg)
        r, s = terms[e].get(m, (0, 0))
        terms[e][m] = (r, int(c)) if sqrt3 else (int(c), s)
    out = np.empty(p.size, dtype=object)
    out[:] = [Poly(p.nvars, {m: QSqrt3(r, s) if s else r for m, (r, s) in t.items()})
              for t in terms]
    return out.reshape(p.shape)


def joined_terms(side: PolyArray) -> list:
    """{monomial: coefficient} of each entry of a PolyArray, in flat order;
    a coefficient with a sqrt(3) part as QSqrt3."""
    return [p.terms for p in to_polys(side).ravel()]


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
