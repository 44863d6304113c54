"""Direct references for a ``CubicForm``, for the tests that compare the
kernel ``Jet`` against them: the form as a ``Poly``, the dense symmetric
tensor, the complete polarization, the gradient, Hessian and Laplacian
as ``Poly``s, and the dense coefficient tensors of a jet's polarization,
which decide weak associativity; a scaled copy of a form and seeded
sparse, sparse Q(sqrt3) and dense random cubics; the dict route that read
form files before a form held its integers; and a form file with every
coefficient respelled."""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction
from typing import List, Sequence

import numpy as np

from eigencubic.cubics import CubicForm, Jet
from eigencubic.poly import Poly
from eigencubic.scalars import QSqrt3
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


def sqrt3_sparse_cubic(n: int, count: int, seed: int) -> CubicForm:
    """``sparse_cubic(n, count, seed)`` with a sqrt(3) part on every second
    monomial, an integer in [-9, 9] drawn by ``random.Random(seed)``, 0
    replaced by 1."""
    u, rng = sparse_cubic(n, count, seed), random.Random(seed)
    return CubicForm(n, {key: QSqrt3(c, rng.randint(-9, 9) or 1) if t % 2 else c
                         for t, (key, c) in enumerate(u.terms.items())})


def dense_cubic(n: int, seed: int) -> CubicForm:
    """A cubic on R^n with every monomial i <= j <= k < n, in that order,
    each coefficient drawn from +-1..+-9 by ``random.Random(seed)``."""
    rng, coefficients = random.Random(seed), [c for c in range(-9, 10) if c]
    return CubicForm(n, {key: rng.choice(coefficients)
                         for key in itertools.combinations_with_replacement(range(n), 3)})


def dict_route(d: dict):
    """A form file read as forms were read while they held a dict of
    coefficients: each term a Fraction, a QSqrt3 where it has a c3 that is
    not 0, or a float; the zero terms dropped; and the exact and float jets
    cleared from that dict.  Returns (terms, exact jet, float jet), for a
    file that ``CubicForm.from_json_dict`` accepts."""
    terms = {}
    for rec in d["terms"]:
        c = rec["c"] if isinstance(rec["c"], float) else Fraction(rec["c"])
        if Fraction(rec.get("c3", 0)):
            c = QSqrt3(c, Fraction(rec["c3"]))
        if c:
            terms[tuple(v - 1 for v in rec["ijk"])] = c

    def arrays(D, keyed, dtype):
        keyed = [(k, m) for k, m in keyed if m]
        ijk = np.array([k for k, _ in keyed], dtype=np.intp).reshape(-1, 3).T
        return Jet(D, np.concatenate([ijk, ijk[[1, 2, 0]], ijk[[2, 0, 1]]], axis=1),
                   np.tile(np.array([m for _, m in keyed], dtype=dtype), 3))

    parts = {k: (c.a, c.b) if isinstance(c, QSqrt3) else (Fraction(c),) for k, c in terms.items()}
    D = math.lcm(*(x.denominator for ch in parts.values() for x in ch))
    exact, s = (arrays(D, [(k, int(D * ch[i])) for k, ch in parts.items() if len(ch) > i], object)
                for i in (0, 1))
    floats = [(k, float(c)) for k, c in terms.items()]
    top = max((abs(c) for _, c in floats), default=1.0)
    F = 2.0 ** min(1 - math.frexp(top)[1], 1023)
    return (terms, replace(exact, sqrt3=s) if s.m.size else exact,
            arrays(F, [(k, F * c) for k, c in floats], float))


def dict_route_json(n: int, terms: dict) -> dict:
    """The JSON object of a dict of terms, as ``to_json_dict`` wrote it
    from the dict: sorted keys, 1-based, "p/q" strings or floats."""
    items = []
    for key in sorted(terms):
        c, rec = terms[key], {"ijk": [v + 1 for v in key]}
        if isinstance(c, QSqrt3):
            rec["c"], rec["c3"] = str(c.a), str(c.b)
        else:
            rec["c"] = c if isinstance(c, float) else str(c)
        items.append(rec)
    return {"dim": n, "terms": items}


def respelled(d: dict) -> dict:
    """The form file d with every c and c3 string spelled as ``Fraction``
    reads it but ``format_rational`` never writes it, by turns: unreduced,
    with a leading "+" (on p >= 0) and surrounding spaces, and as a decimal
    or an exponent where the denominator divides a power of 10 (unreduced
    again where it does not)."""
    def spell(text: str, turn: int) -> str:
        x = Fraction(text)
        k = next((k for k in range(60) if 10 ** k % x.denominator == 0), None)
        if turn % 3 == 0 or k is None:
            return f"{3 * x.numerator}/{3 * x.denominator}"
        if turn % 3 == 1:
            return f"  {'+' if x >= 0 else ''}{x.numerator}/{x.denominator} "
        digits = x.numerator * 10 ** k // x.denominator
        if turn % 2:
            return f"{digits}e-{k}"
        sign, digits = "-" if digits < 0 else "", str(abs(digits)).rjust(k + 1, "0")
        return f"{sign}{digits[:len(digits) - k]}.{digits[len(digits) - k:] or '0'}"

    terms = [{key: spell(v, t + (key == "c3")) if key in ("c", "c3") else v
              for key, v in rec.items()} for t, rec in enumerate(d["terms"])]
    return {**d, "terms": terms}
