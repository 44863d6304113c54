"""Sparse multivariate polynomials with exact coefficients.

A monomial is the sorted tuple of its variable indices, one entry per
unit of degree: x0^2 x3 is ``(0, 0, 3)`` and the constant monomial is
``()``.  A cubic's monomials are thus the index triples that
``CubicForm.terms`` keys its coefficients by.  Coefficients are exact
scalars (int, Fraction, QSqrt3) or floats in float mode.  Zero
coefficients are never stored, so ``not p.terms`` is the exact zero test.

There is no randomized zero test here: the Schwartz-Zippel checks
(``identities._check`` in random mode) evaluate the form's kernel at
integer points without building a polynomial.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .scalars import QSqrt3Array

Mono = Tuple[int, ...]


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Mono, object] | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    # -- constructors ---------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars)

    @classmethod
    def const(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(): c})

    @classmethod
    def var(cls, nvars: int, i: int) -> "Poly":
        if not 0 <= i < nvars:
            raise IndexError(f"variable {i} out of range for {nvars} variables")
        return cls(nvars, {(i,): 1})

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.nvars == other.nvars and self.terms == other.terms
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations --------------------------------------------------
    def __add__(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            out = dict(self.terms)
            for m, c in other.terms.items():
                out[m] = out.get(m, 0) + c
            return Poly(self.nvars, out)
        if isinstance(other, (QSqrt3Array, np.ndarray)):
            return NotImplemented       # the pair's or array's own operator takes it
        if other == 0:
            return self
        return self + Poly.const(self.nvars, other)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            out: Dict[Mono, object] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = tuple(sorted(m1 + m2))
                    out[m] = out.get(m, 0) + c1 * c2
            return Poly(self.nvars, out)
        if isinstance(other, (QSqrt3Array, np.ndarray)):
            return NotImplemented
        if not other:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def diff(self, i: int) -> "Poly":
        # dropping one i is injective on the monomials containing i
        out: Dict[Mono, object] = {}
        for m, c in self.terms.items():
            e = m.count(i)
            if e:
                k = m.index(i)
                out[m[:k] + m[k + 1:]] = e * c
        return Poly(self.nvars, out)

    def eval(self, point: Sequence) -> object:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for m, c in self.terms.items():
            v = c
            for i in m:
                v = v * point[i]
            total = total + v
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = [f"({self.terms[m]})*" + ("*".join(f"x{i}" for i in m) or "1")
                for m in sorted(self.terms)]
        return "Poly[" + " + ".join(bits) + "]"
