"""Sparse multivariate polynomials with exact coefficients.

A monomial is the sorted tuple of its variable indices, one entry per
unit of degree: x0^2 x3 is ``(0, 0, 3)`` and the constant monomial is
``()``.  A cubic's monomials are thus the index triples that
``CubicForm.terms`` keys its coefficients by.  Coefficients are exact
scalars (int, Fraction, QSqrt3) or floats in float mode.  Zero
coefficients are never stored, so ``not p.terms`` is the exact zero test.

A sum keeps the left operand's monomials first, then the right's new
ones: the order ``CubicForm.terms``, the JSON text and the float sums
inherit.  ``Poly._matrix_product`` is the exact matrix product that
``scalars.matmul`` runs on matrices of Polys, with no Poly per product.

There is no randomized zero test here: the Schwartz-Zippel checks
(``identities._check`` in random mode) evaluate the form's kernel at
integer points without building a polynomial.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

import numpy as np

from .scalars import QSqrt3Array

Mono = Tuple[int, ...]


def _times(s, t) -> Dict[Mono, object]:
    """The terms of the product of two polynomials given as (monomial,
    coefficient) pairs, zeros not yet dropped."""
    out: Dict[Mono, object] = {}
    for m1, c1 in s:
        for m2, c2 in t:
            m = tuple(sorted(m1 + m2))
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _merge(out: Dict[Mono, object], terms: Dict[Mono, object]) -> None:
    """Add ``terms`` into ``out`` in place: a new monomial goes after
    out's, and one whose coefficient cancels is deleted."""
    for m, c in terms.items():
        if not c:
            continue
        if m in out:
            c = out[m] + c
            if not c:
                del out[m]
                continue
        out[m] = c


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Mono, object] | None = None):
        self.nvars = nvars
        self.terms = {m: c for m, c in terms.items() if c} if terms else {}

    @classmethod
    def _of(cls, nvars: int, terms: Dict[Mono, object]) -> "Poly":
        """A Poly holding ``terms`` itself, which the caller has kept free
        of zero coefficients."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

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
            if not other.terms:
                return self
            if not self.terms:
                return other
            out = dict(self.terms)
            _merge(out, other.terms)
            return Poly._of(self.nvars, out)
        if isinstance(other, (QSqrt3Array, np.ndarray)):
            return NotImplemented       # the pair's or array's own operator takes it
        if other == 0:
            return self
        return self + Poly.const(self.nvars, other)

    __radd__ = __add__

    def __neg__(self):
        return Poly._of(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise ValueError("variable count mismatch")
            if not self.terms or not other.terms:
                return Poly(self.nvars)
            return Poly(self.nvars, _times(self.terms.items(), other.terms.items()))
        if isinstance(other, (QSqrt3Array, np.ndarray)):
            return NotImplemented
        if not other:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    @staticmethod
    def _matrix_product(a: np.ndarray, b: np.ndarray, fa: list, fb: list):
        """a @ b for two object matrices of Poly and Python-int entries, fa
        and fb their entries in row order; ``scalars.matmul`` calls it.

        Each output entry is one dict, into which the products of the
        nonzero entries of a's row and b's column are summed in turn: each
        product is multiplied term by term as ``__mul__`` does and merged
        as ``__add__`` does.  So no Poly is made but one per output entry,
        what cancels is dropped, and the terms are a @ b's, in its order
        (a nonzero int constant term may stand elsewhere).  An entry is a
        Poly where a's row or b's column holds one, as in a @ b, and an int
        elsewhere.  None where the shapes do not chain or the Polys'
        variable counts differ, so that a @ b raises there, or not, as it
        does.
        """
        (rows, k), (k2, cols) = a.shape, b.shape
        nvars = {x.nvars for x in fa + fb if type(x) is Poly}
        if k != k2 or len(nvars) != 1:
            return None
        nvars, = nvars

        def items(x):
            return list(x.terms.items()) if type(x) is Poly else [((), x)]

        def sparse_rows(flat, width):
            return [[(j, items(x)) for j, x in enumerate(flat[r:r + width]) if x]
                    for r in range(0, len(flat), width)]

        a_rows, b_rows = sparse_rows(fa, k), sparse_rows(fb, cols)
        a_poly = [any(type(x) is Poly for x in fa[r:r + k]) for r in range(0, len(fa), k)]
        b_poly = [any(type(x) is Poly for x in fb[j::cols]) for j in range(cols)]
        out = np.empty((rows, cols), dtype=object)
        for i, row in enumerate(a_rows):
            acc = [{} for _ in range(cols)]
            for kk, x in row:
                for j, y in b_rows[kk]:
                    _merge(acc[j], _times(x, y))
            for j, t in enumerate(acc):
                out[i, j] = Poly._of(nvars, t) if a_poly[i] or b_poly[j] else t.get((), 0)
        return out

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
