"""Sparse multivariate polynomials with exact coefficients.

Monomials are tuples of (variable, exponent) pairs sorted by variable
index; coefficients are exact scalars (int, Fraction, QSqrt3) or floats
in float mode.  Zero coefficients are never stored, so ``not p.terms``
is the exact zero test.

There is no randomized zero test here: the Schwartz-Zippel checks
(``identities._proportional_random``) evaluate the form's kernel at
integer points without building a polynomial.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

Mono = Tuple[Tuple[int, int], ...]


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Dict[Mono, object] | None = None):
        self.nvars = nvars
        self.terms = {}
        if terms:
            for m, c in terms.items():
                if c:
                    self.terms[m] = c

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
        return cls(nvars, {((i, 1),): 1})

    # -- queries ----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e for _, e in m) for m in self.terms)

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
                s = out.get(m, 0) + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
            return Poly(self.nvars, out)
        if other == 0:
            return self
        return self + Poly.const(self.nvars, other)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Poly):
            return self + (-other)
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
                    m = _mono_mul(m1, m2)
                    s = out.get(m, 0) + c1 * c2
                    if s:
                        out[m] = s
                    else:
                        out.pop(m, None)
            return Poly(self.nvars, out)
        if not other:
            return Poly(self.nvars)
        return Poly(self.nvars, {m: c * other for m, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = Poly.const(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def diff(self, i: int) -> "Poly":
        out: Dict[Mono, object] = {}
        for m, c in self.terms.items():
            for idx, (v, e) in enumerate(m):
                if v == i:
                    if e == 1:
                        nm = m[:idx] + m[idx + 1:]
                    else:
                        nm = m[:idx] + ((v, e - 1),) + m[idx + 1:]
                    s = out.get(nm, 0) + e * c
                    if s:
                        out[nm] = s
                    else:
                        out.pop(nm, None)
                    break
        return Poly(self.nvars, out)

    def eval(self, point: Sequence) -> object:
        if len(point) != self.nvars:
            raise ValueError("point length mismatch")
        total = 0
        for m, c in self.terms.items():
            v = c
            for idx, e in m:
                p = point[idx]
                for _ in range(e):
                    v = v * p
            total = total + v
        return total

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for m in sorted(self.terms):
            mono = "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in m) or "1"
            bits.append(f"({self.terms[m]})*{mono}")
        return "Poly[" + " + ".join(bits) + "]"


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    if not m1:
        return m2
    if not m2:
        return m1
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))

