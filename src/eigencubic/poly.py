"""Exact multivariate polynomials: ``Poly`` one at a time, for building the
catalog, and ``PolyArray`` a whole array at once, for expanding the
identities.

A ``Poly`` monomial is the sorted tuple of its variable indices, one
entry per unit of degree: x0^2 x3 is ``(0, 0, 3)`` and the constant
monomial is ``()``.  A cubic's monomials are thus the index triples that
``CubicForm.terms`` keys its coefficients by.  Coefficients are exact
scalars (int, Fraction, QSqrt3) or floats in float mode.  Zero
coefficients are never stored, so ``not p.terms`` is the exact zero test.
A sum keeps the left operand's monomials first, then the right's new
ones: the order ``CubicForm.terms``, the JSON text and the float sums
inherit.

A ``PolyArray`` holds an array of homogeneous polynomials over Z[sqrt3]
as flat numpy arrays of terms, a monomial as a prime code: variable i is
the i-th odd prime, a monomial the product of its variables' primes, and
a sqrt(3) term carries one more factor 2.  A product's code is then the
product of its factors' codes, and a pair of sqrt(3) terms, whose code is
divisible by 4, has it divided by 4 and its coefficient tripled.  The
exact mode of ``identities._check`` runs each identity's sides on the
``Jet.symbolic`` arrays, so an expansion is a few numpy operations per
product and makes no Python object per term, on a Q(sqrt3) form too.
Its coefficients are int64 while an L1 bound, with sqrt(3) terms counted
twice, proves every sum exact, and Python ints beyond.

There is no randomized zero test here: the Schwartz-Zippel checks
(``identities._check`` in random mode) evaluate the form's kernel at
integer points without building a polynomial.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Tuple

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

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = [f"({self.terms[m]})*" + ("*".join(f"x{i}" for i in m) or "1")
                for m in sorted(self.terms)]
        return "Poly[" + " + ".join(bits) + "]"


# The most term pairs one block of a ``PolyArray`` product lists.  A
# block's temporaries (term indices, gathered codes, keys, coefficients
# and sort order) take at most a few hundred bytes a pair.  On a 2-vCPU
# host (Python 3.11, numpy 2.4), with the digit codes before the prime
# ones, the exact checks of the 15 catalog forms with n <= 27, run in one
# process, peaked at 31.7-31.9 MB RSS with blocks of 2**10 pairs, 31.7-31.8
# MB with 2**12, 33.2-33.4 MB with 2**14 and 37.3 MB with 2**16, in
# 0.06-0.13 s each.  Those of complexified-d8, which the benchmark's exact
# workload does not run, took 0.25-0.41 s at 2**10, 0.18-0.24 s at 2**12
# and 0.15-0.21 s at 2**16, peaking at 39.7, 39.6 and 47.0 MB.  With prime
# codes at 2**12: 31.7 MB, and 38.9-39.0 MB in 0.12-0.13 s.
PAIR_BLOCK = 1 << 12
_INT64_LIMIT = 2 ** 63


@functools.lru_cache(maxsize=None)
def variable_codes(nvars: int) -> np.ndarray:
    """The code of each of nvars variables, the first nvars odd primes, as
    a read-only int64 array."""
    found, k = [], 3
    while len(found) < nvars:
        if all(k % p for p in found):
            found.append(k)
        k += 2
    out = np.array(found, dtype=np.int64)
    out.flags.writeable = False
    return out


def _l1(code: np.ndarray, coef: np.ndarray) -> int:
    """sum |c| over the terms, a sqrt(3) term's (an even code's) twice, as a
    Python int."""
    if coef.dtype == object:
        return sum(map(abs, coef.tolist())) + sum(map(abs, coef[code & 1 == 0].tolist()))
    return int(np.abs(coef) @ (2 - (code & 1)))


def _coefficients(coef: np.ndarray, int64: bool) -> np.ndarray:
    """coef as int64 when ``int64``, else as Python ints."""
    return coef.astype(np.int64 if int64 else object, copy=False)


def _collect(key: np.ndarray, coef: np.ndarray):
    """The distinct keys in increasing order and the sum of the
    coefficients at each, the keys whose sum is zero dropped.  The sums
    are exact (int64 under an L1 bound, or Python ints), so the order in
    which equal keys are added does not matter and the sort need not be
    stable."""
    if not key.size:
        return key, coef
    order = np.argsort(key)
    key, coef = key[order], coef[order]
    first = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
    key, coef = key[first], np.add.reduceat(coef, first)
    keep = coef != 0
    return key[keep], coef[keep]


def _union(parts: list):
    """``_collect`` over the concatenated (key, coef) parts."""
    return _collect(np.concatenate([key for key, _ in parts]),
                    np.concatenate([coef for _, coef in parts]))


def _codes(nvars: int, shape: tuple, deg: int) -> int:
    """The number of monomial codes, 2 p**deg + 1 for p the largest
    variable code, once every (entry, code) key of the array, entry *
    codes + code, and the code of a pair of sqrt(3) terms before it is
    divided by 4, below 4 p**deg, are known to fit in int64."""
    codes = 2 * int(variable_codes(nvars)[-1]) ** deg + 1
    if max(math.prod(shape), 2) * codes >= _INT64_LIMIT:
        raise ValueError("the monomial keys of this array exceed int64")
    return codes


class PolyArray:
    """An array of homogeneous polynomials of one degree, with
    coefficients in Z[sqrt3], held as three flat arrays of terms.

    A term is (entry, code, coefficient): the entry is the flat index into
    ``shape``, and the code is the product of the monomial's variable
    codes (``variable_codes``, the odd primes 3, 5, 7, ...), times 2 for a
    term that carries sqrt(3), so x0 x2^2 is 3*7*7 and sqrt(3) x0 x2^2 is
    2*3*7*7.  The terms are sorted by (entry, code), with no key twice and
    no zero coefficient.  The L1 norm counts a sqrt(3) term's coefficient
    twice, N(r + s sqrt3) = |r| + 2|s|.  The coefficients are int64 while
    it is below 2**63, and Python ints in an object array beyond it.  Each
    operation runs in int64 only where the L1 bound of its result proves
    every sum exact: L1(a + b) <= L1(a) + L1(b), L1(k a) = |k| L1(a), and
    L1(a * b), L1(a @ b) <= L1(a) L1(b), since each pair of terms is
    multiplied at most once and its weighted size is at most the product
    of its factors': 1 * 1, 2 * 1 for one sqrt(3) factor, and 3 <= 2 * 2
    for two.

    ``+``, ``-``, ``*`` by an integer, ``*`` (numpy broadcasting), ``@``,
    ``sum`` and ``trace`` follow numpy's ndarray of polynomials.  ``@``
    pairs only nonempty entries, self's (i, k) with other's (k, j), so its
    cost follows the terms, not rows * k * cols.  A product lists the
    pairs of terms it multiplies ``PAIR_BLOCK`` at a time.  A pair's code
    is the product of its factors' codes, divided by 4 with the
    coefficient tripled where both carry sqrt(3); equal (entry, code)
    keys are summed within a block and then across blocks.  Any other
    operand gives NotImplemented.
    """

    __slots__ = ("nvars", "shape", "deg", "idx", "code", "coef", "l1", "_at")
    __array_ufunc__ = None

    def __init__(self, nvars: int, shape: tuple, deg: int, idx: np.ndarray,
                 code: np.ndarray, coef: np.ndarray):
        """The array of the given terms, already in (entry, code) order with
        no key twice and no zero; coef holds int64s or Python ints."""
        self.nvars, self.shape, self.deg = nvars, tuple(shape), deg
        self.idx, self.code = idx, code
        self.l1 = _l1(code, coef)
        self.coef = _coefficients(coef, self.l1 < _INT64_LIMIT)
        self._at = None

    @classmethod
    def collect(cls, nvars: int, shape: tuple, deg: int, idx, code,
                coef: np.ndarray) -> "PolyArray":
        """The array of terms that may repeat a key, cancel and come in
        any order: equal keys summed, zeros dropped."""
        codes = _codes(nvars, shape, deg)
        key, coef = _collect(np.asarray(idx, dtype=np.int64) * codes
                             + np.asarray(code, dtype=np.int64), coef)
        return cls(nvars, shape, deg, *np.divmod(key, codes), coef)

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def _starts(self) -> np.ndarray:
        """The first term of each entry, and the term count after the last:
        entry e holds the terms at[e] to at[e + 1] - 1.  Computed once."""
        if self._at is None:
            self._at = np.searchsorted(self.idx, np.arange(self.size + 1))
        return self._at

    def _like(self, other) -> bool:
        if not isinstance(other, PolyArray):
            return False
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return True

    # -- linear operations ------------------------------------------------
    def __add__(self, other):
        if not self._like(other):
            return NotImplemented
        if (other.shape, other.deg) != (self.shape, self.deg):
            raise ValueError("a sum needs two arrays of one shape and degree")
        int64 = self.l1 + other.l1 < _INT64_LIMIT
        return PolyArray.collect(self.nvars, self.shape, self.deg,
                                 np.concatenate([self.idx, other.idx]),
                                 np.concatenate([self.code, other.code]),
                                 np.concatenate([_coefficients(self.coef, int64),
                                                 _coefficients(other.coef, int64)]))

    def __neg__(self):
        return PolyArray(self.nvars, self.shape, self.deg, self.idx, self.code,
                         -self.coef)

    def __sub__(self, other):
        return self + -other if self._like(other) else NotImplemented

    def _reduced(self, keep: np.ndarray) -> "PolyArray":
        """The sum of the entries where ``keep`` holds, one polynomial."""
        return PolyArray.collect(self.nvars, (), self.deg,
                                 np.zeros(int(keep.sum()), dtype=np.int64),
                                 self.code[keep], self.coef[keep])

    def sum(self) -> "PolyArray":
        return self._reduced(np.ones(self.idx.size, dtype=bool))

    def trace(self) -> "PolyArray":
        if self.ndim != 2:
            raise ValueError("trace needs a matrix")
        return self._reduced(self.idx // self.shape[1] == self.idx % self.shape[1])

    # -- products ---------------------------------------------------------
    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            k = int(other)
            keep = slice(None) if k else slice(0)
            coef = _coefficients(self.coef, max(1, abs(k)) * self.l1 < _INT64_LIMIT)
            return PolyArray(self.nvars, self.shape, self.deg, self.idx[keep],
                             self.code[keep], coef[keep] * k)
        if not self._like(other):
            return NotImplemented
        shape = np.broadcast_shapes(self.shape, other.shape)

        def entries(x):
            return np.broadcast_to(np.arange(x.size).reshape(x.shape), shape).ravel()

        return self._product(other, entries(self), entries(other),
                             np.arange(math.prod(shape)), shape)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not self._like(other):
            return NotImplemented
        if not {self.ndim, other.ndim} <= {1, 2} or self.shape[-1] != other.shape[0]:
            raise ValueError(f"matmul: shapes {self.shape} and {other.shape} "
                             f"do not chain")
        # numpy's rule: a vector is a row on the left and a column on the
        # right.  Only nonempty entries pair: each of self's (i, kk) with
        # every nonempty (kk, j) of other, whose flat indices come grouped
        # by kk, group[kk] of them from first[kk] on
        k = self.shape[-1]
        cols = other.shape[1] if other.ndim == 2 else 1
        ea = np.flatnonzero(np.diff(self._starts()))
        eb = np.flatnonzero(np.diff(other._starts()))
        group = np.bincount(eb // cols, minlength=k)
        first = np.cumsum(group) - group
        reps = group[ea % k]
        ea = ea.repeat(reps)
        eb = eb[first[ea % k] + np.arange(ea.size) - (np.cumsum(reps) - reps).repeat(reps)]
        return self._product(other, ea, eb, ea // k * cols + eb % cols,
                             self.shape[:-1] + other.shape[1:])

    def _product(self, other: "PolyArray", ea: np.ndarray, eb: np.ndarray,
                 out: np.ndarray, shape: tuple) -> "PolyArray":
        """The array of ``shape`` whose entry e is the sum, over the q with
        out[q] = e, of self's entry ea[q] times other's entry eb[q].

        The pairs of terms are listed ``PAIR_BLOCK`` at a time, and each
        block's products are summed by key.  The blocks' sums are merged
        into the running sums once they outnumber them, so memory stays
        about one block plus three times the keys met so far, even where
        one output entry takes every pair, as a scalar side does."""
        nvars, deg = self.nvars, self.deg + other.deg
        codes = _codes(nvars, shape, deg)
        a_at, b_at = self._starts(), other._starts()
        na, nb = np.diff(a_at)[ea], np.diff(b_at)[eb]
        ends = np.cumsum(na * nb)
        total = int(ends[-1]) if ends.size else 0
        # an empty operand leaves the other's coefficients as they are
        int64 = max(self.l1, other.l1, self.l1 * other.l1) < _INT64_LIMIT
        ca, cb = _coefficients(self.coef, int64), _coefficients(other.coef, int64)
        # a pair of sqrt(3) terms takes self's coefficient tripled, from the
        # copy appended to ca; 3 |c| is below the product's L1 bound
        fold = not ((self.code & 1).all() or (other.code & 1).all())
        if fold:
            tripled = ca.copy()
            tripled[self.code & 1 == 0] *= 3
            ca = np.concatenate([ca, tripled])
        parts = [(np.zeros(0, dtype=np.int64), ca[:0])]     # the running sums first
        for lo in range(0, total, PAIR_BLOCK):
            hi = min(lo + PAIR_BLOCK, total)
            # the q with pairs in [lo, hi), and how many: pair p of q is
            # self's term a_at[ea[q]] + i times other's b_at[eb[q]] + j,
            # with p - starts[q] = i nb[q] + j
            first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
            s = slice(first, last + 1)
            starts = ends[s] - na[s] * nb[s]
            counts = np.minimum(ends[s], hi) - np.maximum(starts, lo)
            i, j = np.divmod(np.arange(lo, hi) - starts.repeat(counts), nb[s].repeat(counts))
            ta = a_at[ea[s]].repeat(counts) + i
            tb = b_at[eb[s]].repeat(counts) + j
            code = self.code[ta] * other.code[tb]
            if fold:
                both = code & 3 == 0
                code[both] >>= 2
                ta += both * self.code.size
            parts.append(_collect(out[s].repeat(counts) * codes + code, ca[ta] * cb[tb]))
            if sum(k.size for k, _ in parts[1:]) > max(parts[0][0].size, PAIR_BLOCK):
                parts = [_union(parts)]
        parts = [part for part in parts if part[0].size] or parts[:1]
        key, coef = parts[0] if len(parts) == 1 else _union(parts)
        return PolyArray(nvars, shape, deg, *np.divmod(key, codes), coef)

    def __repr__(self):
        return (f"PolyArray(shape={self.shape}, degree {self.deg}, "
                f"{self.idx.size} terms in {self.nvars} variables)")
