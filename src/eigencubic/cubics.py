"""Cubic forms as exact symmetric coefficient tensors, plus the catalog.

A CubicForm holds the monomial coefficients m_{ijk}, i <= j <= k, of
u(x) = sum m_{ijk} x_i x_j x_k as the integers D*m of its exact kernel;
the full symmetric tensor entry is m_{ijk} divided by the number of
distinct permutations of (i, j, k).

The catalog constructors build every named family by evaluating the
Hermitian-matrix machinery on symbolic (polynomial-coordinate) elements
over a basis cleared of denominators, so every product is on integers (or
Q(sqrt3) pairs of them), and divide the finished cubic once: the
coefficient tensors come out exact.  Variable order is the basis
order of the underlying construction and is documented per constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from .clifford import CliffordSystem, build_clifford_system, verify_clifford_system
from .composition import CDElement, re_triple
from .jordan import (HermMat3, cleared, common_denominator, det_polar_twice,
                     freudenthal_det, fullspace_basis, involution, jordan_twice,
                     trace_form, tracefree_basis)
from .modular import residues
from .poly import Poly, PolyArray, variable_codes
from .scalars import SQRT3_FLOAT, QSqrt3, QSqrt3Array, format_rational, is_exact, parse_rational

Key = Tuple[int, int, int]

# The largest coefficient magnitude a form file may carry, and the inverse
# of the least its largest coefficient may have.  The float kernel
# normalises u by a power of two, so no float check overflows however
# large or small u is; the bounds keep the coefficients, the constants
# (s^2) and the idempotents (1/s) of a form finite in float64.
MAX_COEFFICIENT = 1e50
# its exact value, which a Fraction is compared with on integers (cheaper)
_MAX_INT = int(MAX_COEFFICIENT)
# The largest dimension a form file may have: above the catalog's 54 and
# the 75 of clifford_cubic at the CLI's largest q, small enough that the
# n x n Hessians of every command fit in memory and time.
MAX_DIM = 128
# The most entries one block of a point stack holds: its (points, n, n)
# Hessians or its (points, monomial rotations) products, in every stacked
# evaluation of the package.  At n = 54 that is 5 points, enough to spread
# numpy's per-call cost.  A block of 2**16 entries was about 8 % faster on
# the certify-random benchmark but raised its peak RSS by 1.2 MB (3.5 %);
# this one raises it by under 0.5 %.
BLOCK = 1 << 14


def block_rows(width: int) -> int:
    """Rows per block of a stack whose rows hold ``width`` entries each:
    ``BLOCK // width``, at least 1."""
    return max(1, BLOCK // max(1, width))


def _json_int(v, what: str) -> int:
    # a plain int, what nearly every entry is, skips the two isinstance calls
    if type(v) is not int and (isinstance(v, bool) or not isinstance(v, int)):
        raise ValueError(f"{what} must be a JSON integer, got {v!r}")
    return v


class CubicForm:
    """u = sum m x_i x_j x_k over monomials i <= j <= k < n, held as the
    integers its exact kernel ``Jet`` reads.

    ``keys`` lists the (i, j, k) of each nonzero m in the order given,
    which the float kernel's sums follow.  ``num`` is the pair (r, s) of
    lists of Python ints aligned with ``keys``, m = (r + sqrt(3) s) / D,
    and D = ``scale`` the least positive integer that clears every m.  A
    float coefficient is held as the binary fraction it is, and its key
    is in ``float_keys``; a form with any (``is_exact_form`` false) is a
    float form.  The dict constructor, which the catalog builders use,
    and ``from_json_dict`` read each coefficient once, through
    ``scalars.parse_rational``.

    ``terms``, the read-only view key -> m, is built on first use: the
    float r / D at a key of ``float_keys``, elsewhere a Fraction, or a
    QSqrt3 where s != 0.  The full symmetric tensor entry is m divided
    by the number of distinct permutations of (i, j, k).
    """

    def __init__(self, n: int, terms: Dict[Key, object]):
        rows = [(parse_rational(c.a), parse_rational(c.b)) if isinstance(c, QSqrt3)
                else (parse_rational(c), (0, 1)) for c in terms.values()]
        self._clear(n, list(terms), rows, {k for k, c in terms.items() if c and not is_exact(c)})

    def _clear(self, n: int, keys: list, rows: list, floats: set) -> "CubicForm":
        """This form, set from its keys and each one's row ((p, q), (p3, q3))
        of reduced pairs, m = p/q + sqrt(3) p3/q3: both parts cleared to
        D*m on integers, the zero m dropped.  ``floats`` holds the keys of
        the nonzero float coefficients.  A key outside 0 <= i <= j <= k < n
        is a ValueError."""
        for i, j, k in keys:
            if not 0 <= i <= j <= k < n:
                raise ValueError(f"bad monomial key {(i, j, k)} for dimension {n}")
        D = math.lcm(*(q for row in rows for _, q in row))
        r, s = ([D // row[i][1] * row[i][0] for row in rows] for i in (0, 1))
        if not all(r):
            live = [t for t, x in enumerate(r) if x or s[t]]
            keys, r, s = ([x[t] for t in live] for x in (keys, r, s))
        self.n, self.keys, self.num, self.scale = n, keys, (r, s), D
        self.float_keys, self.is_exact_form, self._jets = frozenset(floats), not floats, {}
        return self

    @cached_property
    def terms(self) -> Mapping[Key, object]:
        (r, s), D, fl = self.num, self.scale, self.float_keys
        return MappingProxyType({
            key: x / D if key in fl else QSqrt3(Fraction(x, D), Fraction(y, D)) if y
            else Fraction(x, D) for key, x, y in zip(self.keys, r, s)})

    def _floats(self) -> list:
        """Each m as a float: r / D, which Python rounds correctly, as
        ``float(Fraction)`` does, plus (s / D) * sqrt(3) where s != 0, as
        ``QSqrt3.__float__`` adds its parts."""
        D = self.scale
        return [x / D + y / D * SQRT3_FLOAT if y else x / D for x, y in zip(*self.num)]

    # -- basic structure ---------------------------------------------------
    def is_zero(self) -> bool:
        return not self.keys

    def __eq__(self, other):
        if isinstance(other, CubicForm):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def coo(self):
        """All distinct permutations (a, b, c, w) of the full tensor, w = m /
        their count, built per call.  The kernel ``Jet`` does not read it;
        the benchmark's traced set-up (``perfbench/workload.py``) calls it,
        and the tests' dense-tensor and polarization references do."""
        out = []
        for key, m in self.terms.items():
            perms = sorted(set(permutations(key)))
            w = m / len(perms)
            out.extend((a, b, c, w) for a, b, c in perms)
        return out

    def jet(self, exact: bool) -> "Jet":
        """The arrays of the (u, Du, D^2u) kernel, built once per kind from
        ``keys`` and ``num``.

        ``exact`` asks for D*u on Python ints, each channel's ``num``, on
        a float form too.  Otherwise the arrays are float64, each
        coefficient ``_floats`` gives times a power of two D that takes
        the largest into [1, 2); a subnormal largest gets 2**1023, the
        largest finite power of two.
        """
        if exact not in self._jets:
            ijk = np.array(self.keys, dtype=np.intp).reshape(-1, 3).T
            if exact:       # the sqrt(3) channel's jet only where some s is nonzero
                r, *s = (Jet._arrays(self.scale, ijk, np.array(x, dtype=object))
                         for x in self.num[:1 + any(self.num[1])])
                self._jets[exact] = replace(r, sqrt3=s[0]) if s else r
            else:
                f = np.array(self._floats(), dtype=float)
                D = 2.0 ** min(1 - math.frexp(np.abs(f).max() if f.size else 1.0)[1], 1023)
                self._jets[exact] = Jet._arrays(D, ijk, D * f)
        return self._jets[exact]

    @cached_property
    def symbolic(self) -> tuple:
        """The exact jet's ``symbolic`` pieces (v, g, H, r2) in the n
        variables, expanded once, so every exact check of the form
        multiplies the same arrays: one ``PolyArray`` each, a Q(sqrt3)
        form's sqrt(3) channel held in its terms' codes."""
        return self.jet(exact=True).symbolic(self.n)

    @classmethod
    def from_poly(cls, p: Poly) -> "CubicForm":
        if any(len(mono) != 3 for mono in p.terms):
            raise ValueError("polynomial is not homogeneous of degree 3")
        return cls(p.nvars, p.terms)

    def to_float(self) -> "CubicForm":
        """This form with each m the float ``_floats`` gives, read as the
        binary fraction it is, as ``from_json_dict`` reads a float."""
        fs = self._floats()
        return CubicForm.__new__(CubicForm)._clear(
            self.n, list(self.keys), [(f.as_integer_ratio(), (0, 1)) for f in fs],
            {k for k, f in zip(self.keys, fs) if f})

    # -- serialization ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        """{"dim": n, "terms": [...]}, the terms sorted by key, 1-based:
        a float coefficient written as its float, every other channel as
        ``format_rational`` of D*m and D."""
        D, fl, items = self.scale, self.float_keys, []
        for key, x, y in sorted(zip(self.keys, *self.num)):     # the keys are distinct
            items.append({"ijk": [v + 1 for v in key],
                          "c": x / D if key in fl else format_rational(x, D)})
            if y:
                items[-1]["c3"] = format_rational(y, D)
        return {"dim": self.n, "terms": items}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CubicForm":
        """The form of {"dim": n, "terms": [{"ijk": [i, j, k], "c": c}, ...]},
        1-based indices.  c, and a term's optional sqrt(3) part c3, are
        read once each by ``parse_rational``: a string in any spelling
        ``Fraction`` takes, a JSON integer, or a JSON number, which as c
        makes a float form and may then carry no c3.  A ValueError names a
        bad dim, index or coefficient, a monomial listed twice, a channel
        past MAX_COEFFICIENT in magnitude and a nonzero form whose largest
        |m|, as a float, is below 1 / MAX_COEFFICIENT."""
        n = _json_int(d["dim"], "dim")
        if not 1 <= n <= MAX_DIM:
            raise ValueError(f"dimension must be in 1..{MAX_DIM}, got {n}")
        cs, rows, top = {}, [], 0.0
        for rec in d["terms"]:
            i, j, k = (_json_int(v, "an ijk entry") for v in rec["ijk"])
            key = (i - 1, j - 1, k - 1)
            if key in cs:
                raise ValueError(f"monomial ijk {rec['ijk']} is listed twice")
            cs[key] = raw = rec["c"]     # each key's c: a nonzero float makes a float form
            if isinstance(raw, bool) or isinstance(rec.get("c3"), bool):
                raise ValueError(f"coefficient at ijk {rec['ijk']} is a boolean")
            fl = isinstance(raw, float)
            if fl and "c3" in rec:
                raise ValueError(f"a float c cannot carry c3 (ijk {rec['ijk']})")
            # a float c is held to the float bound, and one past it is not parsed
            big = fl and not abs(raw) <= MAX_COEFFICIENT
            p, q = pair = (0, 1) if big else parse_rational(raw)
            p3, q3 = pair3 = parse_rational(rec["c3"]) if "c3" in rec else (0, 1)
            if big or abs(p3) > _MAX_INT * q3 or not fl and abs(p) > _MAX_INT * q:
                raise ValueError(f"coefficient at ijk {rec['ijk']} is not finite "
                                 f"or exceeds {MAX_COEFFICIENT:g} in magnitude")
            rows.append((pair, pair3))
            m = abs(p / q + p3 / q3 * SQRT3_FLOAT if p3 else p / q)
            if m > top:      # not max(): 40 against 150 ns a term
                top = m
        if top < 1 / MAX_COEFFICIENT and any(p or p3 for (p, _), (p3, _) in rows):
            raise ValueError(f"the largest coefficient is below "
                             f"{1 / MAX_COEFFICIENT:g} in magnitude")
        return cls.__new__(cls)._clear(n, list(cs), rows,
                                       {k for k, c in cs.items() if isinstance(c, float) and c})

    def __repr__(self):
        return f"CubicForm(n={self.n}, {len(self.keys)} monomials)"


# ---------------------------------------------------------------------------
# the (u, Du, D^2u) kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Jet:
    """Value, gradient, Hessian and Laplacian of D*u, from sparse arrays.

    ``ijk`` holds each monomial m x_i x_j x_k in three blocks of columns,
    its rotations (i; j, k), (j; k, i) and (k; i, j), and ``m`` holds m
    at each.  A rotation (a; b, c) adds m x_b x_c to D_a u, m x_c and
    m x_b to D^2_ab u and D^2_ac u, and m x_a (y_b z_c + y_c z_b) to the
    polarization u(x; y; z) = <D^2u(x) y, z>.  Both kinds hold D*u,
    D = ``scale``, and ``CubicForm.jet`` builds both from the form's
    integers.  Exact arrays hold Python ints, D the least positive
    integer making every m integral in both sqrt(3) channels; float
    arrays have D = 2**-floor(log2 max|m|), which rescales every float
    result exactly.  The exact jet of a
    Q(sqrt3) form splits D*u = r + sqrt(3) s into two integer jets: these
    arrays hold r and ``sqrt3`` holds s.  ``_paired`` computes each piece
    once on each, in blocks of that jet's own width, and returns one
    ``QSqrt3Array`` (r's piece, s's piece), whose arithmetic keeps the two
    channels apart; a caller joins it to
    QSqrt3 entries where a result leaves the kernel.  Every piece keeps
    the kind of p: an object array of exact scalars, or an int64 or float64 array;
    ``symbolic`` gives the pieces of an exact jet as polynomials, one
    ``PolyArray`` each, whose sqrt(3) terms hold the ``sqrt3`` channel, so
    a Q(sqrt3) product is one product.  In the metrised algebra
    x o x = 2 Du(x) and L_x = D^2u(x).

    ``value`` reads the first block of columns only.  It, ``gradient``
    and ``hessian`` take a stack of any length along leading axes, p of
    shape (..., n), one result per point, and run their bodies on blocks
    of points, ``block_rows`` of M/3, M and max(n^2, M) entries
    (M = ``m.size``): the widest temporary each makes per point.
    ``take`` keeps each point's products contiguous, and ``gradient`` and
    ``hessian`` scatter them through one 1-D ``np.add.at`` on flat indices
    (point * n + a, and point * n^2 + a * n + b), which adds into each
    entry in column order, so every result is the single point's, bit for
    bit, on every dtype and in any block.  ``modulo`` gives the jet on
    int64 residues modulo 2**64 or a prime, and ``l1``, taken once per
    jet, bounds their sums.
    """
    scale: float
    ijk: np.ndarray
    m: np.ndarray
    sqrt3: Optional["Jet"] = None

    @classmethod
    def _arrays(cls, D, ijk: np.ndarray, m: np.ndarray) -> "Jet":
        """The arrays of sum m x_i x_j x_k over the columns (i, j, k) of ijk
        whose m, the coefficient times D, is nonzero."""
        ijk, m = ijk[:, m != 0], m[m != 0]
        return cls(D, np.concatenate([ijk, ijk[[1, 2, 0]], ijk[[2, 0, 1]]], axis=1), np.tile(m, 3))

    @cached_property
    def l1(self):
        """sum|m| + 2 sum|m| of the ``sqrt3`` jet, which bounds the kernel's
        sums: a Python int on integer arrays, a float64 on float ones;
        taken once per jet."""
        if self.m.dtype == float:
            return np.abs(self.m).sum()
        return sum(map(abs, self.m.tolist())) + (0 if self.sqrt3 is None else 2 * self.sqrt3.l1)

    def modulo(self, q: int) -> "Jet":
        """This exact jet on int64 residues of m modulo q, 2**64 if q = 0:
        m's three blocks of columns hold the same coefficients, so the
        first is reduced and tiled."""
        return replace(self, m=np.tile(residues(self.m[: self.m.size // 3], q), 3),
                       sqrt3=None if self.sqrt3 is None else self.sqrt3.modulo(q))

    def _paired(self, body):
        """body(jet) on these arrays, or on a Q(sqrt3) jet the ``QSqrt3Array``
        of it and body on the ``sqrt3`` jet's arrays."""
        r = body(self)
        return r if self.sqrt3 is None else QSqrt3Array(r, body(self.sqrt3))

    def value(self, p: np.ndarray):
        return self._paired(lambda j: _blocks(j._value, j.m.size // 3, p))

    def gradient(self, p: np.ndarray) -> np.ndarray:
        return self._paired(lambda j: _blocks(j._gradient, j.m.size, p))

    def hessian(self, p: np.ndarray) -> np.ndarray:
        return self._paired(lambda j: _blocks(j._hessian, max(p.shape[-1] ** 2, j.m.size), p))

    def _value(self, p):
        first = self.m.size // 3
        i, j, k = self.ijk[:, :first]
        return (self.m[:first] * p.take(i, axis=-1) * p.take(j, axis=-1)
                * p.take(k, axis=-1)).sum(axis=-1)

    def _gradient(self, p):
        a, b, c = self.ijk
        return _scatter(p, p.shape[-1], a,
                        self.m * p.take(b, axis=-1) * p.take(c, axis=-1)).reshape(p.shape)

    def _hessian(self, p):
        a, b, c = self.ijk
        n = p.shape[-1]
        H = _scatter(p, n * n, np.concatenate([a * n + b, a * n + c]),
                     np.concatenate([self.m * p.take(c, axis=-1),
                                     self.m * p.take(b, axis=-1)], axis=-1))
        return H.reshape(p.shape + (n,))

    def laplacian(self, n: int) -> np.ndarray:
        """The n coefficients of the linear form D Lap u: a rotation
        (a; b, c) adds m to the coefficient of x_c when a = b, and to that
        of x_b when a = c, as it adds m x_c, m x_b to D^2_aa u."""
        def lap(j):
            a, b, c = j.ijk
            out = np.zeros(n, dtype=j.m.dtype)
            np.add.at(out, c[a == b], j.m[a == b])
            np.add.at(out, b[a == c], j.m[a == c])
            return out
        return self._paired(lap)

    def symbolic(self, n: int):
        """(v, g, H, r2): D*u, its gradient and Hessian, and |x|^2, as
        ``PolyArray``s in the n variables, read off the exact arrays:
        ``value``'s block gives the terms of v, and each rotation
        (a; b, c) the term m x_b x_c of g_a and the terms m x_c, m x_b of
        H_ab, H_ac.  A Q(sqrt3) jet's ``sqrt3`` channel gives the same
        terms with their codes doubled, the PolyArrays' sqrt(3) terms."""
        jets = [self] if self.sqrt3 is None else [self, self.sqrt3]
        a, b, c = np.concatenate([j.ijk for j in jets], axis=1)
        m = np.concatenate([j.m for j in jets])
        w = np.concatenate([np.full(j.m.size, k, dtype=np.int64) for k, j in zip((1, 2), jets)])
        top = np.concatenate([np.arange(j.m.size) < j.m.size // 3 for j in jets])
        P = variable_codes(n)
        v = PolyArray.collect(n, (), 3, np.zeros(int(top.sum()), dtype=np.int64),
                              (w * P[a] * P[b] * P[c])[top], m[top])
        g = PolyArray.collect(n, (n,), 2, a, w * P[b] * P[c], m)
        H = PolyArray.collect(n, (n, n), 1, np.concatenate([a * n + b, a * n + c]),
                              np.tile(w, 2) * P[np.concatenate([c, b])], np.tile(m, 2))
        r2 = PolyArray(n, (), 2, np.zeros(n, dtype=np.int64), P * P, np.ones(n, dtype=np.int64))
        return v, g, H, r2


def _blocks(f, width: int, p: np.ndarray):
    """f at the stack p of points (..., n), ``block_rows(width)`` points
    at a time, written into one output: joining a list of them held more RSS."""
    n = p.shape[-1]
    count, rows = p.size // n, block_rows(width)
    if count <= rows:
        return f(p)
    flat = p.reshape(-1, n)
    for s in range(0, count, rows):
        r = f(flat[s:s + rows])
        if not s:
            out = np.empty((count,) + r.shape[1:], dtype=r.dtype)
        out[s:s + rows] = r
    return out.reshape(p.shape[:-1] + out.shape[1:])


def _scatter(p: np.ndarray, width: int, cols: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The sums of each point's ``vals`` (..., k) into its own ``width``
    entries at ``cols``, flat, in one 1-D ``np.add.at`` on the indices
    point * width + col: numpy's fast path, which adds in column order."""
    rows = p.size // p.shape[-1]
    out = np.zeros(rows * width, dtype=p.dtype)
    if rows != 1:
        cols = (np.arange(0, rows * width, width)[:, None] + cols).ravel()
    np.add.at(out, cols, vals.ravel())
    return out


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def trivial_cubic(n: int, a=1) -> CubicForm:
    """u = a * x_1^3 on R^n."""
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return CubicForm(n, {(0, 0, 0): Fraction(a)})


def clifford_cubic(S: CliffordSystem) -> CubicForm:
    """u(x, y) = sum_i x_i <A_i y, y> on R^(q+1+2l); x-block first.

    Requires a verified system with trace-free matrices (trace-free is
    automatic for q >= 1 and holds for every built system); that is what
    makes the form harmonic.
    """
    ok, reason = verify_clifford_system(S)
    if not ok:
        raise ValueError(f"invalid Clifford system: {reason}")
    for idx, A in enumerate(S.mats):
        if sum(A[i][i] for i in range(S.two_l)) != 0:
            raise ValueError(f"A{idx} has nonzero trace; the cubic would not be harmonic")
    off = S.q + 1
    n = off + S.two_l
    terms: Dict[Key, object] = {}
    for i, A in enumerate(S.mats):
        for a in range(S.two_l):
            for b in range(a, S.two_l):
                coef = A[a][b] if a == b else 2 * A[a][b]
                if coef:
                    key = tuple(sorted((i, off + a, off + b)))
                    terms[key] = terms.get(key, 0) + Fraction(coef)
    return CubicForm(n, terms)


def _symbolic_element(basis, nvars: int, offset: int = 0, k: int = 1) -> HermMat3:
    """k sum_i x_{offset+i} b_i, its polynomial coordinates ``cleared`` by k."""
    d = basis[0].d
    diag = [Poly.zero(nvars) for _ in range(3)]
    off = [[Poly.zero(nvars) for _ in range(d)] for _ in range(3)]
    for i, b in enumerate(basis):
        xi = Poly.var(nvars, offset + i)
        for t in range(3):
            if b.diag[t]:
                diag[t] = diag[t] + xi * cleared(k, b.diag[t])
        for pos in range(3):
            for m, c in enumerate(b.off[pos].coeffs):
                if c:
                    off[pos][m] = off[pos][m] + xi * cleared(k, c)
    return HermMat3(d, tuple(diag),
                    tuple(CDElement(d, tuple(row)) for row in off))


def _divided(p: Poly, q: int) -> CubicForm:
    """The cubic p / q, each int or QSqrt3-of-ints coefficient divided once."""
    return CubicForm(p.nvars, {
        m: QSqrt3(Fraction(c.a, q), Fraction(c.b, q)) if isinstance(c, QSqrt3)
        else Fraction(c, q) for m, c in p.terms.items()})


@lru_cache(maxsize=None)
def cartan_cubic(d: int) -> CubicForm:
    """u = (1/2) det(z) over the trace-free basis of H3(K_d).

    Equal to (1/6)<z, z o z> there; satisfies |Du|^2 = kappa |x|^4 with
    kappa = 9 for d = 1 and kappa = 1/3 for d = 2, 4, 8.  Coefficients
    are rational for d = 1, 2 and live in Q(sqrt 3) for d = 4, 8.
    """
    basis = tracefree_basis(d)
    k = common_denominator(basis)
    p = freudenthal_det(_symbolic_element(basis, len(basis), 0, k))
    form = _divided(p, 2 * k ** 3)
    if d in (1, 2) and any(form.num[1]):
        raise AssertionError("d=1,2 Cartan coefficients must be rational")
    return form


@lru_cache(maxsize=None)
def involution_cubic(d: int) -> CubicForm:
    """u = (1/12) D det(z)[3 zbar - z] on all of H3(K_d), d in (2, 4, 8).

    zbar is the doubling involution.  Expected Peirce triples
    (0,5,3), (0,8,6), (0,14,12) at dimensions 9, 15, 27.
    """
    if d not in (2, 4, 8):
        raise ValueError("involution family requires d in (2, 4, 8)")
    basis = fullspace_basis(d)
    k = common_denominator(basis)
    z = _symbolic_element(basis, len(basis), 0, k)
    w = involution(z).scale(3) - z
    return _divided(det_polar_twice(z, w, freudenthal_det(w)), 24 * k ** 3)


@lru_cache(maxsize=None)
def complexified_cubic(d: int) -> CubicForm:
    """Real part of the holomorphic generic norm on H3(K_d) x C.

    With z = A + iB this is det(A) - D det(B)[A]; on trace-free z it
    agrees with re <z, z o z> up to the factor 3.  The real part of a
    holomorphic cubic is automatically harmonic.  Variables are the
    A-coordinates followed by the B-coordinates (d >= 2); for d = 1
    diagonal real/imaginary units come first, then mixed off pairs.
    """
    if d == 1:
        units = [HermMat3.diagonal(1, *(int(i == t) for t in range(3))) for i in range(3)]
        zero = HermMat3.zero(1)
        pairs = [(e, zero) for e in units] + [(zero, e) for e in units]
        for pos in range(3):
            P = HermMat3.off_entry(1, pos, CDElement.one(1) * Fraction(1, 2))
            pairs += [(P, P), (P, -P)]
        (a_mats, b_mats), nvars, shift = zip(*pairs), len(pairs), 0
    else:
        a_mats = b_mats = list(fullspace_basis(d))
        nvars, shift = 2 * len(a_mats), len(a_mats)
    k = common_denominator(a_mats + b_mats)
    A = _symbolic_element(a_mats, nvars, 0, k)
    B = _symbolic_element(b_mats, nvars, shift, k)
    det_a = freudenthal_det(A)
    p = 2 * det_a - det_polar_twice(B, A, det_a)
    return _divided(p, 2 * k ** 3)


def _imaginary_element() -> HermMat3:
    """The zero-diagonal element of H3(K_8) whose off-entries are purely
    imaginary octonions: x_{7 pos + m - 1} e_m at position pos, m = 1..7."""
    basis = [HermMat3.off_entry(8, pos, CDElement.basis(8, m))
             for pos in range(3) for m in range(1, 8)]
    return _symbolic_element(basis, len(basis))


@lru_cache(maxsize=None)
def albert_contraction_cubic() -> CubicForm:
    """(1/6)<z, z o z> restricted to zero diagonal and purely imaginary
    octonion off-entries: the 21-dimensional complement of H3(K_1) in
    H3(K_8).  Variables run e1..e7 for the x, y, z positions in turn.
    """
    z = _imaginary_element()
    return _divided(trace_form(z, jordan_twice(z, z)), 12)


@lru_cache(maxsize=None)
def octonion_cubic21() -> CubicForm:
    """u = re(w1 w2 w3) for three independent imaginary octonions.

    Variables are the e1..e7 coordinates of w1, then w2, then w3: the
    off-entries of ``albert_contraction_cubic``'s element.  Integer
    coefficients; the product is the composition algebra's alone.
    """
    return CubicForm.from_poly(re_triple(*_imaginary_element().off))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

class CatalogEntry:
    __slots__ = ("name", "builder", "dim", "triple", "family")

    def __init__(self, name, builder, dim, triple, family):
        self.name = name
        self.builder = builder
        self.dim = dim
        self.triple = triple
        self.family = family

    def build(self) -> CubicForm:
        return self.builder()


CATALOG: Dict[str, CatalogEntry] = {}


def _register(name, builder, dim, triple, family):
    CATALOG[name] = CatalogEntry(name, builder, dim, triple, family)


_register("trivial", lambda: trivial_cubic(3, 1), 3, None, "trivial")
for _q, _dim in ((0, 3), (1, 4), (2, 7)):
    _register(f"clifford-q{_q}", (lambda q=_q: clifford_cubic(build_clifford_system(q))),
              _dim, None, "clifford")
for _d, _dim, _tr in ((1, 5, (2, 0, 2)), (2, 8, (3, 0, 4)),
                      (4, 14, (5, 0, 8)), (8, 26, (9, 0, 16))):
    _register(f"cartan-d{_d}", (lambda d=_d: cartan_cubic(d)), _dim, _tr, "cartan")
for _d, _dim, _tr in ((2, 9, (0, 5, 3)), (4, 15, (0, 8, 6)), (8, 27, (0, 14, 12))):
    _register(f"involution-d{_d}", (lambda d=_d: involution_cubic(d)), _dim, _tr,
              "involution")
for _d, _dim, _tr in ((1, 12, (1, 5, 5)), (2, 18, (1, 8, 8)),
                      (4, 30, (1, 14, 14)), (8, 54, (1, 26, 26))):
    _register(f"complexified-d{_d}", (lambda d=_d: complexified_cubic(d)), _dim, _tr,
              "complexified")
_register("octonion21", octonion_cubic21, 21, (4, 5, 11), "octonion")
_register("albert21", albert_contraction_cubic, 21, (4, 5, 11), "albert")


def catalog_build(name: str) -> CubicForm:
    if name not in CATALOG:
        raise KeyError(f"unknown catalog form: {name}")
    return CATALOG[name].build()
