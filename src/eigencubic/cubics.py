"""Cubic forms as exact symmetric coefficient tensors, plus the catalog.

A CubicForm stores monomial coefficients m_{ijk} for i <= j <= k with
u(x) = sum m_{ijk} x_i x_j x_k; the full symmetric tensor entry is
m_{ijk} divided by the number of distinct permutations of (i, j, k).

The catalog constructors build every named family by evaluating the
Hermitian-matrix machinery on symbolic (polynomial-coordinate) elements,
so the coefficient tensors come out exact.  Variable order is the basis
order of the underlying construction and is documented per constructor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .clifford import CliffordSystem, build_clifford_system, verify_clifford_system
from .composition import CDElement, re_triple
from .jordan import (HermMat3, freudenthal_det, det_polar, fullspace_basis,
                     involution, jordan_mul, trace_form, tracefree_basis)
from .poly import Poly
from .scalars import SQRT3, QSqrt3, format_rational, is_exact, parse_rational

Key = Tuple[int, int, int]

# The largest coefficient magnitude a form file may carry, and the inverse
# of the least its largest coefficient may have.  The float kernel
# normalises u by a power of two, so no float check overflows however
# large or small u is; the bounds keep the coefficients, the constants
# (s^2) and the idempotents (1/s) of a form finite in float64.
MAX_COEFFICIENT = 1e50


def _simplify(c):
    if isinstance(c, QSqrt3) and c.b == 0:
        c = c.a
    if isinstance(c, int):
        return Fraction(c)
    return c


class CubicForm:
    __slots__ = ("n", "terms", "_jets")

    def __init__(self, n: int, terms: Dict[Key, object]):
        self.n = n
        clean: Dict[Key, object] = {}
        for key, c in terms.items():
            i, j, k = key
            if not (0 <= i <= j <= k < n):
                raise ValueError(f"bad monomial key {key} for dimension {n}")
            c = _simplify(c)
            if c:
                clean[(i, j, k)] = c
        self.terms = clean
        self._jets = {}

    # -- basic structure ---------------------------------------------------
    @property
    def is_exact_form(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, CubicForm):
            return self.n == other.n and self.terms == other.terms
        return NotImplemented

    def scaled(self, t) -> "CubicForm":
        return CubicForm(self.n, {k: t * c for k, c in self.terms.items()})

    def coo(self):
        """All distinct permutations (a, b, c, w) of the full tensor, w = m /
        their count; built per call for ``laplacian``, ``dense_tensor`` and
        ``polarize``; the kernel ``Jet`` does not read it."""
        out = []
        for key, m in self.terms.items():
            perms = sorted(set(permutations(key)))
            w = m / len(perms)
            out.extend((a, b, c, w) for a, b, c in perms)
        return out

    def jet(self, exact: bool) -> "Jet":
        """The arrays of the (u, Du, D^2u) kernel, built once per kind.

        ``exact`` asks for D*u cleared to Python ints; a form with float
        coefficients always gets float64 arrays (D a power of two).
        """
        exact = exact and self.is_exact_form
        if exact not in self._jets:
            self._jets[exact] = Jet.of(self, exact)
        return self._jets[exact]

    def dense_tensor(self) -> np.ndarray:
        """Full symmetric tensor as float64, shape (n, n, n); the reference
        the tests compare the kernel against."""
        T = np.zeros((self.n, self.n, self.n))
        for a, b, c, w in self.coo():
            T[a, b, c] = float(w)
        return T

    # -- evaluation and calculus -------------------------------------------
    def evaluate(self, point: Sequence):
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        total = 0
        for (i, j, k), m in self.terms.items():
            total = total + m * point[i] * point[j] * point[k]
        return total

    def to_poly(self) -> Poly:
        return Poly(self.n, self.terms)

    @classmethod
    def from_poly(cls, p: Poly) -> "CubicForm":
        if any(len(mono) != 3 for mono in p.terms):
            raise ValueError("polynomial is not homogeneous of degree 3")
        return cls(p.nvars, p.terms)

    def gradient(self) -> List[Poly]:
        p = self.to_poly()
        return [p.diff(i) for i in range(self.n)]

    def hessian(self) -> List[List[Poly]]:
        grads = self.gradient()
        return [[grads[i].diff(j) for j in range(self.n)] for i in range(self.n)]

    def laplacian(self) -> Poly:
        """Linear polynomial sum of the repeated second partials."""
        coeffs: Dict[int, object] = {}
        for a, b, c, w in self.coo():
            if a == b:
                coeffs[c] = coeffs.get(c, 0) + 6 * w
        return Poly(self.n, {(v,): c for v, c in coeffs.items()})

    def polarize(self, x: Sequence, y: Sequence, z: Sequence):
        """Complete linearization u(x; y; z); u(x;x;x) = 6 u(x).

        A direct loop over ``coo()``, kept as the tests' reference for the
        kernel's ``Jet.trilinear``.
        """
        for pt in (x, y, z):
            if len(pt) != self.n:
                raise ValueError("point length mismatch")
        total = 0
        for a, b, c, w in self.coo():
            total = total + w * x[a] * y[b] * z[c]
        return 6 * total

    def to_float(self) -> "CubicForm":
        return CubicForm(self.n, {k: float(c) for k, c in self.terms.items()})

    # -- serialization ---------------------------------------------------------
    def to_json_dict(self) -> dict:
        items = []
        for key in sorted(self.terms):
            c = self.terms[key]
            rec = {"ijk": [key[0] + 1, key[1] + 1, key[2] + 1]}
            if isinstance(c, QSqrt3):
                rec["c"] = format_rational(c.a)
                rec["c3"] = format_rational(c.b)
            elif isinstance(c, float):
                rec["c"] = c
            else:
                rec["c"] = format_rational(c)
            items.append(rec)
        return {"dim": self.n, "terms": items}

    @classmethod
    def from_json_dict(cls, d: dict) -> "CubicForm":
        n = int(d["dim"])
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        terms: Dict[Key, object] = {}
        for rec in d["terms"]:
            i, j, k = (int(v) - 1 for v in rec["ijk"])
            if (i, j, k) in terms:
                raise ValueError(f"monomial ijk {rec['ijk']} is listed twice")
            raw = rec["c"]
            c = raw if isinstance(raw, float) else parse_rational(raw)
            channels = [c, parse_rational(rec["c3"])] if "c3" in rec else [c]
            if not all(abs(x) <= MAX_COEFFICIENT for x in channels):
                raise ValueError(f"coefficient at ijk {rec['ijk']} is not finite "
                                 f"or exceeds {MAX_COEFFICIENT:g} in magnitude")
            terms[(i, j, k)] = QSqrt3(*channels) if len(channels) == 2 else c
        top = max((abs(float(c)) for c in terms.values()), default=0.0)
        if any(terms.values()) and top < 1 / MAX_COEFFICIENT:
            raise ValueError(f"the largest coefficient is below "
                             f"{1 / MAX_COEFFICIENT:g} in magnitude")
        return cls(n, terms)

    def __repr__(self):
        return f"CubicForm(n={self.n}, {len(self.terms)} monomials)"


# ---------------------------------------------------------------------------
# the (u, Du, D^2u) kernel
# ---------------------------------------------------------------------------

def _channels(c) -> tuple:
    return (c.a, c.b) if isinstance(c, QSqrt3) else (Fraction(c),)


@dataclass(frozen=True)
class Jet:
    """Value, gradient, Hessian and polarization of D*u, from sparse arrays.

    ``ijk`` holds each monomial m x_i x_j x_k in three blocks of columns,
    its rotations (i; j, k), (j; k, i) and (k; i, j), and ``m`` holds m
    at each.  A rotation (a; b, c) adds m x_b x_c to D_a u, m x_c and
    m x_b to D^2_ab u and D^2_ac u, and m x_a (y_b z_c + y_c z_b) to
    u(x; y; z).  Both kinds hold D*u, D = ``scale``.  Exact arrays hold
    Python ints, D the least positive integer making every m integral in
    both sqrt(3) channels; float arrays have D = 2**-floor(log2 max|m|),
    which rescales every float result exactly.  The exact jet of a
    Q(sqrt3) form splits D*u = r + sqrt(3) s into two integer jets: these
    arrays hold r and ``sqrt3`` holds s, so every tensor entry is an int
    product and each output entry becomes one QSqrt3.  Every piece keeps
    the kind of p: an object array of ``Poly`` variables or of exact
    scalars, or a float64 array.  In the metrised algebra x o x = 2 Du(x)
    and L_x = D^2u(x).

    ``value`` reads the first block only, and also takes points along
    leading axes, p of shape (..., n), giving one value per point.
    ``take`` keeps each point's products contiguous, so every value is
    summed as the single point's is and equals it bit for bit.
    """
    scale: float
    ijk: np.ndarray
    m: np.ndarray
    sqrt3: Optional["Jet"] = None

    @classmethod
    def of(cls, u: CubicForm, exact: bool) -> "Jet":
        if not exact:
            terms = [(k, float(c)) for k, c in u.terms.items()]
            top = max((abs(c) for _, c in terms), default=1.0)
            # a subnormal top gets 2**1023, the largest finite power of two
            return cls._arrays(terms, 2.0 ** min(1 - math.frexp(top)[1], 1023), float)
        chans = {k: _channels(c) for k, c in u.terms.items()}
        D = math.lcm(*(x.denominator for ch in chans.values() for x in ch))
        jet = cls._arrays([(k, ch[0]) for k, ch in chans.items()], D, int)
        s = [(k, ch[1]) for k, ch in chans.items() if len(ch) == 2]
        return replace(jet, sqrt3=cls._arrays(s, D, int)) if s else jet

    @classmethod
    def _arrays(cls, terms, D: float, kind) -> "Jet":
        """The arrays of D * sum c x_i x_j x_k over the nonzero (key, c)."""
        terms = [(k, c) for k, c in terms if c]
        ijk = np.array([k for k, _ in terms], dtype=np.intp).reshape(-1, 3).T
        m = np.array([kind(D * c) for _, c in terms],
                     dtype=object if kind is int else float)
        return cls(D, np.concatenate([ijk, ijk[[1, 2, 0]], ijk[[2, 0, 1]]], axis=1),
                   np.tile(m, 3))

    def value(self, p: np.ndarray):
        first = self.m.size // 3
        i, j, k = self.ijk[:, :first]
        v = (self.m[:first] * p.take(i, axis=-1) * p.take(j, axis=-1)
             * p.take(k, axis=-1)).sum(axis=-1)
        return v if self.sqrt3 is None else v + self.sqrt3.value(p) * SQRT3

    def gradient(self, p: np.ndarray) -> np.ndarray:
        a, b, c = self.ijk
        g = np.zeros(len(p), dtype=p.dtype)
        np.add.at(g, a, self.m * p[b] * p[c])
        return g if self.sqrt3 is None else g + self.sqrt3.gradient(p) * SQRT3

    def hessian(self, p: np.ndarray) -> np.ndarray:
        a, b, c = self.ijk
        H = np.zeros((len(p), len(p)), dtype=p.dtype)
        np.add.at(H, (a, b), self.m * p[c])
        np.add.at(H, (a, c), self.m * p[b])
        return H if self.sqrt3 is None else H + self.sqrt3.hessian(p) * SQRT3

    def trilinear(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        """D u(x; y; z) = D <x o y, z>, the complete polarization of D*u."""
        a, b, c = self.ijk
        t = (self.m * x[a] * (y[b] * z[c] + y[c] * z[b])).sum()
        return t if self.sqrt3 is None else t + self.sqrt3.trilinear(x, y, z) * SQRT3


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


def _symbolic_element(basis, nvars: int, offset: int = 0) -> HermMat3:
    """sum_i x_{offset+i} b_i with polynomial coordinates."""
    d = basis[0].d
    diag = [Poly.zero(nvars) for _ in range(3)]
    off = [[Poly.zero(nvars) for _ in range(d)] for _ in range(3)]
    for i, b in enumerate(basis):
        xi = Poly.var(nvars, offset + i)
        for t in range(3):
            if b.diag[t]:
                diag[t] = diag[t] + xi * b.diag[t]
        for pos in range(3):
            for m, c in enumerate(b.off[pos].coeffs):
                if c:
                    off[pos][m] = off[pos][m] + xi * c
    return HermMat3(d, tuple(diag),
                    tuple(CDElement(d, tuple(row)) for row in off))


@lru_cache(maxsize=None)
def cartan_cubic(d: int) -> CubicForm:
    """u = (1/2) det(z) over the trace-free basis of H3(K_d).

    Equal to (1/6)<z, z o z> there; satisfies |Du|^2 = kappa |x|^4 with
    kappa = 9 for d = 1 and kappa = 1/3 for d = 2, 4, 8.  Coefficients
    are rational for d = 1, 2 and live in Q(sqrt 3) for d = 4, 8.
    """
    basis = tracefree_basis(d)
    z = _symbolic_element(basis.mats, len(basis))
    p = freudenthal_det(z) * Fraction(1, 2)
    form = CubicForm.from_poly(p)
    if d in (1, 2):
        for c in form.terms.values():
            if isinstance(c, QSqrt3):
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
    z = _symbolic_element(basis.mats, len(basis))
    w = involution(z).scale(3) - z
    p = det_polar(z, w) * Fraction(1, 12)
    return CubicForm.from_poly(p)


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
        one = CDElement.one(1)
        zero = CDElement.zero(1)
        half = Fraction(1, 2)
        pairs: List[Tuple[HermMat3, HermMat3]] = []
        for i in range(3):
            dg = [0, 0, 0]
            dg[i] = 1
            pairs.append((HermMat3.diagonal(1, *dg), HermMat3.zero(1)))
        for i in range(3):
            dg = [0, 0, 0]
            dg[i] = 1
            pairs.append((HermMat3.zero(1), HermMat3.diagonal(1, *dg)))
        for pos in range(3):
            P = HermMat3.off_entry(1, pos, one * half)
            pairs.append((P, P))
            pairs.append((P, -P))
        nvars = len(pairs)
        A = _symbolic_element([a for a, _ in pairs], nvars)
        B = _symbolic_element([b for _, b in pairs], nvars)
    else:
        basis = fullspace_basis(d)
        N = len(basis)
        nvars = 2 * N
        A = _symbolic_element(basis.mats, nvars, 0)
        B = _symbolic_element(basis.mats, nvars, N)
    p = freudenthal_det(A) - det_polar(B, A)
    return CubicForm.from_poly(p)


@lru_cache(maxsize=None)
def albert_contraction_cubic() -> CubicForm:
    """(1/6)<z, z o z> restricted to zero diagonal and purely imaginary
    octonion off-entries: the 21-dimensional complement of H3(K_1) in
    H3(K_8).  Variables run e1..e7 for the x, y, z positions in turn.
    """
    nvars = 21
    off = []
    for pos in range(3):
        coords = [Poly.zero(nvars)]
        coords.extend(Poly.var(nvars, 7 * pos + m) for m in range(7))
        off.append(CDElement(8, tuple(coords)))
    z = HermMat3(8, (Poly.zero(nvars),) * 3, tuple(off))
    p = trace_form(z, jordan_mul(z, z)) * Fraction(1, 6)
    return CubicForm.from_poly(p)


@lru_cache(maxsize=None)
def octonion_cubic21() -> CubicForm:
    """u = re(w1 w2 w3) for three independent imaginary octonions.

    Variables are the e1..e7 coordinates of w1, then w2, then w3.
    Integer coefficients; built from the composition algebra alone.
    """
    nvars = 21
    ws = []
    for blk in range(3):
        coords = [Poly.zero(nvars)]
        coords.extend(Poly.var(nvars, 7 * blk + m) for m in range(7))
        ws.append(CDElement(8, tuple(coords)))
    p = re_triple(ws[0], ws[1], ws[2])
    return CubicForm.from_poly(p)


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


def _clifford_builder(q):
    def build():
        return clifford_cubic(build_clifford_system(q))
    return build


CATALOG: Dict[str, CatalogEntry] = {}


def _register(name, builder, dim, triple, family):
    CATALOG[name] = CatalogEntry(name, builder, dim, triple, family)


_register("trivial", lambda: trivial_cubic(3, 1), 3, None, "trivial")
_register("clifford-q0", _clifford_builder(0), 3, None, "clifford")
_register("clifford-q1", _clifford_builder(1), 4, None, "clifford")
_register("clifford-q2", _clifford_builder(2), 7, None, "clifford")
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
