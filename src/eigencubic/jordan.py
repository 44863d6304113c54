"""Rank-3 Jordan algebras of Hermitian 3x3 matrices over K_d.

An element is stored as three diagonal scalars (a, b, c) and three
off-diagonal K_d entries (x, y, z) placed

    A = [[a,  z,  y*],
         [z*, b,  x ],
         [y,  x*, c ]]

so Hermitian symmetry is structural.  Entries may carry polynomial
coordinates, which is how the cubic-form constructors obtain exact
coefficient tensors.

``tracefree_basis`` and ``fullspace_basis`` return lists of trace-form-
orthogonal matrices that all share one squared length.  Uniformity is
what makes the pulled-back cubics satisfy their differential identities
in standard Euclidean coordinates; it forces sqrt(3) into some
coordinates (d=2 trace-free, and the normalized diagonal direction for
d=4,8), which QSqrt3 keeps exact.  The polarization of det comes only
doubled (``det_polar_twice``) and the product doubled as well
(``jordan_twice``): both keep integer coordinates integral.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .composition import (CDElement, cd_conj, cd_inner, cd_mul, cd_norm,
                          re_triple)
from .scalars import QSqrt3, cleared, denominator

HERM_DIMS = (1, 2, 4, 8)


class HermMat3:
    __slots__ = ("d", "diag", "off")

    def __init__(self, d: int, diag, off):
        if d not in HERM_DIMS:
            raise ValueError(f"base algebra dimension must be one of {HERM_DIMS}")
        diag = tuple(diag)
        off = tuple(off)
        if len(diag) != 3 or len(off) != 3:
            raise ValueError("need 3 diagonal scalars and 3 off-diagonal entries")
        for o in off:
            if not isinstance(o, CDElement) or o.d != d:
                raise ValueError("off-diagonal entries must be CDElements over K_d")
        self.d = d
        self.diag = diag
        self.off = off

    @classmethod
    def zero(cls, d: int) -> "HermMat3":
        z = CDElement.zero(d)
        return cls(d, (0, 0, 0), (z, z, z))

    @classmethod
    def diagonal(cls, d: int, a, b, c) -> "HermMat3":
        z = CDElement.zero(d)
        return cls(d, (a, b, c), (z, z, z))

    @classmethod
    def off_entry(cls, d: int, pos: int, value: CDElement) -> "HermMat3":
        off = [CDElement.zero(d)] * 3
        off[pos] = value
        return cls(d, (0, 0, 0), tuple(off))

    def __add__(self, other):
        _chk(self, other)
        return HermMat3(self.d,
                        tuple(a + b for a, b in zip(self.diag, other.diag)),
                        tuple(a + b for a, b in zip(self.off, other.off)))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HermMat3(self.d, tuple(-a for a in self.diag),
                        tuple(-a for a in self.off))

    def scale(self, t) -> "HermMat3":
        return HermMat3(self.d, tuple(t * a for a in self.diag),
                        tuple(t * o for o in self.off))

    def matrix(self):
        """Full 3x3 layout as CDElements (for the associative product)."""
        d = self.d
        a, b, c = (CDElement.scalar(d, t) for t in self.diag)
        x, y, z = self.off
        return [[a, z, cd_conj(y)],
                [cd_conj(z), b, x],
                [y, cd_conj(x), c]]

    def __eq__(self, other):
        if isinstance(other, HermMat3):
            return (self.d == other.d and
                    all(a == b for a, b in zip(self.diag, other.diag)) and
                    all(a == b for a, b in zip(self.off, other.off)))
        return NotImplemented

    def __repr__(self):
        return f"HermMat3(d={self.d}, diag={self.diag}, off={self.off})"


def _chk(a: HermMat3, b: HermMat3):
    if a.d != b.d:
        raise ValueError(f"base dimension mismatch: {a.d} vs {b.d}")


def jordan_twice(A: HermMat3, B: HermMat3) -> HermMat3:
    """2 A o B = AB + BA, which keeps integer coordinates integral."""
    _chk(A, B)
    MA, MB = A.matrix(), B.matrix()
    ent = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            s = CDElement.zero(A.d)
            for k in range(3):
                s = s + cd_mul(MA[i][k], MB[k][j]) + cd_mul(MB[i][k], MA[k][j])
            ent[i][j] = s
    diag = tuple(ent[i][i].coeffs[0] for i in range(3))
    # the symmetrized product has real diagonal; anything else is a bug
    for i in range(3):
        for c in ent[i][i].coeffs[1:]:
            if c:
                raise AssertionError("Jordan product produced a non-real diagonal")
    off = (ent[1][2], cd_conj(ent[0][2]), ent[0][1])
    return HermMat3(A.d, diag, off)


def trace_form(A: HermMat3, B: HermMat3):
    """<A, B> = trace(A o B), expanded entrywise for speed."""
    _chk(A, B)
    s = A.diag[0] * B.diag[0] + A.diag[1] * B.diag[1] + A.diag[2] * B.diag[2]
    for x, y in zip(A.off, B.off):
        s = s + 2 * cd_inner(x, y)
    return s


def freudenthal_det(A: HermMat3):
    """det A = abc - a n(x) - b n(y) - c n(z) + 2 re(xyz)."""
    a, b, c = A.diag
    x, y, z = A.off
    return (a * b * c - a * cd_norm(x) - b * cd_norm(y) - c * cd_norm(z)
            + 2 * re_triple(x, y, z))


def det_polar_twice(A: HermMat3, W: HermMat3, det_w):
    """2 D det(A)[W] = det(A + W) - det(A - W) - 2 det(W), integral on integer
    coordinates; det(W) comes from the caller, which may need it too."""
    return freudenthal_det(A + W) - freudenthal_det(A - W) - 2 * det_w


def involution(A: HermMat3) -> HermMat3:
    """Doubling involution applied entrywise: negate coordinates
    e_{d/2}..e_{d-1} of each off-diagonal entry, fix the rest.

    For d = 2 this is entrywise conjugation.  For d = 4, 8 it fixes the
    K_{d/2} part instead; entrywise full conjugation is not an algebra
    automorphism there and its cubic fails the radial verifier.
    """
    d = A.d
    if d == 1:
        return A
    h = d // 2

    def s(v: CDElement) -> CDElement:
        return CDElement(d, v.coeffs[:h] + tuple(-c for c in v.coeffs[h:]))

    return HermMat3(d, A.diag, tuple(s(o) for o in A.off))


_THIRD = Fraction(1, 3)
_S3_OVER_3 = QSqrt3(0, _THIRD)   # sqrt(3)/3 = 1/sqrt(3)


def tracefree_basis(d: int) -> list:
    """Orthogonal basis of {A : trace A = 0}, all of one squared length:
    6 for d=1 and 2 otherwise, as unit trace-form length is not reachable
    without irrational scale.
    """
    if d not in HERM_DIMS:
        raise ValueError(f"d must be one of {HERM_DIMS}")
    if d == 1:
        one = CDElement.one(1)

        def mk(p, q, a, b, c):
            off = (one * a, one * b, one * c)
            return HermMat3(1, (p, q, -p - q), off)

        mats = [mk(1, 1, 0, 0, 0),
                mk(1, -1, 1, 1, 0),
                mk(0, 0, 1, -1, 1),
                mk(1, -1, 0, -1, -1),
                mk(1, -1, -1, 0, 1)]
        return mats
    if d == 2:
        # rational-Gram basis twisted through omega = sqrt(3) e1, n(omega) = 3
        w3 = CDElement(2, (0, _S3_OVER_3))       # omega / 3
        e0 = CDElement.one(2)
        zz = CDElement.zero(2)
        mats = [
            HermMat3.off_entry(2, 0, e0),
            HermMat3.off_entry(2, 1, e0),
            HermMat3.off_entry(2, 2, e0),
            HermMat3(2, (0, 0, 0), (w3, w3, w3)),
            HermMat3.diagonal(2, 1, -1, 0),
            HermMat3(2, (_THIRD, _THIRD, -2 * _THIRD), (w3, -w3, zz)),
            HermMat3(2, (_THIRD, _THIRD, -2 * _THIRD), (zz, w3, -w3)),
            HermMat3(2, (-_THIRD, -_THIRD, 2 * _THIRD), (w3, zz, -w3)),
        ]
        return mats
    # d = 4, 8: two diagonal directions plus off-diagonal units
    s = _S3_OVER_3
    mats = [HermMat3.diagonal(d, 1, -1, 0),
            HermMat3.diagonal(d, s, s, -2 * s)]
    for pos in range(3):
        for m in range(d):
            mats.append(HermMat3.off_entry(d, pos, CDElement.basis(d, m)))
    return mats


def fullspace_basis(d: int) -> list:
    """Orthonormal (Gram = I) basis of all of H3(K_d), d >= 2.

    Off-diagonal units have squared length 2, so they are combined in
    pairs (e_m + e_{m+1})/2, (e_m - e_{m+1})/2 of length 1.
    """
    if d not in (2, 4, 8):
        raise ValueError("Gram-identity full basis exists for d in (2, 4, 8)")
    half = Fraction(1, 2)
    mats = [HermMat3.diagonal(d, 1, 0, 0),
            HermMat3.diagonal(d, 0, 1, 0),
            HermMat3.diagonal(d, 0, 0, 1)]
    for pos in range(3):
        for m in range(0, d, 2):
            p = (CDElement.basis(d, m) + CDElement.basis(d, m + 1)) * half
            q = (CDElement.basis(d, m) - CDElement.basis(d, m + 1)) * half
            mats.append(HermMat3.off_entry(d, pos, p))
            mats.append(HermMat3.off_entry(d, pos, q))
    return mats


def common_denominator(mats) -> int:
    """The least positive integer k with which ``cleared`` takes every
    coordinate of every matrix in ``mats`` to an int or a QSqrt3 of ints."""
    return math.lcm(*(denominator(x) for A in mats
                      for x in A.diag + sum((o.coeffs for o in A.off), ())))
