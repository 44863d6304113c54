"""Real composition algebras K_d (d = 1, 2, 4, 8) by Cayley-Dickson doubling.

The doubling convention is (a, b)(c, d) = (ac - d*b, da + bc*) where * is
conjugation; with it e1*e2 = e3 reproduces the usual quaternion table.
Coordinates may be any exact scalar, and also polynomials: the constructors
in :mod:`eigencubic.cubics` multiply octonions whose coordinates are
symbolic linear forms.
"""

from __future__ import annotations

DIMS = (1, 2, 4, 8)


class CDElement:
    """Element of K_d in the standard basis e0 = 1, e1, ..., e_{d-1}."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs):
        if d not in DIMS:
            raise ValueError(f"dimension must be one of {DIMS}, got {d}")
        coeffs = tuple(coeffs)
        if len(coeffs) != d:
            raise ValueError(f"expected {d} coordinates, got {len(coeffs)}")
        self.d = d
        self.coeffs = coeffs

    @classmethod
    def zero(cls, d: int) -> "CDElement":
        return cls(d, (0,) * d)

    @classmethod
    def one(cls, d: int) -> "CDElement":
        return cls(d, (1,) + (0,) * (d - 1))

    @classmethod
    def basis(cls, d: int, m: int) -> "CDElement":
        if not 0 <= m < d:
            raise ValueError(f"basis index {m} out of range for d={d}")
        return cls(d, tuple(1 if i == m else 0 for i in range(d)))

    @classmethod
    def scalar(cls, d: int, c) -> "CDElement":
        return cls(d, (c,) + (0,) * (d - 1))

    def __eq__(self, other):
        if isinstance(other, CDElement):
            return self.d == other.d and all(
                a == b for a, b in zip(self.coeffs, other.coeffs))
        return NotImplemented

    def __hash__(self):
        return hash((self.d, self.coeffs))

    def __add__(self, other):
        _check(self, other)
        return CDElement(self.d, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        _check(self, other)
        return CDElement(self.d, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CDElement(self.d, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, CDElement):
            return cd_mul(self, other)
        return CDElement(self.d, tuple(a * other for a in self.coeffs))

    def __rmul__(self, other):
        return CDElement(self.d, tuple(other * a for a in self.coeffs))

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __repr__(self):
        return f"CDElement(d={self.d}, {list(self.coeffs)})"


def _check(a: CDElement, b: CDElement):
    if not isinstance(a, CDElement) or not isinstance(b, CDElement):
        raise TypeError("expected CDElement operands")
    if a.d != b.d:
        raise ValueError(f"dimension mismatch: {a.d} vs {b.d}")


def _mul_rec(a: tuple, b: tuple) -> tuple:
    d = len(a)
    if d == 1:
        return (a[0] * b[0],)
    h = d // 2
    a1, a2 = a[:h], a[h:]
    b1, b2 = b[:h], b[h:]
    cb2 = _conj_rec(b2)
    cb1 = _conj_rec(b1)
    left = tuple(p - q for p, q in zip(_mul_rec(a1, b1), _mul_rec(cb2, a2)))
    right = tuple(p + q for p, q in zip(_mul_rec(b2, a1), _mul_rec(a2, cb1)))
    return left + right


def _conj_rec(a: tuple) -> tuple:
    if len(a) == 1:
        return a
    return (a[0],) + tuple(-c for c in a[1:])


def cd_mul(a: CDElement, b: CDElement) -> CDElement:
    """Cayley-Dickson product; bilinear and norm-multiplicative.  A zero
    operand gives zero at once (half the products of a Jordan square)."""
    _check(a, b)
    if a.is_zero() or b.is_zero():
        return CDElement.zero(a.d)
    return CDElement(a.d, _mul_rec(a.coeffs, b.coeffs))


def cd_conj(a: CDElement) -> CDElement:
    """Conjugation: fixes e0, negates the imaginary coordinates."""
    return CDElement(a.d, _conj_rec(a.coeffs))


def cd_norm(a: CDElement):
    """n(a) = sum of squared coordinates; n(ab) = n(a) n(b)."""
    return cd_inner(a, a)


def cd_inner(a: CDElement, b: CDElement):
    """Euclidean pairing of coordinates; equals re(a * conj(b))."""
    _check(a, b)
    total = 0
    for x, y in zip(a.coeffs, b.coeffs):
        total = total + x * y
    return total


def re_mul(a: CDElement, b: CDElement):
    """re(a*b) without forming the product: a0 b0 - sum_{m>=1} a_m b_m."""
    _check(a, b)
    total = a.coeffs[0] * b.coeffs[0]
    for x, y in zip(a.coeffs[1:], b.coeffs[1:]):
        total = total - x * y
    return total


def re_triple(a: CDElement, b: CDElement, c: CDElement):
    """re((ab)c); well defined without brackets by trace associativity."""
    return re_mul(cd_mul(a, b), c)
