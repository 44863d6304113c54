"""Exact scalar arithmetic: rationals and the quadratic extension Q(sqrt(3)).

Most of the workbench runs on plain ``fractions.Fraction``.  A handful of
constructions (the larger Hermitian-matrix cubics) need a square root of 3
in their coordinates; ``QSqrt3`` carries a + b*sqrt(3) with exact rational
components so those paths stay exact as well.  Mixed arithmetic with int
and Fraction works through the reflected operators.

A component given as an ``int`` stays an ``int`` through addition and
multiplication, which keeps the integer-cleared kernels on Python int
arithmetic; it becomes a ``Fraction`` only on division.

``QSqrt3Array`` is the same field on whole arrays: r + sqrt(3)*s held as
two arrays, so the kernel of a Q(sqrt3) form does each array operation
once per channel and makes no QSqrt3 per entry.  Its ``join`` gives the
entries as QSqrt3 where a result leaves the kernel.  Its channels may
also be the int64 residue stacks of ``modular``, which states their
bounds.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

SQRT3_FLOAT = 3.0 ** 0.5

_RAT = (int, Fraction)
_set = object.__setattr__


class QSqrt3:
    """a + b*sqrt(3) with exact rational a, b (int or Fraction)."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        # an int or Fraction channel is kept as given
        _set(self, "a", a if type(a) is int or type(a) is Fraction else Fraction(a))
        _set(self, "b", b if type(b) is int or type(b) is Fraction else Fraction(b))

    def __setattr__(self, *_):
        raise AttributeError("QSqrt3 is immutable")

    # -- arithmetic ---------------------------------------------------
    def __add__(self, other):
        if isinstance(other, QSqrt3):
            return QSqrt3(self.a + other.a, self.b + other.b)
        if isinstance(other, _RAT):
            return QSqrt3(self.a + other, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return QSqrt3(-self.a, -self.b)

    def __sub__(self, other):
        if isinstance(other, QSqrt3):
            return QSqrt3(self.a - other.a, self.b - other.b)
        if isinstance(other, _RAT):
            return QSqrt3(self.a - other, self.b)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _RAT):
            return QSqrt3(other - self.a, -self.b)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, QSqrt3):
            return QSqrt3(self.a * other.a + 3 * self.b * other.b,
                          self.a * other.b + self.b * other.a)
        if isinstance(other, _RAT):
            return QSqrt3(self.a * other, self.b * other)
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        d = self.a * self.a - 3 * self.b * self.b
        return QSqrt3(exact_div(self.a, d), exact_div(-self.b, d))

    def __truediv__(self, other):
        if isinstance(other, QSqrt3):
            return self * other.inverse()
        if isinstance(other, _RAT):
            return QSqrt3(exact_div(self.a, other), exact_div(self.b, other))
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _RAT):
            return self.inverse() * other
        return NotImplemented

    # -- comparisons / hashing ----------------------------------------
    def __eq__(self, other):
        if isinstance(other, QSqrt3):
            return self.a == other.a and self.b == other.b
        if isinstance(other, _RAT):
            return self.b == 0 and self.a == other
        if isinstance(other, float):
            return float(self) == other
        return NotImplemented

    def __hash__(self):
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b))

    def __bool__(self):
        return bool(self.a) or bool(self.b)

    def sign(self):
        """Exact sign of a + b*sqrt(3)."""
        if self.b == 0:
            return -1 if self.a < 0 else (1 if self.a > 0 else 0)
        if self.a == 0:
            return -1 if self.b < 0 else 1
        # sign(a + b*sqrt3): compare a^2 with 3 b^2 keeping track of signs
        if self.a > 0 and self.b > 0:
            return 1
        if self.a < 0 and self.b < 0:
            return -1
        lhs = self.a * self.a
        rhs = 3 * self.b * self.b
        if self.a > 0:  # b < 0
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return -1 if lhs > rhs else (1 if lhs < rhs else 0)

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __float__(self):
        return float(self.a) + float(self.b) * SQRT3_FLOAT

    def __repr__(self):
        if self.b == 0:
            return f"QSqrt3({self.a})"
        return f"QSqrt3({self.a}, {self.b})"


def _coerce(x):
    if isinstance(x, QSqrt3):
        return x
    return QSqrt3(x)


SQRT3 = QSqrt3(0, 1)


class QSqrt3Array:
    """r + sqrt(3)*s for two same-shape arrays r, s, or two scalars, of
    exact entries: Python ints, Fractions or ``Poly`` objects; or for two
    ``modular.ResidueStack``s, the random mode's pieces.

    +, -, * and @ take another pair, a plain array or a scalar (a QSqrt3
    one too) on either side, and run as numpy operations on the channels:
    (r + sqrt3 s)(r' + sqrt3 s') = r r' + 3 s s' + sqrt3 (r s' + s r').
    numpy hands every binary operator with a pair operand to the pair.
    ``sum`` and ``trace`` call each channel's own.
    ``join`` gives each entry as one scalar, and ``==`` compares joined.
    """

    __slots__ = ("r", "s")
    __array_ufunc__ = None

    def __init__(self, r, s):
        self.r = r
        self.s = s

    def __add__(self, other):
        other = _as_pair(other)
        if isinstance(other, QSqrt3Array):
            return QSqrt3Array(self.r + other.r, self.s + other.s)
        return QSqrt3Array(self.r + other, self.s)

    __radd__ = __add__

    def __neg__(self):
        return QSqrt3Array(-self.r, -self.s)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return other + -self

    def __mul__(self, other):
        other = _as_pair(other)
        if isinstance(other, QSqrt3Array):
            return QSqrt3Array(self.r * other.r + 3 * (self.s * other.s),
                               self.r * other.s + self.s * other.r)
        return QSqrt3Array(self.r * other, self.s * other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, QSqrt3Array):
            return QSqrt3Array(
                self.r @ other.r + 3 * (self.s @ other.s),
                self.r @ other.s + self.s @ other.r)
        return QSqrt3Array(self.r @ other, self.s @ other)

    def __rmatmul__(self, other):
        return QSqrt3Array(other @ self.r, other @ self.s)

    def sum(self):
        return QSqrt3Array(self.r.sum(), self.s.sum())

    def trace(self):
        return QSqrt3Array(self.r.trace(), self.s.trace())

    def join(self):
        """The entries r + s*SQRT3, each r itself where s is 0: an object
        array, or one scalar for scalar channels."""
        return _join(self.r, self.s)

    def __eq__(self, other):
        return self.join() == joined(other)

    def __repr__(self):
        return f"QSqrt3Array({self.r!r}, {self.s!r})"


def _as_pair(x):
    """A QSqrt3 scalar as a pair of its components; anything else as it is."""
    return QSqrt3Array(x.a, x.b) if isinstance(x, QSqrt3) else x


_join = np.frompyfunc(lambda r, s: r + s * SQRT3 if s else r, 2, 1)


def joined(x):
    """x with a ``QSqrt3Array`` joined; anything else as it is."""
    return x.join() if isinstance(x, QSqrt3Array) else x


def per_channel(f, x):
    """f on each channel of a ``QSqrt3Array``, paired again; f(x) on
    anything else."""
    return QSqrt3Array(f(x.r), f(x.s)) if isinstance(x, QSqrt3Array) else f(x)


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, QSqrt3))


def exact_div(a, b):
    """a / b staying exact for int, Fraction and QSqrt3 inputs; a quotient
    with no sqrt(3) part comes back rational."""
    if isinstance(a, QSqrt3) or isinstance(b, QSqrt3):
        q = _coerce(a) / _coerce(b)
        return q.a if q.b == 0 else q
    return Fraction(a) / Fraction(b)


def format_rational(num, den=1) -> str:
    """Canonical string for the rational num / den: '-8', '3/4', ..."""
    return str(Fraction(num, den))


# the spelling format_rational writes, in ASCII digits only
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?").fullmatch


def parse_rational(x) -> tuple:
    """x as a reduced pair of ints (p, q), q > 0: a string in
    ``format_rational``'s spelling read with two ``int``s and a gcd, an
    int, Fraction or float as its own ``as_integer_ratio``, already in
    lowest terms (a float as the binary fraction it is), and anything else
    as ``Fraction`` reads it, so a string in any spelling ``Fraction``
    takes.  A zero denominator and an infinite float are ValueErrors, as
    is every string ``Fraction`` refuses."""
    # strings first: the form files' coefficients, which a test for the
    # numbers ahead of them would slow down
    m = _CANONICAL(x) if isinstance(x, str) else None
    try:
        if m:
            p, q = int(m[1]), int(m[2] or 1)
            g = math.gcd(p, q) if q else 0      # q = 0: the ZeroDivisionError below
            return p // g, q // g
        return (x if isinstance(x, (int, float, Fraction)) else Fraction(x)).as_integer_ratio()
    except (ZeroDivisionError, OverflowError) as exc:
        # "1/0" and an infinite float name no rational, as "abc" does not
        raise ValueError(str(exc) if isinstance(exc, OverflowError)
                         else f"zero denominator in {x!r}") from None
