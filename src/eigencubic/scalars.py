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
entries as QSqrt3 where a result leaves the kernel.

``ResidueStack`` holds int64 residues of a stack of points modulo 2**64
or a prime (or, with q = 0, float64 values under numpy's own rounding),
and acts on each point's own axes, so a formula for one point runs on a
block; ``lift`` joins a number's residues by CRT.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

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
    ``poly.PolyArray``s, the exact mode's pieces; or for two
    ``ResidueStack``s, the random mode's.

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


# Two residues below 2**27 multiply to less than 2**54, and MAX_DIM = 128
# such products, the longest sum a per-point @ makes, stay below 2**61.
PRIME_TOP = 2 ** 27


class ResidueStack:
    """int64 residues modulo q of a stack of points, one per index of the
    first axis: a number (B,), vector (B, n) or matrix (B, n, n) each.
    q = 0 is the array's own arithmetic: int64's wrapping, exact modulo
    2**64, or numpy's rounding on float64, each point's @, ``sum`` and
    ``trace`` the single point's bits.  An odd prime q < PRIME_TOP
    reduces each result into [0, q) in place, so no sum reaches 2**63
    and no copy of a result is held beside it.  +, - and *
    take a stack of the same q, whose fewer axes hold one entry per
    point, or an int in int64's range; @ is each point's vector or matrix
    product, ``sum`` and ``trace`` each point's.  No result drops the
    point axis, so none is a numpy scalar, whose overflow would warn."""

    __slots__ = ("x", "q")
    __array_ufunc__ = None

    def __init__(self, x: np.ndarray, q: int):
        self.x, self.q = (x % q if q else x), q

    def _fresh(self, x: np.ndarray) -> "ResidueStack":
        """x, the new array an operation on this stack made, reduced in
        place into a stack of the same q, so no second array of its size
        is held beside it."""
        out = object.__new__(ResidueStack)
        out.x, out.q = (np.remainder(x, self.q, out=x) if self.q else x), self.q
        return out

    def _with(self, other, op):
        if isinstance(other, int):
            return self._fresh(op(self.x, other % self.q if self.q else other))
        if not isinstance(other, ResidueStack):
            return NotImplemented
        x, y = self.x, other.x
        return self._fresh(op(x.reshape(x.shape + (1,) * (y.ndim - x.ndim)),
                              y.reshape(y.shape + (1,) * (x.ndim - y.ndim))))

    def __add__(self, other):
        return self._with(other, np.add)

    def __mul__(self, other):
        return self._with(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return self._fresh(-self.x)

    def __sub__(self, other):
        return self + -other

    def __matmul__(self, other):
        if not isinstance(other, ResidueStack):
            return NotImplemented
        a, b = self.x, other.x
        out = (a[:, None] if a.ndim == 2 else a) @ (b[..., None] if b.ndim == 2 else b)
        out = out[..., 0] if b.ndim == 2 else out
        return self._fresh(out[:, 0] if a.ndim == 2 else out)

    def sum(self):
        return self._fresh(self.x.reshape(len(self.x), -1).sum(axis=1))

    def trace(self):
        return self._fresh(np.trace(self.x, axis1=1, axis2=2))


# The numbers below PRIME_TOP sieved at once: the first window holds 227
# primes, far more than any catalog check takes.
SIEVE_WINDOW = 1 << 12


@lru_cache(maxsize=None)
def _window(w: int) -> tuple:
    """The odd primes of [hi - SIEVE_WINDOW, hi), hi = PRIME_TOP - w *
    SIEVE_WINDOW, largest first, from one sieve: each odd prime d up to
    sqrt(PRIME_TOP) strikes its multiples from max(d*d, the first >= lo)."""
    top = math.isqrt(PRIME_TOP)
    odd = np.ones(top + 1, dtype=bool)
    odd[:2] = odd[2::2] = False
    for d in range(3, math.isqrt(top) + 1, 2):
        odd[d * d::2 * d] = False
    d = np.flatnonzero(odd)
    hi = PRIME_TOP - w * SIEVE_WINDOW
    lo = hi - SIEVE_WINDOW
    first = np.maximum(d * d, -(-lo // d) * d)
    counts = np.maximum(0, -(-(hi - first) // d))
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    composite = np.zeros(SIEVE_WINDOW, dtype=bool)
    composite[np.repeat(first - lo, counts) + np.repeat(d, counts) * k] = True
    cand = np.arange(hi - 1, lo, -2)        # hi is even
    return tuple(cand[~composite[cand - lo]].tolist())


def _prime(i: int) -> int:
    """The (i + 1)-th largest odd prime below PRIME_TOP."""
    w = 0
    while i >= len(_window(w)):
        i -= len(_window(w))
        w += 1
    return _window(w)[i]


def moduli(bound: int) -> tuple:
    """The fewest primes below PRIME_TOP, largest first, whose product M
    with 2**64 exceeds 2 * bound: an integer of magnitude at most
    ``bound`` is then the one of -M/2 < x < M/2 with its residues."""
    out, M = [], 2 ** 64
    while 2 * bound >= M:
        out.append(_prime(len(out)))
        M *= out[-1]
    return tuple(out)


def lift(channels) -> np.ndarray:
    """The object array of the integers -M/2 < x < M/2 with the residues
    of ``channels``, stacks of one shape modulo 2**64 and then modulo the
    primes of ``moduli``, M their product (Garner's method); for
    ``QSqrt3Array`` pairs of stacks, each channel lifted and joined."""
    if isinstance(channels[0], QSqrt3Array):
        return QSqrt3Array(lift([c.r for c in channels]),
                           lift([c.s for c in channels])).join()
    x, M = channels[0].x.astype(object) % 2 ** 64, 2 ** 64
    for c in channels[1:]:
        x = x + M * ((c.x.astype(object) - x) * pow(M, -1, c.q) % c.q)
        M *= c.q
    return np.where(2 * x >= M, x - M, x)


def _as_pair(x):
    """A QSqrt3 scalar as a pair of its components; anything else as it is."""
    return QSqrt3Array(x.a, x.b) if isinstance(x, QSqrt3) else x


_join = np.frompyfunc(lambda r, s: r + s * SQRT3 if s else r, 2, 1)


def joined(x):
    """x with a ``QSqrt3Array`` joined; anything else as it is."""
    return x.join() if isinstance(x, QSqrt3Array) else x


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, QSqrt3))


def exact_div(a, b):
    """a / b staying exact for int, Fraction and QSqrt3 inputs; a quotient
    with no sqrt(3) part comes back rational."""
    if isinstance(a, QSqrt3) or isinstance(b, QSqrt3):
        q = _coerce(a) / _coerce(b)
        return q.a if q.b == 0 else q
    return Fraction(a) / Fraction(b)


def format_rational(x) -> str:
    """Canonical string for a rational scalar: '-8', '3/4', ..."""
    return str(Fraction(x))


def parse_rational(s: str) -> Fraction:
    try:
        return Fraction(s)
    except ZeroDivisionError:       # "1/0" names no rational, as "abc" does not
        raise ValueError(f"zero denominator in {s!r}") from None
