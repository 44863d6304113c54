"""Residue arithmetic: the residue primes, the int64 reduction and CRT.

Every modular computation of the workbench runs here.  The Schwartz-Zippel
sides of ``identities`` are evaluated on int64 ``ResidueStack``s modulo
2**64 and the primes of ``moduli``, and ``lift`` joins each side's
residues by CRT to the Python int one point gives alone.  The
multiplication rank of ``algebra`` maps a residue jet to F_p by
``_at_root`` and row-reduces it there (``_rank_mod_p``).  Both take their
primes from one sequence, ``primes``: the primes p = 11 (mod 12) below
PRIME_TOP, largest first, where sqrt3 has a root, each found by the strong
probable-prime test at the bases 2, 3, 5 and 7, which no composite below
3,215,031,751 passes.  One spelling reduces
an int64 array modulo q, ``mod``.  The overflow bounds of all of these are
stated once, beside PRIME_TOP.
"""

from __future__ import annotations

import itertools

import numpy as np

from .scalars import QSqrt3Array, per_channel

# Every residue prime p is below PRIME_TOP, and the int64 bounds follow:
# - two residues multiply to less than 2**54, and MAX_DIM = 128 such
#   products, the longest sum a per-point @ makes, stay below 2**61;
# - a Hessian entry modulo p sums at most 2n + 4 <= 260 products below
#   2**54 (a diagonal one on a dense form), and 260 * 2**54 < 2**63;
# - a gradient entry modulo p at a point with |x_a| <= 9 sums at most
#   2**21 products below 81 * 2**27 (the rotations, n <= MAX_DIM), so it
#   is below 2**55;
# - t (s mod p) of ``_at_root`` and each elimination product of
#   ``_rank_mod_p`` are below 2**54;
# - ``mod`` is exact for every int64 x at every 0 < q < 2**62.
PRIME_TOP = 2 ** 27
_PRIMES: list = []


def primes():
    """The residue primes, largest first: the primes p = 11 (mod 12)
    below PRIME_TOP, each found once per process and kept in _PRIMES.
    The candidates p = PRIME_TOP - 9, p - 12, ... are = 11 (mod 12), and p
    is kept if a**((p-1)/2) = +-1 (mod p) for a = 2, 3, 5 and 7.  As
    p - 1 = 2d with d odd, that is the strong probable-prime test, which
    no composite below 3,215,031,751 passes at these four bases
    (Pomerance, Selfridge and Wagstaff 1980; Jaeschke 1993).  3 is a
    square modulo each p and p = 3 (mod 4), so sqrt3 has the root
    3**((p+1)/4) there (``_at_root``); the first is 134217467."""
    for i in itertools.count():
        if len(_PRIMES) <= i:
            p = (_PRIMES[-1] if _PRIMES else PRIME_TOP + 3) - 12
            while not all(pow(a, p // 2, p) in (1, p - 1) for a in (2, 3, 5, 7)):
                p -= 12
            _PRIMES.append(p)
        yield _PRIMES[i]


def moduli(bound: int) -> tuple:
    """The fewest residue primes, largest first, whose product M with
    2**64 exceeds 2 * bound: an integer of magnitude at most ``bound`` is
    then the one of -M/2 < x < M/2 with its residues."""
    out, M, seq = [], 2 ** 64, primes()
    while 2 * bound >= M:
        out.append(next(seq))
        M *= out[-1]
    return tuple(out)


def mod(x, q: int, out=None):
    """x modulo q in [0, q), for an int64 array x and 0 < q < 2**62, into
    ``out`` (which may be x) if given: x - (x // q) q by numpy's floor
    division by a scalar, several times faster than % on a block.  The
    product (x // q) q may wrap, but the difference is exact.  The product
    is formed in place in x // q, the one array mod makes, and so is the
    difference unless ``out`` is given."""
    k = x // q
    k *= q
    return np.subtract(x, k, out=k if out is None else out)


def residues(m: np.ndarray, q: int) -> np.ndarray:
    """The object array m of Python ints as int64 residues modulo q, or
    modulo 2**64, each the int64 it wraps to, if q = 0."""
    return (m % (q or 2 ** 64)).astype(np.uint64).view(np.int64)


def inverse(a: int, q: int) -> int:
    """a**-1 modulo q, or for q = 0 modulo 2**64 (a odd) as the int64 it
    wraps to, the int a ``ResidueStack`` of modulus q multiplies by."""
    return pow(a, -1, q) if q else (pow(a, -1, 2 ** 64) + 2 ** 63) % 2 ** 64 - 2 ** 63


class ResidueStack:
    """int64 residues modulo q of a stack of points, one per index of the
    first axis: a number (B,), vector (B, n) or matrix (B, n, n) each.
    q = 0 is the array's own arithmetic: int64's wrapping, exact modulo
    2**64, or numpy's rounding on float64, each point's @, ``sum`` and
    ``trace`` the single point's bits.  A residue prime q reduces each
    result into [0, q) in place (``mod``), so no sum reaches 2**63 (the
    bounds beside PRIME_TOP) and no second result is held beside it.
    +, - and * take a stack of the same q, whose fewer axes hold one entry
    per point, or an int in int64's range; @ is each point's vector or
    matrix product, ``sum`` and ``trace`` each point's.  No result drops
    the point axis, so none is a numpy scalar, whose overflow would warn."""

    __slots__ = ("x", "q")
    __array_ufunc__ = None

    def __init__(self, x: np.ndarray, q: int):
        self.x, self.q = (mod(x, q) if q else x), q

    def _fresh(self, x: np.ndarray) -> "ResidueStack":
        """x, the new array an operation on this stack made, reduced in
        place into a stack of the same q, so no second array of its size
        is held beside it."""
        out = object.__new__(ResidueStack)
        out.x, out.q = (mod(x, self.q, out=x) if self.q else x), self.q
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


def _stack(x, q: int):
    """A piece's int64 array, or the pair of them, as ``ResidueStack``s."""
    return per_channel(lambda a: ResidueStack(a, q), x)


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


def _at_root(x, p: int) -> np.ndarray:
    """The residues in [0, p) of a residue jet's int64 piece x modulo a
    residue prime p, with r + sqrt3 s of a pair mapped to r + t s:
    t = 3**((p+1)/4) squares to 3 (``primes``)."""
    if not isinstance(x, QSqrt3Array):
        return mod(x, p)
    return mod(mod(x.r, p) + pow(3, (p + 1) // 4, p) * mod(x.s, p), p)


def _rank_mod_p(G: np.ndarray, p: int) -> int:
    """The rank modulo the residue prime p of the int64 matrix G of
    residues in [0, p), by row reduction in place: each column in turn
    takes the first row below the pivots that is nonzero there as its
    pivot, scaled to 1, and clears the column below it; a column with no
    such row is skipped."""
    rank = 0
    for k in range(G.shape[1]):
        nz = rank + np.flatnonzero(G[rank:, k])
        if nz.size:
            G[[rank, nz[0]]] = G[[nz[0], rank]]
            G[rank, k:] = mod(G[rank, k:] * pow(int(G[rank, k]), -1, p), p)
            G[rank + 1:, k:] = mod(G[rank + 1:, k:] - G[rank + 1:, k, None] * G[rank, k:], p)
            rank += 1
    return rank
