"""Changes of variables for the invariance tests: rational Cayley
rotations, the exact composition of a form with a rational map, and the
Poly substitution for float forms and maps."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement, permutations

import numpy as np

from eigencubic.cubics import CubicForm
from eigencubic.poly import Poly
from eigencubic.scalars import QSqrt3
from formref import to_poly
from polyref import evaluate


def _rational_inverse(M):
    """Gauss-Jordan inverse of a square matrix of Fractions."""
    n = len(M)
    A = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for col in range(n):
        piv = next(r for r in range(col, n) if A[r][col] != 0)
        A[col], A[piv] = A[piv], A[col]
        inv = 1 / A[col][col]
        A[col] = [v * inv for v in A[col]]
        for r in range(n):
            if r != col and A[r][col] != 0:
                f = A[r][col]
                A[r] = [a - f * b for a, b in zip(A[r], A[col])]
    return [row[n:] for row in A]


def cayley_rotation(S):
    """The rational orthogonal matrix Q = (I - S)(I + S)^-1 of a skew S."""
    n = len(S)
    eye = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    minus = [[eye[i][j] - S[i][j] for j in range(n)] for i in range(n)]
    inv = _rational_inverse([[eye[i][j] + S[i][j] for j in range(n)]
                             for i in range(n)])
    return [[sum(minus[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def rotate_exact(u, Q):
    """u o Q, u(Q x), for an exact form u and a rational matrix Q.

    On each sqrt(3) channel of u, 6 D times its symmetric tensor (D
    clearing u's denominators) is an integer tensor, and d Q an integer
    matrix (d clearing Q's denominators), so the three contractions with
    Q run on Python ints.  The coefficient of x_p x_q x_r, p <= q <= r,
    is its count of distinct orderings times the contracted entry, over
    6 D d^3.  Float inputs go through ``rotate_by_substitution``.
    """
    assert u.is_exact_form, "rotate_exact takes an exact form"
    assert all(isinstance(q, (int, Fraction)) for row in Q for q in row), \
        "rotate_exact takes a rational matrix"
    n = u.n
    parts = {k: (c.a, c.b) if isinstance(c, QSqrt3) else (c, 0) for k, c in u.terms.items()}
    D = math.lcm(*(Fraction(x).denominator for ch in parts.values() for x in ch))
    d = math.lcm(*(Fraction(q).denominator for row in Q for q in row))
    Qd = np.array([[int(q * d) for q in row] for row in Q], dtype=object)
    channels = []
    for ch in (0, 1):
        T = np.zeros((n, n, n), dtype=object)
        for key, part in parts.items():
            perms = set(permutations(key))
            entry = Fraction(part[ch]) * D * 6 / len(perms)
            assert entry.denominator == 1
            for idx in perms:
                T[idx] = int(entry)
        for _ in range(3):
            T = np.tensordot(T, Qd, axes=([0], [0]))
        channels.append(T)
    den = 6 * D * d ** 3
    terms = {}
    for key in combinations_with_replacement(range(n), 3):
        a, b = (Fraction(len(set(permutations(key))) * T[key], den) for T in channels)
        terms[key] = QSqrt3(a, b) if b else a
    return CubicForm(n, terms)


def rotate_by_substitution(u, Q):
    """u(Q x) by substituting the linear Polys (Q x)_i into u's Poly: any
    form and matrix, float ones included, whose coefficients stay floats."""
    n = u.n
    qx = [sum((Poly.var(n, j) * Q[i][j] for j in range(n) if Q[i][j]), Poly.zero(n))
          for i in range(n)]
    return CubicForm.from_poly(evaluate(to_poly(u), qx))


def skew(n, entries):
    """The n x n skew matrix with ``entries`` above the diagonal, row by row."""
    S = [[Fraction(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(pairs, entries):
        S[i][j], S[j][i] = v, -v
    return S
