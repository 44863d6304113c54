"""Exact changes of variables for the invariance tests: rational Cayley
rotations and the exact composition of a form with a linear map."""

from fractions import Fraction

from eigencubic.cubics import CubicForm
from eigencubic.poly import Poly


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
    """u o Q through u(Q x) with x the Poly variables; exact when u and Q
    are."""
    n = u.n
    qx = [sum((Poly.var(n, j) * Q[i][j] for j in range(n) if Q[i][j]),
              Poly.zero(n)) for i in range(n)]
    return CubicForm.from_poly(u.to_poly().eval(qx))


def skew(n, entries):
    """The n x n skew matrix with ``entries`` above the diagonal, row by row."""
    S = [[Fraction(0)] * n for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for (i, j), v in zip(pairs, entries):
        S[i][j], S[j][i] = v, -v
    return S
