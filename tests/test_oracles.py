"""Independent-oracle cross-checks.

These tests validate the polynomial engine and the verifiers against
implementations that share no code with them: sympy expansion for the
differential identities, numpy determinants for the matrix models of
the 9- and 18-variable forms, and the algebra/calculus consistency
L_x = D^2 u(x).
"""

import random
from fractions import Fraction

import numpy as np
import pytest
import sympy

from eigencubic.composition import CDElement, cd_mul
from eigencubic.cubics import catalog_build, complexified_cubic, involution_cubic
from eigencubic.identities import check_eiconal, check_radial
from eigencubic.scalars import joined
from formref import hessian, to_poly
from polyref import evaluate


def _to_sympy(u):
    xs = sympy.symbols(f"x0:{u.n}")
    expr = sympy.Integer(0)
    for (i, j, k), c in u.terms.items():
        expr += sympy.Rational(c) * xs[i] * xs[j] * xs[k]
    return expr, xs


@pytest.mark.parametrize("name", ["clifford-q0", "clifford-q1", "cartan-d1",
                                  "involution-d2"])
def test_radial_identity_via_sympy(name):
    u = catalog_build(name)
    theta = check_radial(u, "exact").constant
    expr, xs = _to_sympy(u)
    grad = [sympy.diff(expr, v) for v in xs]
    G = sum(g * g for g in grad)
    lap = sum(sympy.diff(expr, v, 2) for v in xs)
    r2 = sum(v * v for v in xs)
    residual = G * lap - sympy.Rational(1, 2) * sum(
        g * sympy.diff(G, v) for g, v in zip(grad, xs)) \
        - sympy.Rational(theta) * r2 * expr
    assert sympy.expand(residual) == 0


def test_eiconal_identity_via_sympy():
    u = catalog_build("cartan-d1")
    kappa = check_eiconal(u, "exact").constant
    assert kappa == 9
    expr, xs = _to_sympy(u)
    G = sum(sympy.diff(expr, v) ** 2 for v in xs)
    r2 = sum(v * v for v in xs)
    assert sympy.expand(G - sympy.Rational(kappa) * r2 * r2) == 0


def test_mult_operator_is_hessian():
    # L_x = D^2 u(x): the two contract different tensor slots, so their
    # agreement checks the symmetrization
    rng = random.Random(0)
    for name in ("clifford-q2", "cartan-d2", "involution-d2"):
        u = catalog_build(name)
        jet = u.jet(exact=True)
        hess = hessian(u)
        for _ in range(4):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(u.n)]
            L = joined(jet.hessian(np.array(x, dtype=object)))
            assert L.tolist() == [[jet.scale * evaluate(h, x) for h in row]
                                  for row in hess]


def test_octonion_table_structure():
    # the imaginary units close along the 7 Fano lines, products are
    # antisymmetric, and each line is cyclically oriented; the property
    # tests (norm composition, alternativity) carry the rest
    table = {}
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            prod = cd_mul(CDElement.basis(8, i), CDElement.basis(8, j))
            (k,) = [m for m, c in enumerate(prod.coeffs) if c]
            table[(i, j)] = (k, int(prod.coeffs[k]))
    lines = {frozenset((i, j, k)) for (i, j), (k, s) in table.items()}
    assert lines == {frozenset(t) for t in
                     ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6),
                      (2, 5, 7), (3, 4, 7), (3, 5, 6))}
    for (i, j), (k, s) in table.items():
        assert table[(j, i)] == (k, -s)
        # cyclic orientation: e_i e_j = s e_k implies e_j e_k = s e_i
        assert table[(j, k)] == (i, s)
    assert table[(1, 2)] == (3, 1)  # quaternion subalgebra orientation


def test_involution_d2_is_matrix_determinant():
    # under the pair-coordinate map the 9-variable form is half the
    # determinant of a plain real 3x3 matrix: the off pairs
    # (e0 +- e1)/2 land on the (j,k) and (k,j) entries
    u = involution_cubic(2)
    rng = random.Random(1)
    for _ in range(20):
        x = [Fraction(rng.randint(-9, 9)) for _ in range(9)]
        d1, d2, d3 = x[0], x[1], x[2]
        xp, xm, yp, ym, zp, zm = x[3:]
        M = np.array([[d1, zp, ym],
                      [zm, d2, xp],
                      [yp, xm, d3]], dtype=float)
        assert 2 * float(evaluate(to_poly(u), x)) == pytest.approx(np.linalg.det(M),
                                                         abs=1e-6)


def test_complexified_d2_is_re_det_complex():
    # H3(K_2) x C is the full complex 3x3 matrix algebra; the form is
    # Re det of A + iB assembled from the two coordinate blocks
    u = complexified_cubic(2)
    rng = random.Random(2)

    def herm(coords):
        d1, d2, d3, xp, xm, yp, ym, zp, zm = coords
        cx = complex(xp + xm, xp - xm) / 2
        cy = complex(yp + ym, yp - ym) / 2
        cz = complex(zp + zm, zp - zm) / 2
        return np.array([[d1, cz, np.conj(cy)],
                         [np.conj(cz), d2, cx],
                         [cy, np.conj(cx), d3]])

    for _ in range(20):
        x = [rng.randint(-9, 9) for _ in range(18)]
        M = herm(x[:9]) + 1j * herm(x[9:])
        want = np.linalg.det(M).real
        assert float(evaluate(to_poly(u), [Fraction(v) for v in x])) == \
            pytest.approx(want, abs=1e-5)
