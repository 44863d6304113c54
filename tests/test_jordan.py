import random
from fractions import Fraction

import pytest

from eigencubic.composition import CDElement
from eigencubic.jordan import (HermMat3, det_polar_twice, freudenthal_det,
                               fullspace_basis, involution, jordan_twice,
                               trace_form, tracefree_basis)

DIMS = (1, 2, 4, 8)


def jordan_mul(A, B):
    """The Jordan product A o B = (AB + BA)/2, from the package's doubled
    one; Hermitian for every d, including octonions."""
    return jordan_twice(A, B).scale(Fraction(1, 2))


def random_herm(d, rng, bound=6):
    diag = tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
                 for _ in range(3))
    off = tuple(CDElement(d, tuple(Fraction(rng.randint(-bound, bound),
                                            rng.randint(1, 4)) for _ in range(d)))
                for _ in range(3))
    return HermMat3(d, diag, off)


def test_orthogonal_idempotents_multiply_to_zero():
    for d in DIMS:
        E1 = HermMat3.diagonal(d, 1, 0, 0)
        E2 = HermMat3.diagonal(d, 0, 1, 0)
        assert jordan_mul(E1, E2) == HermMat3.zero(d)
        assert jordan_mul(E1, E1) == E1


def test_unit_element():
    rng = random.Random(0)
    for d in DIMS:
        I = HermMat3.diagonal(d, 1, 1, 1)
        for _ in range(5):
            A = random_herm(d, rng)
            assert jordan_mul(I, A) == A


def test_jordan_identity_octonions():
    # A^2 o (A o B) = A o (A^2 o B), exactly, even over the octonions
    rng = random.Random(1)
    for _ in range(6):
        A = random_herm(8, rng, 3)
        B = random_herm(8, rng, 3)
        A2 = jordan_mul(A, A)
        lhs = jordan_mul(A2, jordan_mul(A, B))
        rhs = jordan_mul(A, jordan_mul(A2, B))
        assert lhs == rhs


def test_trace_form_values():
    for d in DIMS:
        I = HermMat3.diagonal(d, 1, 1, 1)
        assert trace_form(I, I) == 3
        E11 = HermMat3.diagonal(d, 1, 0, 0)
        assert trace_form(E11, E11) == 1


def _exact_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    sign = 1
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += sign * rows[0][j] * _exact_det(minor)
        sign = -sign
    return total


def test_trace_form_positive_definite():
    # Gram matrix of random elements has positive leading minors
    rng = random.Random(2)
    for d in (1, 2):
        elems = [random_herm(d, rng, 4) for _ in range(5)]
        G = [[trace_form(a, b) for b in elems] for a in elems]
        for k in range(1, 6):
            minor = [row[:k] for row in G[:k]]
            assert _exact_det(minor) > 0


def test_freudenthal_det_diagonal():
    for d in DIMS:
        A = HermMat3.diagonal(d, 2, 3, Fraction(-1, 2))
        assert freudenthal_det(A) == -3


def test_freudenthal_det_all_ones_singular():
    one = CDElement.one(1)
    A = HermMat3(1, (1, 1, 1), (one, one, one))
    assert freudenthal_det(A) == 0


def test_freudenthal_matches_classical_det():
    rng = random.Random(3)
    for _ in range(20):
        A = random_herm(1, rng)
        a, b, c = A.diag
        x = A.off[0].coeffs[0]
        y = A.off[1].coeffs[0]
        z = A.off[2].coeffs[0]
        rows = [[a, z, y], [z, b, x], [y, x, c]]
        assert freudenthal_det(A) == _exact_det(rows)


def test_det_polar_is_directional_derivative():
    rng = random.Random(4)
    A = random_herm(2, rng)
    W = random_herm(2, rng)
    t = Fraction(1, 7)
    # det(A + tW) - det(A) = t DN(A)[W] + t^2 DN(W)[A] + t^3 det(W), doubled
    # as det_polar_twice gives 2 DN(A)[W]
    det_a, det_w = freudenthal_det(A), freudenthal_det(W)
    lhs = 2 * freudenthal_det(A + W.scale(t))
    rhs = (2 * det_a + t * det_polar_twice(A, W, det_w)
           + t * t * det_polar_twice(W, A, det_a) + 2 * t ** 3 * det_w)
    assert lhs == rhs


def test_tracefree_basis_counts_and_orthogonality():
    expected = {1: 5, 2: 8, 4: 14, 8: 26}
    for d in DIMS:
        basis = tracefree_basis(d)
        assert len(basis) == expected[d]
        for m in basis:
            assert m.trace() == 0
        length_sq = trace_form(basis[0], basis[0])
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                want = length_sq if i == j else 0
                assert trace_form(a, b) == want


def test_tracefree_basis_scale_factors_recorded():
    # the common squared length, which the Gram test above holds for
    # every vector
    for d, want in ((1, 6), (2, 2), (4, 2), (8, 2)):
        basis = tracefree_basis(d)
        assert trace_form(basis[0], basis[0]) == want


def test_fullspace_basis_orthonormal():
    for d in (2, 4, 8):
        basis = fullspace_basis(d)
        assert len(basis) == 3 + 3 * d
        length_sq = trace_form(basis[0], basis[0])
        assert length_sq == 1
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                assert trace_form(a, b) == (length_sq if i == j else 0)
    with pytest.raises(ValueError):
        fullspace_basis(1)


def test_involution():
    A = HermMat3.diagonal(2, 1, 2, 3)
    assert involution(A) == A
    B = HermMat3.off_entry(2, 0, CDElement.basis(2, 1))
    assert involution(B) == HermMat3.off_entry(2, 0, -CDElement.basis(2, 1))
    rng = random.Random(5)
    for d in DIMS:
        for _ in range(5):
            M = random_herm(d, rng)
            assert involution(involution(M)) == M


def test_involution_is_isometry_and_automorphism():
    rng = random.Random(6)
    for d in (2, 4, 8):
        for _ in range(5):
            A = random_herm(d, rng, 3)
            B = random_herm(d, rng, 3)
            assert trace_form(involution(A), involution(B)) == trace_form(A, B)
            assert jordan_mul(involution(A), involution(B)) == \
                involution(jordan_mul(A, B))


def test_weak_associativity_of_trace_form():
    rng = random.Random(7)
    for d in DIMS:
        for _ in range(6):
            A = random_herm(d, rng, 3)
            B = random_herm(d, rng, 3)
            C = random_herm(d, rng, 3)
            assert trace_form(jordan_mul(A, B), C) == trace_form(A, jordan_mul(B, C))


def test_cayley_hamilton_crosscheck():
    # trace-free A: <A, A o A> = 3 det A
    rng = random.Random(8)
    for d in DIMS:
        for _ in range(6):
            A = random_herm(d, rng, 3)
            t = A.trace()
            A = A - HermMat3.diagonal(d, t / 3, t / 3, t / 3)
            assert trace_form(A, jordan_mul(A, A)) == 3 * freudenthal_det(A)


def test_dimension_mismatch():
    with pytest.raises(ValueError):
        jordan_mul(HermMat3.diagonal(2, 1, 1, 1), HermMat3.diagonal(4, 1, 1, 1))
    with pytest.raises(ValueError):
        trace_form(HermMat3.diagonal(2, 1, 1, 1), HermMat3.diagonal(8, 1, 1, 1))
