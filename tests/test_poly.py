from fractions import Fraction

import numpy as np
import pytest

from eigencubic.poly import Poly


def x(n, i):
    return Poly.var(n, i)


def test_binomial_identity_is_zero():
    a, b = x(2, 0), x(2, 1)
    p = (a + b) * (a + b) - a * a - 2 * a * b - b * b
    assert p.is_zero()


def test_nonzero_has_witness():
    p = x(2, 0) - x(2, 1)
    assert not p.is_zero()
    assert p.eval([1, 0]) == 1


def test_derivative_and_eval():
    n = 3
    p = x(n, 0) * (x(n, 1) * x(n, 1) - x(n, 2) * x(n, 2))
    assert p.eval([1, 2, 1]) == 3
    assert p.diff(0) == x(n, 1) * x(n, 1) - x(n, 2) * x(n, 2)
    assert p.diff(1) == 2 * x(n, 0) * x(n, 1)


def test_scalar_ring_ops():
    p = Poly.const(2, Fraction(1, 2)) + x(2, 0)
    q = p * 2 - 1
    assert q == 2 * x(2, 0)
    assert (p - p).is_zero()
    assert (p * Poly.zero(2)).is_zero()


def test_eval_length_checked():
    with pytest.raises(ValueError):
        x(3, 0).eval([1, 2])


def test_monomial_is_its_sorted_variable_indices():
    # x0^2 x3 is keyed (0, 0, 3), as CubicForm.terms keys a cubic monomial
    p = Poly.var(4, 0) * Poly.var(4, 0) * Poly.var(4, 3)
    assert p.terms == {(0, 0, 3): 1}
    assert p.diff(0).terms == {(0, 3): 2}
    assert p.diff(1).is_zero()
    assert Poly.const(4, 5).terms == {(): 5}


@pytest.mark.parametrize("op", [lambda p, a: p + a, lambda p, a: p * a])
def test_array_operand_is_entrywise_in_both_orders(op):
    # a numpy array on either side gives the array of entrywise results
    p = x(2, 0) + 1
    arr = np.array([0, 2, Fraction(1, 3)], dtype=object)
    want = [op(p, v) for v in arr]
    for got in (op(p, arr), op(arr, p)):
        assert isinstance(got, np.ndarray) and got.shape == arr.shape
        assert list(got) == want


def test_sum_stores_no_cancelled_coefficient():
    p = 2 * x(3, 0) * x(3, 1) - x(3, 2) + Fraction(1, 3)
    assert (p + (-p)).terms == {} and (-p + p).terms == {}
    # x2 cancels, the constants partly: nothing zero is stored
    q = p + (x(3, 2) - Fraction(1, 3) + 5)
    assert q.terms == {(0, 1): 2, (): 5}
    assert all(q.terms.values())


def test_empty_operand_still_checks_the_variable_count():
    p = x(3, 0) + 1
    for m in (2, 4):
        for f in (lambda: p + Poly.zero(m), lambda: Poly.zero(m) + p,
                  lambda: p * Poly.zero(m), lambda: Poly.zero(m) * p):
            with pytest.raises(ValueError, match="variable count mismatch"):
                f()
    assert p + Poly.zero(3) == p and Poly.zero(3) + p == p
    assert (p * Poly.zero(3)).terms == {} and (Poly.zero(3) * p).terms == {}


def test_sum_keeps_the_left_operands_monomials_first():
    # the order CubicForm.terms, the JSON text and the float sums inherit
    p = x(3, 2) * x(3, 2) + x(3, 0) + 1
    q = x(3, 1) - 1 + x(3, 0) + x(3, 2) * x(3, 0)
    assert list((p + q).terms) == [(2, 2), (0,), (1,), (0, 2)]
    assert list((q + p).terms) == [(1,), (0,), (0, 2), (2, 2)]
