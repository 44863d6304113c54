import random
from fractions import Fraction

import pytest

from eigencubic.poly import Poly, find_witness, random_zero


def x(n, i):
    return Poly.var(n, i)


def test_binomial_identity_is_zero():
    a, b = x(2, 0), x(2, 1)
    p = (a + b) ** 2 - a * a - 2 * a * b - b * b
    assert p.is_zero()


def test_nonzero_has_witness():
    p = x(2, 0) - x(2, 1)
    assert not p.is_zero()
    ok, _, witness = random_zero(p, trials=20, bound=100, seed=0)
    assert not ok and witness is not None
    assert p.eval(witness) != 0


def test_derivative_and_eval():
    n = 3
    p = x(n, 0) * (x(n, 1) ** 2 - x(n, 2) ** 2)
    assert p.eval([1, 2, 1]) == 3
    assert p.diff(0) == x(n, 1) ** 2 - x(n, 2) ** 2
    assert p.diff(1) == 2 * x(n, 0) * x(n, 1)
    assert p.degree() == 3


def test_scalar_ring_ops():
    p = Poly.const(2, Fraction(1, 2)) + x(2, 0)
    q = p * 2 - 1
    assert q == 2 * x(2, 0)
    assert (p - p).is_zero()
    assert (p * Poly.zero(2)).is_zero()


def _random_poly(rng, nvars, degree, terms):
    p = Poly.zero(nvars)
    for _ in range(terms):
        mono = Poly.const(nvars, Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, degree)):
            mono = mono * x(nvars, rng.randrange(nvars))
        p = p + mono
    return p


def test_random_zero_agrees_with_exact_zero():
    rng = random.Random(7)
    agree = 0
    for trial in range(100):
        nvars = rng.randint(1, 8)
        p = _random_poly(rng, nvars, 5, rng.randint(1, 6))
        if rng.random() < 0.3:
            p = p - p  # force an exactly-zero instance
        verdict, _, _ = random_zero(p, trials=20, bound=10 ** 6, seed=trial)
        assert verdict == p.is_zero()
        agree += 1
    assert agree == 100


def test_error_bound_reported():
    p = _random_poly(random.Random(1), 4, 5, 5)
    p = p - p
    verdict, bound, _ = random_zero(p, trials=20, bound=10 ** 6, seed=0)
    assert verdict
    assert bound <= (5 / 10 ** 6) ** 20 or bound == 0.0


def test_bound_must_exceed_degree():
    p = x(2, 0) ** 5
    with pytest.raises(ValueError):
        random_zero(p, trials=5, bound=5, seed=0)


def test_find_witness():
    p = x(3, 2) ** 2
    w = find_witness(p, seed=0)
    assert w is not None and p.eval(w) != 0
    assert find_witness(Poly.zero(3)) is None


def test_eval_length_checked():
    with pytest.raises(ValueError):
        x(3, 0).eval([1, 2])
