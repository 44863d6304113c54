import random
from fractions import Fraction

import pytest

from eigencubic.composition import (CDElement, cd_conj, cd_inner, cd_mul,
                                    cd_norm, re_triple)


def random_element(d, rng):
    """Element of K_d with small rational coordinates."""
    return CDElement(d, tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                              for _ in range(d)))


def test_quaternion_table():
    e1 = CDElement.basis(4, 1)
    e2 = CDElement.basis(4, 2)
    assert cd_mul(e1, e2) == CDElement.basis(4, 3)
    assert cd_mul(e2, e1) == -CDElement.basis(4, 3)


def test_complex_product():
    a = CDElement(2, (1, 1))
    b = CDElement(2, (1, -1))
    assert cd_mul(a, b) == CDElement(2, (2, 0))


def test_octonions_not_associative():
    # exhaustive scan of imaginary basis triples must find an associator
    found = []
    for i in range(1, 8):
        for j in range(1, 8):
            for k in range(1, 8):
                a, b, c = (CDElement.basis(8, m) for m in (i, j, k))
                if cd_mul(cd_mul(a, b), c) != cd_mul(a, cd_mul(b, c)):
                    found.append((i, j, k))
    assert found, "all octonion basis triples associated"


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        cd_mul(CDElement.one(2), CDElement.one(4))


def test_conjugation():
    a = CDElement(2, (1, 1))
    assert cd_conj(a) == CDElement(2, (1, -1))
    r = CDElement.scalar(4, 5)
    assert cd_conj(r) == r
    rng = random.Random(0)
    for _ in range(20):
        a = random_element(8, rng)
        b = random_element(8, rng)
        assert cd_conj(cd_conj(a)) == a
        assert cd_conj(cd_mul(a, b)) == cd_mul(cd_conj(b), cd_conj(a))


def test_re_im():
    a = CDElement(8, (3, 0, 0, 0, 0, 2, 0, 0))
    assert a.coeffs[0] == 3
    # e1 e2 = e3 inside a quaternionic subalgebra, so re((e1 e2) e3) = re(e3 e3) = -1
    e1, e2, e3 = (CDElement.basis(8, m) for m in (1, 2, 3))
    assert cd_mul(e1, e2) == e3
    assert cd_mul(cd_mul(e1, e2), e3).coeffs[0] == -1


def test_norm_composition():
    rng = random.Random(1)
    for d in (1, 2, 4, 8):
        for _ in range(25):
            a = random_element(d, rng)
            b = random_element(d, rng)
            assert cd_norm(cd_mul(a, b)) == cd_norm(a) * cd_norm(b)


def test_alternativity_d8():
    rng = random.Random(2)
    for _ in range(25):
        a = random_element(8, rng)
        b = random_element(8, rng)
        aa = cd_mul(a, a)
        bb = cd_mul(b, b)
        assert cd_mul(aa, b) == cd_mul(a, cd_mul(a, b))
        assert cd_mul(cd_mul(a, b), b) == cd_mul(a, bb)


def test_trace_associativity_d8():
    # re((ab)c) = re(a(bc)) is what makes re(w1 w2 w3) well defined
    rng = random.Random(3)
    for _ in range(25):
        a = random_element(8, rng)
        b = random_element(8, rng)
        c = random_element(8, rng)
        assert cd_mul(cd_mul(a, b), c).coeffs[0] == cd_mul(a, cd_mul(b, c)).coeffs[0]
        assert re_triple(a, b, c) == cd_mul(cd_mul(a, b), c).coeffs[0]


def test_small_dimensions_associative():
    rng = random.Random(4)
    for d in (1, 2, 4):
        for _ in range(25):
            a = random_element(d, rng)
            b = random_element(d, rng)
            c = random_element(d, rng)
            assert cd_mul(cd_mul(a, b), c) == cd_mul(a, cd_mul(b, c))


def test_inner_matches_re_conj():
    rng = random.Random(5)
    for _ in range(10):
        a = random_element(8, rng)
        b = random_element(8, rng)
        assert cd_inner(a, b) == cd_mul(a, cd_conj(b)).coeffs[0]


def test_norm_positivity():
    rng = random.Random(6)
    for _ in range(10):
        a = random_element(8, rng)
        n = cd_norm(a)
        assert n >= 0
        assert (n == 0) == a.is_zero()
    assert cd_norm(CDElement.zero(4)) == 0


def test_coefficient_count_enforced():
    with pytest.raises(ValueError):
        CDElement(4, (1, 2, 3))
    with pytest.raises(ValueError):
        CDElement(3, (1, 2, 3))
