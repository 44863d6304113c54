import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from eigencubic import modular, scalars
from eigencubic.cubics import catalog_build
from eigencubic.identities import CheckReport
from eigencubic.poly import Poly, PolyArray
from eigencubic.modular import PRIME_TOP, ResidueStack, lift, moduli
from eigencubic.scalars import (QSqrt3, QSqrt3Array, SQRT3, format_rational, is_exact,
                                joined, parse_rational)
from polyref import joined_terms, to_polys


def rand_q3(rng, bound=9):
    return QSqrt3(Fraction(rng.randint(-bound, bound), rng.randint(1, 4)),
                  Fraction(rng.randint(-bound, bound), rng.randint(1, 4)))


def test_sqrt3_squares_to_three():
    assert SQRT3 * SQRT3 == 3
    assert float(SQRT3) == pytest.approx(math.sqrt(3))


def test_field_axioms_sampled():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = (rand_q3(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a and a * b == b * a
        if a:
            assert a * a.inverse() == 1
            assert (b / a) * a == b


def test_mixed_arithmetic_with_rationals():
    x = QSqrt3(Fraction(1, 2), 2)
    assert x + 1 == QSqrt3(Fraction(3, 2), 2)
    assert 1 + x == x + 1
    assert 3 * x == QSqrt3(Fraction(3, 2), 6)
    assert x - Fraction(1, 2) == QSqrt3(0, 2)
    assert Fraction(1, 2) - x == QSqrt3(0, -2)
    assert x / 2 == QSqrt3(Fraction(1, 4), 1)
    assert (2 / QSqrt3(0, 1)) * SQRT3 == 2


def test_exact_sign_matches_float():
    rng = random.Random(1)
    for _ in range(200):
        x = rand_q3(rng)
        f = float(x)
        if abs(f) > 1e-12:
            assert x.sign() == (1 if f > 0 else -1)
    assert QSqrt3(0, 0).sign() == 0
    # cases where the two components fight: 4 sqrt3 = 6.928 < 7
    assert QSqrt3(-7, 4).sign() == -1
    assert QSqrt3(7, -4).sign() == 1


def test_sign_tight_cases():
    # continued-fraction convergents: 71/41 sits a hair under sqrt(3),
    # 97/56 a hair over
    assert QSqrt3(Fraction(-71, 41), 1).sign() == 1
    assert QSqrt3(Fraction(-97, 56), 1).sign() == -1
    assert (QSqrt3(Fraction(-71, 41), 1) > 0) is True
    assert abs(QSqrt3(Fraction(-71, 41), 1)) == QSqrt3(Fraction(-71, 41), 1)
    assert abs(QSqrt3(Fraction(97, 56), -1)) == QSqrt3(Fraction(97, 56), -1)


def test_comparisons():
    assert QSqrt3(0, 1) > 1
    assert QSqrt3(0, 1) < 2
    assert QSqrt3(2, 0) >= 2 and QSqrt3(2, 0) <= 2
    assert sorted([QSqrt3(0, 1), QSqrt3(1, 0), QSqrt3(2, 0)]) == \
        [QSqrt3(1, 0), QSqrt3(0, 1), QSqrt3(2, 0)]


def test_equality_and_hash_against_rationals():
    assert QSqrt3(Fraction(1, 2), 0) == Fraction(1, 2)
    assert hash(QSqrt3(Fraction(1, 2), 0)) == hash(Fraction(1, 2))
    assert QSqrt3(1, 0) == 1 and hash(QSqrt3(1, 0)) == hash(1)
    assert QSqrt3(2, 0) == 2 == Fraction(2)
    assert hash(QSqrt3(2, 0)) == hash(2) == hash(Fraction(2))
    assert QSqrt3(1, 1) != 1
    d = {QSqrt3(3, 0): "a"}
    assert d[Fraction(3)] == "a"
    # int and Fraction channels of one value are the same value
    x, y = QSqrt3(1, -2), QSqrt3(Fraction(1), Fraction(-2))
    assert x == y and hash(x) == hash(y) and repr(x) == repr(y)


def test_int_channels_stay_int_until_division():
    x = QSqrt3(3, -2)
    for y in (x, x * x, x + 1, x - SQRT3, 2 * x, -x, x * x * x, abs(x)):
        assert type(y.a) is int and type(y.b) is int
    D = 18
    for y in (x.inverse(), x / 2, 1 / SQRT3, x / (D * D), x / Fraction(2, 3),
              x / SQRT3, Fraction(1, 2) * x):
        assert type(y.a) is Fraction and type(y.b) is Fraction
    assert x / 2 == QSqrt3(Fraction(3, 2), -1)
    assert 1 / SQRT3 == QSqrt3(0, Fraction(1, 3))
    assert x * x.inverse() == 1


def test_sqrt3_constant_json_is_unchanged():
    # a constant's JSON does not depend on whether its channels are ints
    for t in (QSqrt3(3, -2), QSqrt3(Fraction(3), Fraction(-2))):
        assert CheckReport("radial", True, t).to_json_dict()["constant"] == \
            {"rational": "3", "sqrt3": "-2"}
    t = QSqrt3(3, -2) / (6 * 6)
    assert CheckReport("radial", True, t).to_json_dict()["constant"] == \
        {"rational": "1/12", "sqrt3": "-1/18"}


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        QSqrt3(1, 1) / 0
    with pytest.raises(ZeroDivisionError):
        QSqrt3(0, 0).inverse()


def test_truthiness():
    assert not QSqrt3(0, 0)
    assert QSqrt3(0, 1) and QSqrt3(1, 0)


def test_immutability():
    x = QSqrt3(1, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(5)


def test_is_exact():
    assert is_exact(Fraction(1, 2)) and is_exact(7) and is_exact(SQRT3)
    assert not is_exact(0.5)


# strings Fraction reads or refuses: "p/q" in any sign, reduced or not and
# with a zero denominator, signs, spaces, decimals, bounded exponents,
# underscores and non-ASCII digits (the regex \d draws from every Nd
# digit), and any text
_RATIONAL_TEXT = st.one_of(
    st.builds("{}/{}".format, st.integers(-10 ** 30, 10 ** 30), st.integers(0, 10 ** 30)),
    st.integers(-10 ** 40, 10 ** 40).map(str),
    st.from_regex(r"\s{0,2}[+-]?\d{0,20}(_\d{1,3}){0,2}(\.\d{0,8})?([eE][+-]?\d{1,3})?\s{0,2}",
                  fullmatch=True),
    st.from_regex(r"\s{0,2}[+-]?\d{1,20}(_\d{1,3})?\s{0,2}/\s{0,2}\d{1,20}\s{0,2}",
                  fullmatch=True),
    st.text(max_size=12))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_RATIONAL_TEXT)
@example("6/4")
@example("-0")
@example("+3")
@example(" 3/4 ")
@example("1.25e-3")
@example("1_000")
@example("\u0663/\u0664")
@example("1/0")
@example("0/0")
@example("")
def test_parse_rational_reads_a_string_as_fraction_does(text):
    # the pair is Fraction(text)'s numerator and denominator, a ValueError
    # comes exactly where Fraction raises, and the fast branch takes ASCII
    # digits only
    assert not scalars._CANONICAL(text) or text.isascii()
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(ValueError):
            parse_rational(text)
        return
    assert parse_rational(text) == (want.numerator, want.denominator)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_parse_rational_refuses_a_float_that_is_no_rational(x):
    with pytest.raises(ValueError, match="cannot convert"):
        parse_rational(x)


def test_rational_string_round_trip():
    for v in (Fraction(-8), Fraction(3, 4), Fraction(0)):
        assert parse_rational(format_rational(v)) == (v.numerator, v.denominator)
    assert format_rational(Fraction(-8)) == "-8"
    assert format_rational(Fraction(6, 8)) == "3/4"


# -- QSqrt3Array: Q(sqrt3) on whole arrays, against QSqrt3 entry by entry ----

def _ints(rng, *shape, zero=False):
    return np.array([0 if zero else rng.randint(-9, 9)
                     for _ in range(math.prod(shape))], dtype=object).reshape(shape)


def _entries(pair):
    """The pair's entries, each one QSqrt3."""
    return np.frompyfunc(QSqrt3, 2, 1)(pair.r, pair.s)


def _same(got, want):
    # equal entry by entry, got's a joined array of the same shape
    got = joined(got)
    assert np.shape(got) == np.shape(want)
    assert np.all(np.asarray(got == want, dtype=bool))


@pytest.mark.parametrize("zero_s", [False, True], ids=["s", "zero-s"])
def test_pair_operations_match_qsqrt3_entrywise(zero_s):
    rng = random.Random(13)
    A = QSqrt3Array(_ints(rng, 4, 4), _ints(rng, 4, 4, zero=zero_s))
    B = QSqrt3Array(_ints(rng, 4, 4), _ints(rng, 4, 4))
    v = QSqrt3Array(_ints(rng, 4), _ints(rng, 4, zero=zero_s))
    a, b, w = _entries(A), _entries(B), _entries(v)
    for got, want in [(A + B, a + b), (A - B, a - b), (A * B, a * b),
                      (A @ B, a @ b), (A @ v, a @ w), (v @ A, w @ a),
                      (-A, -a), (A * v, a * w)]:
        _same(got, want)
    _same(v @ v, w @ w)
    _same(A.trace(), np.trace(a))
    _same(A.sum(), a.sum())
    _same((A * B).sum(), (a * b).sum())


def test_pair_with_plain_arrays_and_scalars_in_both_orders():
    rng = random.Random(14)
    A = QSqrt3Array(_ints(rng, 3, 3), _ints(rng, 3, 3))
    M, x = _ints(rng, 3, 3), _ints(rng, 3)
    a = _entries(A)
    for got, want in [(A + M, a + M), (M + A, M + a), (A - M, a - M),
                      (M - A, M - a), (A * M, a * M), (M * A, M * a),
                      (A @ M, a @ M), (M @ A, M @ a), (A @ x, a @ x),
                      (x @ A, x @ a)]:
        assert isinstance(got, QSqrt3Array)
        _same(got, want)
    for t in (3, Fraction(-2, 5), QSqrt3(1, -2), QSqrt3(Fraction(1, 3), 0)):
        for got, want in [(A + t, a + t), (t + A, t + a), (A - t, a - t),
                          (t - A, t - a), (A * t, a * t), (t * A, t * a)]:
            assert isinstance(got, QSqrt3Array)
            _same(got, want)


def test_pair_join_is_rational_where_s_is_zero():
    assert type(QSqrt3Array(3, 0).join()) is int
    half = QSqrt3Array(Fraction(1, 2), 0).join()
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert QSqrt3Array(3, -2).join() == QSqrt3(3, -2)
    got = QSqrt3Array(np.array([1, 2], dtype=object),
                      np.array([0, 5], dtype=object)).join()
    assert [type(e) for e in got] == [int, QSqrt3]
    assert got.tolist() == [1, QSqrt3(2, 5)]
    assert joined(7) == 7 and joined(got) is got
    assert QSqrt3Array(3, -2) == QSqrt3(3, -2) and QSqrt3Array(3, 0) == 3


def test_pair_of_poly_arrays():
    # pairs of Poly arrays, each channel a Poly operation; a Poly on
    # either side leaves the arithmetic to the pair
    n = 3
    x = np.array([Poly.var(n, i) for i in range(n)], dtype=object)
    P = QSqrt3Array(x, x[::-1] * 2)
    p = x + x[::-1] * 2 * SQRT3
    r2 = x @ x
    for got, want in [(P @ P, p @ p), (P * P, p * p), (r2 * P, p * r2),
                      (P * r2, p * r2), (P - r2, p - r2), (r2 - P, -p + r2),
                      ((P * P).sum(), (p * p).sum())]:
        _same(got, want)
    assert isinstance(r2 * (P @ P), QSqrt3Array)


# -- ResidueStack: int64 residues per point, lifted by CRT -----------------------

def _residues(x, q):
    """The Python ints of x as the ResidueStack of their residues modulo q
    (modulo 2**64, as int64, for q = 0)."""
    r = [v % (q or 2 ** 64) for v in np.ravel(x).tolist()]
    return ResidueStack(np.array(r, dtype=np.uint64).view(np.int64).reshape(np.shape(x)), q)


def _stacks(x, bound):
    """x's stacks modulo 2**64 and each prime of ``moduli(bound)``."""
    return [_residues(x, q) for q in (0,) + moduli(bound)]


def _extreme(rows, cols, top, rng):
    """A rows x cols object matrix of Python ints in [-top, top] whose
    first row is all -top."""
    m = _ints(rng, rows, cols)
    m[0] = -top
    m[1:] *= top // 9
    return m


# 2**63 - 1 = 7 * 21870289 * 60247241209 and 2**63 = 8 * 2**30 * 2**30;
# a's first row times b's first column reaches k * max|a| * max|b| exactly,
# and a's first dimension differs from k
@pytest.mark.parametrize("k, top_a, top_b, primes", [
    (7, 21870289, 60247241209, 0), (8, 2 ** 30, 2 ** 30, 1)],
    ids=["2**63-1", "2**63"])
def test_matmul_int64_bound_is_exact_at_the_edge(k, top_a, top_b, primes):
    # two points' products: a bound of 2**63 - 1 = M/2 - 1 (M = 2**64)
    # keeps the int64 channel alone, 2**63 adds one prime, and both lift
    # to the Python-int products
    rng = random.Random(15)
    a = np.stack([_extreme(3, k, top_a, rng) for _ in range(2)])
    b = np.stack([_extreme(2, k, top_b, rng).T for _ in range(2)])
    bound = k * top_a * top_b
    assert bound == 2 ** 63 - 1 + primes and len(moduli(bound)) == primes
    want = a @ b
    assert want[0, 0, 0] == want[1, 0, 0] == bound
    got = lift([x @ y for x, y in zip(_stacks(a, bound), _stacks(b, bound))])
    assert got.dtype == object and got.tolist() == want.tolist()
    assert {type(v) for v in got.ravel()} == {int}


@pytest.mark.parametrize("k", range(4))
def test_moduli_take_one_more_prime_at_half_their_product(k):
    # M = 2**64 times the first k primes: a bound of M/2 - 1 takes k primes,
    # M/2 takes k + 1, and +-(M/2 - 1) lift exactly from their residues
    primes = moduli(2 ** 300)
    assert list(primes) == sorted(set(primes), reverse=True)
    assert all(p < PRIME_TOP and p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))
               for p in primes)
    M = 2 ** 64 * math.prod(primes[:k])
    assert moduli(M // 2 - 1) == primes[:k]
    assert moduli(M // 2) == primes[:k + 1]
    edge = np.array([M // 2 - 1, -(M // 2 - 1), 0, -1], dtype=object)
    assert lift(_stacks(edge, M // 2 - 1)).tolist() == edge.tolist()


def _is_prime(p):
    return p > 2 and p % 2 and all(p % d for d in range(3, math.isqrt(p) + 1, 2))


def test_sieved_primes_are_the_trial_division_ones():
    # the first 30 residue primes are the primes = 11 (mod 12) below
    # PRIME_TOP that trial division finds, largest first, none skipped
    want, p = [], PRIME_TOP - 1
    while len(want) < 30:
        if p % 12 == 11 and _is_prime(p):
            want.append(p)
        p -= 2
    assert list(itertools.islice(modular.primes(), 30)) == want


def _wrapped(x, q):
    """Python ints as the residues a ResidueStack of modulus q holds."""
    return _residues(np.array(x, dtype=object), q).x.tolist()


# PRIME_TOP - 39 is the largest prime below PRIME_TOP
@pytest.mark.parametrize("q", [0, PRIME_TOP - 39], ids=["2**64", "prime"])
def test_residue_stack_acts_per_point(q):
    # every operation of the identity sides on stacks of three points is
    # each point's own Python-int operation, reduced modulo q; the entries
    # are near 2**40, so the int64 channel wraps
    rng = random.Random(16)
    big = 2 ** 40

    def ints(*shape):
        return _ints(rng, *shape) * big + _ints(rng, *shape)

    B, n = 3, 4
    r, g, H, K = ints(B), ints(B, n), ints(B, n, n), ints(B, n, n)
    rs, gs, Hs, Ks = (_residues(x, q) for x in (r, g, H, K))
    per_point = [
        (gs @ gs, [x @ x for x in g]), (Hs @ gs, [A @ x for A, x in zip(H, g)]),
        (gs @ Hs, [x @ A for A, x in zip(H, g)]), (Hs @ Ks, [A @ C for A, C in zip(H, K)]),
        (Hs * Ks, H * K), (rs * Hs, [t * A for t, A in zip(r, H)]),
        (Hs * rs, [A * t for t, A in zip(r, H)]), (Hs + Ks, H + K), (Hs - Ks, H - K),
        (rs - rs * rs, [t - t * t for t in r]), (3 * Hs, 3 * H), (Hs * -big, H * -big),
        (Hs.sum(), [A.sum() for A in H]), (Hs.trace(), [A.trace() for A in H]),
        (-gs, -g), (Hs * 7, H * 7)]
    for got, want in per_point:
        assert isinstance(got, ResidueStack) and got.q == q
        assert got.x.dtype == np.int64 and got.x.shape == np.shape(np.array(list(want)))
        assert got.x.tolist() == _wrapped(list(want), q)
    # a pair of stacks is the pair of each channel's product
    pair = QSqrt3Array(Hs, Ks) @ QSqrt3Array(Ks, Hs)
    assert pair.r.x.tolist() == _wrapped([A @ C + 3 * (C @ A) for A, C in zip(H, K)], q)
    assert pair.s.x.tolist() == _wrapped([A @ A + C @ C for A, C in zip(H, K)], q)
    # no other operand: not a float, a Fraction or a plain array
    for other in (0.5, Fraction(1, 2), np.ones((B, n, n), dtype=np.int64)):
        for op in (lambda x, y: x * y, lambda x, y: y + x, lambda x, y: x @ y):
            with pytest.raises(TypeError):
                op(Hs, other)


# -- a Q(sqrt3) PolyArray, the exact mode's Hessian ---------------------------

def test_matmul_of_a_sqrt3_poly_array_is_the_joined_product():
    # cartan-d8's exact Hessian: one PolyArray whose sqrt(3) terms carry a
    # factor 2 in their codes; H @ H is the product of the Hessian as a
    # matrix of Polys with QSqrt3 coefficients, entry by entry and term by
    # term
    u = catalog_build("cartan-d8")
    H = u.jet(exact=True).symbolic(u.n)[2]
    assert isinstance(H, PolyArray) and (H.code % 2 == 0).any()
    P = to_polys(H)
    got = H @ H
    assert isinstance(got, PolyArray) and got.shape == (u.n, u.n)
    assert joined_terms(got) == [p.terms for p in (P @ P).ravel()]
