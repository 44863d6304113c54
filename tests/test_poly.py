from fractions import Fraction

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencubic import poly
from eigencubic.cubics import MAX_DIM
from eigencubic.poly import Poly, PolyArray
from eigencubic.scalars import QSqrt3
from polyref import diff, evaluate, joined_terms, odd_primes, to_polys


def x(n, i):
    return Poly.var(n, i)


def test_binomial_identity_is_zero():
    a, b = x(2, 0), x(2, 1)
    p = (a + b) * (a + b) - a * a - 2 * a * b - b * b
    assert not p


def test_nonzero_has_witness():
    p = x(2, 0) - x(2, 1)
    assert p
    assert evaluate(p, [1, 0]) == 1


def test_derivative_and_eval():
    n = 3
    p = x(n, 0) * (x(n, 1) * x(n, 1) - x(n, 2) * x(n, 2))
    assert evaluate(p, [1, 2, 1]) == 3
    assert diff(p, 0) == x(n, 1) * x(n, 1) - x(n, 2) * x(n, 2)
    assert diff(p, 1) == 2 * x(n, 0) * x(n, 1)


def test_scalar_ring_ops():
    p = Poly.const(2, Fraction(1, 2)) + x(2, 0)
    q = p * 2 - 1
    assert q == 2 * x(2, 0)
    assert not (p - p)
    assert not (p * Poly.zero(2))


def test_eval_length_checked():
    with pytest.raises(ValueError):
        evaluate(x(3, 0), [1, 2])


def test_monomial_is_its_sorted_variable_indices():
    # x0^2 x3 is keyed (0, 0, 3), as CubicForm.terms keys a cubic monomial
    p = Poly.var(4, 0) * Poly.var(4, 0) * Poly.var(4, 3)
    assert p.terms == {(0, 0, 3): 1}
    assert diff(p, 0).terms == {(0, 3): 2}
    assert not diff(p, 1)
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


# -- PolyArray against object arrays of Poly ----------------------------------

NV = 3


def _array(nvars, shape, deg, terms):
    """A PolyArray from (entry, monomial, coefficient) triples, a
    coefficient an int or a QSqrt3 of ints: its monomial's code is the
    product of the variables' odd primes, and a sqrt(3) part's twice it."""
    primes, rows = odd_primes(nvars), []
    for e, m, c in terms:
        code = math.prod(primes[v] for v in m)
        parts = [(code, c.a), (2 * code, c.b)] if isinstance(c, QSqrt3) else [(code, c)]
        rows += [(e, k, int(x)) for k, x in parts]
    idx, code, coef = (list(x) for x in zip(*rows)) if rows else ([], [], [])
    return PolyArray.collect(nvars, shape, deg, idx, code, np.array(coef, dtype=object))


@st.composite
def _poly_arrays(draw, shape, deg, top=5):
    """A PolyArray of ``shape`` and degree ``deg`` in NV variables, terms
    repeated and cancelling, some with a sqrt(3) part; mostly sparse."""
    size = int(np.prod(shape))
    mono = st.lists(st.integers(0, NV - 1), min_size=deg, max_size=deg).map(
        lambda v: tuple(sorted(v)))
    coef = st.one_of(st.integers(-top, top),
                     st.builds(QSqrt3, st.integers(-top, top), st.integers(-top, top)))
    terms = draw(st.lists(st.tuples(st.integers(0, size - 1), mono, coef), max_size=3 * size))
    return _array(NV, shape, deg, terms)


SHAPES = [(), (1,), (3,), (2, 3), (3, 3), (3, 1), (1, 3)]


def _broadcasts(a, b):
    try:
        np.broadcast_shapes(a, b)
        return True
    except ValueError:
        return False


@st.composite
def _operands(draw):
    """Two PolyArrays of degrees 0 to 2 and "@" when their shapes chain
    (the first (rows, k) or (k,)), else "*" and shapes that broadcast."""
    sa = draw(st.sampled_from(SHAPES))
    if sa and draw(st.booleans()):
        sb, kind = draw(st.sampled_from([sa[-1:], (sa[-1], 1), (sa[-1], 2)])), "@"
    else:
        sb, kind = draw(st.sampled_from([s for s in SHAPES if _broadcasts(sa, s)])), "*"
    return (draw(_poly_arrays(sa, draw(st.integers(0, 2)))),
            draw(_poly_arrays(sb, draw(st.integers(0, 2)))), kind)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_operands())
def test_poly_array_operations_match_object_arrays_of_poly(ops):
    # every operation against numpy's own on object arrays of Poly, entry
    # by entry and term by term, with the layout checked on each result
    a, b, kind = ops
    pa, pb = to_polys(a), to_polys(b)
    got, want = (a @ b, pa @ pb) if kind == "@" else (a * b, pa * pb)
    assert got.shape == np.shape(want)
    assert [p.terms for p in to_polys(got).ravel()] == \
        [p.terms for p in np.ravel(np.array(want, dtype=object))]
    for got, want in [(a + a, pa + pa), (a - a * 2, pa - pa * 2), (-a, -pa),
                      (3 * a, pa * 3), (a * 0, pa * 0), (a.sum(), np.sum(pa))]:
        assert [p.terms for p in to_polys(got).ravel()] == \
            [p.terms for p in np.ravel(np.array(want, dtype=object))]
    if a.ndim == 2 and a.shape[0] == a.shape[1]:
        assert to_polys(a.trace())[()].terms == np.trace(pa).terms


def test_poly_array_cancellation_and_mismatches():
    x = _array(2, (2,), 1, [(0, (0,), 1), (1, (1,), 1)])
    y = _array(2, (2,), 1, [(0, (1,), 1), (1, (0,), -1)])
    # x0 x1 - x1 x0 cancels to an empty entry, not a stored zero
    dot = x @ y
    assert dot.shape == () and dot.idx.size == 0 and dot.deg == 2
    assert to_polys(dot)[()].terms == {}
    # the same monomial from pairs in different blocks of one entry sums
    assert to_polys(x @ x)[()].terms == {(0, 0): 1, (1, 1): 1}
    z = _array(3, (2,), 1, [(0, (0,), 1)])
    for f in (lambda: x + z, lambda: x * z, lambda: x @ z):
        with pytest.raises(ValueError, match="variable count mismatch"):
            f()
    with pytest.raises(ValueError, match="one shape and degree"):
        x + x * x
    with pytest.raises(ValueError, match="do not chain"):
        _array(2, (2, 3), 1, []) @ x
    assert x.__mul__("a") is x.__add__(1) is x.__matmul__(2) is NotImplemented


@pytest.mark.parametrize("block", [1, 2, 7])
def test_poly_array_products_are_summed_across_blocks(monkeypatch, block):
    # tiny blocks cut every output entry's pairs into many blocks, merged
    # into the running sums as they come: the terms are those of one block,
    # for a matrix product and for a scalar one
    rng = np.random.default_rng(3)
    terms = [(int(rng.integers(9)), tuple(sorted(rng.integers(0, 4, 2).tolist())),
              int(rng.integers(-3, 4))) for _ in range(40)]
    a = _array(4, (3, 3), 2, terms)
    pa = to_polys(a)
    want = ([p.terms for p in (pa @ pa).ravel()], (np.sum(pa * pa) * np.sum(pa)).terms)
    monkeypatch.setattr(poly, "PAIR_BLOCK", block)
    got = ([p.terms for p in to_polys(a @ a).ravel()],
           to_polys((a * a).sum() * a.sum())[()].terms)
    assert got == want


def _nonempty_triples(a, b):
    """The (a entry, b entry, output entry) flat indices of every (i, k, j)
    of ``a @ b`` whose two entries are both nonempty, numpy's vector rule
    applied, in sorted order."""
    rows, k = a.shape if a.ndim == 2 else (1,) + a.shape
    cols = b.shape[1] if b.ndim == 2 else 1
    full_a, full_b = np.diff(a._starts()) > 0, np.diff(b._starts()) > 0
    return sorted((i * k + kk, kk * cols + j, i * cols + j)
                  for i in range(rows) for kk in range(k) for j in range(cols)
                  if full_a[i * k + kk] and full_b[kk * cols + j])


def _product_spy(monkeypatch):
    """Patch ``PolyArray._product`` to record, for each call, the triples
    it was given beside those of its two operands' nonempty entries."""
    calls, product = [], PolyArray._product

    def spy(self, other, ea, eb, out, shape):
        calls.append((sorted(zip(ea.tolist(), eb.tolist(), out.tolist())),
                      _nonempty_triples(self, other)))
        return product(self, other, ea, eb, out, shape)

    monkeypatch.setattr(PolyArray, "_product", spy)
    return calls


def _sparse(rng, shape, deg, full, nvars=4, sqrt3=()):
    """A PolyArray of ``shape`` with terms only in the flat entries
    ``full`` and ``sqrt3``, two or three of each kind, sqrt(3) times a
    positive int in those of ``sqrt3`` and a positive int in those of
    ``full``."""
    return _array(nvars, shape, deg, [
        (e, tuple(sorted(rng.integers(0, nvars, deg).tolist())), unit * int(rng.integers(1, 6)))
        for entries, unit in ((full, 1), (sqrt3, QSqrt3(0, 1)))
        for e in entries for _ in range(int(rng.integers(2, 4)))])


# (a's shape, a's nonempty entries, b's shape, b's nonempty entries)
STRUCTURED = {
    "empty-row-and-column": ((3, 4), [0, 1, 2, 3, 8, 9, 11], (4, 3), [1, 2, 4, 5, 8, 10, 11]),
    "all-empty-left": ((3, 4), [], (4, 3), range(12)),
    "all-empty-right": ((3, 4), range(12), (4, 3), []),
    "single-entries": ((3, 4), [6], (4, 3), [7]),
    "single-entries-apart": ((3, 4), [6], (4, 3), [0]),
    "k-past-rows-and-cols": ((2, 9), [0, 4, 8, 13, 17], (9, 1), [0, 4, 5, 8]),
    "vector-matrix": ((5,), [0, 2, 3], (5, 2), [0, 1, 5, 6, 7, 9]),
    "matrix-vector": ((3, 5), [0, 4, 6, 7, 12], (5,), [0, 1, 4]),
    "vector-vector": ((4,), [1, 2, 3], (4,), [0, 2, 3]),
}


@pytest.mark.parametrize("case", list(STRUCTURED))
def test_matmul_pairs_only_nonempty_entries(monkeypatch, case):
    # empty rows, columns and operands, lone entries, a long shared index
    # and numpy's vector shapes: the product is the object arrays' and
    # _product is handed exactly the triples whose entries both hold terms
    sa, fa, sb, fb = STRUCTURED[case]
    rng = np.random.default_rng(len(case))
    a, b = _sparse(rng, sa, 1, fa), _sparse(rng, sb, 2, fb)
    calls = _product_spy(monkeypatch)
    got, want = a @ b, to_polys(a) @ to_polys(b)
    assert got.shape == np.shape(want)
    assert [p.terms for p in to_polys(got).ravel()] == \
        [p.terms for p in np.ravel(np.array(want, dtype=object))]
    # positive coefficients never cancel: the nonempty entries are the listed ones
    assert [np.flatnonzero(np.diff(x._starts())).tolist() for x in (a, b)] == \
        [sorted(fa), sorted(fb)]
    [(given, nonempty)] = calls
    assert given == nonempty


def test_matmul_with_sparse_sqrt3_terms_is_one_product(monkeypatch):
    # a Q(sqrt3) matrix product like cartan-d8's H @ H, whose sqrt(3)
    # terms lie in a few entries and its rational ones in most: one
    # _product call, given only the nonempty triples, against Poly
    # arithmetic with QSqrt3 coefficients; a's entry 3 = (0, 3) and b's
    # entry 20 = (3, 2) pair sqrt(3) terms, whose products fold to 3 times
    # their rational ones; entries 3, 14 and 33 hold terms of both kinds
    rng = np.random.default_rng(8)
    full = [e for e in range(36) if e % 5]
    a = _sparse(rng, (6, 6), 1, full, sqrt3=(3, 14))
    b = _sparse(rng, (6, 6), 1, full[::-1][:20], sqrt3=(20, 33))
    calls = _product_spy(monkeypatch)
    got = a @ b
    assert joined_terms(got) == [p.terms for p in np.ravel(to_polys(a) @ to_polys(b))]
    [(given, nonempty)] = calls
    assert given == nonempty
    assert (3, 20, 2) in given


# the degree splits of the identity sides' products: H @ H and H * H
# 1+1, H @ g 1+2, (H @ H) * H 2+1, g @ g and r2 * r2 2+2, r2 * v and
# g @ (H @ g) 2+3, (g @ g) * trace H 4+1; and 3+3
SPLITS = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (4, 1), (3, 3)]


@pytest.mark.parametrize("block", [1, 7, poly.PAIR_BLOCK])
@pytest.mark.parametrize("da, db", SPLITS, ids=[f"{a}+{b}" for a, b in SPLITS])
def test_poly_array_products_merge_sorted_monomials(monkeypatch, da, db, block):
    # each pair's monomial is the product of its two prime codes: in 3
    # variables nearly every pair shares a variable, so the product
    # repeats a prime, and blocks of 1 or 7 pairs split one output term's
    # pairs across blocks; matrix, broadcast and scalar products against Poly
    rng = np.random.default_rng(10 * da + db)

    def operand(shape, deg):
        size = int(np.prod(shape))
        return _array(3, shape, deg, [
            (int(rng.integers(size)), tuple(sorted(rng.integers(0, 3, deg).tolist())),
             int(rng.integers(-3, 4))) for _ in range(4 * size)])

    a, b, c = operand((2, 3), da), operand((3, 2), db), operand((3,), db)
    pa, pb, pc = to_polys(a), to_polys(b), to_polys(c)
    monkeypatch.setattr(poly, "PAIR_BLOCK", block)
    for got, want in [(a @ b, pa @ pb), (a * c, pa * pc), ((a @ c).sum() * a.sum(),
                                                           np.sum(pa @ pc) * np.sum(pa))]:
        assert [p.terms for p in to_polys(got).ravel()] == \
            [p.terms for p in np.ravel(np.array(want, dtype=object))]


@pytest.mark.parametrize("block", [1, poly.PAIR_BLOCK])
def test_poly_array_merge_ties_and_interleaving(monkeypatch, block):
    # x0^2 * x0 x1, x0^3 * x0^3, and monomials that interleave or lie
    # wholly on one side of the other: each product of codes factors as
    # the merged monomial
    monkeypatch.setattr(poly, "PAIR_BLOCK", block)
    cases = [((0, 0), (0, 1), (0, 0, 0, 1)), ((0, 0, 0), (0, 0, 0), (0,) * 6),
             ((1, 3), (0, 2, 4), (0, 1, 2, 3, 4)), ((3, 4), (0, 1, 2), (0, 1, 2, 3, 4)),
             ((0, 1), (2, 3, 4), (0, 1, 2, 3, 4)), ((2,), (0, 2, 2, 4), (0, 2, 2, 2, 4))]
    for ma, mb, want in cases:
        a = _array(5, (), len(ma), [(0, ma, 2)])
        b = _array(5, (), len(mb), [(0, mb, -3)])
        for got in (a * b, b * a):
            assert to_polys(got)[()].terms == {want: -6}


# 2**63 - 1 = 7 * 21870289 * 60247241209; 2**63 = 2**31 * 2**32
@pytest.mark.parametrize("la, lb, int64", [(7 * 21870289, 60247241209, True),
                                           (2 ** 31, 2 ** 32, False)],
                         ids=["2**63-1", "2**63"])
def test_poly_array_int64_bound_is_exact_at_the_edge(la, lb, int64):
    # a = a0 x0 + a1 x1 and b = b0 x0 + b1 x1, all positive, so every
    # pair lands on x0^2, x0 x1 or x1^2 and the product's L1 norm is
    # exactly L1(a) L1(b): below 2**63 the product runs and stays in
    # int64, at 2**63 it runs on Python ints; either way it is exact
    a = _array(2, (), 1, [(0, (0,), la - la // 3), (0, (1,), la // 3)])
    b = _array(2, (), 1, [(0, (0,), lb // 5), (0, (1,), lb - lb // 5)])
    assert a.coef.dtype == b.coef.dtype == np.int64
    for got in (a * b, (a * b).sum()):
        assert got.l1 == la * lb == 2 ** 63 - int64
        assert got.coef.dtype == (np.int64 if int64 else object)
        assert to_polys(got)[()].terms == (to_polys(a)[()] * to_polys(b)[()]).terms
    # twice the product is past the bound in both cases: Python ints
    ab = a * b
    doubled = {m: 2 * c for m, c in to_polys(ab)[()].terms.items()}
    for got in (ab + ab, ab * 2, 2 * ab, ab - -ab):
        assert got.l1 == 2 * ab.l1 and got.coef.dtype == object
        assert to_polys(got)[()].terms == doubled
    assert (ab - ab).idx.size == 0
    # a product with an empty array or with 0 is empty, whatever the norm
    big, empty = ab * 2, _array(2, (), 1, [])
    assert (big * empty).idx.size == (empty * big).idx.size == (big * 0).idx.size == 0


# the identities' largest arrays: g @ (H @ g) and (g @ g) * trace H are
# scalars of degree 5, H @ g is (n,) of degree 3 and (H @ H) * H is (n, n)
# of degree 3
@pytest.mark.parametrize("shape, deg", [((), 5), ((MAX_DIM,), 3), ((MAX_DIM, MAX_DIM), 3)],
                         ids=["scalar-5", "vector-3", "matrix-3"])
def test_codes_fit_int64_at_max_dim(shape, deg):
    # in MAX_DIM variables a code of degree d is at most 2 p**d, p the
    # MAX_DIM-th odd prime, and a pair of sqrt(3) terms reaches 4 p**d
    # before it is divided by 4: _codes returns 2 p**d + 1 exactly while
    # both and every (entry, code) key fit in int64, and raises ValueError
    # from the first degree where one would not
    p, size = odd_primes(MAX_DIM)[-1], math.prod(shape)
    assert poly._codes(MAX_DIM, shape, deg) == 2 * p ** deg + 1
    for d in range(deg, 12):
        codes = 2 * p ** d + 1
        if size * codes <= 2 ** 63 and 4 * p ** d < 2 ** 63:
            assert poly._codes(MAX_DIM, shape, d) == codes
        else:
            with pytest.raises(ValueError, match="exceed int64"):
                poly._codes(MAX_DIM, shape, d)
            return
    raise AssertionError("no degree below 12 passes int64")


def test_sqrt3_products_past_int64_switch_to_python_ints():
    # (5 + 2**31 sqrt3) x0 times (1 + 2**31 sqrt3) x1 puts 3 * 2**62 + 5 on
    # x0 x1: each operand is int64, the pair's product 2**62 is too, and
    # only its tripled fold passes 2**63.  The weighted L1 bound sees it,
    # so the product runs on Python ints and is Poly's with QSqrt3
    # coefficients, term by term, as scalars and as vectors
    a = [(0, (0,), QSqrt3(5, 2 ** 31)), (0, (1,), -7), (0, (2,), QSqrt3(0, -3))]
    b = [(0, (1,), QSqrt3(1, 2 ** 31)), (0, (0,), QSqrt3(0, 11)), (0, (2,), 2)]
    pairs = [(_array(3, (), 1, a), _array(3, (), 1, b)),
             (_array(3, (2,), 1, a + [(1, (2,), 1)]),
              _array(3, (2,), 1, b + [(1, (0,), QSqrt3(0, 1))]))]
    for x, y in pairs:
        assert x.coef.dtype == y.coef.dtype == np.int64
        for got, want in [(x * y, to_polys(x) * to_polys(y)), (y * x, to_polys(y) * to_polys(x)),
                          ((x * y).sum(), np.sum(to_polys(x) * to_polys(y)))]:
            assert got.coef.dtype == object
            assert max(abs(c) for c in got.coef.tolist()) > 2 ** 63
            assert joined_terms(got) == [p.terms for p in np.ravel(np.array(want, dtype=object))]
    x, y = pairs[1]
    assert joined_terms(x @ y) == [(to_polys(x) @ to_polys(y)).terms]
    assert joined_terms(x * y)[0][(0, 1)] == QSqrt3(3 * 2 ** 62 + 5, 6 * 2 ** 31 - 77)
