import ast
import hashlib
import itertools
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eigencubic import cubics
from eigencubic.clifford import CliffordSystem, build_clifford_system
from eigencubic.cubics import (CATALOG, CubicForm, Jet, albert_contraction_cubic,
                               cartan_cubic, catalog_build, clifford_cubic,
                               complexified_cubic, involution_cubic,
                               octonion_cubic21, trivial_cubic)
from eigencubic.identities import check_harmonic
from eigencubic.jordan import (cleared, common_denominator, fullspace_basis,
                               jordan_twice, trace_form, tracefree_basis)
from eigencubic.poly import Poly, PolyArray
from eigencubic.modular import primes, residues
from eigencubic.scalars import QSqrt3, QSqrt3Array
from formref import (dict_route, dict_route_json, gradient, hessian, laplacian, polarize,
                     respelled, scaled, sparse_cubic, to_poly)
from polyref import diff, evaluate
from rotations import cayley_rotation, rotate_exact, skew


def frac_point(rng, n, bound=9):
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
            for _ in range(n)]


DIM3 = catalog_build("clifford-q0")   # x (y^2 - z^2)


def through_json(u):
    """u written to JSON text and read back."""
    return CubicForm.from_json_dict(json.loads(json.dumps(u.to_json_dict())))


def test_eval_examples():
    # the kernel's value of D*u against D times the Poly reference
    jet, poly = DIM3.jet(exact=True), to_poly(DIM3)
    D = jet.scale
    assert evaluate(poly, [1, 2, 1]) == 3
    assert evaluate(poly, [0, 0, 0]) == 0
    assert jet.value(np.array([1, 2, 1], dtype=object)) == 3 * D
    assert jet.value(np.array([0, 0, 0], dtype=object)) == 0
    rng = random.Random(0)
    for _ in range(10):
        x = frac_point(rng, 3)
        x2 = [2 * v for v in x]
        assert evaluate(poly, x2) == 8 * evaluate(poly, x)
        assert jet.value(np.array(x2, dtype=object)) == 8 * D * evaluate(poly, x)


def test_gradient_of_pure_cube():
    u = trivial_cubic(3, 1)
    g = gradient(u)
    assert g[0] == 3 * Poly.var(3, 0) * Poly.var(3, 0)
    assert not g[1] and not g[2]


def test_hessian_of_dim3():
    x, y, z = (Poly.var(3, i) for i in range(3))
    H = hessian(DIM3)
    want = [[Poly.zero(3), 2 * y, -2 * z],
            [2 * y, 2 * x, Poly.zero(3)],
            [-2 * z, Poly.zero(3), -2 * x]]
    assert H == want


def test_euler_identity_all_catalog():
    # <grad u, x> = 3u identically
    for name in CATALOG:
        u = catalog_build(name)
        p = to_poly(u)
        euler = sum((Poly.var(u.n, i) * diff(p, i) for i in range(u.n)),
                    Poly.zero(u.n)) - 3 * p
        assert not euler, name


def test_polarize_examples():
    e1 = [1, 0, 0]
    e2 = [0, 1, 0]
    assert polarize(DIM3, e1, e2, e2) == 2
    rng = random.Random(1)
    for _ in range(10):
        x = frac_point(rng, 3)
        assert polarize(DIM3, x, x, x) == 6 * evaluate(to_poly(DIM3), x)


def test_polarize_symmetric():
    import itertools
    rng = random.Random(2)
    u = cartan_cubic(1)
    x, y, z = (frac_point(rng, u.n) for _ in range(3))
    vals = {polarize(u, *perm) for perm in itertools.permutations((x, y, z))}
    assert len(vals) == 1


def test_trivial_cubic():
    u = trivial_cubic(1, 1)
    assert u.n == 1 and evaluate(to_poly(u), [1]) == 1
    u2 = trivial_cubic(4, Fraction(2, 3))
    assert evaluate(to_poly(u2), [1, 9, 9, 9]) == Fraction(2, 3)
    with pytest.raises(ValueError):
        trivial_cubic(0)


def test_clifford_cubic_small():
    u0 = clifford_cubic(build_clifford_system(0))
    assert u0.terms == {(0, 1, 1): Fraction(1), (0, 2, 2): Fraction(-1)}
    u1 = clifford_cubic(build_clifford_system(1))
    assert u1.terms == {(0, 2, 2): Fraction(1), (0, 3, 3): Fraction(-1),
                        (1, 2, 3): Fraction(2)}


def test_clifford_cubic_harmonic():
    for q in range(0, 6):
        u = clifford_cubic(build_clifford_system(q))
        assert not laplacian(u)


def test_clifford_cubic_rejects_invalid_system():
    I2 = ((1, 0), (0, 1))
    P2 = ((1, 0), (0, -1))
    with pytest.raises(ValueError):
        clifford_cubic(CliffordSystem(1, 2, (P2, I2)))
    # {I} verifies as a system but has nonzero trace; the cubic would
    # not be harmonic, so it is rejected too
    with pytest.raises(ValueError, match="trace"):
        clifford_cubic(CliffordSystem(0, 2, (I2,)))


def test_cartan_dimensions_and_field():
    dims = {1: 5, 2: 8, 4: 14, 8: 26}
    for d, n in dims.items():
        u = cartan_cubic(d)
        assert u.n == n
        assert not laplacian(u)
    for d in (1, 2):
        assert all(isinstance(c, Fraction) for c in cartan_cubic(d).terms.values())
    for d in (4, 8):
        assert any(isinstance(c, QSqrt3) for c in cartan_cubic(d).terms.values())
    with pytest.raises(ValueError):
        cartan_cubic(3)


def test_cartan_jordan_crosscheck():
    # (1/6)<z, z o z> = (1/2) det z on trace-free z, exactly, with
    # 2 z o z = jordan_twice(z, z)
    rng = random.Random(3)
    for d in (1, 2, 4, 8):
        basis = tracefree_basis(d)
        u = cartan_cubic(d)
        for _ in range(3):
            coeffs = frac_point(rng, len(basis), 5)
            z = basis[0].scale(coeffs[0])
            for c, m in zip(coeffs[1:], basis[1:]):
                z = z + m.scale(c)
            lhs = trace_form(z, jordan_twice(z, z)) * Fraction(1, 12)
            assert lhs == evaluate(to_poly(u), coeffs)


def test_involution_dimensions():
    dims = {2: 9, 4: 15, 8: 27}
    for d, n in dims.items():
        u = involution_cubic(d)
        assert u.n == n
        assert not laplacian(u)
        assert all(isinstance(c, Fraction) for c in u.terms.values())
    with pytest.raises(ValueError):
        involution_cubic(1)


def test_complexified_dimensions():
    dims = {1: 12, 2: 18, 4: 30, 8: 54}
    for d, n in dims.items():
        u = complexified_cubic(d)
        assert u.n == n
        assert not laplacian(u)


def test_octonion21_values():
    u = octonion_cubic21()
    assert u.n == 21
    # (w1, w2, w3) = (e1, e2, e3): re((e1 e2) e3) = re(e3 e3) = -1
    pt = [0] * 21
    pt[0] = 1          # w1 = e1
    pt[7 + 1] = 1      # w2 = e2
    pt[14 + 2] = 1     # w3 = e3
    assert evaluate(to_poly(u), pt) == -1
    # (e1, e1, anything) -> re((e1 e1) w3) = re(-w3) = 0
    rng = random.Random(4)
    for _ in range(5):
        pt = [0] * 21
        pt[0] = 1
        pt[7] = 1
        w3 = frac_point(rng, 7)
        pt[14:] = w3
        assert evaluate(to_poly(u), pt) == 0
    assert all(c.denominator == 1 for c in u.terms.values())


def test_albert_proportional_to_octonion():
    oc = octonion_cubic21()
    al = albert_contraction_cubic()
    assert al.n == 21
    assert not laplacian(al)
    rng = random.Random(5)
    ratios = set()
    for _ in range(10):
        pt = frac_point(rng, 21)
        vo = evaluate(to_poly(oc), pt)
        if vo == 0:
            continue
        ratios.add(evaluate(to_poly(al), pt) / vo)
    assert ratios == {Fraction(1)}


def test_harmonicity_law():
    for name, entry in CATALOG.items():
        u = entry.build()
        if entry.family == "trivial":
            assert laplacian(u)
        else:
            assert not laplacian(u), name


def test_json_round_trip_bit_exact():
    for name in ("clifford-q1", "cartan-d1", "cartan-d4", "complexified-d1"):
        u = catalog_build(name)
        back = through_json(u)
        assert back.n == u.n
        assert back.terms == u.terms
        for k in u.terms:
            assert type(back.terms[k]) is type(u.terms[k])


def test_json_format_shape():
    d = catalog_build("clifford-q0").to_json_dict()
    assert d["dim"] == 3
    assert d["terms"] == [{"ijk": [1, 2, 2], "c": "1"},
                          {"ijk": [1, 3, 3], "c": "-1"}]
    # 1-based indices, i <= j <= k, lexicographic order
    prev = None
    for rec in d["terms"]:
        i, j, k = rec["ijk"]
        assert 1 <= i <= j <= k <= 3
        if prev:
            assert rec["ijk"] > prev
        prev = rec["ijk"]


def test_json_float_form():
    u = catalog_build("clifford-q0").to_float()
    back = through_json(u)
    assert back.terms == u.terms
    assert not back.is_exact_form


@pytest.mark.parametrize("text", ['{"dim": 0, "terms": []}',
                                  '{"dim": -2, "terms": []}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": NaN}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 2, 3], "c": -Infinity}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": 1e400}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": -1e51}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "-1e51"}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "1", '
                                  '"c3": "1e51"}]}',
                                  '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": Infinity, '
                                  '"c3": "1"}]}'])
def test_from_json_dict_rejects_degenerate_forms(text):
    with pytest.raises(ValueError):
        CubicForm.from_json_dict(json.loads(text))


def test_from_json_dict_takes_coefficients_up_to_the_bound():
    d = {"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": -1e50},
                             {"ijk": [1, 2, 2], "c": "1e50", "c3": "-1e50"}]}
    u = CubicForm.from_json_dict(d)
    assert u.terms == {(0, 0, 0): -1e50,
                       (0, 1, 1): QSqrt3(Fraction(10) ** 50, -Fraction(10) ** 50)}
    c = u.terms[(0, 1, 1)]
    assert type(c) is QSqrt3 and (c.a, c.b) == (10 ** 50, -10 ** 50)


# int(1e50): the exact value of the float bound, the largest integer allowed
TOP_INT = "100000000000000007629769841091887003294964970946560"


def _one_term(c, c3=None):
    rec = {"ijk": [1, 1, 1], "c": c}
    if c3 is not None:
        rec["c3"] = c3
    return {"dim": 3, "terms": [rec]}


@pytest.mark.parametrize("d", [_one_term(TOP_INT), _one_term("-" + TOP_INT),
                               _one_term("1", TOP_INT), _one_term("1", "-" + TOP_INT),
                               _one_term(f"{2 * int(TOP_INT) - 1}/2"),
                               _one_term(1e50), _one_term(-1e50)])
def test_from_json_dict_takes_the_bound_exactly(d):
    assert CubicForm.from_json_dict(d).n == 3


@pytest.mark.parametrize("d", [_one_term(str(int(TOP_INT) + 1)),
                               _one_term(f"-{int(TOP_INT) + 1}/1"),
                               _one_term("1", str(int(TOP_INT) + 1)),
                               _one_term("1", f"{int(TOP_INT) + 1}/1"),
                               _one_term(f"{2 * int(TOP_INT) + 1}/2"),
                               _one_term(math.nextafter(1e50, math.inf)),
                               _one_term(math.nan), _one_term(math.inf),
                               _one_term(-math.inf)])
def test_from_json_dict_rejects_past_the_bound(d):
    with pytest.raises(ValueError, match="exceeds"):
        CubicForm.from_json_dict(d)


@pytest.mark.parametrize("c", [0.5, -1.0, 0.0, 1e50])
def test_from_json_dict_rejects_a_float_c_with_c3(c):
    # a float c makes the form a float one, which has no exact sqrt(3)
    # part to carry; read as QSqrt3(c, c3) the file would run exact and
    # emit c back as "p/q".  A c3 beside a rational c stays allowed in a
    # float form, as the float parts of its other terms
    with pytest.raises(ValueError, match="a float c cannot carry c3"):
        CubicForm.from_json_dict(_one_term(c, "1"))
    d = {"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": c or 0.5},
                             {"ijk": [1, 2, 2], "c": "1", "c3": "1"}]}
    u = CubicForm.from_json_dict(d)
    assert not u.is_exact_form and through_json(u).terms == u.terms


def test_from_poly_rejects_inhomogeneous():
    x = Poly.var(2, 0)
    p = x * x * x + Poly.var(2, 1)
    with pytest.raises(ValueError):
        CubicForm.from_poly(p)


def test_poly_shares_the_cubic_monomial_keys():
    for name in CATALOG:
        u = catalog_build(name)
        assert to_poly(u).terms == u.terms
        assert CubicForm.from_poly(to_poly(u)) == u


@pytest.mark.parametrize("name", list(CATALOG))
def test_float_form_keeps_its_float_laplacian(name):
    # the harmonic check reads a float form's Laplacian off the float jet,
    # whose coefficients are float64, and its verdict is the exact form's
    u = catalog_build(name)
    uf = u.to_float()
    jet = uf.jet(exact=False)
    lap = jet.laplacian(uf.n)
    assert lap.dtype == np.float64
    if name == "trivial":
        assert (lap / jet.scale).tolist() == [6.0] + [0.0] * (uf.n - 1)
    assert check_harmonic(uf) == check_harmonic(u) == (CATALOG[name].family != "trivial")


@pytest.mark.parametrize("name", list(CATALOG))
def test_to_float_is_the_dict_constructor_of_its_floats(name):
    # to_float clears each float's own binary fraction as from_json_dict
    # does; the form is the one the dict constructor builds from the same
    # floats, in its integers and in its float jet's bytes
    u = catalog_build(name)
    got, want = u.to_float(), CubicForm(u.n, dict(zip(u.keys, u._floats())))
    assert (got.n, got.keys, got.num, got.scale, got.float_keys, got.is_exact_form) == \
        (want.n, want.keys, want.num, want.scale, want.float_keys, want.is_exact_form)
    a, b = got.jet(exact=False), want.jet(exact=False)
    assert a.scale == b.scale and a.ijk.tobytes() == b.ijk.tobytes() and a.m.tobytes() == b.m.tobytes()


@pytest.mark.parametrize("name", list(CATALOG))
def test_exact_jet_of_a_float_form_is_its_binary_fractions(name):
    # jet(exact=True) on a float form is the exact jet of the binary
    # fractions its coefficients are, in scale, arrays and entry type
    uf = catalog_build(name).to_float()
    got = uf.jet(exact=True)
    want = CubicForm(uf.n, {k: Fraction(c) for k, c in uf.terms.items()}).jet(exact=True)
    assert type(got) is type(want) is Jet and got.sqrt3 is None is want.sqrt3
    assert got.scale == want.scale and type(got.scale) is type(want.scale) is int
    assert np.array_equal(got.ijk, want.ijk)
    assert got.m.dtype == want.m.dtype == object
    assert got.m.tolist() == want.m.tolist()
    assert all(type(v) is int for v in got.m)
    assert uf.jet(exact=True) is got and uf.jet(exact=False).m.dtype == float


def _fraction_route_m(u):
    """The exact jet's m on each channel as the Fraction products cleared
    it, int(D * c) per coefficient, in the kernel's three rotations."""
    chans = {k: (c.a, c.b) if isinstance(c, QSqrt3) else (Fraction(c),)
             for k, c in u.terms.items()}
    D = math.lcm(*(Fraction(x).denominator for ch in chans.values() for x in ch))
    return [[int(D * Fraction(ch[i])) for ch in chans.values() if len(ch) > i and ch[i]] * 3
            for i in (0, 1)]


@pytest.mark.parametrize("name", list(CATALOG) + ["float-copy", "int-channels"])
def test_exact_jet_clears_on_integers_as_the_fraction_route(name):
    # D // denominator * numerator gives each coefficient's int(D * c), on
    # every catalog form, a float form's binary fractions and a Q(sqrt3)
    # form whose channels are ints
    if name == "float-copy":
        u = catalog_build("cartan-d4").to_float()
    elif name == "int-channels":
        terms = {(0, 1, 2): QSqrt3(2, -3), (0, 0, 0): QSqrt3(Fraction(1, 2), 5),
                 (1, 1, 2): QSqrt3(7, 0), (2, 2, 2): QSqrt3(0, 1)}
        assert {type(x) for c in terms.values() for x in (c.a, c.b)} >= {int}
        u = CubicForm(3, terms)
    else:
        u = catalog_build(name)
    jet = u.jet(exact=True)
    r, s = _fraction_route_m(u)
    assert jet.m.tolist() == r and all(type(v) is int for v in jet.m)
    assert (jet.sqrt3 is None and not s) or jet.sqrt3.m.tolist() == s


def _rotated_cartan_d4():
    """cartan-d4 under a dense rational Cayley rotation: 560 monomials,
    and a jet whose l1 has 207 bits, so no modulus takes the one int64
    Hessian route."""
    S = skew(14, [Fraction(k % 7 - 3, k % 4 + 1) for k in range(91)])
    return rotate_exact(cartan_cubic(4), cayley_rotation(S))


_READ_FORMS = (list(CATALOG) + [f"{name}-float" for name in CATALOG]
               + ["cartan-d4-x1e18", "cartan-d4-rotated", "sparse-128", "mixed"])


def _read_form(name):
    if name == "mixed":
        return CubicForm(3, {(0, 0, 0): 0.5, (0, 1, 2): Fraction(1, 3), (2, 2, 2): 0.1,
                             (1, 1, 1): QSqrt3(Fraction(-1, 2), 2), (1, 2, 2): 7})
    if name == "cartan-d4-x1e18":
        return scaled(cartan_cubic(4), 10 ** 18)
    if name == "cartan-d4-rotated":
        return _rotated_cartan_d4()
    if name == "sparse-128":
        return sparse_cubic(128, 300, 5)
    if name.endswith("-float"):
        return catalog_build(name[:-len("-float")]).to_float()
    return catalog_build(name)


def _same_jet(got, want, dtype):
    assert type(got.scale) is type(want.scale) and got.scale == want.scale
    assert got.ijk.dtype == want.ijk.dtype and np.array_equal(got.ijk, want.ijk)
    assert got.m.dtype == want.m.dtype == dtype
    if dtype == object:
        assert got.m.tolist() == want.m.tolist() and all(type(v) is int for v in got.m)
    else:
        assert got.m.tobytes() == want.m.tobytes()
    assert (got.sqrt3 is None) is (want.sqrt3 is None)
    if got.sqrt3 is not None:
        _same_jet(got.sqrt3, want.sqrt3, dtype)


@pytest.mark.parametrize("name", _READ_FORMS)
def test_reading_a_form_gives_the_dict_route_form(name):
    # a form file read into integers gives the terms, in order and type,
    # the exact jet, the float jet's bits and the JSON bytes of the dict
    # route that read it into Fraction and QSqrt3 coefficients first
    d = _read_form(name).to_json_dict()
    u = CubicForm.from_json_dict(d)
    terms, exact, floats = dict_route(d)
    assert list(u.terms.items()) == list(terms.items())
    assert [(type(c), type(getattr(c, "a", None)), type(getattr(c, "b", None)))
            for c in u.terms.values()] == \
        [(type(c), type(getattr(c, "a", None)), type(getattr(c, "b", None)))
         for c in terms.values()]
    _same_jet(u.jet(exact=True), exact, object)
    _same_jet(u.jet(exact=False), floats, np.float64)
    assert json.dumps(u.to_json_dict()) == json.dumps(dict_route_json(u.n, terms)) \
        == json.dumps(d)


@pytest.mark.parametrize("name", ["cartan-d4", "cartan-d8", "complexified-d2", "clifford-q1"])
def test_non_canonical_spellings_read_as_the_canonical_form(name):
    # unreduced fractions, decimals, exponents, a leading "+" and spaces go
    # through parse_rational's Fraction branch to the same integers
    d = catalog_build(name).to_json_dict()
    u, v = CubicForm.from_json_dict(d), CubicForm.from_json_dict(respelled(d))
    assert v.to_json_dict() == d and v == u
    assert (v.keys, v.num, v.scale) == (u.keys, u.num, u.scale)


def test_a_mixed_file_keeps_its_exact_coefficients_exact():
    # a float c beside exact ones makes a float form, but only the float
    # terms read, and write back, as floats
    d = {"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": 0.5}, {"ijk": [1, 2, 3], "c": "1/3"},
                             {"ijk": [2, 2, 2], "c": "-1/2", "c3": "2"}]}
    u = CubicForm.from_json_dict(d)
    assert not u.is_exact_form and u.float_keys == {(0, 0, 0)}
    assert [(type(c), c) for c in u.terms.values()] == [
        (float, 0.5), (Fraction, Fraction(1, 3)), (QSqrt3, QSqrt3(Fraction(-1, 2), 2))]
    assert type(u.terms[(1, 1, 1)].a) is Fraction and u.terms[(1, 1, 1)].b == 2
    assert u.to_json_dict() == d
    back = CubicForm.from_json_dict(json.loads(json.dumps(u.to_json_dict())))
    assert back.jet(exact=True).scale == 6 and back.terms == u.terms
    assert back.num == u.num == ([3, 2, -3], [0, 0, 12])
    coo = back.coo()
    assert coo[0] == (0, 0, 0, 0.5) and type(coo[0][3]) is float
    assert coo[1] == (0, 1, 2, Fraction(1, 18)) and type(coo[1][3]) is Fraction
    assert coo[-1] == (1, 1, 1, QSqrt3(Fraction(-1, 2), 2)) and type(coo[-1][3]) is QSqrt3
    assert back.to_float().terms == dict(zip(u.keys, u._floats()))


def test_terms_is_a_read_only_view_built_on_first_use():
    # building a form, writing it, reading it and building both jets leave
    # the view unbuilt; once built it is kept and refuses writes
    u = cubics.cartan_cubic.__wrapped__(4)
    u.to_json_dict()
    assert "terms" not in vars(u)
    v = CubicForm.from_json_dict(u.to_json_dict())
    v.jet(exact=True), v.jet(exact=False), v.to_float(), v.to_json_dict()
    assert "terms" not in vars(v)
    view = v.terms
    assert v.terms is view and view == u.terms
    with pytest.raises(TypeError):
        view[(0, 0, 0)] = Fraction(1)


@pytest.mark.parametrize("exact", [True, False])
def test_jet_l1_is_taken_once_per_jet(exact):
    jet = CubicForm.from_json_dict(catalog_build("cartan-d4").to_json_dict()).jet(exact)
    assert "l1" not in vars(jet)
    L = jet.l1
    assert vars(jet)["l1"] is L and jet.l1 is L
    if exact:
        assert L == sum(map(abs, jet.m.tolist())) + 2 * sum(map(abs, jet.sqrt3.m.tolist()))
    else:
        assert L == np.abs(jet.m).sum()


@pytest.mark.parametrize("c3", ["Infinity", "-Infinity", "1e400", "NaN"])
def test_an_infinite_c3_is_a_value_error(c3):
    text = '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "1", "c3": %s}]}' % c3
    with pytest.raises(ValueError, match="cannot convert"):
        CubicForm.from_json_dict(json.loads(text))


@pytest.mark.parametrize("name", list(CATALOG) + ["cartan-d4-x1e18", "cartan-d4-rotated"])
def test_jet_modulo_is_the_residues_of_every_rotation(name):
    # modulo reduces m's first block of columns once and tiles it: on each
    # sqrt(3) channel that is residues of the whole m, modulo 2**64 and
    # the first three residue primes
    if name == "cartan-d4-x1e18":
        u = scaled(catalog_build("cartan-d4"), 10 ** 18)
    elif name == "cartan-d4-rotated":
        u = _rotated_cartan_d4()
    else:
        u = catalog_build(name)
    jet = u.jet(exact=True)
    assert (jet.sqrt3 is not None) == (name.startswith(("cartan-d4", "cartan-d8")))
    for q in [0, *itertools.islice(primes(), 3)]:
        got = jet.modulo(q)
        for g, w in ((got, jet), (got.sqrt3, jet.sqrt3)):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.m.dtype == np.int64 and g.m.tolist() == residues(w.m, q).tolist()
                assert np.array_equal(g.ijk, w.ijk) and g.scale == w.scale


# the widest temporary per point of each kernel body, whose block_rows
# bounds the points of one call: M/3, M and max(n^2, M), M the rotations
_BODY_WIDTHS = {"_value": lambda jet, n: jet.m.size // 3,
                "_gradient": lambda jet, n: jet.m.size,
                "_hessian": lambda jet, n: max(n * n, jet.m.size)}


def _channels(x):
    return [x.r, x.s] if isinstance(x, QSqrt3Array) else [x]


def _assert_rows(stack, rows):
    """Each sqrt(3) channel of ``stack`` holds the per-row results
    ``rows``: bit for bit on int64 and float64, as Python ints on objects."""
    for ch, got in enumerate(_channels(stack)):
        want = [_channels(r)[ch] for r in rows]
        if got.dtype == object:
            assert got.tolist() == [np.asarray(w, dtype=object).tolist() for w in want]
            assert all(type(v) is int for v in got.ravel())
        else:
            want = np.stack(want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_jet_splits_any_stack_into_blocks(monkeypatch):
    # with a small BLOCK a stack of 12 points takes several blocks in every
    # method, and each result is the per-row one, on a float jet, a
    # Python-int jet, its int64 residues modulo 2**64 and a prime, and a
    # sqrt(3) form's pair (Python ints and residues); a stack along two
    # leading axes gives the same results, and no body call gets more
    # points than block_rows of its width
    monkeypatch.setattr(cubics, "BLOCK", 50)
    calls = []
    for name, width in _BODY_WIDTHS.items():
        def spy(jet, p, body=getattr(Jet, name), name=name, width=width):
            n = p.shape[-1]
            calls.append((name, p.size // n, cubics.block_rows(width(jet, n))))
            return body(jet, p)
        monkeypatch.setattr(Jet, name, spy)
    q2, pair = (catalog_build(name).jet(exact=True) for name in ("clifford-q2", "cartan-d4"))
    jets = [catalog_build("clifford-q2").jet(exact=False), q2, q2.modulo(0),
            q2.modulo(next(primes())), pair, pair.modulo(next(primes()))]
    rng = random.Random(5)
    for jet in jets:
        n = jet.ijk.max() + 1
        if jet.m.dtype == float:
            X = np.random.default_rng(5).standard_normal((12, n))
        else:
            X = np.array([rng.randint(-9, 9) for _ in range(12 * n)],
                         dtype=jet.m.dtype).reshape(12, n)
        for f in (jet.value, jet.gradient, jet.hessian):
            stack = f(X)
            _assert_rows(stack, [f(x) for x in X])
            for got, want in zip(_channels(f(X.reshape(3, 4, n))), _channels(stack)):
                assert got.shape == (3, 4) + want.shape[1:]
                assert got.reshape(want.shape).tolist() == want.tolist()
    assert all(rows <= top for _, rows, top in calls)
    assert {name for name, _, top in calls if top < 12} == set(_BODY_WIDTHS)


def _assert_same_piece(got, want):
    """Two pieces of one channel hold the same entries: of the same dtype,
    bit for bit, or the same terms of PolyArrays."""
    if hasattr(want, "code"):
        assert (got.nvars, got.shape, got.deg) == (want.nvars, want.shape, want.deg)
        for f in ("idx", "code", "coef"):
            assert np.array_equal(getattr(got, f), getattr(want, f))
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tolist() == want.tolist()


def _hand_built_sqrt3_jet():
    """2 x0 x1 x2 + 4 x0^3 + sqrt3 (x0^2 x3 - 3 x1^3 + 7 x2 x3^2 + 5 x1 x2 x3
    - x3^3): the sqrt(3) channel has more monomials than the rational one."""
    def channel(*terms):
        keys, m = zip(*terms)
        return Jet._arrays(1, np.array(keys, dtype=np.intp).T, np.array(m, dtype=object))
    r = channel(((0, 1, 2), 2), ((0, 0, 0), 4))
    s = channel(((0, 0, 3), 1), ((1, 1, 1), -3), ((2, 3, 3), 7), ((1, 2, 3), 5), ((3, 3, 3), -1))
    return replace(r, sqrt3=s), 4


@pytest.mark.parametrize("name", ["cartan-d4", "cartan-d8", "hand-built"])
def test_a_sqrt3_jet_pairs_the_pieces_of_its_two_channels(monkeypatch, name):
    # every point piece of a Q(sqrt3) jet is the QSqrt3Array of that piece
    # on its rational channel and on its sqrt(3) channel, each a Jet of its
    # own: exact, modulo 2**64 and modulo the first residue prime.  With a small
    # BLOCK both channels split 12 points into blocks, each of its own width
    monkeypatch.setattr(cubics, "BLOCK", 8)
    calls = []
    for body, width in _BODY_WIDTHS.items():
        def spy(jet, p, f=getattr(Jet, body), width=width):
            n = p.shape[-1]
            calls.append((id(jet.m), p.size // n, cubics.block_rows(width(jet, n))))
            return f(jet, p)
        monkeypatch.setattr(Jet, body, spy)
    if name == "hand-built":
        jet, n = _hand_built_sqrt3_jet()
        assert jet.sqrt3.m.size > jet.m.size
    else:
        u = catalog_build(name)
        jet, n = u.jet(exact=True), u.n
    r, s = Jet(jet.scale, jet.ijk, jet.m), jet.sqrt3
    assert type(jet) is Jet and s is not None and s.sqrt3 is None
    rng = random.Random(7)
    X = np.array([rng.randint(-9, 9) for _ in range(12 * n)], dtype=object).reshape(12, n)
    pieces = [lambda j: j.value(X), lambda j: j.gradient(X), lambda j: j.hessian(X),
              lambda j: j.laplacian(n)]
    for q in (0, next(primes())):
        pieces.append(lambda j, q=q: j.modulo(q).hessian(X.astype(np.int64)))
    for piece in pieces:
        got = piece(jet)
        assert isinstance(got, QSqrt3Array)
        _assert_same_piece(got.r, piece(r))
        _assert_same_piece(got.s, piece(s))
    # the symbolic pieces fold both channels into one PolyArray: its terms
    # of odd code are r's piece, and those of even code, the code halved,
    # s's, each in (entry, code) order with the same coefficients
    *folded, r2 = jet.symbolic(n)
    for got, want_r, want_s in zip(folded, r.symbolic(n), s.symbolic(n)):
        assert isinstance(got, PolyArray)
        assert (got.nvars, got.shape, got.deg) == (want_r.nvars, want_r.shape, want_r.deg) \
            == (want_s.nvars, want_s.shape, want_s.deg)
        for sqrt3, want in ((False, want_r), (True, want_s)):
            keep = got.code % 2 == (0 if sqrt3 else 1)
            assert np.array_equal(got.idx[keep], want.idx)
            assert np.array_equal(got.code[keep], want.code * (1 + sqrt3))
            assert got.coef[keep].tolist() == want.coef.tolist()
    _assert_same_piece(r2, r.symbolic(n)[3])
    assert all(rows <= top for _, rows, top in calls)
    split = {m for m, rows, top in calls if top < 12}
    assert {id(r.m), id(s.m)} <= split


def test_no_module_but_cubics_reads_the_jet_arrays():
    # the sparse layout (m, ijk, sqrt3) stays inside cubics.py, and every
    # other block size is that of a module's own (rows, n, n) stacks
    for path in sorted(Path(cubics.__file__).parent.glob("*.py")):
        if path.name == "cubics.py":
            continue
        tree = ast.parse(path.read_text())
        reads = [(path.name, node.lineno) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in ("m", "ijk", "sqrt3")]
        assert reads == []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "block_rows" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                (arg,) = node.args
                assert isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Mult)
                assert ast.dump(arg.left) == ast.dump(arg.right), (path.name, node.lineno)


def _library_functions(path, tree):
    """(qualified name, node) of each module function and class method of
    a package module, but dunders, click commands and the hooks of click
    classes, which click calls."""
    module = path.stem
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            if any("click" in ast.dump(base) for base in node.bases):
                continue
            defs = [(f"{module}.{node.name}.{f.name}", f) for f in node.body
                    if isinstance(f, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs = [(f"{module}.{node.name}", node)]
        else:
            continue
        for qualname, f in defs:
            dunder = f.name.startswith("__") and f.name.endswith("__")
            command = any(isinstance(d, ast.Call) and getattr(d.func, "attr", None) == "command"
                          for d in f.decorator_list)
            if not (dunder or command):
                yield qualname, f


def test_every_library_name_has_a_caller():
    # a module function or class method is referenced, by name, somewhere
    # in src/ or perfbench/ outside its own definition: a method as an
    # attribute, a function as a name, an attribute or an import.  The
    # re-exports of __init__.py, docstrings and comments are no references
    package = Path(cubics.__file__).parent
    paths = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    refs = []
    for path, tree in trees.items():
        for node in ast.walk(tree):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names] if isinstance(node, ast.ImportFrom) else [])
            refs += [(name, isinstance(node, ast.Attribute), path, node.lineno)
                     for name in names]
    found, unused = set(), []
    for path in paths:
        if path.parent != package:
            continue
        for qualname, f in _library_functions(path, trees[path]):
            found.add(qualname)
            method = qualname.count(".") == 2
            if not any(name == f.name and (attribute or not method)
                       and not (where == path and f.lineno <= line <= f.end_lineno)
                       for name, attribute, where, line in refs):
                unused.append(qualname)
    assert found and unused == []


def test_round_trip_through_poly():
    for name in ("cartan-d2", "involution-d2"):
        u = catalog_build(name)
        assert CubicForm.from_poly(to_poly(u)).terms == u.terms


def test_scaled():
    u = scaled(DIM3, Fraction(3, 2))
    assert evaluate(to_poly(u), [1, 2, 1]) == Fraction(9, 2)


# sha256 of each catalog form's terms, repr(list(terms.items())) in
# insertion order, and of its sorted JSON.  The float jet sums the
# monomials in insertion order, so the search results depend on it too.
_CATALOG_SHA256 = {
    "trivial": ("2b0fd1157b187d93f9253f850d890000c331997b67701016ff7bcfcc43a07a6a",
        "fdbc43757c2f578739c6d3b4d9aac31cf287baa8ef919980ed3ba7028bf3f5de"),
    "clifford-q0": ("86bf9c6dd52106f40da9237c4c5a1eb4abd1e508e93458fbdbd2f10b7cd24c20",
        "80c17e96d545bfb9199e374e3fd659699a6a590a14f943e844d49a357c18fa79"),
    "clifford-q1": ("5e9499fcf62707af35bbb8e49122d2f5892fa49bcec95ca00a4339bbcf158638",
        "70015a762badb6f38888bc8dfbdec113ca373fec393ffdf257b6e36f16821a85"),
    "clifford-q2": ("df76ecbca9838a4db8c19a1b2a203f4675a355c27003511da9e7fcbb8ac1aa05",
        "004c2ae34600728919ab9a50a098ca3fa1b53ae02d9d50f3ace0969c4986505e"),
    "cartan-d1": ("7687a81f23e99a74d38139897713e19926a231c75ba99008ea1d9e46af779ce3",
        "e5ddfb62db13bf945519d36b82fb123a38901b91db1822e397bf42a70beb433d"),
    "cartan-d2": ("476b917db3ffb80386c0b0c19e16816eec0ff1c0ba09a6acafd2b8744797d268",
        "7fec75b5a092eb02eb81e5a1d90cef7f2e731d76866db0ddd70d52df00466eae"),
    "cartan-d4": ("87b15dbacf01f358e9900cb8e9249e5c85856da76e479f3b06fa48454b6eca35",
        "0a50f373c98d6ddbf3b13154fc548bb561ebc1d9825f0984e2a90c410deb517c"),
    "cartan-d8": ("8506710ab6227c8c2461bcc394eaa88ce6baa2d270a183240add838f1025ddb5",
        "8573be0432aa747a8237dca0c1a9ff33d2badc53cc2a72e68cae79bfc0c9341b"),
    "involution-d2": ("d8310b1eec539a6f14fe9e4b3a714808e4bb41ab3e94eed8dc8fe55eb3bbb280",
        "97e5c33962f379bc3778920c62d997e9747af8fc0780a9c3721ef76fe230359f"),
    "involution-d4": ("dcc1f454714e6370acbaffa93a6c175a1f219163b3aa52c6d8a36f595c032ced",
        "279a5138b495323bbe589a9da59bbce660100c98b1be8859fb40bfea5c78763b"),
    "involution-d8": ("42ed013cb3c0a5bf621f1c3ee145c784baedef7b5f725cf48c0c2d26fb97f0b2",
        "86053ffcdea79b93823b37681dae3ce76e33b009b0478c9d9262beb75b4bdd74"),
    "complexified-d1": ("cb35186398523aa22a9154e5384a815150de09f1384dad7ad597997f4a77eb66",
        "8b54bab58e4ee9a564f9d7dce738518cdc918c1f3bd03a3a5b0794c69a34e40d"),
    "complexified-d2": ("358d118618e7c8ca5dbefc2f7fdff0a36a321aa7a688d31a72be511c42395a68",
        "75f54a7415c9a74dc4dc9edf3c2f4a78dc5dac07cdd2bde42b2a438653aa6d98"),
    "complexified-d4": ("e1ddb3b03fdc1a0fe4fb24f90d9c014874632506871635b89a3de55049e98c21",
        "1060198818d9212d431863e852035a03c76d96a7a2bb1463fa39a60c70959af0"),
    "complexified-d8": ("3bcaa6976bb1e07e2f21b014b51b3524eb585cf1d4f34520624be782b2ece374",
        "e6571cc1dd4442857c1b14c5197a8c3928fc589ce563b811f945e4d267c72c88"),
    "octonion21": ("c5978ecb027d58ba150f51f2e758ac229f91c1fd9bdda2142d5fa6829982644c",
        "e89cada185fb6dd2f88f57e17e3a3c8c7c50e68c76865e73af7d15b6c7652313"),
    "albert21": ("8bd201e3ff63b13180c35233148166bf1d4da069f44d20e424524213e172421c",
        "e89cada185fb6dd2f88f57e17e3a3c8c7c50e68c76865e73af7d15b6c7652313"),
}


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_terms_order_pinned(name):
    u = catalog_build(name)
    items = repr(list(u.terms.items()))
    blob = json.dumps(u.to_json_dict(), sort_keys=True)
    assert (hashlib.sha256(items.encode()).hexdigest(),
            hashlib.sha256(blob.encode()).hexdigest()) == _CATALOG_SHA256[name]


def _coordinates(A):
    """The 3 + 3d real coordinates of a Hermitian matrix."""
    return A.diag + tuple(c for o in A.off for c in o.coeffs)


def _integral(x) -> bool:
    channels = (x.a, x.b) if isinstance(x, QSqrt3) else (x,)
    return all(Fraction(c).denominator == 1 for c in channels)


@pytest.mark.parametrize("make, k", [
    (lambda: tracefree_basis(1), 1), (lambda: tracefree_basis(2), 3),
    (lambda: tracefree_basis(4), 3), (lambda: tracefree_basis(8), 3),
    (lambda: fullspace_basis(2), 2), (lambda: fullspace_basis(4), 2),
    (lambda: fullspace_basis(8), 2)])
def test_common_denominator_clears_each_basis(make, k):
    coords = [x for A in make() for x in _coordinates(A)]
    assert common_denominator(make()) == k
    for x in coords:
        y = cleared(k, x)
        assert type(y) is int or (type(y) is QSqrt3 and type(y.a) is int
                                  and type(y.b) is int), (x, y)
        assert y == k * x
    # k is the least: k / p leaves a fraction for each prime p dividing k
    for p in (p for p in (2, 3) if k % p == 0):
        witness = next(x for x in coords if not _integral(k // p * x))
        with pytest.raises(ValueError):
            cleared(k // p, witness)


# Fraction's arithmetic operators, forward and reflected
_FRACTION_OPERATORS = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv",
                                                 "floordiv", "mod", "divmod", "pow")
                       for r in ("", "r")]


@pytest.mark.parametrize("name, bases", [
    ("complexified-d8", lambda: [fullspace_basis(8)]),
    ("involution-d8", lambda: [fullspace_basis(8)]),
    ("cartan-d8", lambda: [tracefree_basis(8)]),
    ("albert21", lambda: [])])          # the imaginary octonion units: ints
def test_catalog_expands_on_integers(name, bases, monkeypatch):
    """The bound is one Fraction operation per basis coordinate that is not
    an int and per term of the cubic.  Building a basis takes one per such
    coordinate (a unit times 1/2, or -2 times sqrt(3)/3), the division of
    the finished cubic at most one per term, and the expansion none.  One
    Fraction in the expansion costs one or more per product term: expanded
    on the bases as they are, these forms take 18,413, 4,943, 179 and 747
    operations, against bounds of 780, 345, 109 and 42."""
    fractional = sum(type(x) is not int for basis in bases()
                     for A in basis for x in _coordinates(A))
    for builder in (cartan_cubic, involution_cubic, complexified_cubic,
                    albert_contraction_cubic):
        builder.cache_clear()
    calls = []

    def counted(op):
        def call(*args):
            calls.append(op.__name__)
            return op(*args)
        return call

    for name_ in _FRACTION_OPERATORS:
        monkeypatch.setattr(Fraction, name_, counted(getattr(Fraction, name_)))
    u = catalog_build(name)
    monkeypatch.undo()
    assert len(calls) <= fractional + len(u.terms), (name, len(calls))
