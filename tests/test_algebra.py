import math
import random
from fractions import Fraction

import numpy as np
import pytest

from eigencubic import algebra
from eigencubic.algebra import MetrisedAlgebra, _newton_step
from eigencubic.cubics import (CATALOG, CubicForm, cartan_cubic, catalog_build,
                               trivial_cubic)
from eigencubic.identities import check_radial
from eigencubic.scalars import QSqrt3
from rotations import rotate_exact

DIM3 = catalog_build("clifford-q0")
ALG3 = MetrisedAlgebra(DIM3)

E1 = [Fraction(1), Fraction(0), Fraction(0)]
E2 = [Fraction(0), Fraction(1), Fraction(0)]
E3 = [Fraction(0), Fraction(0), Fraction(1)]


def frac_point(rng, n, bound=9):
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            for _ in range(n)]


def test_multiply_examples():
    assert ALG3.multiply(E2, E2) == [2, 0, 0]
    assert ALG3.multiply(E1, E2) == [0, 2, 0]
    assert ALG3.multiply(E3, E3) == [-2, 0, 0]


def test_square_is_twice_gradient():
    rng = random.Random(0)
    for name in ("clifford-q0", "cartan-d1", "involution-d2", "cartan-d4"):
        u = catalog_build(name)
        alg = MetrisedAlgebra(u)
        grads = u.gradient()
        for _ in range(5):
            x = frac_point(rng, u.n)
            assert alg.multiply(x, x) == [2 * g.eval(x) for g in grads]


def test_multiply_matches_polarization():
    rng = random.Random(1)
    for name in ("clifford-q1", "cartan-d2"):
        u = catalog_build(name)
        alg = MetrisedAlgebra(u)
        for _ in range(5):
            x, y, z = (frac_point(rng, u.n) for _ in range(3))
            xy = alg.multiply(x, y)
            assert sum(a * b for a, b in zip(xy, z)) == u.polarize(x, y, z)


def test_mult_operator():
    L = ALG3.mult_operator(E1)
    assert L == [[0, 0, 0], [0, 2, 0], [0, 0, -2]]
    rng = random.Random(2)
    for _ in range(5):
        x = frac_point(rng, 3)
        y = frac_point(rng, 3)
        Lx = ALG3.mult_operator(x)
        Ly = ALG3.mult_operator(y)
        Lxy = ALG3.mult_operator([a + b for a, b in zip(x, y)])
        for i in range(3):
            for j in range(3):
                assert Lx[i][j] == Lx[j][i]
                assert Lxy[i][j] == Lx[i][j] + Ly[i][j]


def test_trace_of_mult_vanishes_iff_harmonic():
    rng = random.Random(3)
    for _ in range(5):
        assert ALG3.trace_of_mult(frac_point(rng, 3)) == 0
    triv = MetrisedAlgebra(trivial_cubic(3, 1))
    assert triv.trace_of_mult(E1) == 6  # Lap(x^3) = 6x


def test_generic_trace_form():
    assert ALG3.generic_trace_form(E1, E1) == 8
    rng = random.Random(4)
    for _ in range(5):
        x = frac_point(rng, 3)
        y = frac_point(rng, 3)
        assert ALG3.generic_trace_form(x, y) == ALG3.generic_trace_form(y, x)
        tau = ALG3.generic_trace_form(x, x)
        assert tau >= 0


def test_multiplication_rank():
    assert MetrisedAlgebra(trivial_cubic(3, 1)).multiplication_rank() == 1
    assert MetrisedAlgebra(trivial_cubic(7, Fraction(5, 3))).multiplication_rank() == 1
    assert ALG3.multiplication_rank() == 3
    assert MetrisedAlgebra(CubicForm(3, {})).multiplication_rank() == 0
    assert MetrisedAlgebra(cartan_cubic(4)).multiplication_rank() == 14


def test_find_idempotents_dim3():
    idems = ALG3.find_idempotents(restarts=32, seed=1)
    assert idems
    s2o4 = math.sqrt(2) / 4
    targets = [np.array(t) for t in
               ((0.25, s2o4, 0), (0.25, -s2o4, 0),
                (-0.25, 0, s2o4), (-0.25, 0, -s2o4))]
    hit = False
    for p in idems:
        assert p.residual < 1e-12
        assert abs(p.length_sq - 3 / 16) < 1e-10
        assert min(np.linalg.norm(p.c - t) for t in targets) < 1e-8
        if min(np.linalg.norm(p.c - t) for t in targets[:2]) < 1e-8:
            hit = True
        assert np.allclose(np.sort(p.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-8)
        assert p.triple == (0, 2, 0)
        assert p.one_multiplicity == 1
        assert not p.unbinned
    assert hit, "the (1/4, sqrt2/4, 0) orbit was not recovered"


def test_find_idempotents_trivial():
    alg = MetrisedAlgebra(trivial_cubic(1, Fraction(1, 6)))
    idems = alg.find_idempotents(restarts=4, seed=0)
    assert len(idems) == 1
    assert idems[0].c == pytest.approx([1.0])


def test_find_idempotents_every_catalog_algebra():
    from eigencubic.cubics import CATALOG
    for name, entry in CATALOG.items():
        if entry.dim > 21:
            continue
        alg = MetrisedAlgebra(entry.build())
        idems = alg.find_idempotents(restarts=8, seed=5)
        assert idems, name


@pytest.mark.parametrize("name,seed,triple", [("complexified-d8", 1, (1, 26, 26)),
                                              ("complexified-d4", 24, (1, 14, 14))])
def test_find_idempotents_singular_newton_system(name, seed, triple):
    # well-scaled singular Newton systems on which an SVD-based least
    # squares solve does not converge
    idems = MetrisedAlgebra(catalog_build(name)).find_idempotents(restarts=16,
                                                                   seed=seed)
    assert {p.triple for p in idems} == {triple}


def test_find_idempotents_skips_a_failed_restart(monkeypatch):
    # a restart whose eigh fails is dropped; every other restart gives
    # the same record as without the failure
    alg = MetrisedAlgebra(catalog_build("cartan-d1"))
    plain = alg.find_idempotents(seed=1)
    calls = []

    def flaky(J, F):
        calls.append(None)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return _newton_step(J, F)

    monkeypatch.setattr(algebra, "_newton_step", flaky)
    failed = alg.find_idempotents(seed=1)
    kept = [p for p in plain if any(np.array_equal(p.c, q.c) for q in failed)]
    assert len(failed) == len(kept) == len(plain) - 1
    assert [p.triple for p in failed] == [p.triple for p in kept]


def test_newton_step_is_pseudo_inverse():
    # at a cartan-d1 idempotent 1/2 is a Peirce eigenvalue, so J = 2 L_c - I
    # is singular; the step is the least-norm solution pinv(J) (-F).  The
    # best-converged idempotent is taken, so J's null eigenvalues sit
    # below both pseudo-inverse cutoffs
    u = cartan_cubic(1)
    c = min(MetrisedAlgebra(u).find_idempotents(restarts=4, seed=1),
            key=lambda p: p.residual).c
    jet = u.jet(exact=False)
    J = 2.0 * jet.hessian(c / jet.scale) - np.eye(u.n)
    assert np.linalg.matrix_rank(J) < u.n
    F = np.random.default_rng(2).standard_normal(u.n)
    want = np.linalg.pinv(J) @ -F
    assert np.max(np.abs(_newton_step(J, F) - want)) <= 1e-12 * np.max(np.abs(want))


def test_find_idempotents_requires_restart():
    with pytest.raises(ValueError):
        ALG3.find_idempotents(restarts=0, seed=0)


def test_peirce_rejects_non_idempotent():
    with pytest.raises(ValueError):
        ALG3.peirce(np.array([1.0, 1.0, 1.0]))


def test_peirce_triples_against_table():
    for name in ("cartan-d1", "involution-d2", "complexified-d1", "octonion21"):
        entry = __import__("eigencubic.cubics", fromlist=["CATALOG"]).CATALOG[name]
        alg = MetrisedAlgebra(entry.build())
        idems = alg.find_idempotents(restarts=12, seed=2)
        assert idems
        assert {p.triple for p in idems} == {entry.triple}, name
        assert all(p.one_multiplicity == 1 for p in idems)
        assert all(not p.unbinned for p in idems)


def test_hsiang_identity_dim3():
    assert ALG3.check_hsiang_identity(Fraction(-8), trials=50, seed=0) == 0
    # at x = (1,1,0): x^2 = (2,4,0), x^3 = (8,12,0), both sides magnitude 64
    x = [Fraction(1), Fraction(1), Fraction(0)]
    x2 = ALG3.multiply(x, x)
    x3 = ALG3.multiply(x2, x)
    assert x2 == [2, 4, 0] and x3 == [8, 12, 0]
    lhs = sum(a * a for a in x2) * ALG3.trace_of_mult(x) - \
        sum(a * b for a, b in zip(x2, x3))
    rhs = Fraction(2, 3) * (-8) * sum(a * a for a in x) * \
        sum(a * b for a, b in zip(x2, x))
    assert lhs == rhs
    assert abs(lhs) == 64


def test_hsiang_identity_trivial():
    # theta = 0: <x^2,x^2> tr L_x = <x^2, x^3>
    alg = MetrisedAlgebra(trivial_cubic(1, 1))
    assert alg.check_hsiang_identity(Fraction(0), trials=20, seed=1) == 0


def test_hsiang_identity_scaling():
    rng = random.Random(5)
    u = catalog_build("clifford-q1")
    theta = check_radial(u).constant
    for _ in range(3):
        t = Fraction(rng.randint(1, 7), rng.randint(1, 7))
        alg = MetrisedAlgebra(u.scaled(t))
        assert alg.check_hsiang_identity(t * t * theta, trials=20, seed=2) == 0


def test_hsiang_identity_detects_wrong_theta():
    # the residual is exact; the value is the one the separate
    # integer-channel implementation gave before the kernel took over
    assert ALG3.check_hsiang_identity(Fraction(-7), trials=20, seed=3) == 416520


def test_exact_checks_pinned_values():
    # values from the separate integer-channel implementation the kernel
    # replaced: a sqrt(3) form at a wrong theta, a rational one, and float
    # forms, whose coefficients enter as the binary fractions they are
    d4 = MetrisedAlgebra(catalog_build("cartan-d4"))
    assert d4.check_hsiang_identity(Fraction(-1), trials=20, seed=3) == \
        QSqrt3(3751272, -436464)
    d2 = MetrisedAlgebra(catalog_build("cartan-d2"))
    r = d2.check_hsiang_identity(Fraction(1), trials=20, seed=3)
    assert r == Fraction(11412544, 9) and type(r) is Fraction
    uf = catalog_build("clifford-q1").to_float()
    # a quarter turn in the (x1, x2) plane
    R = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    for u, wrong in ((uf, 555408), (rotate_exact(uf, R), 132936)):
        alg = MetrisedAlgebra(u)
        values = (alg.check_hsiang_identity(Fraction(-8), trials=20, seed=3),
                  alg.check_hsiang_identity(Fraction(-7), trials=20, seed=3),
                  alg.weak_associativity_max_residual(trials=50, seed=3))
        assert values == (0, wrong, 0)
        assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("name", list(CATALOG))
def test_trilinear_matches_polarize(name):
    # the kernel's trilinear contraction of D*u, on integer arrays (plus a
    # sqrt(3) jet), against the direct coo loop of CubicForm.polarize
    u = catalog_build(name)
    jet = u.jet(exact=True)
    has_sqrt3 = any(isinstance(c, QSqrt3) for c in u.terms.values())
    assert (jet.sqrt3 is not None) == has_sqrt3
    for part in (jet, jet.sqrt3) if has_sqrt3 else (jet,):
        assert all(type(w) is int for w in part.m)
    rng = random.Random(12)
    for _ in range(2):
        x, y, z = (np.array(frac_point(rng, u.n), dtype=object) for _ in range(3))
        assert jet.trilinear(x, y, z) == jet.scale * u.polarize(x, y, z)


def test_weak_associativity():
    for name in ("clifford-q0", "cartan-d1", "cartan-d4", "involution-d2"):
        alg = MetrisedAlgebra(catalog_build(name))
        assert alg.weak_associativity_max_residual(trials=100, seed=4) == 0


def test_idempotent_uniform_length_and_spectrum():
    for name in ("cartan-d1", "involution-d2"):
        alg = MetrisedAlgebra(catalog_build(name))
        idems = alg.find_idempotents(restarts=24, seed=6)
        assert len(idems) >= 5
        lengths = [p.length_sq for p in idems]
        assert max(lengths) - min(lengths) < 1e-8
        specs = [np.sort(p.eigenvalues) for p in idems]
        for s in specs[1:]:
            assert np.max(np.abs(s - specs[0])) < 1e-6


def test_peirce_scale_invariance():
    # idempotents of t*u are c/t with the same L-spectrum
    t = Fraction(3, 2)
    scaled = MetrisedAlgebra(DIM3.scaled(t))
    base = ALG3.find_idempotents(restarts=16, seed=7)
    idems = scaled.find_idempotents(restarts=16, seed=7)
    base_set = [p.c for p in base]
    for p in idems:
        assert min(np.linalg.norm(p.c * float(t) - b) for b in base_set) < 1e-10
        assert np.allclose(np.sort(p.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-10)


@pytest.mark.parametrize("s", [1e-9, 1e6, 1e8])
def test_find_idempotents_scale_invariance(s):
    # the search cutoffs are in the float jet's normalised units, so a
    # scaled float form gives every idempotent the unscaled one does
    idems = MetrisedAlgebra(cartan_cubic(1).to_float().scaled(s)) \
        .find_idempotents(restarts=64, seed=1)
    assert len(idems) == 64
    assert {p.triple for p in idems} == {(2, 0, 2)}


def test_dim3_triple_satisfies_table_relations():
    idems = ALG3.find_idempotents(restarts=8, seed=8)
    n1, n2, n3 = idems[0].triple
    assert DIM3.n == 1 + n1 + n2 + n3 + (idems[0].one_multiplicity - 1)
    assert n3 == 2 * n1 + n2 - 2


def test_vector_length_validation():
    with pytest.raises(ValueError):
        ALG3.multiply([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        ALG3.mult_operator([1, 2])
    with pytest.raises(ValueError):
        ALG3.find_idempotents(restarts=2, seed=-1)


def test_find_idempotents_deterministic():
    alg = MetrisedAlgebra(cartan_cubic(1))
    a = alg.find_idempotents(restarts=12, seed=9)
    b = alg.find_idempotents(restarts=12, seed=9)
    assert len(a) == len(b)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.c, pb.c)
        assert np.array_equal(pa.eigenvalues, pb.eigenvalues)


def test_exact_ops_accept_sqrt3_vectors():
    u = catalog_build("cartan-d4")
    alg = MetrisedAlgebra(u)
    rng = random.Random(10)
    for _ in range(3):
        x = [QSqrt3(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
             for _ in range(u.n)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(u.n)]
        z = [Fraction(rng.randint(-3, 3)) for _ in range(u.n)]
        xy = alg.multiply(x, y)
        lhs = sum(a * b for a, b in zip(xy, z))
        rhs = sum(a * b for a, b in zip(x, alg.multiply(y, z)))
        assert lhs == rhs
