"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines and timings.  Catalog constructors are cached, so the session
fixture warms them once and each criterion times its own checks.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from eigencubic.algebra import MetrisedAlgebra
from eigencubic.clifford import hurwitz_radon
from eigencubic.cubics import (CATALOG, albert_contraction_cubic, cartan_cubic,
                               catalog_build, octonion_cubic21)
from eigencubic.identities import (DEFAULT_BOUND, RADIAL, check_eiconal,
                                   check_harmonic, check_radial, sample_cone,
                                   trace_identity_cubic, trace_identity_quadratic)
from eigencubic.scalars import joined
from eigencubic.tables import (ELIMINATED, OPEN, REALIZABLE, admissible_triples,
                               cross_validate)
from formref import dense_tensor, gradient, is_cyclic, laplacian, scaled, to_poly
from polyref import evaluate

SZ_BOUND_20 = (5 / 10 ** 6) ** 20


def _report(num, elapsed, detail=""):
    print(f"[PASS] criterion {num:2d} ({elapsed:7.3f}s) {detail}")


@pytest.fixture(scope="module", autouse=True)
def warm_catalog():
    for name in CATALOG:
        catalog_build(name)


def test_criterion_01_hurwitz_radon():
    t0 = time.perf_counter()
    got = tuple(hurwitz_radon(m) for m in range(1, 17))
    elapsed = time.perf_counter() - t0
    assert got == (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
    assert elapsed < 0.001
    _report(1, elapsed, "rho(1..16) exact")


def test_criterion_02_dim3_oracle_suite():
    t0 = time.perf_counter()
    u = catalog_build("clifford-q0")
    assert check_radial(u, "exact").constant == -8
    assert check_harmonic(u)
    assert trace_identity_quadratic(u, "exact").constant == 8
    assert trace_identity_cubic(u, "exact").constant == 24
    alg = MetrisedAlgebra(u)
    idems = alg.find_idempotents(restarts=32, seed=1)
    target = np.array([0.25, math.sqrt(2) / 4, 0.0])
    best = min(idems, key=lambda p: np.linalg.norm(np.abs(p.c) - target))
    assert np.linalg.norm(np.abs(best.c) - target) < 1e-10
    assert best.residual < 1e-12
    assert np.allclose(np.sort(best.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-8)
    jet = u.jet(exact=True)
    D = jet.scale
    x = np.array([Fraction(1), Fraction(1), Fraction(0)], dtype=object)
    x2 = joined(jet.hessian(x)) @ x / D
    x3 = joined(jet.hessian(x2)) @ x / D
    lhs = sum(a * a for a in x2) * joined(jet.hessian(x)).trace() / D - \
        sum(a * b for a, b in zip(x2, x3))
    rhs = Fraction(2, 3) * (-8) * sum(a * a for a in x) * \
        sum(a * b for a, b in zip(x2, x))
    assert lhs == rhs and abs(lhs) == 64
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(2, elapsed, "dim-3: theta=-8, trH^2=8|x|^2, trH^3=24u, "
                        "idempotent + spectrum + both sides 64")


def test_criterion_03_cartan_cubics():
    t0 = time.perf_counter()
    expected = {1: (2, 0, 2), 2: (3, 0, 4), 4: (5, 0, 8), 8: (9, 0, 16)}
    rng = np.random.default_rng(0)
    kappas = {}
    for d, triple in expected.items():
        u = cartan_cubic(d)
        r = check_eiconal(u)
        assert r.passed and r.constant > 0
        kappas[d] = r.constant
        scale = 3.0 / math.sqrt(float(r.constant))
        T = dense_tensor(scaled(u.to_float(), scale))
        for _ in range(100):
            p = rng.standard_normal(u.n)
            p /= np.linalg.norm(p)
            g = 3 * np.einsum("abc,b,c->a", T, p, p)
            assert abs(float(g @ g) - 9.0) / 9.0 < 1e-9
        assert not laplacian(u)
        alg = MetrisedAlgebra(u)
        idems = alg.find_idempotents(restarts=16, seed=2)
        assert idems and {p.triple for p in idems} == {triple}
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    kap = ", ".join(f"d{d}: {k}" for d, k in kappas.items())
    _report(3, elapsed, f"kappa ({kap}) -> 9|x|^4 after rescale; triples OK")


def test_criterion_04_octonion_albert_agreement():
    t0 = time.perf_counter()
    import random
    oc = octonion_cubic21()
    al = albert_contraction_cubic()
    rng = random.Random(9)
    ratio = None
    checked = 0
    while checked < 10:
        pt = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(21)]
        vo = evaluate(to_poly(oc), pt)
        if vo == 0:
            continue
        r = evaluate(to_poly(al), pt) / vo
        ratio = r if ratio is None else ratio
        assert r == ratio
        checked += 1
    r_oc = check_radial(oc, seed=3)
    r_al = check_radial(al, seed=3)
    assert r_oc.passed and r_al.passed
    assert r_al.constant == ratio * ratio * r_oc.constant
    for u in (oc, al):
        alg = MetrisedAlgebra(u)
        idems = alg.find_idempotents(restarts=12, seed=4)
        assert idems and {p.triple for p in idems} == {(4, 5, 11)}
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(4, elapsed, f"proportionality constant {ratio}; "
                        f"theta {r_oc.constant} both; triples (4,5,11)")


def test_criterion_05_table_reproduction():
    t0 = time.perf_counter()
    rows = admissible_triples()
    assert len(rows) == 23
    counts = Counter(r.status for r in rows)
    assert counts == {REALIZABLE: 12, ELIMINATED: 8, OPEN: 3}
    for r in rows:
        assert r.dim == 1 + r.n1 + r.n2 + r.n3
        assert r.n3 == 2 * r.n1 + r.n2 - 2
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.001
    _report(5, elapsed, "23 rows, 12/8/3 partition, dimension relations")


def test_criterion_06_cross_validation():
    t0 = time.perf_counter()
    reports = cross_validate(seed=5, restarts=8)
    by_triple = {tuple(r["triple"]): r for r in reports}
    for rep in reports:
        if rep["status"] == REALIZABLE:
            assert rep["result"] == "pass", rep
        else:
            assert rep["result"] == "untestable"
    d8 = by_triple[(1, 26, 26)]
    assert d8["radial_mode"] == "random"
    assert d8["radial_error_bound"] <= SZ_BOUND_20
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(6, elapsed, "12 realizable witnesses validated; dim-54 error "
                        f"bound {d8['radial_error_bound']:.2e}")


def test_criterion_07_harmonicity_law():
    t0 = time.perf_counter()
    for name, entry in CATALOG.items():
        u = catalog_build(name)
        if entry.family == "trivial":
            assert not check_harmonic(u)
        else:
            assert check_harmonic(u), name
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _report(7, elapsed, "every non-trivial catalog form harmonic, trivial fails")


def test_criterion_08_algebra_axioms():
    import random
    t0 = time.perf_counter()
    rng = random.Random(11)
    for name in CATALOG:
        u = catalog_build(name)
        grads = gradient(u)
        jet = u.jet(exact=True)
        # <x o y, z> = <y o z, x> at every triple, decided exactly: the
        # kernel's polarization tensor equals its cyclic shift
        assert is_cyclic(jet, u.n), name
        for _ in range(5):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(u.n)]
            # the kernel holds D L_x, and x o x = L_x x
            L = joined(jet.hessian(np.array(x, dtype=object)))
            for i in range(u.n):
                for j in range(i + 1, u.n):
                    assert L[i][j] == L[j][i]
            assert (L @ x).tolist() == [2 * jet.scale * evaluate(g, x) for g in grads]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(8, elapsed, "weak associativity exact on the kernel tensor of every "
                        "algebra, L_x symmetric, x^2 = 2 grad u")


def test_criterion_09_hsiang_identity():
    # with x^2 = 2 Du, x^3 = 2 D^2u Du and <x^2, x> = 6u, the Hsiang
    # identity is 4 times the radial identity with the same theta; the
    # random check evaluates both sides at 101 points, solves theta at one
    # and tests it at the others
    t0 = time.perf_counter()
    bound = max((RADIAL.degree / DEFAULT_BOUND) ** 100, math.ulp(0.0))
    for name in CATALOG:
        u = catalog_build(name)
        theta = check_radial(u, seed=13).constant
        rep = check_radial(u, mode="random", trials=100, seed=14)
        assert (rep.passed, rep.constant, rep.mode) == (True, theta, "random"), name
        assert rep.error_bound == bound, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _report(9, elapsed, "exact at 101 random integer points per catalog form, "
                        f"error bound {bound:.1e}")


def test_criterion_10_minimal_cone_property():
    t0 = time.perf_counter()
    worst = 0.0
    tested = []
    for name, entry in CATALOG.items():
        if entry.dim > 21 or entry.family == "trivial":
            continue
        u = catalog_build(name)
        t1 = time.perf_counter()
        rep = sample_cone(u, 200, seed=15)
        per_form = time.perf_counter() - t1
        assert len(rep.points) == 200, name
        assert rep.max_abs_curvature < 1e-6, (name, rep.max_abs_curvature)
        assert per_form < 60.0, name
        worst = max(worst, rep.max_abs_curvature)
        tested.append(name)
    # the trivial cone is entirely singular: every candidate is rejected
    triv = sample_cone(catalog_build("trivial"), 5, seed=15)
    assert not triv.points and triv.rejected > 0
    elapsed = time.perf_counter() - t0
    _report(10, elapsed, f"{len(tested)} forms x 200 cone points, "
                         f"max |H| = {worst:.2e}")


def test_criterion_11_idempotent_uniformity():
    t0 = time.perf_counter()
    for name, entry in CATALOG.items():
        if entry.dim > 27:
            continue
        u = catalog_build(name)
        alg = MetrisedAlgebra(u)
        idems = alg.find_idempotents(restarts=48, seed=16)
        if entry.family == "trivial":
            # the rank-one algebra has exactly one nonzero idempotent, so
            # uniformity is vacuous; just confirm the search finds it
            assert len(idems) == 1
        elif name == "clifford-q0":
            # the 3-variable algebra has a finite idempotent set of size 4
            # (hand enumeration of c o c = c); uniformity holds across all
            assert len(idems) == 4
        else:
            assert len(idems) >= 5, (name, len(idems))
        lengths = [p.length_sq for p in idems]
        assert max(lengths) - min(lengths) < 1e-8, name
        base = np.sort(idems[0].eigenvalues)
        for p in idems[1:]:
            assert np.max(np.abs(np.sort(p.eigenvalues) - base)) < 1e-6, name
    elapsed = time.perf_counter() - t0
    _report(11, elapsed, "lengths within 1e-8 and spectra within 1e-6 "
                         "across >= 5 idempotents per algebra (n <= 27)")
