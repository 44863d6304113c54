import itertools
import math
import random
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from eigencubic import algebra, cubics, identities, modular
from eigencubic.algebra import MetrisedAlgebra, _newton_step
from eigencubic.cubics import (CATALOG, CubicForm, Jet, cartan_cubic,
                               catalog_build, trivial_cubic)
from eigencubic.identities import check_radial
from eigencubic.poly import Poly
from eigencubic.scalars import QSqrt3, joined
from formref import gradient, hessian, is_cyclic, polarization_tensors, polarize, scaled
from polyref import evaluate
from rotations import cayley_rotation, rotate_by_substitution, rotate_exact, skew

DIM3 = catalog_build("clifford-q0")
ALG3 = MetrisedAlgebra(DIM3)

E1 = [Fraction(1), Fraction(0), Fraction(0)]
E2 = [Fraction(0), Fraction(1), Fraction(0)]
E3 = [Fraction(0), Fraction(0), Fraction(1)]


def frac_point(rng, n, bound=9):
    return [Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
            for _ in range(n)]


def test_multiply_examples():
    # x o y = L_x y with L_x = D^2u(x); the jet holds D L_x
    jet = DIM3.jet(exact=True)
    D = jet.scale
    e1, e2, e3 = (np.array(e, dtype=object) for e in (E1, E2, E3))
    assert (joined(jet.hessian(e2)) @ e2).tolist() == [2 * D, 0, 0]
    assert (joined(jet.hessian(e1)) @ e2).tolist() == [0, 2 * D, 0]
    assert (joined(jet.hessian(e3)) @ e3).tolist() == [-2 * D, 0, 0]


def test_square_is_twice_gradient():
    rng = random.Random(0)
    for name in ("clifford-q0", "cartan-d1", "involution-d2", "cartan-d4"):
        u = catalog_build(name)
        jet = u.jet(exact=True)
        grads = gradient(u)
        for _ in range(5):
            x = frac_point(rng, u.n)
            p = np.array(x, dtype=object)
            assert (joined(jet.hessian(p)) @ p).tolist() == \
                [2 * jet.scale * evaluate(g, x) for g in grads]


def test_multiply_matches_polarization():
    rng = random.Random(1)
    for name in ("clifford-q1", "cartan-d2"):
        u = catalog_build(name)
        jet = u.jet(exact=True)
        for _ in range(5):
            x, y, z = (np.array(frac_point(rng, u.n), dtype=object) for _ in range(3))
            xy = joined(jet.hessian(x)) @ y
            assert xy @ z == jet.scale * polarize(u, x, y, z)


def test_mult_operator():
    jet = DIM3.jet(exact=True)
    D = jet.scale
    L = joined(jet.hessian(np.array(E1, dtype=object)))
    assert L.tolist() == [[0, 0, 0], [0, 2 * D, 0], [0, 0, -2 * D]]
    rng = random.Random(2)
    for _ in range(5):
        x = np.array(frac_point(rng, 3), dtype=object)
        y = np.array(frac_point(rng, 3), dtype=object)
        Lx = joined(jet.hessian(x))
        Ly = joined(jet.hessian(y))
        Lxy = joined(jet.hessian(x + y))
        for i in range(3):
            for j in range(3):
                assert Lx[i][j] == Lx[j][i]
                assert Lxy[i][j] == Lx[i][j] + Ly[i][j]


def test_trace_of_mult_vanishes_iff_harmonic():
    # tr L_x = Lap u(x), on the kernel's Hessian and Laplacian
    rng = random.Random(3)
    jet = DIM3.jet(exact=True)
    assert not any(joined(jet.laplacian(3)))
    for _ in range(5):
        x = frac_point(rng, 3)
        assert joined(jet.hessian(np.array(x, dtype=object))).trace() == 0
    triv = trivial_cubic(3, 1)
    tjet = triv.jet(exact=True)
    # Lap(x^3) = 6x
    assert joined(tjet.hessian(np.array(E1, dtype=object))).trace() == 6 * tjet.scale
    assert joined(tjet.laplacian(3)).tolist() == [6 * tjet.scale, 0, 0]


def test_multiplication_rank():
    assert MetrisedAlgebra(trivial_cubic(3, 1)).multiplication_rank() == 1
    assert MetrisedAlgebra(trivial_cubic(7, Fraction(5, 3))).multiplication_rank() == 1
    assert ALG3.multiplication_rank() == 3
    assert MetrisedAlgebra(CubicForm(3, {})).multiplication_rank() == 0
    assert MetrisedAlgebra(cartan_cubic(4)).multiplication_rank() == 14


@lru_cache(maxsize=None)
def _built(name):
    return catalog_build(name)


def _rank_case(case):
    """The form of a rank case id and its rank: a catalog form as it is,
    times 10^18 or with +1/7 on its first coefficient, or a named form."""
    name, _, variant = case.partition(":")
    if name in CATALOG:
        u = _built(name)
        if variant == "e18":
            u = scaled(u, 10 ** 18)
        elif variant == "mutant":
            k = next(iter(u.terms))
            u = CubicForm(u.n, {**u.terms, k: u.terms[k] + Fraction(1, 7)})
        return u, 1 if name == "trivial" else u.n
    return {"trivial-7": (trivial_cubic(7, Fraction(5, 3)), 1),
            "x1^3+x2^3": (CubicForm(4, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)}), 2),
            # sqrt3 x1^2 x2 + (2 + sqrt3) x1 x2^2: its products span e1, e2
            "sqrt3-deficient": (CubicForm(4, {(0, 0, 1): QSqrt3(0, 1),
                                              (0, 1, 1): QSqrt3(2, 1)}), 2),
            # (x1 + sqrt3 x2)^3: the trivial form on an irrational axis,
            # whose gradients are dependent only over Q(sqrt3)
            "sqrt3-trivial": (CubicForm(2, {(0, 0, 0): QSqrt3(1), (0, 0, 1): QSqrt3(0, 3),
                                            (0, 1, 1): QSqrt3(9), (1, 1, 1): QSqrt3(0, 3)}), 1),
            "zero": (CubicForm(3, {}), 0),
            "n=1": (CubicForm(1, {(0, 0, 0): Fraction(2, 3)}), 1)}[case]


RANK_CASES = ([f"{name}{v}" for name in CATALOG for v in ("", ":e18", ":mutant")]
              + ["trivial-7", "x1^3+x2^3", "sqrt3-deficient", "sqrt3-trivial", "zero",
                 "n=1"])


@pytest.mark.parametrize("case", RANK_CASES)
def test_multiplication_rank_is_the_elimination(monkeypatch, case):
    # with the certificate and without it (the elimination alone), the
    # same rank, and no warning from any residue product
    u, rank = _rank_case(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = MetrisedAlgebra(u).multiplication_rank()
        monkeypatch.setattr(algebra, "_full_rank_mod_p", lambda jet, n: False)
        want = MetrisedAlgebra(u).multiplication_rank()
    assert got == want == rank


def test_the_certificate_decides_every_full_rank_catalog_form(monkeypatch):
    # 16 forms are certified; on trivial the certificate fails, and the
    # elimination finds rank 1
    certify, log = algebra._full_rank_mod_p, []
    monkeypatch.setattr(algebra, "_full_rank_mod_p",
                        lambda jet, n: log.append(certify(jet, n)) or log[-1])
    for name in CATALOG:
        u = _built(name)
        log.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rank = MetrisedAlgebra(u).multiplication_rank()
        assert (log, rank) == (([False], 1) if name == "trivial" else ([True], u.n)), name


@pytest.mark.parametrize("name", ["cartan-d4", "octonion21"])
def test_equal_points_fail_the_certificate_but_not_the_rank(monkeypatch, name):
    # two equal gradient rows make the matrix singular modulo any prime;
    # the elimination then decides, and the rank stays exact
    draw = algebra._randbelow

    def doubled(width, count, rng):
        out, n = draw(width, count, rng), math.isqrt(count)
        out[n:2 * n] = out[:n]
        return out

    monkeypatch.setattr(algebra, "_randbelow", doubled)
    u = _built(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not algebra._full_rank_mod_p(u.jet(exact=True), u.n)
        assert MetrisedAlgebra(u).multiplication_rank() == u.n


@pytest.mark.parametrize("n", [1, 3, 27, 54])
def test_certificate_points_keep_the_rational_batch_draw(monkeypatch, n):
    # the certificate's points are the numerators _rational_batch draws
    # from random.Random(0), one randint per coordinate
    points, kernel_gradient = [], Jet.gradient
    monkeypatch.setattr(Jet, "gradient",
                        lambda jet, p: points.append(p.copy()) or kernel_gradient(jet, p))
    assert algebra._full_rank_mod_p(CubicForm(n, {(0, 0, 0): 1}).jet(exact=True), n) == (n == 1)
    want = algebra._rational_batch(n, n, random.Random(0))[0]
    assert len(points) == 1 and points[0].dtype == np.int64
    assert points[0].tolist() == want.tolist()


def _random_rank_deficient(seed, sqrt3):
    """A form on R^n, 2 <= n <= 6, that is a sum of r < n cubes
    c ell^3 of random linear forms ell, with integer or Q(sqrt3)
    coefficients."""
    rng = random.Random(seed)
    n = rng.randint(2, 6)

    def coefficient(lo, hi):
        a = rng.randint(lo, hi)
        return QSqrt3(a, rng.randint(lo, hi)) if sqrt3 else a

    u = Poly.zero(n)
    for _ in range(rng.randint(1, n - 1)):
        ell = Poly.zero(n)
        for i in range(n):
            ell = ell + Poly.var(n, i) * coefficient(-3, 3)
        u = u + ell * ell * ell * coefficient(1, 5)
    return CubicForm.from_poly(u)


def _sympy_rank(u):
    """The rank over Q(sqrt3) of the products e_i o e_j = L_{e_i} e_j,
    j >= i, read off the ``formref`` Hessian polynomials, from sympy."""
    def entry(x):
        if isinstance(x, QSqrt3):
            return sympy.Rational(x.a) + sympy.Rational(x.b) * sympy.sqrt(3)
        return sympy.Rational(x)

    H, eye = hessian(u), np.eye(u.n, dtype=int).tolist()
    rows = [[entry(evaluate(H[a][j], eye[i])) for a in range(u.n)]
            for i in range(u.n) for j in range(i, u.n)]
    return DomainMatrix.from_list_sympy(len(rows), u.n, rows, extension=True).rank()


@pytest.mark.parametrize("sqrt3", [False, True])
@pytest.mark.parametrize("seed", range(10))
def test_deficient_rank_matches_sympy(seed, sqrt3):
    # below full rank the certificate fails, and the primes decide
    u = _random_rank_deficient(seed, sqrt3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not algebra._full_rank_mod_p(u.jet(exact=True), u.n)
        assert MetrisedAlgebra(u).multiplication_rank() == _sympy_rank(u) < u.n


def test_deficient_rank_outlasts_primes_that_lose_it():
    # x1^3 + P x2^3 on R^3 with P the product of the first 20 rank primes:
    # modulo each of them the form is x1^3, of rank 1, and the Hadamard
    # bound keeps the loop going to a prime that sees rank 2
    primes = list(itertools.islice(modular.primes(), 20))
    P = math.prod(primes)
    u = CubicForm(3, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(P)})
    jet = u.jet(exact=True)
    for p in primes:
        L = modular._at_root(jet.modulo(p).hessian(np.eye(3, dtype=np.int64)), p)
        assert modular._rank_mod_p(L[np.triu_indices(3)], p) == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MetrisedAlgebra(u).multiplication_rank() == 2


def test_deficient_rank_keeps_the_largest_rank():
    # x1^3 + q x2^3 on R^3 with q the fifth rank prime: the primes before
    # it see rank 2, too few to pass the bound at rank 2, and q sees rank
    # 1 with a product already past the bound at rank 1, so a loop that
    # kept the last rank, not the largest, would stop at q with rank 1
    primes = list(itertools.islice(modular.primes(), 5))
    u = CubicForm(3, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(primes[-1])})
    bound = 2 * u.jet(exact=True).l1
    assert math.prod(primes[:4]) <= bound ** 6 and math.prod(primes) > bound ** 4
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MetrisedAlgebra(u).multiplication_rank() == 2


# x1^3 + c x2^3 has L = 3 + 3c; 2L < 2**63 exactly for c <= C_TOP
C_TOP = (2 ** 63 - 6) // 6


@pytest.mark.parametrize("c", ["fifth", C_TOP, C_TOP + 1, "twenty"],
                         ids=["fifth-prime", "2L<2**63", "2L>2**63", "twenty-primes"])
def test_deficient_rank_takes_one_hessian_per_prime(monkeypatch, c):
    # each prime the loop takes evaluates the products D L_{e_i} once, on
    # its own residue jet, whether 2L fits in int64 or not, and the rank
    # is 2 either way
    primes = list(itertools.islice(modular.primes(), 20))
    c = {"fifth": primes[4], "twenty": math.prod(primes)}.get(c, c)
    u = CubicForm(3, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(c)})
    calls = {"hessian": 0, "prime": 0}
    hessian, at_root = Jet.hessian, modular._at_root

    def counted_hessian(self, p):
        calls["hessian"] += 1
        return hessian(self, p)

    def counted_at_root(x, p):
        calls["prime"] += 1
        return at_root(x, p)

    monkeypatch.setattr(Jet, "hessian", counted_hessian)
    monkeypatch.setattr(algebra, "_at_root", counted_at_root)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert MetrisedAlgebra(u).multiplication_rank() == 2
    # one more _at_root call reduces the full-rank certificate's gradients
    assert calls["prime"] >= 3
    assert calls["hessian"] == calls["prime"] - 1


def test_rank_prime_has_a_square_root_of_three():
    p = next(modular.primes())
    assert p == 134217467 and p % 12 == 11
    assert pow(pow(3, (p + 1) // 4, p), 2, p) == 3
    # by trial division, p is prime and no larger q = 11 (mod 12) below
    # PRIME_TOP is
    divisors = [[d for d in range(3, math.isqrt(q) + 1, 2) if q % d == 0]
                for q in range(p, modular.PRIME_TOP, 12)]
    assert divisors[0] == [] and all(divisors[1:])


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
    # every stacked eigh fails, so the polish solves each pass matrix by
    # matrix, and the first Newton matrix of one chosen restart fails
    # alone: exactly that restart's record is missing, and every other
    # record is the one the search without the failure gives, bit for bit
    alg = MetrisedAlgebra(catalog_build("cartan-d1"))
    jet = alg.form.jet(exact=False)
    plain = alg.find_idempotents(seed=1)
    chosen = np.random.default_rng((1, 5))
    x = chosen.standard_normal(alg.n)
    x, ux = _reference_ascent(jet, x / np.linalg.norm(x))
    J0 = 2.0 * jet.hessian(x / (6.0 * ux)) - np.eye(alg.n)
    lost = [p for p in plain if np.array_equal(
        p.c, _reference_search_one(alg, np.random.default_rng((1, 5)))[0] * jet.scale)]
    assert len(lost) == 1
    eigh, calls = np.linalg.eigh, {"stacked": 0, "single": 0, "failed": 0}

    def flaky(J):
        if J.ndim > 2:
            calls["stacked"] += 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        calls["single"] += 1
        if np.array_equal(J, J0):
            calls["failed"] += 1
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(J)

    monkeypatch.setattr(algebra.np.linalg, "eigh", flaky)
    failed = alg.find_idempotents(seed=1)
    assert calls["stacked"] > 0 and calls["single"] > 0 and calls["failed"] == 1
    _assert_same_records(failed, [p for p in plain if p is not lost[0]])


def reference_find_idempotents(alg, restarts, seed):
    """The restart-by-restart search: each restart's ascent of |u| and
    its Newton polish on one vector at a time, in restart order."""
    found = []
    for r in range(restarts):
        rng = np.random.default_rng((seed, r))
        try:
            hit = _reference_search_one(alg, rng)
        except np.linalg.LinAlgError:
            continue
        if hit is None:
            continue
        c, res = hit
        if res > algebra.IDEMPOTENT_RESIDUAL or np.linalg.norm(c) < 1e-8:
            continue
        if any(np.linalg.norm(c - d) < algebra.DEDUP_DISTANCE for d in found):
            continue
        found.append(c)
    scale = alg.form.jet(exact=False).scale
    found = sorted((c * scale for c in found), key=lambda c: tuple(np.round(c, 8)))
    return [_reference_peirce(alg, c) for c in found]


def _reference_peirce(alg, c, bin_tol=algebra.BIN_TOLERANCE):
    """One idempotent's record, from its own gradient, Hessian and
    ``eigvalsh``."""
    jet = alg.form.jet(exact=False)
    cn = c / jet.scale
    residual = jet.scale * float(np.linalg.norm(2.0 * jet.gradient(cn) - cn))
    assert residual <= algebra.IDEMPOTENT_RESIDUAL * jet.scale
    L = jet.hessian(cn)
    eigenvalues = np.linalg.eigvalsh(0.5 * (L + L.T))
    counts, one_mult = [], 0
    used = np.zeros(len(eigenvalues), dtype=bool)
    for target in (1.0,) + algebra.PEIRCE_EIGENVALUES:
        sel = (~used) & (np.abs(eigenvalues - target) < bin_tol)
        used |= sel
        if target == 1.0:
            one_mult = int(np.sum(sel))
        else:
            counts.append(int(np.sum(sel)))
    return algebra.PeirceData(c=c, length_sq=float(c @ c),
                              eigenvalues=np.sort(eigenvalues), triple=tuple(counts),
                              one_multiplicity=one_mult,
                              unbinned=[float(v) for v in eigenvalues[~used]],
                              residual=residual)


def _reference_ascent(jet, x, steps=200, halvings=30):
    """Projected ascent of |u| from the unit point x, one point, capped at
    ``steps`` steps of at most ``halvings`` halvings each; the end point
    and u there."""
    ux = jet.value(x)
    step = 0.4
    for _ in range(steps):
        g = jet.gradient(x)
        lam = float(g @ x)
        tangent = g - lam * x
        tnorm = np.linalg.norm(tangent)
        if tnorm < 1e-12:
            break
        sgn = 1.0 if ux >= 0 else -1.0
        cur = abs(ux)
        for _ in range(halvings):
            xn = x + step * sgn * tangent
            xn /= np.linalg.norm(xn)
            un = jet.value(xn)
            if abs(un) > cur:
                x, ux = xn, un
                step *= 1.2
                break
            step *= 0.5
        else:
            break
    return x, ux


def _reference_search_one(alg, rng):
    n = alg.n
    jet = alg.form.jet(exact=False)
    x = rng.standard_normal(n)
    x /= np.linalg.norm(x)
    return _reference_polish(jet, *_reference_ascent(jet, x))


def _reference_polish(jet, x, ux, halvings=20):
    """Newton on c o c = c from one ascent end point, with gradient
    fallback steps of at most ``halvings`` halvings; (c, |c o c - c|), or
    None if u(x) ~ 0."""
    n = len(x)
    lam = 3.0 * ux
    if abs(lam) < 1e-8:
        return None
    c = x / (2.0 * lam)
    I = np.eye(n)
    Fv = 2.0 * jet.gradient(c) - c
    fn = np.linalg.norm(Fv)
    for _ in range(algebra.NEWTON_STEPS):
        if fn < 1e-14:
            break
        J = 2.0 * jet.hessian(c) - I
        cn = c + _newton_step(*np.linalg.eigh(J), Fv)
        Fn_v = 2.0 * jet.gradient(cn) - cn
        fn_new = np.linalg.norm(Fn_v)
        if fn_new < fn:
            c, Fv, fn = cn, Fn_v, fn_new
            continue
        grad = J @ Fv
        gn = np.linalg.norm(grad)
        if gn < 1e-16:
            break
        t = min(0.5, fn / gn)
        improved = False
        for _ in range(halvings):
            cn = c - t * grad
            Fn_v = 2.0 * jet.gradient(cn) - cn
            fn_new = np.linalg.norm(Fn_v)
            if fn_new < fn:
                c, Fv, fn = cn, Fn_v, fn_new
                improved = True
                break
            t *= 0.5
        if not improved:
            break
    return c, fn


def _assert_same_records(got, want):
    assert len(got) == len(want)
    for p, q in zip(got, want):
        assert np.array_equal(p.c, q.c)
        assert np.array_equal(p.eigenvalues, q.eigenvalues)
        assert p.to_json_dict() == q.to_json_dict()


@pytest.mark.parametrize("name", list(CATALOG))
def test_find_idempotents_matches_restart_by_restart_reference(name):
    # the ascent on blocks of restarts gives the records, in their order,
    # that one restart at a time gives, bit for bit
    alg = MetrisedAlgebra(catalog_build(name))
    for seed in (1, 2, 3):
        _assert_same_records(alg.find_idempotents(restarts=16, seed=seed),
                             reference_find_idempotents(alg, 16, seed))


@pytest.mark.parametrize("bin_tol", [1e-15, 0.3, 0.6, 2.0])
def test_peirce_bins_match_the_loop_at_any_tolerance(bin_tol):
    # narrow bins leave eigenvalues unbinned; wide ones overlap, and each
    # eigenvalue takes the first of 1, -1, -1/2, 1/2 within reach
    for name in ("clifford-q1", "cartan-d2", "involution-d4"):
        alg = MetrisedAlgebra(catalog_build(name))
        got = alg.find_idempotents(restarts=8, seed=1, bin_tol=bin_tol)
        _assert_same_records(got, [_reference_peirce(alg, p.c, bin_tol) for p in got])


@pytest.mark.parametrize("distance", [algebra.DEDUP_DISTANCE, 0.3, 1.0])
@pytest.mark.parametrize("name", ["clifford-q0", "cartan-d1", "complexified-d1"])
def test_find_idempotents_dedup_matches_pairwise_norms(monkeypatch, name, distance):
    # the search keeps, in restart order, exactly the polished points that
    # a loop of np.linalg.norm(c - d) against every kept d keeps, at the
    # default distance (nothing on a continuum of idempotents is a
    # duplicate) and at distances that drop most of them
    alg = MetrisedAlgebra(catalog_build(name))
    hits = []
    polish = algebra._polish

    def recording(jet, X, U):
        out = polish(jet, X, U)
        hits.extend(h for h in out if h is not None)
        return out

    monkeypatch.setattr(algebra, "_polish", recording)
    monkeypatch.setattr(algebra, "DEDUP_DISTANCE", distance)
    got = alg.find_idempotents(restarts=200, seed=2)
    good = [c for c, res in hits
            if not (res > algebra.IDEMPOTENT_RESIDUAL or np.linalg.norm(c) < 1e-8)]
    kept = []
    for c in good:
        if not any(np.linalg.norm(c - d) < distance for d in kept):
            kept.append(c)
    scale = alg.form.jet(exact=False).scale
    want = sorted((c * scale for c in kept), key=lambda c: tuple(np.round(c, 8)))
    assert len(got) == len(want)
    assert all(np.array_equal(p.c, c) for p, c in zip(got, want))
    assert len(kept) < len(good) if distance >= 0.3 else len(kept) >= 1


@pytest.mark.parametrize("name", ["cartan-d2", "complexified-d1", "complexified-d8"])
def test_find_idempotents_blocks_of_restarts(monkeypatch, name):
    # blocks of 3 restarts, the last one short, give the one-restart records
    alg = MetrisedAlgebra(catalog_build(name))
    monkeypatch.setattr(cubics, "BLOCK", 3 * alg.n * alg.n)
    _assert_same_records(alg.find_idempotents(restarts=10, seed=4),
                         reference_find_idempotents(alg, 10, seed=4))


@pytest.mark.parametrize("name", ["cartan-d2", "complexified-d1", "octonion21"])
def test_ascent_stops_at_its_step_cap(monkeypatch, name):
    # with ASCENT_STEPS patched low, every row ends where the one-row
    # reference capped at the same count ends, bit for bit; rows that
    # reach the cap end elsewhere one step earlier or later, so a cap one
    # step off fails
    jet = catalog_build(name).jet(exact=False)
    X = np.random.default_rng(11).standard_normal((12, jet.ijk.max() + 1))
    X /= np.linalg.norm(X, axis=1)[:, None]
    for cap in (1, 2, 5):
        monkeypatch.setattr(algebra, "ASCENT_STEPS", cap)
        ends, values = algebra._ascend(jet, X)
        for steps in (cap - 1, cap, cap + 1):
            want = [_reference_ascent(jet, x, steps) for x in X]
            same = [np.array_equal(e, w) and v == uw
                    for e, v, (w, uw) in zip(ends, values, want)]
            assert all(same) if steps == cap else not all(same), (cap, steps)


def _ascent_start(name, rows, seed):
    jet = catalog_build(name).jet(exact=False)
    X = np.random.default_rng(seed).standard_normal((rows, jet.ijk.max() + 1))
    return jet, X / np.linalg.norm(X, axis=1)[:, None]


@pytest.mark.parametrize("name", ["cartan-d2", "complexified-d1", "involution-d4"])
def test_ascent_stops_at_its_halving_cap(monkeypatch, name):
    # with ASCENT_HALVINGS patched low, every row ends where the one-row
    # reference with the same cap ends, bit for bit, also where the growing
    # stacks of candidates overshoot the cap (4, 7); a cap one off fails
    jet, X = _ascent_start(name, 32, 11)
    for cap in (1, 2, 4, 7):
        monkeypatch.setattr(algebra, "ASCENT_HALVINGS", cap)
        ends, values = algebra._ascend(jet, X)
        for halvings in (cap - 1, cap, cap + 1):
            want = [_reference_ascent(jet, x, halvings=halvings) for x in X]
            same = [np.array_equal(e, w) and v == uw
                    for e, v, (w, uw) in zip(ends, values, want)]
            assert all(same) if halvings == cap else not all(same), (cap, halvings)


@pytest.mark.parametrize("name,caps", [("clifford-q1", (1, 2, 3)),
                                       ("complexified-d1", (1, 2)),
                                       ("octonion21", (1, 2))])
def test_polish_stops_at_its_halving_cap(monkeypatch, name, caps):
    # with POLISH_HALVINGS patched low, every row of the stacked polish ends
    # where the one-row reference with the same fallback cap ends, bit for
    # bit; a cap one off fails.  The polish starts from the sphere points
    # themselves, whose fallback steps need more halvings than the
    # ascent's end points do.  octonion21 takes its own start seed: from
    # seed 5's points no fallback needs exactly one halving, so caps 1 and
    # 0 would end alike
    jet, X = _ascent_start(name, 32, {"octonion21": 1}.get(name, 5))
    U = jet.value(X)
    for cap in caps:
        monkeypatch.setattr(algebra, "POLISH_HALVINGS", cap)
        got = algebra._polish(jet, X, U)
        for halvings in (cap - 1, cap, cap + 1):
            want = [_reference_polish(jet, x, u, halvings) for x, u in zip(X, U)]
            same = [(g is None and w is None) or (g is not None and w is not None
                                                  and np.array_equal(g[0], w[0])
                                                  and g[1] == w[1])
                    for g, w in zip(got, want)]
            assert all(same) if halvings == cap else not all(same), (cap, halvings)


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
    assert np.max(np.abs(_newton_step(*np.linalg.eigh(J), F) - want)) <= 1e-12 * np.max(np.abs(want))


def _symmetric(eigenvalues, seed):
    """The symmetric V diag(eigenvalues) V^T, V a random orthogonal matrix;
    J and V."""
    V, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigenvalues),) * 2))
    return V @ np.diag(eigenvalues) @ V.T, V


def test_newton_step_drops_near_null_eigenvalues():
    # an eigenvalue at or below sqrt(eps) max|lambda|, as J's tangent ones
    # are 1e-12 from a family of idempotents, is dropped as the exact 0 is:
    # the step is pinv(J, rcond=sqrt(eps)) (-F), with no part along its
    # eigenvector
    rcond = math.sqrt(np.finfo(float).eps)
    J, V = _symmetric([3.0, -2.0, 1.0, 3e-12, 0.0], 3)
    F = np.random.default_rng(4).standard_normal(5)
    step = _newton_step(*np.linalg.eigh(J), F)
    want = np.linalg.pinv(J, rcond=rcond) @ -F
    assert np.max(np.abs(step - want)) <= 1e-12 * np.max(np.abs(want))
    assert abs(V[:, 3] @ step) <= 1e-12 * np.linalg.norm(step)
    # at 1e-6 max|lambda| an eigenvalue stays, as at an isolated
    # idempotent: the step is the full solve
    J = _symmetric([3.0, -2.0, 1.0, -1.5, 3e-6], 5)[0]
    step = _newton_step(*np.linalg.eigh(J), F)
    want = np.linalg.solve(J, -F)
    assert np.max(np.abs(step - want)) <= 1e-8 * np.max(np.abs(want))


@pytest.mark.parametrize("name", list(CATALOG))
def test_polish_ends_each_restart_in_one_newton_step(monkeypatch, name):
    # the ascent leaves each restart about 1e-12 from its family of
    # idempotents; with J's near-null eigenvalues dropped, one Newton step
    # takes every restart of a block below the stop rule: one eigh per
    # block, no gradient fallback, and a residual of at most 1e-15
    calls = {"eighs": 0, "fallback": 0}

    def counted(key, f):
        def spy(*args):
            calls[key] += 1
            return f(*args)
        return spy

    monkeypatch.setattr(algebra, "_eighs", counted("eighs", algebra._eighs))
    monkeypatch.setattr(algebra, "_fallback", counted("fallback", algebra._fallback))
    alg = MetrisedAlgebra(catalog_build(name))
    blocks = -(-16 // cubics.block_rows(alg.n * alg.n))
    for seed in (1, 2, 3):
        calls["eighs"] = 0
        records = alg.find_idempotents(restarts=16, seed=seed)
        assert calls == {"eighs": blocks, "fallback": 0}, seed
        assert all(p.residual <= 1e-15 for p in records), seed


@pytest.mark.parametrize("name", list(CATALOG))
def test_idempotents_do_not_follow_the_summation_order(name):
    # the float kernel sums a form's terms in the order given; with the
    # terms reversed the rounding differs, yet the search ends at the same
    # idempotents, within 1e-12, as the polish takes no step along a family
    u = catalog_build(name)
    rev = CubicForm(u.n, dict(reversed(list(u.terms.items()))))
    a = MetrisedAlgebra(u).find_idempotents(restarts=16, seed=1)
    b = MetrisedAlgebra(rev).find_idempotents(restarts=16, seed=1)
    assert [p.triple for p in a] == [p.triple for p in b]
    assert all(np.max(np.abs(p.c - q.c)) <= 1e-12 for p, q in zip(a, b))


def test_find_idempotents_requires_restart():
    with pytest.raises(ValueError):
        ALG3.find_idempotents(restarts=0, seed=0)
    with pytest.raises(ValueError):
        ALG3.find_idempotents(restarts=2, seed=-1)


def _peirce(alg, c):
    """The Peirce record of the one point c, as the search builds its
    records."""
    return algebra._peirce_records(alg.form.jet(exact=False), c[None],
                                   algebra.BIN_TOLERANCE)[0]


def test_peirce_rejects_non_idempotent():
    with pytest.raises(ValueError):
        _peirce(ALG3, np.array([1.0, 1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_peirce_rejects_a_non_finite_point(bad, monkeypatch):
    # a NaN or infinite residual is not <= the tolerance: the point is
    # rejected as not an idempotent, with no LinAlgError and no warning,
    # whatever the tolerance
    c = np.array([0.5, bad, 0.0])
    for tol in (1e-8, np.inf):
        monkeypatch.setattr(algebra, "IDEMPOTENT_RESIDUAL", tol)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not an idempotent"):
                _peirce(ALG3, c)


def test_peirce_is_the_search_records_routine():
    # the record of c alone is the one the search gives for c in its
    # stack, bit for bit
    alg = MetrisedAlgebra(catalog_build("complexified-d2"))
    for p in alg.find_idempotents(restarts=16, seed=1):
        q = _peirce(alg, p.c)
        assert np.array_equal(p.eigenvalues, q.eigenvalues)
        assert p.to_json_dict() == q.to_json_dict()


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
    jet = DIM3.jet(exact=True)
    D = jet.scale
    x = np.array([Fraction(1), Fraction(1), Fraction(0)], dtype=object)
    x2 = joined(jet.hessian(x)) @ x / D
    x3 = joined(jet.hessian(x2)) @ x / D
    assert x2.tolist() == [2, 4, 0] and x3.tolist() == [8, 12, 0]
    lhs = sum(a * a for a in x2) * joined(jet.hessian(x)).trace() / D - \
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
        alg = MetrisedAlgebra(scaled(u, t))
        assert alg.check_hsiang_identity(t * t * theta, trials=20, seed=2) == 0


def test_hsiang_identity_detects_wrong_theta():
    # the residual is exact; the value is the one the separate
    # integer-channel implementation gave before the kernel took over
    assert ALG3.check_hsiang_identity(Fraction(-7), trials=20, seed=3) == 416520


@pytest.mark.parametrize("trials", [0, -1])
def test_exact_checks_need_a_trial(trials):
    # at no point the residual would be 0, which reads as "the identity
    # holds", while 5 points refute theta = 7 on cartan-d1
    alg = MetrisedAlgebra(catalog_build("cartan-d1"))
    assert alg.check_hsiang_identity(Fraction(7), trials=5) == 13107680
    with pytest.raises(ValueError, match="trials must be at least 1"):
        alg.check_hsiang_identity(Fraction(7), trials=trials)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        alg.weak_associativity_max_residual(trials=trials)


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
    for u, wrong in ((uf, 555408), (rotate_by_substitution(uf, R), 132936)):
        assert not u.is_exact_form
        alg = MetrisedAlgebra(u)
        values = (alg.check_hsiang_identity(Fraction(-8), trials=20, seed=3),
                  alg.check_hsiang_identity(Fraction(-7), trials=20, seed=3),
                  alg.weak_associativity_max_residual(trials=50, seed=3))
        assert values == (0, wrong, 0)
        assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("name, want", [
    ("cartan-d4", QSqrt3(2707752, 641472)),
    ("cartan-d8", QSqrt3(10208664, Fraction(1655720, 3)))])
def test_sqrt3_hsiang_residual_pinned(name, want):
    # a wrong theta on the Q(sqrt3) forms, 100 points: the values the
    # kernel gave when it joined every output entry to one QSqrt3
    got = MetrisedAlgebra(catalog_build(name)).check_hsiang_identity(
        Fraction(-1), trials=100, seed=1)
    assert got == want and type(got) is QSqrt3


def _fraction_hsiang(u, theta, trials, seed):
    """``check_hsiang_identity`` as it was before the integer zero test:
    a Fraction residual built at every point."""
    jet = u.jet(exact=True)
    D = jet.scale
    X, dens = algebra._rational_batch(u.n, trials, random.Random(seed))
    worst = Fraction(0)
    c = theta * D * D
    for (lhs, rhs), d in zip(identities._rows(identities._sides_at(identities.RADIAL, jet, X)), dens.tolist()):
        diff = lhs - c * rhs
        if isinstance(diff, QSqrt3) and not diff.b:
            diff = diff.a
        if diff:
            worst = max(worst, abs(4 * diff / Fraction(D ** 3 * d ** 5)))
    return worst


@pytest.mark.parametrize("name", list(CATALOG))
def test_hsiang_residual_matches_the_fraction_loop(name):
    # at the form's theta, at theta + 1/7 and at theta + sqrt3/7, which
    # keeps the per-point loop, the residual is the loop's, value and type
    # (repr), at seeds 0-2; it is 0 at theta alone
    u = catalog_build(name)
    alg = MetrisedAlgebra(u)
    theta = check_radial(u).constant
    for seed in (0, 1, 2):
        for t in (theta, theta + Fraction(1, 7), theta + QSqrt3(0, Fraction(1, 7))):
            got = alg.check_hsiang_identity(t, seed=seed)
            assert repr(got) == repr(_fraction_hsiang(u, t, 100, seed)), (seed, t)
            assert (got == 0) is (t is theta)


@pytest.mark.parametrize("name", list(CATALOG))
def test_trilinear_matches_polarize(name):
    # the trilinear form <D^2(D*u)(x) y, z> of the kernel's Hessian, on
    # integer arrays (plus a sqrt(3) jet), against the direct coo loop of
    # formref.polarize
    u = catalog_build(name)
    jet = u.jet(exact=True)
    has_sqrt3 = any(isinstance(c, QSqrt3) for c in u.terms.values())
    assert (jet.sqrt3 is not None) == has_sqrt3
    for part in (jet, jet.sqrt3) if has_sqrt3 else (jet,):
        assert all(type(w) is int for w in part.m)
    rng = random.Random(12)
    for _ in range(2):
        x, y, z = (np.array(frac_point(rng, u.n), dtype=object) for _ in range(3))
        assert y @ joined(jet.hessian(x)) @ z == jet.scale * polarize(u, x, y, z)


def test_weak_associativity():
    for name in ("clifford-q0", "cartan-d1", "cartan-d4", "involution-d2"):
        alg = MetrisedAlgebra(catalog_build(name))
        assert alg.weak_associativity_max_residual(trials=100, seed=4) == 0


@pytest.mark.parametrize("name", ["cartan-d1", "cartan-d8"])
def test_hsiang_float_theta_is_its_binary_fraction(name):
    # a float theta is read as the binary fraction it is: the residual is
    # the Fraction loop's at Fraction(theta), value and type (repr), on a
    # rational form and on a Q(sqrt3) one; at cartan-d1's theta + 0.25,
    # theta D^2 = -215 is exact in float64 too
    u = catalog_build(name)
    theta = float(check_radial(u).constant) + 0.25
    for seed in (0, 1):
        got = MetrisedAlgebra(u).check_hsiang_identity(theta, seed=seed)
        assert got and repr(got) == repr(_fraction_hsiang(u, Fraction(theta), 100, seed))


def test_find_idempotents_memory_follows_what_it_keeps():
    # the trivial form on R^9 has one idempotent, so ten blocks of restarts
    # keep what one block does: the traced peak grows by about one block's
    # (rows, n) float array, which a block leaves alive into the next, and
    # by less than 5 of them, where an array of a row per restart adds 9
    n = 9
    alg = MetrisedAlgebra(trivial_cubic(n))
    rows = cubics.block_rows(n * n)
    alg.find_idempotents(restarts=rows, seed=1)     # the jet and numpy's caches
    peaks = []
    for restarts in (rows, 10 * rows):
        tracemalloc.start()
        try:
            assert len(alg.find_idempotents(restarts=restarts, seed=1)) == 1
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 5 * rows * n * 8


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
    alg = MetrisedAlgebra(scaled(DIM3, t))
    base = ALG3.find_idempotents(restarts=16, seed=7)
    idems = alg.find_idempotents(restarts=16, seed=7)
    base_set = [p.c for p in base]
    for p in idems:
        assert min(np.linalg.norm(p.c * float(t) - b) for b in base_set) < 1e-10
        assert np.allclose(np.sort(p.eigenvalues), [-0.5, -0.5, 1.0], atol=1e-10)


@pytest.mark.parametrize("s", [1e-9, 1e6, 1e8])
def test_find_idempotents_scale_invariance(s):
    # the search cutoffs are in the float jet's normalised units, so a
    # scaled float form gives every idempotent the unscaled one does
    idems = MetrisedAlgebra(scaled(cartan_cubic(1).to_float(), s)) \
        .find_idempotents(restarts=64, seed=1)
    assert len(idems) == 64
    assert {p.triple for p in idems} == {(2, 0, 2)}


def test_dim3_triple_satisfies_table_relations():
    idems = ALG3.find_idempotents(restarts=8, seed=8)
    n1, n2, n3 = idems[0].triple
    assert DIM3.n == 1 + n1 + n2 + n3 + (idems[0].one_multiplicity - 1)
    assert n3 == 2 * n1 + n2 - 2


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
    jet = u.jet(exact=True)
    rng = random.Random(10)
    for _ in range(3):
        x = [QSqrt3(Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
             for _ in range(u.n)]
        y = [Fraction(rng.randint(-3, 3)) for _ in range(u.n)]
        z = [Fraction(rng.randint(-3, 3)) for _ in range(u.n)]
        x, y, z = (np.array(p, dtype=object) for p in (x, y, z))
        xy = joined(jet.hessian(x)) @ y
        lhs = sum(a * b for a, b in zip(xy, z))
        rhs = sum(a * b for a, b in zip(x, joined(jet.hessian(y)) @ z))
        assert lhs == rhs


# -- the rational draw and the weak-associativity reference -----------------

def _rational_batch_loop(n, count, rng):
    """The reference draw: one randint per coordinate, point by point, then
    one per denominator, as Python ints."""
    nums = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(count)]
    return nums, [rng.randint(1, 3) for _ in range(count)]


def _weak_loop(jet, n, trials, seed):
    """The reference residual: one random rational triple at a time on
    Python ints, each side contracted with ``formref.polarization_tensors``."""
    tensors = polarization_tensors(jet, n)

    def polarization(x, y, z):
        r, *s = (x @ ((T @ z) @ y) for T in tensors)
        return QSqrt3(r, *s) if s else r

    rng = random.Random(seed)
    (X, dx), (Y, dy), (Z, dz) = (_rational_batch_loop(n, trials, rng)
                                 for _ in range(3))
    worst = Fraction(0)
    for x, y, z, a, b, c in zip(X, Y, Z, dx, dy, dz):
        x, y, z = (np.array(p, dtype=object) for p in (x, y, z))
        diff = polarization(x, y, z) - polarization(y, z, x)
        worst = max(worst, abs(diff / Fraction(jet.scale * a * b * c)))
    return worst


@pytest.mark.parametrize("seed", range(20))
def test_rational_batch_keeps_the_randint_stream(seed):
    for n in (1, 3, 27, 54):
        for count in (0, 1, 1000):
            fast, slow = random.Random(seed), random.Random(seed)
            for _ in range(3):
                nums, dens = algebra._rational_batch(n, count, fast)
                want_nums, want_dens = _rational_batch_loop(n, count, slow)
                assert nums.dtype == dens.dtype == np.int64
                assert nums.shape == (count, n) and dens.shape == (count,)
                assert nums.tolist() == want_nums and dens.tolist() == want_dens
                assert fast.getstate() == slow.getstate()


def _unrotated_jet(sqrt3: bool) -> Jet:
    # 5 x0 x1 x2 - 7 x0^2 x1 with one rotation of each monomial only, so
    # <x o y, z> and <y o z, x> differ; as a sqrt(3) jet, 5 x0 x1 x2 with
    # all three rotations plus sqrt(3) times the unrotated one, so that
    # only the sqrt(3) channel of the difference is nonzero
    ijk = np.array([[0, 0], [1, 0], [2, 1]], dtype=np.intp)
    if not sqrt3:
        return Jet(6, ijk, np.array([5, -7], dtype=object))
    rotations = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.intp)
    return Jet(6, rotations, np.array([5, 5, 5], dtype=object),
               sqrt3=Jet(6, ijk, np.array([5, -7], dtype=object)))


def _kernel_weak(jet, n, trials, seed):
    """The residual at ``_weak_loop``'s triples from the kernel's Hessians
    of whole stacks of points: <x o y, z> - <y o z, x> =
    x.D^2(D*u)(z).y - y.D^2(D*u)(x).z."""
    rng = random.Random(seed)
    (X, dx), (Y, dy), (Z, dz) = (algebra._rational_batch(n, trials, rng) for _ in range(3))
    X, Y, Z = (P.astype(object) for P in (X, Y, Z))
    HX, HZ = joined(jet.hessian(X)), joined(jet.hessian(Z))
    return max(abs((x @ hz @ y - y @ hx @ z) / Fraction(jet.scale * int(a * b * c)))
               for x, y, z, hx, hz, a, b, c in zip(X, Y, Z, HX, HZ, dx, dy, dz))


@pytest.mark.parametrize("chunk", [cubics.BLOCK, 7])
@pytest.mark.parametrize("sqrt3", [False, True])
def test_weak_associativity_paths_agree(monkeypatch, sqrt3, chunk):
    # the kernel's residual, in any block size, is the one-triple-at-a-time
    # reference residual, nonzero and of the same type; nothing warns
    jet = _unrotated_jet(sqrt3)
    monkeypatch.setattr(cubics, "BLOCK", chunk)
    want = _weak_loop(jet, 3, 200, 5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernel_weak(jet, 3, 200, 5)
    assert got == want != 0
    assert type(got) is type(want) is (QSqrt3 if sqrt3 else Fraction)


@pytest.mark.parametrize("u", [
    CubicForm(3, {(0, 0, 0): Fraction(10 ** 40), (0, 1, 2): Fraction(1, 3)}),
    CubicForm(3, {(0, 0, 0): 1e40, (0, 1, 2): 0.1, (1, 1, 1): 3.0})],
    ids=["rational", "float"])
def test_weak_associativity_huge_coefficient_is_zero(u):
    # L = 9 * 10^40 + 3 and, for the float form (0.1 as a binary fraction,
    # D = 2**55), L near 2**190: the residual is an exact zero, without a
    # warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = MetrisedAlgebra(u).weak_associativity_max_residual(trials=100, seed=6)
    assert got == 0 and type(got) is Fraction


# -- weak associativity on the kernel's tensor ------------------------------

@pytest.mark.parametrize("name", list(CATALOG))
def test_cyclic_holds_on_every_form_built(name):
    # the kernel tensor of the catalog form, times 10^18, with +1/7 on its
    # first coefficient, and of its float copy's exact jet is cyclic, and
    # weak associativity is an exact 0 on each
    u = _built(name)
    k = next(iter(u.terms))
    for v in (u, scaled(u, 10 ** 18), CubicForm(u.n, {**u.terms, k: u.terms[k] + Fraction(1, 7)}),
              u.to_float()):
        assert is_cyclic(v.jet(exact=True), v.n)
        got = MetrisedAlgebra(v).weak_associativity_max_residual(trials=10, seed=1)
        assert got == 0 and type(got) is Fraction


@pytest.mark.parametrize("name", ["cartan-d4", "octonion21"])
def test_cyclic_holds_on_rotated_forms(name):
    # a dense rational Cayley rotation: 560 and 1,771 monomials whose
    # coefficients have up to 172 digits, a Q(sqrt3) form among them
    u = _built(name)
    n = u.n
    entries = [Fraction(i % 5 - 2, 1 + i % 3) for i in range(n * (n - 1) // 2)]
    uq = rotate_exact(u, cayley_rotation(skew(n, entries)))
    assert len(uq.terms) > len(u.terms)
    assert is_cyclic(uq.jet(exact=True), n)


@pytest.mark.parametrize("sqrt3", [False, True])
def test_cyclic_fails_on_unrotated_jets(sqrt3):
    # one rotation per monomial; as a sqrt(3) jet only that channel fails,
    # and <x o y, z> and <y o z, x> differ at the reference's triples
    jet = _unrotated_jet(sqrt3)
    assert not is_cyclic(jet, 3)
    if sqrt3:
        assert is_cyclic(replace(jet, sqrt3=None), 3)
    assert _weak_loop(jet, 3, 200, 5) != 0


def test_cyclic_reads_the_tensor_not_the_rotations():
    # x0 x1 x2 as the rotations (0; 1, 2), (1; 0, 2), (2; 0, 1): not the
    # layout's (0; 1, 2), (1; 2, 0), (2; 0, 1), but the same tensor
    jet = Jet(1, np.array([[0, 1, 2], [1, 0, 0], [2, 2, 1]], dtype=np.intp),
              np.array([3, 3, 3], dtype=object))
    assert is_cyclic(jet, 3) and _kernel_weak(jet, 3, 20, 0) == 0
    assert not is_cyclic(replace(jet, m=np.array([3, 3, 4], dtype=object)), 3)


def _bumped(jet: Jet, r: int) -> Jet:
    m = jet.m.copy()
    m[r] += 1
    return replace(jet, m=m)


@pytest.mark.parametrize("name", list(CATALOG))
def test_cyclic_fails_with_one_rotation_changed(name):
    # m + 1 at one rotation (a; b, c) of a monomial that is no cube adds 1
    # at (a, b, c) and (a, c, b) only, on either sqrt(3) channel.  On a
    # cube all orderings are one entry and the polynomial stays cyclic:
    # trivial, x1^3 alone, keeps it
    u = _built(name)
    jet = u.jet(exact=True)
    for part, rebuild in ((jet, lambda p: p),
                          (jet.sqrt3, lambda p: replace(jet, sqrt3=p))):
        if part is None:
            continue
        a, b, c = part.ijk
        others = np.flatnonzero((a != b) | (b != c))
        if not others.size:
            assert name == "trivial"
            assert is_cyclic(rebuild(_bumped(part, 0)), u.n)
            continue
        assert not is_cyclic(rebuild(_bumped(part, int(others[0]))), u.n)
        assert not is_cyclic(rebuild(_bumped(part, int(others[-1]))), u.n)


@pytest.mark.parametrize("seed", range(40))
def test_cyclic_matches_the_dense_tensor(seed):
    # small hand-built jets, n <= 4 and 1-6 rotations, half of them all
    # three rotations of each monomial, some with a sqrt(3) channel: the
    # reference is cyclic exactly when the kernel's residual is 0 at 20
    # random triples
    rng = random.Random(seed)
    n = rng.randint(1, 4)

    def part():
        keys = [tuple(rng.randrange(n) for _ in range(3)) for _ in range(rng.randint(1, 2))]
        m = [rng.choice([-2 ** 63, -1, 1, 2, 2 ** 62]) for _ in keys]
        if seed % 2:
            keys, m = keys + [(j, k, i) for i, j, k in keys] + [(k, i, j) for i, j, k in keys], m * 3
            # (a; c, b) is the rotation (a; b, c) in the tensor
            keys = [(a, c, b) if rng.random() < 0.5 else (a, b, c) for a, b, c in keys]
        else:
            keep = [rng.random() < 0.7 for _ in keys]
            keys = [key for key, t in zip(keys, keep) if t] or keys[:1]
            m = [v for v, t in zip(m, keep) if t] or m[:1]
        return np.array(keys, dtype=np.intp).T, np.array(m, dtype=object)

    jet = Jet(1, *part())
    if seed % 3 == 0:
        jet = Jet(1, jet.ijk, jet.m, sqrt3=Jet(1, *part()))
    assert is_cyclic(jet, n) == (_kernel_weak(jet, n, 20, seed) == 0)
    if seed % 2:
        assert is_cyclic(jet, n)
    if is_cyclic(jet, n):
        assert _weak_loop(jet, n, 20, seed) == 0


def test_weak_associativity_of_a_cyclic_jet_draws_no_triple(monkeypatch):
    # on every catalog form no point drawn and no jet read, and still an
    # exact Fraction 0: the identity holds by construction
    forms = {name: _built(name) for name in CATALOG}

    def refuse(*args, **kwargs):
        raise AssertionError("weak associativity drew a point or read a jet")

    monkeypatch.setattr(algebra, "_randbelow", refuse)
    monkeypatch.setattr(CubicForm, "jet", refuse)
    for name, u in forms.items():
        got = MetrisedAlgebra(u).weak_associativity_max_residual()
        assert got == 0 and type(got) is Fraction, name
