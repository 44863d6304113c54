import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencubic import algebra, cubics, identities, poly
from eigencubic.algebra import MetrisedAlgebra
from eigencubic.cubics import (CATALOG, CubicForm, Jet, cartan_cubic, catalog_build,
                               trivial_cubic)
from eigencubic.identities import (DEFAULT_BOUND, DEFAULT_TRIALS, EICONAL,
                                   MAX_TRIES, RADIAL, TRACE2, TRACE3,
                                   ConeSampleReport, _Identity,
                                   _proportional_float,
                                   _randbelow, check_eiconal,
                                   check_harmonic, check_radial, classify,
                                   sample_cone,
                                   trace_identity_cubic,
                                   trace_identity_quadratic)
from eigencubic.poly import Poly
from eigencubic.modular import moduli, primes
from eigencubic.scalars import QSqrt3, QSqrt3Array, exact_div, joined
from formref import dense_tensor, gradient, hessian, laplacian, scaled, sparse_cubic, to_poly
from polyref import diff, evaluate, joined_terms
from rotations import cayley_rotation, rotate_by_substitution, rotate_exact, skew

DIM3 = catalog_build("clifford-q0")

IDENTITY_CHECKS = (check_radial, check_eiconal, trace_identity_quadratic,
                   trace_identity_cubic)


def test_harmonic():
    assert not check_harmonic(trivial_cubic(3, 1))
    assert check_harmonic(DIM3)


def test_radial_examples():
    assert check_radial(trivial_cubic(5, 1), "exact").constant == 0
    r = check_radial(DIM3, "exact")
    assert r.passed and r.constant == -8
    bad = CubicForm(2, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)})
    assert not check_radial(bad, "exact").passed
    with pytest.raises(ValueError):
        check_radial(CubicForm(3, {}))


def test_random_mode_needs_a_trial():
    # with no trial the Schwartz-Zippel bound would be 1: nothing checked
    for trials in (0, -3):
        with pytest.raises(ValueError):
            check_radial(DIM3, "random", trials=trials)


def test_residue_hessian_at_its_longest_entry_sum():
    # x0^2 x_c, c = 0..127, at coefficient and point residues p - 1 for the
    # largest residue prime p: the diagonal entry H_00 sums 2n + 4 = 260
    # products (p - 1)^2, the most any entry sums at MAX_DIM
    n, p = cubics.MAX_DIM, next(primes())
    u = CubicForm(n, {(0, 0, c): Fraction(-1) for c in range(n)})
    jet = u.jet(exact=True).modulo(p)
    assert (jet.m == p - 1).all()
    point = [p - 1] * n
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        H = identities._residue_pieces(jet, np.array([point], dtype=np.int64), p)[2].x[0]
    assert H.tolist() == [[evaluate(h, point) % p for h in row] for row in hessian(u)]


@pytest.mark.parametrize("seed", range(20))
def test_random_points_keep_the_randrange_stream(seed):
    # the random mode's points, drawn in one call or one call per point as
    # the checks do, are the draws one randrange(10**6) per coordinate
    # gives, and leave the stream where those leave it
    for n in (1, 18, 54):
        whole, per_point, slow = (random.Random(seed) for _ in range(3))
        got = _randbelow(DEFAULT_BOUND, (DEFAULT_TRIALS + 1) * n, whole)
        assert got.dtype == np.int64
        assert got.tolist() == [slow.randrange(10 ** 6)
                                for _ in range((DEFAULT_TRIALS + 1) * n)]
        assert np.concatenate([_randbelow(DEFAULT_BOUND, n, per_point)
                               for _ in range(DEFAULT_TRIALS + 1)]).tolist() == got.tolist()
        assert whole.getstate() == per_point.getstate() == slow.getstate()


def test_radial_random_agrees_with_exact():
    for name in ("clifford-q1", "cartan-d1", "involution-d2"):
        u = catalog_build(name)
        ex = check_radial(u, "exact")
        rn = check_radial(u, "random", seed=3)
        assert ex.constant == rn.constant
        assert rn.error_bound <= (5 / 10 ** 6) ** 20


def test_radial_residual_random_zero():
    # build the degree-5 residual of the dim-3 example symbolically; its
    # full expansion is exactly zero
    u = DIM3
    grads = gradient(u)
    G = sum((g * g for g in grads), Poly.zero(3))
    half = Fraction(1, 2)
    P = G * laplacian(u) - half * sum(
        (grads[j] * diff(G, j) for j in range(3)), Poly.zero(3))
    r2 = Poly(3, {(i, i): Fraction(1) for i in range(3)})
    residual = P - (-8) * r2 * to_poly(u)
    assert not residual


def test_eiconal():
    for d, kappa in ((1, Fraction(9)), (2, Fraction(1, 3))):
        r = check_eiconal(cartan_cubic(d))
        assert r.passed and r.constant == kappa
    for d in (4, 8):
        r = check_eiconal(cartan_cubic(d))
        assert r.passed and r.constant == Fraction(1, 3)
    assert not check_eiconal(DIM3, "exact").passed
    assert not check_eiconal(CubicForm(3, {})).passed


def test_eiconal_normalized_float():
    # rescaled by 3/sqrt(kappa) the form satisfies |Du|^2 = 9|x|^4 to 1e-9
    rng = np.random.default_rng(0)
    for d in (1, 2):
        u = cartan_cubic(d)
        kappa = check_eiconal(u).constant
        uf = scaled(u.to_float(), 3.0 / math.sqrt(float(kappa)))
        T = dense_tensor(uf)
        for _ in range(20):
            p = rng.standard_normal(u.n)
            p /= np.linalg.norm(p)
            g = 3 * np.einsum("abc,b,c->a", T, p, p)
            assert abs(g @ g - 9.0) < 1e-9


def test_eiconal_implies_square_identity():
    # <x^2, x^2> = 4 kappa <x,x>^2, exactly, including the sqrt3 forms
    rng = random.Random(1)
    for d in (1, 2, 4, 8):
        u = cartan_cubic(d)
        kappa = check_eiconal(u).constant
        jet = u.jet(exact=True)
        for _ in range(10 if d <= 2 else 3):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(u.n)]
            # x o x = L_x x, and the kernel holds D L_x
            x2 = joined(jet.hessian(np.array(x, dtype=object))) @ x / jet.scale
            xx = sum(v * v for v in x)
            assert sum(v * v for v in x2) == 4 * kappa * xx * xx


@pytest.mark.parametrize("n", [3, 20])
def test_zero_form_random_mode(n):
    # trace3 reads 0 = t * 0 at every point, so t = 0 with the usual
    # bound; the eiconal identity demands kappa > 0, so the zero form
    # fails it, in the mode that ran
    z = CubicForm(n, {})
    for trials in (1, DEFAULT_TRIALS):
        r = trace_identity_cubic(z, "random", trials=trials)
        assert r.passed and r.constant == 0
        assert r.error_bound == (3 / 10 ** 6) ** trials
    assert check_eiconal(z, "random").to_json_dict() == {
        "check": "eiconal", "pass": False, "constant": None, "mode": "random",
        "error_bound": 0.0}


def test_trace_identity_quadratic():
    assert trace_identity_quadratic(DIM3, "exact").constant == 8
    q1 = catalog_build("clifford-q1")
    assert not trace_identity_quadratic(q1, "exact").passed
    r = trace_identity_quadratic(cartan_cubic(1), "exact")
    assert r.passed and r.constant > 0


def test_trace_identity_cubic():
    assert trace_identity_cubic(DIM3, "exact").constant == 24
    assert trace_identity_cubic(trivial_cubic(2, 1), "exact").constant == 216
    for name in ("clifford-q1", "cartan-d1", "involution-d2", "octonion21"):
        r = trace_identity_cubic(catalog_build(name))
        assert r.passed, name


@pytest.mark.parametrize("name, a", [("cartan-d8", -48), ("involution-d8", Fraction(3, 2))])
def test_trace3_of_a_form_beyond_int64(name, a):
    # scaled by 1e12, the Hessian's largest entry at points below 1e6 has
    # 59 bits or more, so n * max|H|^2 >= 2**63 and H @ H runs on Python
    # ints; cartan-d8's Hessian is a Q(sqrt3) pair
    s = 10 ** 12
    u = catalog_build(name)
    assert trace_identity_cubic(u, "random", seed=1).constant == a
    r = trace_identity_cubic(scaled(u, s), "random", seed=1)
    assert r.passed and r.constant == s * s * a


def test_trace_cube_vanishes_for_complexified_family():
    # tr(D^2 u)^3 is identically zero for the real parts of holomorphic
    # determinants; the exact path proves it at d = 1, the randomized
    # path agrees at d = 2
    from eigencubic.cubics import complexified_cubic
    r = trace_identity_cubic(complexified_cubic(1), "exact")
    assert r.passed and r.constant == 0
    r2 = trace_identity_cubic(complexified_cubic(2), seed=5)
    assert r2.passed and r2.constant == 0


def test_theta_is_minus_six_kappa_for_eiconal_forms():
    for d in (1, 2, 4, 8):
        u = cartan_cubic(d)
        theta = check_radial(u).constant
        kappa = check_eiconal(u).constant
        assert theta == -6 * kappa


def test_classify_labels():
    assert classify(trivial_cubic(3, 1)).label == "trivial"
    assert classify(catalog_build("clifford-q1")).label == "clifford-type"
    assert classify(catalog_build("clifford-q2")).label == "clifford-type"
    assert classify(cartan_cubic(1)).label == "exceptional-or-mutant"
    assert classify(catalog_build("involution-d2")).label == "exceptional-or-mutant"
    bad = CubicForm(2, {(0, 0, 0): Fraction(1), (1, 1, 1): Fraction(1)})
    assert classify(bad).label == "not-eigencubic"
    # the 3-variable example passes the quadratic trace predicate although
    # its dimension is outside the admissible table; reported as computed
    assert classify(DIM3).label == "exceptional-or-mutant"


def test_classify_record_fields():
    rec = classify(DIM3)
    assert rec.is_harmonic and not rec.is_trivial
    assert rec.radial_theta == -8
    assert rec.quad_trace == 8
    assert rec.cubic_trace == 24
    d = rec.to_json_dict()
    assert d["radial_theta"] == "-8"


def test_radial_scale_covariance():
    # under u -> t u every constant scales by t^2: each lhs has degree two
    # more in u than its rhs, which is also what lets the exact modes
    # evaluate an integer multiple D u and divide by D^2
    rng = random.Random(2)
    for name in ("clifford-q0", "cartan-d1"):
        u = catalog_build(name)
        for check in IDENTITY_CHECKS:
            base = check(u)
            for _ in range(5):
                t = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                if rng.random() < 0.5:
                    t = -t
                r = check(scaled(u, t))
                assert r.passed == base.passed, (name, check.__name__)
                if base.passed:
                    assert r.constant == t * t * base.constant, (name, t)


@pytest.mark.parametrize("name", ["clifford-q1", "cartan-d4"])
def test_float_overflow_raises(name):
    # the float jet is normalised, so scaled by 1e80, where the sides of
    # u itself (three factors of u) would overflow float64, every check
    # gives its verdict at scale 1; sides that do overflow raise instead
    # of reporting "not an eigencubic"
    uf = catalog_build(name).to_float()
    for check in IDENTITY_CHECKS:
        assert check(scaled(uf, 1e80)).passed == check(uf).passed, check.__name__
    with pytest.raises(ValueError, match="not finite"):
        _proportional_float(_Identity("inf", 2, lambda v, g, H, r2: (np.inf, r2)),
                            uf.jet(exact=False), uf.n, seed=0)


def test_float_constants_outside_float64():
    # every constant scales as s^2: at 1e200 it overflows float64, and
    # the check raises; at 1e-200 it rounds to 0.0, but kappa > 0 is
    # tested in the jet's normalised units, so the eiconal check passes
    uf = catalog_build("cartan-d4").to_float()
    for check in IDENTITY_CHECKS:
        with pytest.raises(ValueError, match="not finite"):
            check(scaled(uf, 1e200))
    r = check_eiconal(scaled(uf, 1e-200))
    assert r.passed and r.constant == 0.0


@pytest.mark.parametrize("name", list(CATALOG))
def test_float_checks_are_scale_invariant(name):
    # u -> s u leaves every verdict and multiplies every constant by s^2:
    # bit for bit at a power of two, which the normalised float jet
    # absorbs exactly, and to rounding otherwise.  A constant that is 0
    # to rounding (trace3 of clifford-q1) is compared at 1e-12 s^2.
    uf = catalog_build(name).to_float()
    for check in IDENTITY_CHECKS:
        base = check(uf)
        for s in (2.0 ** -100, 1e-20, 1e8, 1e80):
            r = check(scaled(uf, s))
            assert r.passed == base.passed, (check.__name__, s)
            if not base.passed:
                continue
            want = s * s * base.constant
            if s == 2.0 ** -100:
                assert r.constant == want, check.__name__
            else:
                assert r.constant == pytest.approx(want, rel=1e-12, abs=1e-12 * s * s)


def test_scaled_float_forms_keep_their_labels():
    # with tolerances in the normalised units, a large coefficient no
    # longer widens them (x^3 at 1e5 is not eiconal), and a small one no
    # longer falls under the float rank cutoff
    assert not check_eiconal(CubicForm(3, {(0, 0, 0): 1e5})).passed
    d4 = classify(scaled(catalog_build("cartan-d4").to_float(), 1e-20))
    assert d4.label == "exceptional-or-mutant" and not d4.is_trivial


@pytest.mark.parametrize("name", list(CATALOG))
def test_jet_matches_poly_derivatives(name):
    # the shared kernel against the Poly reference's expanded derivatives:
    # exactly (of D u) at integer points and to float rounding at floats,
    # where D is the power of two bringing max|m| into [1, 2)
    u = catalog_build(name)
    grads, hess, poly = gradient(u), hessian(u), to_poly(u)
    jet = u.jet(exact=True)
    D = jet.scale
    rng = random.Random(6)
    for _ in range(3):
        p = np.array([rng.randrange(-50, 50) for _ in range(u.n)], dtype=object)
        v, g, H = (joined(f(p)) for f in (jet.value, jet.gradient, jet.hessian))
        p = list(p)
        assert v == D * evaluate(poly, p)
        assert list(g) == [D * evaluate(gi, p) for gi in grads]
        assert H.tolist() == [[D * evaluate(h, p) for h in row] for row in hess]
    assert joined(jet.laplacian(u.n)).tolist() == [D * laplacian(u).terms.get((i,), 0)
                                                   for i in range(u.n)]
    uf = u.to_float()
    fjet = uf.jet(exact=False)
    assert fjet.m.dtype == float and math.frexp(fjet.scale)[0] == 0.5
    assert 1 <= np.max(np.abs(fjet.m)) < 2
    x = np.random.default_rng(6).standard_normal(u.n)
    v, g, H = (f(x) / fjet.scale for f in (fjet.value, fjet.gradient, fjet.hessian))
    x = list(x)
    close = dict(rel=1e-12, abs=1e-12)
    assert v == pytest.approx(evaluate(to_poly(uf), x), **close)
    assert g == pytest.approx([evaluate(gi, x) for gi in gradient(uf)], **close)
    assert H.ravel() == pytest.approx([evaluate(h, x) for row in hessian(uf)
                                       for h in row], **close)


def test_jet_scale_is_the_coefficients_common_denominator():
    # D clears the monomial coefficients, in both sqrt(3) channels, and
    # nothing more: the kernel keeps no weight of its own
    for u, D in [(CubicForm(3, {(0, 1, 2): 1}), 1), (catalog_build("octonion21"), 1),
                 (catalog_build("involution-d2"), 2), (catalog_build("cartan-d4"), 18)]:
        jet = u.jet(exact=True)
        assert jet.scale == D, u
        assert jet.sqrt3 is None or jet.sqrt3.scale == D


@pytest.mark.parametrize("name", list(CATALOG))
def test_jet_value_takes_a_batch_of_points(name):
    # u at the rows of a (k, n) array equals u at each row, bit for bit
    u = catalog_build(name)
    jet = u.jet(exact=False)
    P = np.random.default_rng(7).standard_normal((9, u.n))
    assert jet.value(P).tolist() == [jet.value(p) for p in P]
    assert jet.value(np.empty((0, u.n))).shape == (0,)


@pytest.mark.parametrize("name", list(CATALOG))
def test_jet_gradient_takes_a_batch_of_points(name):
    # Du at the rows of a (k, n) array equals Du at each row, bit for bit,
    # on the float jet and on the exact jet at Python-int points (each
    # sqrt(3) channel of a Q(sqrt3) form)
    u = catalog_build(name)
    jet = u.jet(exact=False)
    P = np.random.default_rng(7).standard_normal((9, u.n))
    assert jet.gradient(P).tolist() == [jet.gradient(p).tolist() for p in P]
    assert jet.gradient(np.empty((0, u.n))).shape == (0, u.n)
    exact = u.jet(exact=True)
    Q = (_randbelow(DEFAULT_BOUND, 5 * u.n, random.Random(7)).reshape(5, u.n)
         - DEFAULT_BOUND // 2).astype(object)

    def channels(g):
        return [g] if exact.sqrt3 is None else [g.r, g.s]

    got = channels(exact.gradient(Q))
    single = [channels(exact.gradient(q)) for q in Q]
    for ch, rows in enumerate(got):
        assert rows.tolist() == [s[ch].tolist() for s in single]
        assert all(type(v) is int for v in rows.ravel())
    for rows in channels(exact.gradient(np.empty((0, u.n), dtype=object))):
        assert rows.shape == (0, u.n)


def _channels(x):
    """The sqrt(3) channels of a kernel piece: [x], or [r, s] of a pair."""
    return [x.r, x.s] if isinstance(x, QSqrt3Array) else [x]


@pytest.mark.parametrize("name", list(CATALOG))
def test_jet_hessian_takes_a_batch_of_points(name):
    # D^2u at the rows of a (k, n) array equals D^2u at each row: bit for
    # bit on the float jet, and as Python ints on the exact jet at
    # Python-int points and on its int64 residue jet modulo 2**64, where
    # no sum wraps, each sqrt(3) channel
    u = catalog_build(name)
    n = u.n
    fjet = u.jet(exact=False)
    X = np.random.default_rng(8).standard_normal((7, n))
    assert fjet.hessian(X).tolist() == [fjet.hessian(x).tolist() for x in X]
    exact = u.jet(exact=True)
    assert exact.l1 * (DEFAULT_BOUND - 1) ** 2 < 2 ** 63
    fast = exact.modulo(0)
    assert fast.m.dtype == np.int64
    assert fast.sqrt3 is None or fast.sqrt3.m.dtype == np.int64
    P = _randbelow(DEFAULT_BOUND, 5 * n, random.Random(8)).reshape(5, n) \
        - DEFAULT_BOUND // 2
    single = [_channels(exact.hessian(p)) for p in P.astype(object)]
    for stack in (exact.hessian(P.astype(object)), fast.hessian(P)):
        for ch, rows in enumerate(_channels(stack)):
            assert rows.shape == (5, n, n)
            assert rows.tolist() == [s[ch].tolist() for s in single]
    for ch, rows in enumerate(_channels(exact.hessian(P.astype(object)))):
        assert all(type(v) is int for v in rows.ravel())
        assert all(type(v) is int for s in single for v in s[ch].ravel())
    assert fjet.hessian(np.empty((0, n))).shape == (0, n, n)
    for jet, dtype in ((exact, object), (fast, np.int64)):
        for rows in _channels(jet.hessian(np.empty((0, n), dtype=dtype))):
            assert rows.shape == (0, n, n)


# the forms whose checks run at Schwartz-Zippel points by default
LARGE_FORMS = [name for name, e in CATALOG.items() if e.dim > 15]


def _reference_sides(ident, jet, P):
    """The per-point loop the block evaluator replaced: each row of P as
    one Python-int point through the kernel, alone."""
    return [tuple(joined(x) for x in ident.sides(jet.value(p), jet.gradient(p),
                                                  jet.hessian(p), p @ p))
            for p in P.astype(object)]


def _reference_hsiang(u, theta, trials, seed):
    """``check_hsiang_identity`` as the per-point loop computed it."""
    jet = u.jet(exact=True)
    D = jet.scale
    X, dens = algebra._rational_batch(u.n, trials, random.Random(seed))
    worst = Fraction(0)
    for p, d in zip(X.astype(object), dens.tolist()):
        lhs, rhs = RADIAL.sides(jet.value(p), jet.gradient(p), jet.hessian(p), p @ p)
        diff = 4 * joined(lhs - theta * D * D * rhs) / Fraction(D ** 3 * d ** 5)
        worst = max(worst, abs(diff))
    return worst


@pytest.mark.parametrize("name", LARGE_FORMS)
def test_exact_sides_match_the_per_point_loop(monkeypatch, name):
    # blocks of one point, and of four points with a short last block, give
    # the pairs of the per-point loop, in order, value and type (repr), at
    # the random mode's points and at the Hsiang check's, and so the same
    # random-mode constants and Hsiang residuals
    u = catalog_build(name)
    jet = u.jet(exact=True)
    width = max(u.n * u.n, jet.m.size)
    theta = check_radial(u, "random", seed=1).constant
    for seed in (1, 2, 3):
        P = _randbelow(DEFAULT_BOUND, (DEFAULT_TRIALS + 1) * u.n,
                       random.Random(seed)).reshape(-1, u.n)
        Q = algebra._rational_batch(u.n, 10, random.Random(seed))[0]
        want = {ident.name: (_reference_sides(ident, jet, P),
                             _reference_sides(ident, jet, Q))
                for ident in (RADIAL, EICONAL, TRACE2, TRACE3)}
        constants = {ident.name: identities._ratio(iter(want[ident.name][0]))
                     for ident in (RADIAL, EICONAL, TRACE2, TRACE3)}
        hsiang = [_reference_hsiang(u, t, 10, seed) for t in (theta, theta + Fraction(1, 3))]
        for block in (width, 4 * width):
            monkeypatch.setattr(cubics, "BLOCK", block)
            for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
                for points, pairs in zip((P, Q), want[ident.name]):
                    got = list(identities._rows(identities._sides_at(ident, jet, points)))
                    assert repr(got) == repr(pairs), (ident.name, block)
            for check in IDENTITY_CHECKS:
                rep = check(u, "random", seed=seed)
                t = constants[rep.check]
                if t is not None and (rep.check != "eiconal" or t > 0):
                    t = t / jet.scale / jet.scale
                    assert rep.passed and repr(rep.constant) == repr(t)
                else:
                    assert not rep.passed
            alg = MetrisedAlgebra(u)
            got = [alg.check_hsiang_identity(t, trials=10, seed=seed)
                   for t in (theta, theta + Fraction(1, 3))]
            assert repr(got) == repr(hsiang) and hsiang[0] == 0 != hsiang[1]


def _count_moduli(monkeypatch):
    """A list that records len(moduli(bound)) at each call from identities."""
    counts = []
    real = identities.moduli

    def spy(bound):
        out = real(bound)
        counts.append(len(out))
        return out

    monkeypatch.setattr(identities, "moduli", spy)
    return counts


def test_int64_jet_bound_at_random_points(monkeypatch):
    # trace2's bound max(4 L^2, n) R^2 at R = 10^6 - 1: the largest L it
    # keeps below 2**63 takes the int64 channel alone, and one more takes a
    # prime, on either sqrt(3) channel (L = 3|m_r| + 6|m_s| for a single
    # monomial); at the largest point every identity's sides are exact
    R = DEFAULT_BOUND - 1
    top = math.isqrt((2 ** 63 - 1) // (4 * R * R))
    assert TRACE2.bound(3, top, R) < 2 ** 63 <= TRACE2.bound(3, top + 1, R)
    counts = _count_moduli(monkeypatch)
    P = np.array([[R, R, R], [R, 0, R], [0, 0, 0]], dtype=np.int64)
    for m, L, k in [(top // 3, top // 3 * 3, 0), (top // 3 + 1, top // 3 * 3 + 3, 1),
                    (-(top // 3) - 1, top // 3 * 3 + 3, 1),
                    (QSqrt3(3, (top - 9) // 6), 9 + (top - 9) // 6 * 6, 0),
                    (QSqrt3(3, (top - 9) // 6 + 1), 15 + (top - 9) // 6 * 6, 1),
                    (QSqrt3(top // 3 + 1, 1), top // 3 * 3 + 9, 1)]:
        jet = CubicForm(3, {(0, 1, 2): m}).jet(exact=True)
        assert jet.l1 == L and (L <= top) is (k == 0)
        counts.clear()
        assert list(identities._rows(identities._sides_at(TRACE2, jet, P))) \
            == _reference_sides(TRACE2, jet, P)
        assert counts == [k]
        for ident in (RADIAL, EICONAL, TRACE3):
            got = list(identities._rows(identities._sides_at(ident, jet, P)))
            assert repr(got) == repr(_reference_sides(ident, jet, P))


# the closed forms each identity's bound had before it was read off its
# sides, kept as the reference
_CLOSED_FORM_BOUNDS = {
    "radial": lambda n, L, R: max(4 * L * L, n) * L * R ** 5,
    "eiconal": lambda n, L, R: max(L, n) ** 2 * R ** 4,
    "trace2": lambda n, L, R: max(4 * L * L, n) * R * R,
    "trace3": lambda n, L, R: 8 * L ** 3 * R ** 3}


def test_bounds_read_off_the_sides_are_the_closed_forms():
    # the sides on norms give each former closed form, an int, at every
    # point of the grid, with L and R past any machine word; a side's sign
    # leaves its bound as it is
    negated = _Identity("negated", 2, lambda v, g, H, r2: (-(H * H).sum(), -r2))
    for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
        for n, L, R in itertools.product((1, 2, 3, 54, 128, 10 ** 6),
                                         (0, 1, 2, 7, 2 ** 13, 2 ** 207, 10 ** 300),
                                         (1, 2, 9, DEFAULT_BOUND - 1)):
            got = ident.bound(n, L, R)
            assert type(got) is int and got == _CLOSED_FORM_BOUNDS[ident.name](n, L, R), \
                (ident.name, n, L, R)
            if ident is TRACE2:
                assert negated.bound(n, L, R) == got


def test_bound_is_homogeneous_of_the_identity_degree():
    # each side is homogeneous of degree ``degree`` in p, and so is the
    # bound in R: doubling R multiplies it by 2**degree
    for ident, degree in ((RADIAL, 5), (EICONAL, 4), (TRACE2, 2), (TRACE3, 3)):
        assert ident.degree == degree
        assert ident.bound(1, 1, 2) // ident.bound(1, 1, 1) == 2 ** degree


SQUARE = _Identity("square", 6, lambda v, g, H, r2: (v * v, r2 * r2 * r2))


@pytest.mark.parametrize("name, lam", [("cartan-d2", 1), ("complexified-d8", 1),
                                       ("cartan-d4", 10 ** 18)])
def test_an_identity_given_by_its_sides_alone(name, lam):
    # u^2 = t |x|^6, with no bound written for it: the random mode fails it
    # (u vanishes on its cone, |x|^6 does not), on cartan-d4 x 10^18 past
    # the int64 bound too, and the first block's sides, lifted through the
    # moduli of the bound read off its sides, are the per-point loop's and
    # lie within that bound on both sqrt(3) channels
    u = scaled(catalog_build(name), lam)
    jet, R = u.jet(exact=True), DEFAULT_BOUND - 1
    assert (2 * jet.l1 * R * R >= 2 ** 62) is (lam > 1)
    rep = identities._check(SQUARE, u, "random", DEFAULT_TRIALS, 1)
    assert (rep.check, rep.passed, rep.mode, rep.error_bound) == ("square", False, "random", 0.0)
    k = min(cubics.block_rows(u.n * u.n), DEFAULT_TRIALS + 1)
    B = _randbelow(DEFAULT_BOUND, k * u.n, random.Random(1)).reshape(k, u.n)
    got = list(identities._rows(identities._sides_of_blocks(SQUARE, jet, u.n, [B], R)))
    assert repr(got) == repr(_reference_sides(SQUARE, jet, B))
    bound = SQUARE.bound(u.n, jet.l1, R)
    assert all(abs(c) <= bound for pair in got for x in pair
               for c in ((x.a, x.b) if isinstance(x, QSqrt3) else (x,)))


# moduli beside 2**64 per random check (radial, eiconal, trace2, trace3) and
# per Hsiang check, for u scaled by 1, 10^9 and 10^18
MODULUS_COUNTS = {
    "clifford-q1": ([[2, 1, 0, 1], [6, 4, 2, 4], [9, 6, 4, 8]], [0, 3, 6]),
    "complexified-d2": ([[3, 2, 0, 1], [6, 4, 2, 5], [9, 6, 5, 8]], [0, 3, 6]),
    "cartan-d4": ([[3, 2, 0, 2], [6, 4, 3, 5], [10, 6, 5, 8]], [0, 3, 7])}


@pytest.mark.parametrize("name", list(MODULUS_COUNTS))
def test_random_checks_past_the_int64_bound(monkeypatch, name):
    # u scaled so that its sides pass 2**63 takes more moduli for every
    # check, and still gives lam^2 times each constant, of the same type,
    # and a zero Hsiang residual at lam^2 theta
    u = catalog_build(name)
    counts = _count_moduli(monkeypatch)
    small = [check(u, "random", seed=1) for check in IDENTITY_CHECKS]
    theta = small[0].constant
    per_scale = [list(counts)]
    for lam in (10 ** 9, 10 ** 18):
        counts.clear()
        for check, want in zip(IDENTITY_CHECKS, small):
            got = check(scaled(u, lam), "random", seed=1)
            assert got.passed == want.passed
            if want.passed:
                assert got.constant == lam * lam * want.constant
                assert type(got.constant) is type(want.constant)
        per_scale.append(list(counts))
    hsiang = []
    for scale in (1, 10 ** 9, 10 ** 18):
        counts.clear()
        alg = MetrisedAlgebra(scaled(u, scale))
        assert alg.check_hsiang_identity(scale * scale * theta, trials=20, seed=1) == 0
        hsiang += counts
    assert (per_scale, hsiang) == MODULUS_COUNTS[name]


def _plus_seventh(u):
    """u with its first coefficient + 1/7."""
    k = min(u.terms)
    return CubicForm(u.n, {**u.terms, k: u.terms[k] + Fraction(1, 7)})


PAST_INT64 = {"x1e9": lambda u: scaled(u, 10 ** 9), "x1e18": lambda u: scaled(u, 10 ** 18),
              "xq3": lambda u: scaled(u, QSqrt3(10 ** 9, 10 ** 9)), "+1/7": _plus_seventh}


@pytest.mark.parametrize("change", list(PAST_INT64))
@pytest.mark.parametrize("name", ["clifford-q1", "complexified-d2", "cartan-d4"])
def test_residue_sides_match_the_per_point_loop_past_int64(name, change):
    # scaled and mutated forms, whose sides need up to ten primes: every
    # pair at the random mode's and the Hsiang check's points is the
    # per-point Python-int loop's (repr), and so are the random constants,
    # error bounds and Hsiang residuals
    u = PAST_INT64[change](catalog_build(name))
    jet = u.jet(exact=True)
    P = _randbelow(DEFAULT_BOUND, (DEFAULT_TRIALS + 1) * u.n,
                   random.Random(1)).reshape(-1, u.n)
    Q = algebra._rational_batch(u.n, 10, random.Random(1))[0]
    for ident, check in zip((RADIAL, EICONAL, TRACE2, TRACE3), IDENTITY_CHECKS):
        for points in (P, Q):
            got = list(identities._rows(identities._sides_at(ident, jet, points)))
            assert repr(got) == repr(_reference_sides(ident, jet, points)), ident.name
        rep = check(u, "random", seed=1)
        t = identities._ratio(iter(_reference_sides(ident, jet, P)))
        if t is not None and (ident.name != "eiconal" or t > 0):
            assert rep.passed and repr(rep.constant) == repr(t / jet.scale / jet.scale)
            assert rep.error_bound == (ident.degree / DEFAULT_BOUND) ** DEFAULT_TRIALS
        else:
            assert not rep.passed and rep.error_bound == 0.0
    theta = check_radial(u, "random", seed=1).constant
    for t in ([theta] if theta is not None else []) + [Fraction(1, 3)]:
        got = MetrisedAlgebra(u).check_hsiang_identity(t, trials=10, seed=1)
        want = _reference_hsiang(u, t, 10, 1)
        assert repr(got) == repr(want)


def _per_modulus_pieces(ident, jet, n, R, B):
    """A block's pieces as each modulus's own residue jet gives them, the
    route every block took before one Hessian served every modulus."""
    qs = (0,) + moduli(ident.bound(n, jet.l1, R))
    return [identities._residue_pieces(jet.modulo(q), B, q) for q in qs]


def _same_stacks(xs, ys):
    """Whether two tuples of pieces hold the same int64 stacks modulo the
    same q, channel by channel."""
    return len(xs) == len(ys) and all(
        a.q == b.q and a.x.dtype == b.x.dtype == np.int64 and np.array_equal(a.x, b.x)
        for x, y in zip(xs, ys) for a, b in zip(_channels(x), _channels(y)))


def _spy_modulo(monkeypatch):
    """A list that records q at each ``Jet.modulo`` call (twice on a
    Q(sqrt3) jet, once per channel)."""
    calls = []
    real = Jet.modulo

    def spy(self, q):
        calls.append(q)
        return real(self, q)

    monkeypatch.setattr(Jet, "modulo", spy)
    return calls


def _assert_route_matches(ident, jet, n, R, blocks, one_hessian, calls):
    """``_exact_route`` takes one residue jet (q = 0) if ``one_hessian``,
    else one per modulus, and on each block gives every modulus's pieces,
    and the sides on them, as that modulus's residue jet does."""
    calls.clear()
    pieces = identities._exact_route(ident, jet, n, R)
    qs = (0,) + moduli(ident.bound(n, jet.l1, R))
    assert set(calls) == ({0} if one_hessian else set(qs)), ident.name
    for B in blocks:
        got, want = list(pieces(B)), _per_modulus_pieces(ident, jet, n, R, B)
        assert len(got) == len(want) == len(qs)
        for g, w in zip(got, want):
            assert _same_stacks(g, w), ident.name
            assert _same_stacks(ident.sides(*g), ident.sides(*w)), ident.name


@pytest.mark.parametrize("name", list(CATALOG))
def test_one_hessian_route_matches_the_per_modulus_kernel(monkeypatch, name):
    # every catalog form keeps 2 L R^2 below 2**62 at the random mode's
    # points and the Hsiang check's, so one Hessian per block gives the
    # pieces and sides of every modulus, on the same blocks, at seeds 1-3;
    # a random check takes its residue jet and its moduli once, however
    # many blocks it evaluates
    u = catalog_build(name)
    n, jet = u.n, u.jet(exact=True)
    rows = cubics.block_rows(n * n)
    calls = _spy_modulo(monkeypatch)
    counts = _count_moduli(monkeypatch)
    for seed in (1, 2, 3):
        P = _randbelow(DEFAULT_BOUND, (DEFAULT_TRIALS + 1) * n,
                       random.Random(seed)).reshape(-1, n)
        Q = algebra._rational_batch(n, 20, random.Random(seed))[0]
        for points, R in ((P, DEFAULT_BOUND - 1), (Q, 9)):
            assert 2 * jet.l1 * R * R < 2 ** 62
            blocks = [points[s:s + rows] for s in range(0, len(points), rows)]
            for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
                _assert_route_matches(ident, jet, n, R, blocks, True, calls)
        for check in IDENTITY_CHECKS:
            calls.clear()
            counts.clear()
            check(u, "random", seed=seed)
            assert calls == [0] * (1 if jet.sqrt3 is None else 2) and len(counts) == 1


def test_one_hessian_route_at_its_int64_bound(monkeypatch):
    # x1 x2 x3 times m, L = 3 |m| (3 (|a| + 2 |b|) for m = a + sqrt3 b), at
    # points with every |p_a| <= R = 10^6 - 1, R reached: 2 L R^2 just below
    # 2**62 takes one Hessian, just above it a residue jet per modulus, and
    # so does cartan-d4 times 10^18, whose int64 Hessian wraps.  Either
    # way every modulus's pieces and sides are its own residue jet's, and
    # the joined sides are the per-point loop's
    R = DEFAULT_BOUND - 1
    top = (2 ** 62 - 1) // (6 * R * R)
    assert 6 * top * R * R < 2 ** 62 <= 6 * (top + 1) * R * R
    b = top // 4
    cases = [(Fraction(top), True), (Fraction(top + 1), False), (-Fraction(top + 1), False),
             (QSqrt3(top - 2 * b, b), True), (QSqrt3(top - 2 * b + 1, b), False)]
    P = np.array([[R, R, R], [R, -R, R], [0, R, 0], [3, -1, 4]], dtype=np.int64)
    calls = _spy_modulo(monkeypatch)
    for m, one_hessian in cases:
        jet = CubicForm(3, {(0, 1, 2): m}).jet(exact=True)
        assert (2 * jet.l1 * R * R < 2 ** 62) is one_hessian
        for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
            _assert_route_matches(ident, jet, 3, R, [P], one_hessian, calls)
            got = list(identities._rows(identities._sides_at(ident, jet, P)))
            assert repr(got) == repr(_reference_sides(ident, jet, P)), (m, ident.name)
    u = scaled(catalog_build("cartan-d4"), 10 ** 18)
    jet = u.jet(exact=True)
    P = _randbelow(DEFAULT_BOUND, 2 * u.n, random.Random(1)).reshape(2, u.n)
    wrapped = jet.modulo(0).hessian(P)
    exact = jet.hessian(P.astype(object))
    assert any(not np.array_equal(w.astype(object), e) for w, e in
               zip(_channels(wrapped), _channels(exact)))
    for R in (DEFAULT_BOUND - 1, 9):
        _assert_route_matches(RADIAL, jet, u.n, R, [P % (R + 1)], False, calls)
    for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
        got = list(identities._rows(identities._sides_at(ident, jet, P)))
        assert repr(got) == repr(_reference_sides(ident, jet, P)), ident.name


@pytest.mark.parametrize("name", ["complexified-d8", "cartan-d8"])
def test_random_checks_wrap_without_warnings(monkeypatch, name):
    # the int64 channel wraps (the radial sides take primes beside it), and
    # numpy never warns of an overflow: every operation keeps the point axis
    u = catalog_build(name)
    jet = u.jet(exact=True)
    P = _randbelow(DEFAULT_BOUND, 2 * u.n, random.Random(1)).reshape(2, u.n)
    counts = _count_moduli(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lhs = [l for l, _ in identities._rows(identities._sides_at(RADIAL, jet, P))]
        reports = [check(u, "random", seed=1) for check in IDENTITY_CHECKS]
        theta = reports[0].constant
        assert MetrisedAlgebra(u).check_hsiang_identity(theta, seed=1) == 0
    assert all(abs(l) >= 2 ** 63 for l in lhs) and counts[0] >= 1
    assert reports[0].passed and reports[3].passed


@pytest.mark.parametrize("name", ["clifford-q1", "complexified-d2", "cartan-d4"])
def test_exact_checks_past_the_int64_bound(name):
    # u scaled by 10^9, 10^18 and the Q(sqrt3) scale 10^9 (1 + sqrt3):
    # the lhs of every identity, of degree 3 in u, has L1 norm past 2**63,
    # sqrt(3) terms counted twice, so it is expanded on Python ints, where
    # u's is int64; each constant is lam^2 times u's, of the type that
    # value has
    u = catalog_build(name)
    small = [check(u, "exact") for check in IDENTITY_CHECKS]

    def lhs_sides(form):
        symbolic = form.jet(exact=True).symbolic(form.n)
        for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
            yield ident.sides(*symbolic)[0]

    assert all(p.coef.dtype == np.int64 for p in lhs_sides(u))
    for lam in (10 ** 9, 10 ** 18, QSqrt3(10 ** 9, 10 ** 9)):
        big = scaled(u, lam)
        seen = [p.coef.dtype for p in lhs_sides(big) if p.idx.size]
        assert seen and all(dtype == object for dtype in seen)
        for check, want in zip(IDENTITY_CHECKS, small):
            got = check(big, "exact")
            assert got.passed == want.passed
            if want.passed:
                t = exact_div(lam * lam * want.constant, 1)
                assert got.constant == t and type(got.constant) is type(t)


@pytest.mark.parametrize("name", list(CATALOG))
def test_kernel_matches_dense_tensor(name, monkeypatch):
    # every float contraction of the package against np.einsum on the
    # dense tensor T: u = T x x x, x o x = 6 T x x, L_x = 6 T x; each
    # tolerance is 1e-12 of the same contraction of |T| and |x|, the size
    # of the terms whose rounding the two sums order differently.  The
    # Peirce record of x, which is no idempotent, is taken at any residual
    monkeypatch.setattr(algebra, "PEIRCE_RESIDUAL", np.inf)
    uf = catalog_build(name).to_float()
    T, aT = dense_tensor(uf), np.abs(dense_tensor(uf))
    jet = uf.jet(exact=False)
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = rng.standard_normal(uf.n)
        ax = np.abs(x)
        u = np.einsum("abc,a,b,c->", T, x, x, x)
        sq = 6 * np.einsum("abc,a,b->c", T, x, x)
        L = 6 * np.einsum("abc,a->bc", T, x)
        sq_size = 6 * np.einsum("abc,a,b->c", aT, ax, ax)
        L_size = 6 * np.einsum("abc,a->bc", aT, ax)
        assert abs(jet.value(x) / jet.scale - u) <= 1e-12 * (ax @ sq_size)
        assert np.all(np.abs(2 * jet.gradient(x) / jet.scale - sq) <= 1e-12 * sq_size)
        assert np.all(np.abs(jet.hessian(x) / jet.scale - L) <= 1e-12 * L_size)
        p = algebra._peirce_records(jet, x[None], algebra.BIN_TOLERANCE)[0]
        assert abs(p.residual - np.linalg.norm(sq - x)) \
            <= 1e-12 * (np.linalg.norm(sq_size) + np.linalg.norm(x))
        assert np.max(np.abs(p.eigenvalues - np.linalg.eigvalsh(L))) \
            <= 1e-12 * np.linalg.norm(L_size)
        r = np.linalg.norm(x)
        y, ay = x / r, ax / r
        g = 3 * np.einsum("abc,b,c->a", T, y, y)
        H = 6 * np.einsum("abc,c->ab", T, y)
        ga = 3 * np.einsum("abc,b,c->a", aT, ay, ay)
        Ha = 6 * np.einsum("abc,c->ab", aT, ay)
        gn = np.linalg.norm(g)
        if gn < 1e-3:
            continue
        h = ((g @ g) * np.trace(H) - g @ H @ g) / gn ** 3 / r
        size = ((ga @ ga) * np.trace(Ha) + ga @ Ha @ ga) / gn ** 3 / r
        assert abs(identities._curvatures(jet, x[None], 0.0)[0] - h) <= 1e-12 * size


SMALL_FORMS = [name for name, e in CATALOG.items() if e.dim <= 15]
# the forms the benchmark certifies in both modes
MID_FORMS = [name for name, e in CATALOG.items() if 15 < e.dim <= 27]
# catalog forms with their first coefficient changed by +1/7; cartan-d8's
# exact trace3 multiplies PolyArray matrices with sqrt(3) terms, and
# complexified-d8 is the largest catalog form
MUTATED = {f"{name}+1/7": name for name in ("clifford-q0", "cartan-d1",
                                           "clifford-q1", "involution-d2",
                                           "cartan-d8", "complexified-d8")}


def _mutated(name: str) -> CubicForm:
    u = catalog_build(MUTATED[name])
    k = min(u.terms)
    return CubicForm(u.n, {**u.terms, k: u.terms[k] + Fraction(1, 7)})


@pytest.mark.parametrize("check", IDENTITY_CHECKS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", list(CATALOG) + list(MUTATED))
def test_modes_agree(name, check):
    # exact expansion, Schwartz-Zippel points and float points all run
    # the same identity; they must give the same verdict and constant.
    # One changed coefficient breaks every identity, and a failed verdict
    # claims no error bound.
    u = _mutated(name) if name in MUTATED else catalog_build(name)
    ex = check(u, "exact")
    rn = check(u, "random", seed=1)
    assert (rn.passed, rn.constant) == (ex.passed, ex.constant)
    assert rn.mode == "random" and ex.mode == "exact"
    assert not (name in MUTATED and ex.passed)
    if not ex.passed:
        assert ex.error_bound == rn.error_bound == 0.0
    fl = check(u.to_float(), seed=1)
    assert fl.mode == "float" and fl.passed == ex.passed
    if ex.passed:
        e = float(ex.constant)
        assert abs(fl.constant - e) <= 1e-9 * max(1.0, abs(e))


def _dense_form(n: int, seed: int) -> CubicForm:
    """A form with every monomial in n variables and a random rational
    coefficient on each."""
    rng = random.Random(seed)
    return CubicForm(n, {key: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                         for key in itertools.combinations_with_replacement(range(n), 3)})


def _reference_symbolic(u: CubicForm):
    """(v, g, H, r2) of D*u, D = the exact jet's scale, as object arrays of
    Poly from ``formref.gradient``/``hessian``, each coefficient made an
    int (a QSqrt3 of ints) so that the Poly arithmetic runs on ints."""
    D, n = u.jet(exact=True).scale, u.n

    def integral(p):
        def exact(c):
            c = c * D
            if isinstance(c, QSqrt3):
                assert c.a.denominator == c.b.denominator == 1
                return QSqrt3(int(c.a), int(c.b))
            assert c.denominator == 1
            return int(c)
        return Poly(n, {m: exact(c) for m, c in p.terms.items()})

    H = np.empty((n, n), dtype=object)
    H[:] = [[integral(h) for h in row] for row in hessian(u)]
    return (integral(to_poly(u)),
            np.array([integral(g) for g in gradient(u)], dtype=object), H,
            Poly(n, {(i, i): 1 for i in range(n)}))


@pytest.mark.parametrize("name", SMALL_FORMS + MID_FORMS + list(MUTATED) + ["dense-8"])
def test_expanded_sides_match_poly_arithmetic(name):
    # the exact mode's PolyArray expansion of each identity's two sides
    # against plain Poly arithmetic on the same sides, term by term: the
    # monomials and their coefficients, sqrt(3) parts as QSqrt3
    if name == "dense-8":
        u = _dense_form(8, 8)
    else:
        u = _mutated(name) if name in MUTATED else catalog_build(name)
    symbolic = u.jet(exact=True).symbolic(u.n)
    reference = _reference_symbolic(u)
    for got, want in zip(symbolic, reference):
        assert joined_terms(got) == [p.terms for p in np.ravel(np.array(want))]
    for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
        for got, want in zip(ident.sides(*symbolic), ident.sides(*reference)):
            assert joined_terms(got) == [want.terms], ident.name


@pytest.mark.parametrize("name", SMALL_FORMS + MID_FORMS + ["dense-8"] + [
    name for name, base in MUTATED.items() if base != "complexified-d8"])
def test_expanded_sides_match_poly_arithmetic_in_small_blocks(monkeypatch, name):
    # the same expansion with products listed 7 term pairs at a time, so
    # the pairs of one output term span several blocks; complexified-d8,
    # whose widest side takes about 10**5 such blocks, is left out
    monkeypatch.setattr(poly, "PAIR_BLOCK", 7)
    test_expanded_sides_match_poly_arithmetic(name)


def test_exact_trace3_of_a_sparse_form_follows_its_terms():
    # 300 monomials on R^128: H @ H pairs only H's nonempty entries, so
    # the exact check stays far below the 128**3 triples of a dense
    # enumeration (168 MB under tracemalloc), with the same report
    u = sparse_cubic(128, 300, 5)
    tracemalloc.start()
    try:
        report = trace_identity_cubic(u, mode="exact")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 10 ** 6
    assert report.to_json_dict() == {"check": "trace3", "pass": False, "constant": None,
                                     "mode": "exact", "error_bound": 0.0}


# the Schwartz-Zippel degree of each check's identity
SZ_DEGREE = {check_radial: 5, check_eiconal: 4, trace_identity_quadratic: 2,
             trace_identity_cubic: 3}


@pytest.mark.parametrize("name", ["cartan-d4", "cartan-d8"])
def test_sqrt3_forms_random_mode_matches_exact(name):
    # the Q(sqrt3) forms, whose kernel pieces are two-channel pairs: the
    # random mode's verdict and constant are the full expansion's, at
    # every seed, with the reported bound
    u = catalog_build(name)
    for check in IDENTITY_CHECKS:
        ex = check(u, "exact")
        assert ex.passed
        for seed in (1, 2):
            rn = check(u, "random", seed=seed)
            assert (rn.passed, rn.constant) == (ex.passed, ex.constant)
            assert rn.error_bound == (SZ_DEGREE[check] / 10 ** 6) ** DEFAULT_TRIALS


@pytest.mark.parametrize("trials", [70, 200])
@pytest.mark.parametrize("check", IDENTITY_CHECKS)
def test_random_bound_does_not_underflow_to_certainty(check, trials):
    # (deg/bound)**trials is 0.0 in float64 at these counts; the report
    # carries the least positive float, still an upper bound, never 0
    r = check(catalog_build("cartan-d1"), "random", trials=trials, seed=1)
    assert r.passed and r.mode == "random"
    assert (SZ_DEGREE[check] / 10 ** 6) ** trials == 0.0
    assert r.error_bound == math.ulp(0.0) > 0
    assert r.to_json_dict()["error_bound"] == 5e-324


@pytest.mark.parametrize("name", list(CATALOG) + ["dense-40", "dense-60"])
def test_float_sides_match_the_per_row_formula(name):
    # at the float checks' Gaussian points, the rows of the block path on
    # float64 stacks equal, as bytes, each row's sides on the kernel's
    # arrays of that row alone; the dense forms' 24 points span 3 and 6
    # blocks
    if name.startswith("dense-"):
        u = _dense_form(int(name[6:]), int(name[6:]))
    else:
        u = catalog_build(name)
    uf = u.to_float()
    jet = uf.jet(exact=False)
    for seed in (1, 2, 3):
        P = np.random.default_rng(seed).standard_normal((identities.FLOAT_TRIALS, uf.n))
        v, g, H, r2 = jet.value(P), jet.gradient(P), jet.hessian(P), identities._dots(P, P)
        for ident in (RADIAL, EICONAL, TRACE2, TRACE3):
            got = list(identities._rows(identities._sides_at(ident, jet, P)))
            want = [ident.sides(v[i], g[i], H[i], r2[i]) for i in range(len(P))]
            assert [type(x) for row in got for x in row] == [np.float64] * 2 * len(P)
            assert np.array(got).tobytes() == np.array(want).tobytes(), (ident.name, seed)


def _reference_float_report(ident, uf, seed):
    """Float mode as the per-point loop computed it: each Gaussian point
    through the kernel alone, then the least-squares fit; (passed, t)."""
    jet = uf.jet(exact=False)
    rng = np.random.default_rng(seed)
    pts = [rng.standard_normal(uf.n) for _ in range(identities.FLOAT_TRIALS)]
    ls, rs = np.array([[joined(x) for x in ident.sides(jet.value(p), jet.gradient(p),
                                                        jet.hessian(p), p @ p)]
                       for p in pts], dtype=float).T
    denom = float(np.dot(rs, rs))
    t = float(np.dot(ls, rs)) / denom if denom >= 1e-30 else 0.0
    resid = np.max(np.abs(ls - t * rs) / (1.0 + np.abs(t * rs)))
    if not resid < identities.FLOAT_REL_TOL or (ident.positive and not t > 0):
        return False, None
    return True, t / jet.scale / jet.scale


@pytest.mark.parametrize("name", list(CATALOG))
def test_float_checks_match_the_per_point_loop(monkeypatch, name):
    # the float checks' stacks, in one block or in blocks of one and of
    # four points, give the per-point loop's reports, constants bit for bit
    uf = catalog_build(name).to_float()
    jet = uf.jet(exact=False)
    width = max(uf.n * uf.n, jet.m.size)
    for seed in (1, 2, 3):
        want = [_reference_float_report(ident, uf, seed)
                for ident in (RADIAL, EICONAL, TRACE2, TRACE3)]
        for block in (cubics.BLOCK, width, 4 * width):
            monkeypatch.setattr(cubics, "BLOCK", block)
            reports = [check(uf, seed=seed) for check in IDENTITY_CHECKS]
            assert all(r.mode == "float" for r in reports)
            got = [(r.passed, r.constant) for r in reports]
            assert repr(got) == repr(want), (seed, block)


@pytest.mark.parametrize("name,entries", [
    ("cartan-d1", [Fraction(1, 2), Fraction(-2, 3), 1, 0, Fraction(2), 0,
                   Fraction(-1, 3), 1, 0, Fraction(1, 2)]),
    ("cartan-d4", [Fraction(1, 3)] + [0] * 89 + [Fraction(-2)])])
def test_rotation_matches_poly_substitution(name, entries):
    # the integer-cleared contraction gives u o Q term for term as the
    # Poly substitution does, on both sqrt(3) channels (cartan-d4)
    u = catalog_build(name)
    Q = cayley_rotation(skew(u.n, [Fraction(e) for e in entries]))
    assert rotate_exact(u, Q).terms == rotate_by_substitution(u, Q).terms


_small_fraction = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@pytest.mark.parametrize("name", ["clifford-q0", "clifford-q1", "clifford-q2",
                                  "cartan-d1", "cartan-d2", "cartan-d4"])
def test_exact_orthogonal_invariance(name):
    u = catalog_build(name)
    n = u.n
    want = [check(u, "exact").constant for check in IDENTITY_CHECKS]
    harmonic = check_harmonic(u)

    @settings(max_examples=3, deadline=None, derandomize=True, database=None)
    @given(st.lists(_small_fraction, min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2).filter(any))
    def invariant(entries):
        Q = cayley_rotation(skew(n, entries))
        uq = rotate_exact(u, Q)
        assert uq.is_exact_form
        for mode in ("exact", "random"):
            got = [check(uq, mode, seed=4).constant for check in IDENTITY_CHECKS]
            assert got == want, (name, mode, entries)
        assert check_harmonic(uq) == harmonic

    invariant()


@pytest.mark.parametrize("name", ["clifford-q1", "clifford-q2", "cartan-d1",
                                  "cartan-d2"])
def test_float_orthogonal_invariance(name):
    # the float search away from the catalog's coordinates: u o Q has the
    # same Peirce triples, and its sampled cone points are minimal
    u = catalog_build(name)
    n = u.n
    want = {p.triple for p in MetrisedAlgebra(u).find_idempotents(restarts=16,
                                                                   seed=1)}

    @settings(max_examples=1, deadline=None, derandomize=True, database=None)
    @given(st.lists(_small_fraction, min_size=n * (n - 1) // 2,
                    max_size=n * (n - 1) // 2).filter(any))
    def invariant(entries):
        uq = rotate_exact(u, cayley_rotation(skew(n, entries))).to_float()
        idems = MetrisedAlgebra(uq).find_idempotents(restarts=16, seed=1)
        assert {p.triple for p in idems} == want, entries
        rep = sample_cone(uq, 20, 1)
        assert len(rep.points) == 20
        assert rep.max_abs_curvature < 1e-9

    invariant()


def test_orthogonal_invariance_of_labels():
    rng = np.random.default_rng(3)
    for name in ("clifford-q0", "cartan-d1", "clifford-q1"):
        u = catalog_build(name)
        # rotation from an orthonormalized random rational frame
        M = rng.integers(-5, 6, size=(u.n, u.n)).astype(float)
        R, _ = np.linalg.qr(M + 0.1 * np.eye(u.n))
        ur = rotate_by_substitution(u, R.tolist())
        assert classify(ur).label == classify(u).label, name


def test_radial_float_residual_at_samples():
    # residual < 1e-10 * scale at float sample points once theta is known
    rng = np.random.default_rng(4)
    for name in ("cartan-d2", "involution-d2"):
        u = catalog_build(name)
        theta = float(check_radial(u).constant)
        T = dense_tensor(u)
        scale = max(abs(float(c)) for c in u.terms.values())
        for _ in range(20):
            p = rng.standard_normal(u.n)
            p /= np.linalg.norm(p)
            g = 3 * np.einsum("abc,b,c->a", T, p, p)
            H = 6 * np.einsum("abc,c->ab", T, p)
            lhs = (g @ g) * np.trace(H) - g @ H @ g
            rhs = theta * float(evaluate(to_poly(u), list(p)))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, scale ** 3)


def test_mean_curvature_values():
    # H of x (y^2 - z^2) at two points, and none on the x-axis, where the
    # gradient vanishes
    X = np.array([[0.0, 1, 2], [1, 1, 0], [1, 0, 0]])
    h0, h1, h2 = identities._curvatures(DIM3.jet(exact=False), X, identities.GRAD_THRESHOLD)
    assert h0 == pytest.approx(0.0, abs=1e-12)
    assert h1 == pytest.approx(-16 * 5 ** -1.5, rel=1e-12)
    assert h2 is None


def _reference_curvature(u, x, grad_threshold):
    """The mean curvature at x as the per-point formula computed it, one
    point through the float jet; ValueError where it rejects x."""
    jet = u.jet(exact=False)
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("the origin")
    p = x / nx
    g = jet.gradient(p)
    gn = np.linalg.norm(g)
    if gn < grad_threshold * jet.scale:
        raise ValueError("gradient under the threshold")
    H = jet.hessian(p)
    lhs = (g @ g) * H.trace() - g @ (H @ g)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = float(lhs / gn ** 3 / nx)
    if not math.isfinite(h):
        raise ValueError("not finite")
    return h


@pytest.mark.parametrize("name", list(CATALOG))
def test_mean_curvature_matches_the_per_point_formula(name):
    # the stacked routine on each row alone and on the stack of all the
    # rows gives the per-point formula's H bit for bit, and rejects
    # exactly where it rejects: at Gaussian points of sizes 1e-3..1e3 and
    # at cone points, for thresholds that accept all, some and no rays
    uf = catalog_build(name).to_float()
    jet = uf.jet(exact=False)
    rng = np.random.default_rng(7)
    X = rng.standard_normal((12, uf.n)) * 10.0 ** rng.integers(-3, 4, size=(12, 1))
    X = np.concatenate([X, np.reshape(sample_cone(uf, 4, 1, 0.0).points, (-1, uf.n))])
    wants = {}
    for t in (0.0, 0.1, 1.0, 1e3):
        want = wants[t] = []
        for x in X:
            try:
                want.append(_reference_curvature(uf, x, t))
            except ValueError:
                want.append(None)
        got = [identities._curvatures(jet, x[None], t)[0] for x in X]
        assert repr(got) == repr(want), t
        assert repr(identities._curvatures(jet, X, t)) == repr(want), t
    # both paths are exercised: every Gaussian point has a curvature at 0,
    # and every cone point is rejected at 1e3
    assert None not in wants[0.0][:12] and set(wants[1e3][12:]) <= {None}


def reference_sample_cone(u, count, seed, grad_threshold=0.1):
    """The ray-by-ray sampler: each point draws a, b, bisects one ray
    at a time and stops at the first accepted ray."""
    uval = u.jet(exact=False).value
    n = u.n
    report = ConeSampleReport(requested=count)
    for idx in range(count):
        rng = np.random.default_rng((seed, idx))
        got = False
        rejected_before = report.rejected
        for _ in range(MAX_TRIES):
            a = rng.standard_normal(n)
            a /= np.linalg.norm(a)
            b = rng.standard_normal(n)
            b /= np.linalg.norm(b)
            ua, ub = uval(a), uval(b)
            if ua == 0.0 or ub == 0.0 or np.sign(ua) == np.sign(ub):
                continue
            lo, hi = a, b
            for _ in range(80):
                mid = lo + hi
                mid /= np.linalg.norm(mid)
                um = uval(mid)
                if um == 0.0:
                    break
                if np.sign(um) == np.sign(ua):
                    lo = mid
                else:
                    hi = mid
            p = lo + hi
            p /= np.linalg.norm(p)
            try:
                h = _reference_curvature(u, p, grad_threshold)
            except ValueError:
                report.rejected += 1
                continue
            report.points.append(p)
            report.curvatures.append(h)
            got = True
            break
        if not got and report.rejected == rejected_before:
            report.rejected += 1
    return report


# the default threshold keeps the bare form name as its test id; the
# one-row-block cases evaluate every stack one point at a time
_CONE_CASES = ([(name, t, None, 2) for t in (0.1, 0.0, 1e3, math.inf)
                for name in CATALOG]
               + [(name, 0.1, 1, 2) for name in ("clifford-q0", "cartan-d4",
                                                 "complexified-d8")]
               + [("trivial", 0.1, None, 5)])


@pytest.mark.parametrize("name, grad_threshold, block, count", _CONE_CASES,
                         ids=[f"{name}-block-{b}" if b else
                              f"{name}-count-{c}" if c != 2 else
                              name if t == 0.1 else f"{name}-threshold-{t:g}"
                              for name, t, b, c in _CONE_CASES])
def test_sample_cone_matches_ray_by_ray_reference(monkeypatch, name, grad_threshold,
                                                  block, count):
    # the batched rounds, with their stacked curvatures, report what the
    # ray-by-ray loop through the per-point formula reports, bit for bit:
    # at 0 no ray is rejected for its gradient, at 1e3 and inf every ray
    # is, most of them early in the bisection
    if block:
        monkeypatch.setattr(cubics, "BLOCK", block)
    u = catalog_build(name)
    for seed in (1, 2, 3):
        _assert_same_report(sample_cone(u, count, seed, grad_threshold),
                            reference_sample_cone(u, count, seed, grad_threshold))


def test_sample_cone_gradient_test_reads_u_not_its_jet():
    # |Du| = 3000 on the unit sphere, above the threshold 10, while the
    # jet of 2^-11 u has a gradient norm near 1.5: no ray is rejected
    u = scaled(catalog_build("cartan-d1"), 1000)
    for seed in (1, 2, 3):
        got = sample_cone(u, 5, seed, grad_threshold=10.0)
        _assert_same_report(got, reference_sample_cone(u, 5, seed, 10.0))
        assert len(got.points) == 5 and got.rejected == 0


def _assert_same_report(got, want):
    assert len(got.points) == len(want.points)
    assert all(np.array_equal(p, q) for p, q in zip(got.points, want.points))
    assert got.curvatures == want.curvatures
    assert got.rejected == want.rejected


def test_sample_cone_rejects_a_negative_count():
    with pytest.raises(ValueError, match="count must be nonnegative"):
        sample_cone(DIM3, -3, 1)
    assert sample_cone(DIM3, 0, 1).requested == 0


def test_sample_cone_trivial_rejections_pinned():
    # every ray of the singular trivial cone is bisected and rejected
    rep = sample_cone(catalog_build("trivial"), 50, 1)
    assert rep.rejected == 5072 and not rep.points


def _bisect_all_steps(jet, a, b, ua):
    """``_bisect`` without its stop: all BISECT_STEPS steps."""
    lo, hi, sa = a, b, np.sign(ua)
    for _ in range(identities.BISECT_STEPS):
        mid = identities._unit(lo + hi)
        um = jet.value(mid)
        to_lo = np.sign(um) == sa
        to_hi = ~to_lo & (um != 0.0)
        lo = np.where(to_lo[:, None], mid, lo)
        hi = np.where(to_hi[:, None], mid, hi)
    return identities._unit(lo + hi)


@pytest.mark.parametrize("name, capped", [("trivial", True), ("cartan-d1", False)])
def test_bisect_stops_at_its_fixed_point(monkeypatch, name, capped):
    # the trivial cone's rays still move at the last step, so every call
    # takes all BISECT_STEPS (at threshold 0, where no ray leaves early);
    # cartan-d1's calls reach their fixed point before it; either way each
    # call's points are all the steps', bit for bit
    u = catalog_build(name)
    jet = u.jet(exact=False)
    t = 0.0 if capped else identities.GRAD_THRESHOLD
    rays, steps = [], []
    real_bisect, real_value = identities._bisect, Jet.value

    def keep(jet, a, b, ua, grad_threshold):
        rays.append((a.copy(), b.copy(), ua.copy()))
        return real_bisect(jet, a, b, ua, grad_threshold)

    monkeypatch.setattr(identities, "_bisect", keep)
    sample_cone(u, 10, 1, t)
    monkeypatch.setattr(Jet, "value", lambda jet, X: steps.append(1) or real_value(jet, X))
    counts = []
    for a, b, ua in rays:
        steps.clear()
        live, got = real_bisect(jet, a, b, ua, t)
        counts.append(len(steps))
        assert got.tobytes() == _bisect_all_steps(jet, a, b, ua)[live].tobytes()
    assert rays
    if capped:
        assert counts == [identities.BISECT_STEPS] * len(rays)
    else:
        assert max(counts) < identities.BISECT_STEPS


def _dropped_rays_are_rejected(bisect, jet, a, b, ua, grad_threshold):
    """The rays ``bisect`` drops early, each of which must be rejected by
    _curvatures at the end point of the full bisection (threshold 0 drops
    none); every other ray must end where the full one does."""
    live, P = bisect(jet, a, b, ua, grad_threshold)
    full_live, full = bisect(jet, a, b, ua, 0.0)
    assert len(full_live) == len(a)
    assert P.tobytes() == full[live].tobytes()
    gone = np.setdiff1d(np.arange(len(a)), live)
    assert identities._curvatures(jet, full[gone], grad_threshold) == [None] * len(gone)
    return gone


@pytest.mark.parametrize("name", list(CATALOG))
def test_bisect_drops_only_rays_it_would_reject(monkeypatch, name):
    u = catalog_build(name)
    real_bisect = identities._bisect
    dropped = []

    def check(jet, a, b, ua, grad_threshold):
        dropped.extend(_dropped_rays_are_rejected(real_bisect, jet, a, b, ua,
                                                  grad_threshold))
        return real_bisect(jet, a, b, ua, grad_threshold)

    monkeypatch.setattr(identities, "_bisect", check)
    for t in (0.1, 1e3, math.inf):
        for seed in (1, 2, 3):
            sample_cone(u, 5, seed, t)
    # at inf every ray with a finite bound leaves early
    assert dropped


def test_bisect_keeps_rays_near_a_singular_point():
    # u = x1^3 - 3 x1 x2^2 has |Du| = 3 r^2 at distance r from (0, 0, 1):
    # rays that cross its zero lines within r <= 1e-3 of that point end
    # where |Du| can be several times its value at step EARLY_STEP's lo,
    # so at thresholds up to 1e-6 only the L |hi - lo| term keeps those
    # whose end passes; from about 1e-2 on every ray leaves early
    u = CubicForm(3, {(0, 0, 0): Fraction(1), (0, 1, 1): Fraction(-3)})
    jet = u.jet(exact=False)
    rng = np.random.default_rng(0)
    r, k, t = (rng.uniform(lo, hi, 400) for lo, hi in ((1e-5, 1e-3), (1, 5), (0.05, 0.5)))
    a = identities._unit(np.stack([-t, r - k * t, np.ones(400)], axis=1))
    b = identities._unit(np.stack([t, r + k * t, np.ones(400)], axis=1))
    ua = jet.value(a)
    assert (ua * jet.value(b) < 0).all()
    _, full = identities._bisect(jet, a, b, ua, 0.0)
    passed = dropped = 0
    for thr in 10.0 ** np.arange(-12.0, 0.5, 0.5):
        gone = _dropped_rays_are_rejected(identities._bisect, jet, a, b, ua, thr)
        passed += sum(h is not None for h in identities._curvatures(jet, full, thr))
        dropped += len(gone)
    assert passed and dropped


def test_bisect_drops_no_ray_without_a_positive_threshold():
    # the trivial cone's rays all leave early at 0.1, none at NaN, 0 or < 0
    u = catalog_build("trivial")
    jet = u.jet(exact=False)
    rng = np.random.default_rng(3)
    a, b = identities._unit(np.abs(rng.standard_normal((2, 40, 3))))
    b = b * [-1.0, 1.0, 1.0]
    live, _ = identities._bisect(jet, a, b, jet.value(a), 0.1)
    assert len(live) == 0
    for t in (math.nan, 0.0, -0.0, -1.0, -math.inf):
        live, P = identities._bisect(jet, a, b, jet.value(a), t)
        assert live.tolist() == list(range(40)) and P.shape == (40, 3)


def _uncrossed(u, count, seed):
    """The points among the first ``count`` none of whose MAX_TRIES rays
    changes sign with ends that are not antipodal."""
    jet = u.jet(exact=False)
    out = 0
    for idx in range(count):
        ends = identities._unit(np.random.default_rng((seed, idx))
                                .standard_normal((MAX_TRIES, 2, u.n)))
        v = jet.value(ends.reshape(-1, u.n)).reshape(-1, 2)
        arc = (ends[:, 0] + ends[:, 1]).any(axis=-1)
        out += not (arc & (v[:, 0] * v[:, 1] < 0)).any()
    return out


@pytest.mark.parametrize("name", [name for name in CATALOG if name != "trivial"])
def test_sample_cone_bisects_only_rays_it_judges(monkeypatch, name):
    # a pending point bisects one ray per round until a round rejects it,
    # so a catalog cone takes one or two _bisect calls, and every bisected
    # row is judged: accepted, rejected, or a point with no crossing ray
    u = catalog_build(name)
    real_bisect = identities._bisect
    rows = []

    def spy(jet, a, b, ua, grad_threshold):
        rows.append(len(a))
        return real_bisect(jet, a, b, ua, grad_threshold)

    monkeypatch.setattr(identities, "_bisect", spy)
    rep = sample_cone(u, 50, 1)
    assert 1 <= len(rows) <= 2
    assert sum(rows) == len(rep.points) + rep.rejected - _uncrossed(u, 50, 1)


def test_empty_point_stacks():
    # a round whose rays all leave the bisection early has no end points
    u = catalog_build("cartan-d1")
    jet = u.jet(exact=False)
    X = np.empty((0, u.n))
    assert jet.value(X).shape == (0,)
    assert identities._curvatures(jet, X, 0.1) == []
    assert jet.gradient(X).shape == (0, u.n)


def test_sample_cone_cartan():
    u = cartan_cubic(1)
    rep = sample_cone(u, 50, seed=0)
    assert len(rep.points) == 50
    assert rep.max_abs_curvature < 1e-6
    for p in rep.points:
        assert abs(np.linalg.norm(p) - 1) < 1e-12


def test_sample_cone_rejects_singular_points():
    # the trivial cone {x1 = 0} is entirely singular
    rep = sample_cone(trivial_cubic(3, 1), 5, seed=0)
    assert rep.rejected > 0
    assert len(rep.points) == 0


def test_sample_cone_counts_every_point_without_sign_change():
    rep = sample_cone(CubicForm(4, {}), 5, 0)
    assert rep.rejected == 5
    assert len(rep.points) == 0
