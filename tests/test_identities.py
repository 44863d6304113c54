import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from eigencubic.algebra import MetrisedAlgebra
from eigencubic.cubics import (CATALOG, CubicForm, cartan_cubic, catalog_build,
                               trivial_cubic)
from eigencubic.identities import (MAX_TRIES, ConeSampleReport,
                                   _proportional_float, check_eiconal,
                                   check_harmonic, check_radial, classify,
                                   mean_curvature, sample_cone,
                                   trace_identity_cubic,
                                   trace_identity_quadratic)
from eigencubic.poly import Poly
from rotations import cayley_rotation, rotate_exact, skew

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
    grads = u.gradient()
    G = sum((g * g for g in grads), Poly.zero(3))
    half = Fraction(1, 2)
    P = G * u.laplacian() - half * sum(
        (grads[j] * G.diff(j) for j in range(3)), Poly.zero(3))
    r2 = Poly(3, {(i, i): Fraction(1) for i in range(3)})
    residual = P - (-8) * r2 * u.to_poly()
    assert residual.is_zero()


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
        uf = u.to_float().scaled(3.0 / math.sqrt(float(kappa)))
        T = uf.dense_tensor()
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
        alg = MetrisedAlgebra(u)
        for _ in range(10 if d <= 2 else 3):
            x = [Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                 for _ in range(u.n)]
            x2 = alg.multiply(x, x)
            xx = sum(v * v for v in x)
            assert sum(v * v for v in x2) == 4 * kappa * xx * xx


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
                r = check(u.scaled(t))
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
        assert check(uf.scaled(1e80)).passed == check(uf).passed, check.__name__
    with pytest.raises(ValueError, match="not finite"):
        _proportional_float(lambda p: (np.inf, p @ p), uf.n, seed=0)


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
            r = check(uf.scaled(s))
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
    d4 = classify(catalog_build("cartan-d4").to_float().scaled(1e-20))
    assert d4.label == "exceptional-or-mutant" and not d4.is_trivial


@pytest.mark.parametrize("name", list(CATALOG))
def test_jet_matches_poly_derivatives(name):
    # the shared kernel against Poly.eval of the expanded derivatives:
    # exactly (of D u) at integer points and to float rounding at floats,
    # where D is the power of two bringing max|m| into [1, 2)
    u = catalog_build(name)
    grads, hess, poly = u.gradient(), u.hessian(), u.to_poly()
    jet = u.jet(exact=True)
    D = jet.scale
    rng = random.Random(6)
    for _ in range(3):
        p = np.array([rng.randrange(-50, 50) for _ in range(u.n)], dtype=object)
        v, g, H = jet.value(p), jet.gradient(p), jet.hessian(p)
        p = list(p)
        assert v == D * poly.eval(p)
        assert list(g) == [D * gi.eval(p) for gi in grads]
        assert H.tolist() == [[D * h.eval(p) for h in row] for row in hess]
    uf = u.to_float()
    fjet = uf.jet(exact=True)
    assert fjet.m.dtype == float and math.frexp(fjet.scale)[0] == 0.5
    assert 1 <= np.max(np.abs(fjet.m)) < 2
    x = np.random.default_rng(6).standard_normal(u.n)
    v, g, H = (f(x) / fjet.scale for f in (fjet.value, fjet.gradient, fjet.hessian))
    x = list(x)
    close = dict(rel=1e-12, abs=1e-12)
    assert v == pytest.approx(uf.to_poly().eval(x), **close)
    assert g == pytest.approx([gi.eval(x) for gi in uf.gradient()], **close)
    assert H.ravel() == pytest.approx([h.eval(x) for row in uf.hessian()
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
def test_kernel_matches_dense_tensor(name):
    # every float contraction of the package against np.einsum on the
    # dense tensor T: u = T x x x, x o x = 6 T x x, L_x = 6 T x; each
    # tolerance is 1e-12 of the same contraction of |T| and |x|, the size
    # of the terms whose rounding the two sums order differently
    uf = catalog_build(name).to_float()
    T, aT = uf.dense_tensor(), np.abs(uf.dense_tensor())
    jet = uf.jet(exact=False)
    alg = MetrisedAlgebra(uf)
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
        p = alg.peirce(x, residual_tol=np.inf)
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
        assert abs(mean_curvature(uf, x, grad_threshold=0.0) - h) <= 1e-12 * size


SMALL_FORMS = [name for name, e in CATALOG.items() if e.dim <= 15]


@pytest.mark.parametrize("check", IDENTITY_CHECKS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", SMALL_FORMS)
def test_modes_agree(name, check):
    # exact expansion, Schwartz-Zippel points and float points all run
    # the same identity; they must give the same verdict and constant
    u = catalog_build(name)
    ex = check(u, "exact")
    rn = check(u, "random", seed=1)
    assert (rn.passed, rn.constant) == (ex.passed, ex.constant)
    assert rn.mode == "random" and ex.mode == "exact"
    fl = check(u.to_float(), seed=1)
    assert fl.mode == "float" and fl.passed == ex.passed
    if ex.passed:
        e = float(ex.constant)
        assert abs(fl.constant - e) <= 1e-9 * max(1.0, abs(e))


_small_fraction = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))


@pytest.mark.parametrize("name", ["clifford-q0", "clifford-q1", "clifford-q2",
                                  "cartan-d1", "cartan-d2"])
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
        ur = rotate_exact(u, R.tolist())
        assert classify(ur).label == classify(u).label, name


def test_radial_float_residual_at_samples():
    # residual < 1e-10 * scale at float sample points once theta is known
    rng = np.random.default_rng(4)
    for name in ("cartan-d2", "involution-d2"):
        u = catalog_build(name)
        theta = float(check_radial(u).constant)
        T = u.dense_tensor()
        scale = max(abs(float(c)) for c in u.terms.values())
        for _ in range(20):
            p = rng.standard_normal(u.n)
            p /= np.linalg.norm(p)
            g = 3 * np.einsum("abc,b,c->a", T, p, p)
            H = 6 * np.einsum("abc,c->ab", T, p)
            lhs = (g @ g) * np.trace(H) - g @ H @ g
            rhs = theta * float(u.evaluate(list(p)))
            assert abs(lhs - rhs) < 1e-10 * max(1.0, scale ** 3)


def test_mean_curvature_values():
    assert mean_curvature(DIM3, [0, 1, 2]) == pytest.approx(0.0, abs=1e-12)
    want = -16 * 5 ** -1.5
    assert mean_curvature(DIM3, [1, 1, 0]) == pytest.approx(want, rel=1e-12)
    with pytest.raises(ValueError):
        mean_curvature(DIM3, [0, 0, 0])
    with pytest.raises(ValueError):
        # gradient vanishes on the x-axis
        mean_curvature(DIM3, [1, 0, 0])


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
                h = mean_curvature(u, p, grad_threshold)
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


@pytest.mark.parametrize("name", list(CATALOG))
def test_sample_cone_matches_ray_by_ray_reference(name):
    # the batched rounds report what the ray-by-ray loop reports, bit for bit
    u = catalog_build(name)
    for seed in (1, 2, 3):
        got = sample_cone(u, 2, seed)
        want = reference_sample_cone(u, 2, seed)
        assert len(got.points) == len(want.points), (name, seed)
        assert all(np.array_equal(p, q) for p, q in zip(got.points, want.points))
        assert got.curvatures == want.curvatures
        assert got.rejected == want.rejected


def test_sample_cone_trivial_rejections_pinned():
    # every ray of the singular trivial cone is bisected and rejected
    rep = sample_cone(catalog_build("trivial"), 50, 1)
    assert rep.rejected == 5072 and not rep.points


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
