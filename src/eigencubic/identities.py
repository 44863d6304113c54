"""Verifiers for the differential identities attached to eigencubics.

Each identity says lhs = t * rhs for one constant t, with both sides
built from the value, gradient and Hessian of the form at a point p and
from |p|^2.  Each is written once, as a ``sides(v, g, H, r2)`` function,
and every mode runs that same function through the form's one kernel,
``CubicForm.jet``; the mode only chooses the kind of point and the
decider:

* exact: p is the vector of ``Poly`` variables, so both sides come out
  as polynomials and t is decided by full expansion;
* random: p is a random integer point and both sides are exact
  integers; t is solved at one point and confirmed at ``trials`` more,
  with the Schwartz-Zippel bound (deg/bound)**trials;
* float: p is a Gaussian float64 point (forms with float coefficients).

Every mode evaluates the multiple D*u the jet holds: in both exact modes
D is the least positive integer making every coefficient integral (both
channels of a sqrt(3) coefficient), so the kernel works on Python ints and
integer-coefficient polynomials; in float mode D is the power of two that
brings the largest coefficient into [1, 2), so the float tolerances do not
depend on u's scale.  Each lhs has degree two more in u than its rhs, so
t(u) = t(D*u) / D**2 exactly.  The constant is exact in both exact
modes; only the identity's global validity is randomized in the random mode.

Policy: exact expansion for n <= 15, randomized above, both overridable.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, List, Optional

import numpy as np

from .cubics import CubicForm
from .poly import Poly
from .scalars import QSqrt3, exact_div, format_rational, is_exact

EXACT_VAR_LIMIT = 15
DEFAULT_TRIALS = 20
DEFAULT_BOUND = 10 ** 6
FLOAT_REL_TOL = 1e-9
FLOAT_TRIALS = 24


def _json_constant(c):
    """An exact constant as "p/q" strings (both parts of a QSqrt3); a
    float or None as it is."""
    if isinstance(c, QSqrt3):
        return {"rational": format_rational(c.a), "sqrt3": format_rational(c.b)}
    return format_rational(c) if is_exact(c) else c


@dataclass
class CheckReport:
    check: str
    passed: bool
    constant: Optional[object] = None
    mode: str = "exact"
    error_bound: float = 0.0

    def to_json_dict(self) -> dict:
        return {"check": self.check, "pass": self.passed,
                "constant": _json_constant(self.constant),
                "mode": self.mode, "error_bound": self.error_bound}


def _pick_mode(u: CubicForm, mode: str) -> str:
    if mode not in ("auto", "exact", "random"):
        raise ValueError(f"unknown mode {mode!r}")
    if not u.is_exact_form:
        return "float"
    if mode == "auto":
        return "exact" if u.n <= EXACT_VAR_LIMIT else "random"
    return mode


def _proportional_exact(P: Poly, Q: Poly):
    """Constant t with P = t Q identically, else None; Q == 0 handled.

    Solving on a single monomial of Q and verifying globally cannot miss
    or mis-pick t: the constant enters linearly, so P = t Q has at most
    one solution once Q != 0, and any candidate is confirmed or refuted
    by the exact subtraction.
    """
    if Q.is_zero():
        return (Fraction(0) if P.is_zero() else None)
    if P.is_zero():
        return Fraction(0)
    mono = next(iter(Q.terms))
    t = exact_div(P.terms.get(mono, 0), Q.terms[mono])
    return t if (P - Q * t).is_zero() else None


def _rand_point(n: int, rng) -> list:
    return [rng.randrange(DEFAULT_BOUND) for _ in range(n)]


def _proportional_random(sides, n: int, deg: int, trials: int, seed: int):
    """Solve t from one exact point evaluation, verify at `trials` more.

    ``sides`` maps an integer point to the exact pair (lhs, rhs) of the
    identity lhs = t * rhs; points are drawn below DEFAULT_BOUND.
    Returns (t, error_bound) or (None, 0.0); the reported bound is
    (deg/DEFAULT_BOUND)**trials, so at least one trial is required.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(seed)
    t = None
    for _ in range(200):
        p = _rand_point(n, rng)
        lv, rv = sides(p)
        if rv:
            t = exact_div(lv, rv)
            break
    if t is None:
        # rhs vanished everywhere sampled; demand lhs does too
        rng2 = random.Random(seed + 1)
        for _ in range(trials):
            lv, _ = sides(_rand_point(n, rng2))
            if lv:
                return None, 0.0
        return Fraction(0), (deg / DEFAULT_BOUND) ** trials
    for _ in range(trials):
        p = _rand_point(n, rng)
        lv, rv = sides(p)
        if lv != t * rv:
            return None, 0.0
    return t, (deg / DEFAULT_BOUND) ** trials


def _proportional_float(sides, n: int, seed: int):
    """t with lhs = t * rhs at Gaussian points, or None; raises ValueError
    where float64 overflows, rather than failing the identity."""
    rng = np.random.default_rng(seed)
    pts = [rng.standard_normal(n) for _ in range(FLOAT_TRIALS)]
    ls, rs = np.array([sides(p) for p in pts], dtype=float).T
    denom = float(np.dot(rs, rs))
    t = float(np.dot(ls, rs)) / denom if denom >= 1e-30 else 0.0
    if not np.isfinite([*ls, *rs, denom, t]).all():
        raise ValueError("identity sides are not finite in float64")
    resid = np.max(np.abs(ls - t * rs) / (1.0 + np.abs(t * rs)))
    return t if resid < FLOAT_REL_TOL else None


# ---------------------------------------------------------------------------
# the four proportionality identities, each written once
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Identity:
    """lhs = t * rhs with (lhs, rhs) = sides(u(p), Du(p), D^2u(p), |p|^2).

    ``degree`` is the degree of lhs - t rhs in p (the Schwartz-Zippel
    degree).
    """
    name: str
    degree: int
    sides: Callable


RADIAL = _Identity("radial", 5, lambda v, g, H, r2: (
    (g @ g) * np.trace(H) - g @ (H @ g), r2 * v))
EICONAL = _Identity("eiconal", 4, lambda v, g, H, r2: (g @ g, r2 * r2))
TRACE2 = _Identity("trace2", 2, lambda v, g, H, r2: ((H * H).sum(), r2))
TRACE3 = _Identity("trace3", 3, lambda v, g, H, r2: (((H @ H) * H).sum(), v))


def _poly_vars(n: int) -> np.ndarray:
    return np.array([Poly.var(n, i) for i in range(n)], dtype=object)


def _as_poly(x, n: int) -> Poly:
    return x if isinstance(x, Poly) else Poly.const(n, x)


def _check(ident: _Identity, u: CubicForm, mode: str, trials: int,
           seed: int) -> CheckReport:
    m = _pick_mode(u, mode)
    jet = u.jet(exact=m != "float")

    def sides(p):
        return ident.sides(jet.value(p), jet.gradient(p), jet.hessian(p), p @ p)

    if m == "float":
        t, err = _proportional_float(sides, u.n, seed), 0.0
    elif m == "exact":
        lhs, rhs = sides(_poly_vars(u.n))
        t, err = _proportional_exact(_as_poly(lhs, u.n), _as_poly(rhs, u.n)), 0.0
    else:
        t, err = _proportional_random(lambda p: sides(np.array(p, dtype=object)), u.n,
                                      ident.degree, trials, seed)
    if t is not None:
        t = t / (jet.scale * jet.scale)
    return CheckReport(ident.name, t is not None, t, m, err)


# ---------------------------------------------------------------------------
# the five identity checks
# ---------------------------------------------------------------------------

def check_harmonic(u: CubicForm) -> bool:
    """Lap u == 0; the Laplacian of a cubic is linear, so always exact."""
    lap = u.laplacian()
    if u.is_exact_form:
        return lap.is_zero()
    tol = FLOAT_REL_TOL / u.jet(exact=False).scale
    return all(abs(float(c)) <= tol for c in lap.terms.values())


def check_radial(u: CubicForm, mode: str = "auto", trials: int = DEFAULT_TRIALS,
                 seed: int = 0) -> CheckReport:
    """theta with |Du|^2 Lap u - (1/2) Du . D|Du|^2 = theta |x|^2 u.

    Note (1/2) Du . D|Du|^2 = Du . (D^2u) Du.
    """
    if u.is_zero():
        raise ValueError("the zero form is not accepted by the radial check")
    return _check(RADIAL, u, mode, trials, seed)


def check_eiconal(u: CubicForm, mode: str = "auto", trials: int = DEFAULT_TRIALS,
                  seed: int = 0) -> CheckReport:
    """kappa with |Du|^2 = kappa |x|^4; kappa = 9 is the normalized case."""
    if u.is_zero():
        return CheckReport("eiconal", False, None, "exact", 0.0)
    rep = _check(EICONAL, u, mode, trials, seed)
    if rep.passed and not rep.constant > 0:
        rep = replace(rep, passed=False, constant=None)
    return rep


def trace_identity_quadratic(u: CubicForm, mode: str = "auto",
                             trials: int = DEFAULT_TRIALS,
                             seed: int = 0) -> CheckReport:
    """c with trace(D^2 u)^2 = c |x|^2 (the exceptional-or-mutant marker)."""
    return _check(TRACE2, u, mode, trials, seed)


def trace_identity_cubic(u: CubicForm, mode: str = "auto",
                         trials: int = DEFAULT_TRIALS,
                         seed: int = 0) -> CheckReport:
    """a with trace(D^2 u)^3 = a u; every eigencubic admits one."""
    return _check(TRACE3, u, mode, trials, seed)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class ClassificationRecord:
    is_trivial: bool
    is_harmonic: bool
    radial_theta: Optional[object]
    quad_trace: Optional[object]
    cubic_trace: Optional[object]
    label: str
    mode: str = "exact"

    def to_json_dict(self) -> dict:
        return {"is_trivial": self.is_trivial, "is_harmonic": self.is_harmonic,
                "radial_theta": _json_constant(self.radial_theta),
                "quad_trace": _json_constant(self.quad_trace),
                "cubic_trace": _json_constant(self.cubic_trace),
                "label": self.label, "mode": self.mode}


def classify(u: CubicForm, mode: str = "auto", trials: int = DEFAULT_TRIALS,
             seed: int = 0) -> ClassificationRecord:
    """Populate the full record; the label follows the radial/rank/trace rule.

    The quadratic trace predicate is reported as computed: a form may pass
    it without appearing in the admissible-triple table (the 3-variable
    Clifford cubic does), so the label asserts the predicate only.
    """
    from .algebra import MetrisedAlgebra

    rad = check_radial(u, mode, trials, seed)
    quad = trace_identity_quadratic(u, mode, trials, seed + 1)
    cubt = trace_identity_cubic(u, mode, trials, seed + 2)
    harm = check_harmonic(u)
    rank = MetrisedAlgebra(u).multiplication_rank()
    trivial = rank <= 1
    if not rad.passed:
        label = "not-eigencubic"
    elif trivial:
        label = "trivial"
    elif quad.passed:
        label = "exceptional-or-mutant"
    else:
        label = "clifford-type"
    return ClassificationRecord(
        is_trivial=trivial, is_harmonic=harm,
        radial_theta=rad.constant if rad.passed else None,
        quad_trace=quad.constant if quad.passed else None,
        cubic_trace=cubt.constant if cubt.passed else None,
        label=label, mode=rad.mode)


# ---------------------------------------------------------------------------
# mean curvature of the zero cone
# ---------------------------------------------------------------------------

GRAD_THRESHOLD = 0.1
MAX_TRIES = 200                 # rays drawn per requested cone point
BISECT_STEPS = 80
POINT_BATCH = 256               # cone points searched together
VALUE_BLOCK = 1 << 14           # entries of one (points, terms) product of u


def mean_curvature(u: CubicForm, x, grad_threshold: float = GRAD_THRESHOLD) -> float:
    """H = (|Du|^2 Lap u - Du . (D^2u) Du) / |Du|^3 evaluated at x.

    The numerator is the left side of the radial identity.  The
    regularization threshold applies to the gradient at x/|x|, so a
    point near the singular set is rejected (ValueError) regardless of
    its distance from the origin.  H has degree -1 in x and 0 in u, so
    the float jet's D*u gives it; a non-finite value is rejected too.
    """
    jet = u.jet(exact=False)
    x = np.asarray(x, dtype=float)
    nx = np.linalg.norm(x)
    if nx == 0:
        raise ValueError("mean curvature is undefined at the origin")
    p = x / nx
    g = jet.gradient(p)
    gn = np.linalg.norm(g)
    if gn < grad_threshold * jet.scale:
        raise ValueError(f"gradient norm {gn / jet.scale:.3g} below "
                         f"threshold {grad_threshold} on the unit sphere")
    lhs, _ = RADIAL.sides(jet.value(p), g, jet.hessian(p), 1.0)
    h = float(lhs / gn ** 3 / nx)
    if not math.isfinite(h):
        raise ValueError("mean curvature is not finite in float64")
    return h


@dataclass
class ConeSampleReport:
    points: List[np.ndarray] = field(default_factory=list)
    curvatures: List[float] = field(default_factory=list)
    rejected: int = 0
    requested: int = 0

    @property
    def max_abs_curvature(self) -> float:
        return max((abs(h) for h in self.curvatures), default=0.0)

    def to_json_dict(self) -> dict:
        return {"requested": self.requested, "found": len(self.points),
                "rejected": self.rejected,
                "max_abs_curvature": self.max_abs_curvature}


def _unit(x: np.ndarray) -> np.ndarray:
    """x / |x| along the last axis.  The norm is the BLAS dot that
    ``np.linalg.norm`` takes for one vector, so each row comes out as
    the single vector does."""
    return x / np.sqrt((x[..., None, :] @ x[..., :, None])[..., 0, :])


def _values(jet, X: np.ndarray) -> np.ndarray:
    """u at the rows of X, in blocks that bound the (rows, monomials) product."""
    rows = max(1, VALUE_BLOCK // max(1, jet.m.size // 3))
    return np.concatenate([jet.value(X[s:s + rows])
                           for s in range(0, len(X), rows)])


def _bisect(jet, a: np.ndarray, b: np.ndarray, ua: np.ndarray) -> np.ndarray:
    """Bisect the sphere arcs a[r] -> b[r], u(a[r]) = ua[r] and u(b[r])
    of the other sign, for BISECT_STEPS steps; the unit midpoints.

    A midpoint of u's sign moves lo, any other nonzero value (NaN too)
    moves hi, and a zero leaves both, so that ray stays where it is."""
    lo, hi, sa = a, b, np.sign(ua)
    for _ in range(BISECT_STEPS):
        mid = _unit(lo + hi)
        um = _values(jet, mid)
        to_lo = np.sign(um) == sa
        to_hi = ~to_lo & (um != 0.0)
        lo = np.where(to_lo[:, None], mid, lo)
        hi = np.where(to_hi[:, None], mid, hi)
    return _unit(lo + hi)


def _sample_batch(u: CubicForm, idxs: range, seed: int, grad_threshold: float,
                  report: ConeSampleReport) -> None:
    """Search the cone points ``idxs`` together and add their points, in
    index order, and their rejections to ``report``."""
    jet = u.jet(exact=False)
    n = u.n
    rngs = {idx: np.random.default_rng((seed, idx)) for idx in idxs}
    hits, crossed, drawn = {}, set(), 0
    while rngs and drawn < MAX_TRIES:
        k = min(drawn + 1, MAX_TRIES - drawn)
        pending = list(rngs)
        ends = _unit(np.stack([rngs[idx].standard_normal((k, 2, n))
                               for idx in pending]))
        drawn += k
        v = _values(jet, ends.reshape(-1, n)).reshape(len(pending), k, 2)
        ua, ub = v[..., 0], v[..., 1]
        ray = ~((ua == 0.0) | (ub == 0.0) | (np.sign(ua) == np.sign(ub)))
        owner = np.nonzero(ray)[0]
        if not owner.size:
            continue
        rays = ends[ray]
        for pos, p in zip(owner, _bisect(jet, rays[:, 0], rays[:, 1], ua[ray])):
            idx = pending[pos]
            if idx in hits:
                continue
            crossed.add(idx)
            try:
                h = mean_curvature(u, p, grad_threshold)
            except ValueError:
                report.rejected += 1
                continue
            hits[idx] = (p.copy(), h)
            del rngs[idx]
    # a point none of whose rays changed sign (e.g. the zero form) counts once
    report.rejected += sum(idx not in crossed for idx in rngs)
    for idx in sorted(hits):
        p, h = hits[idx]
        report.points.append(p)
        report.curvatures.append(h)


def sample_cone(u: CubicForm, count: int, seed: int,
                grad_threshold: float = GRAD_THRESHOLD) -> ConeSampleReport:
    """Find zero-level points by bisection along random sphere segments.

    Point ``idx`` draws up to MAX_TRIES rays from its own stream
    ``default_rng((seed, idx))``: two Gaussian points a, b normalised to
    the sphere.  A ray where u changes sign is bisected for BISECT_STEPS
    steps, and the first whose end point passes ``mean_curvature`` gives
    the point.  Each ray rejected before it (gradient under the
    threshold, or not finite) counts once in ``rejected``, and so does a
    point none of whose rays changed sign.

    Up to POINT_BATCH points are searched together, so memory does not
    grow with ``count``, in rounds.  A round draws the next 1, 2, 4, ...
    rays of every pending point, the same a, b, a, b, ... stream as
    drawing them one by one, and bisects all its sign-changing rays as
    one array; each point's rays are then judged in draw order.  So the
    report, with points in index order, is the one a ray-by-ray search
    gives, bit for bit.
    """
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    report = ConeSampleReport(requested=count)
    for first in range(0, count, POINT_BATCH):
        _sample_batch(u, range(first, min(first + POINT_BATCH, count)), seed,
                      grad_threshold, report)
    return report
