"""Verifiers for the differential identities attached to eigencubics.

Each identity says lhs = t * rhs for one constant t, with both sides
built from the value, gradient and Hessian of the form at a point p and
from |p|^2.  Each is written once, as a ``sides(v, g, H, r2)`` function,
and every mode runs that same function through the form's one kernel,
``CubicForm.jet``; the mode only chooses the kind of point and the
decider:

* exact: p is the vector of variables, and the jet's ``symbolic`` gives
  the pieces as ``poly.PolyArray``s, built once per form
  (``CubicForm.symbolic``), so the sides come out expanded; t is decided
  on their coefficients;
* random: p is a random integer point; t is decided on the exact sides
  at ``trials + 1`` points, with the Schwartz-Zippel bound (deg/bound)**trials,
  or the least positive float where that underflows;
* float: p is a Gaussian float64 point (forms with float coefficients)
  and t is a least-squares fit, accepted to a tolerance; the points and
  their v, g and H are the form's ``CubicForm.float_pieces``, evaluated
  once for all four checks at one seed.

Both exact modes decide by one ratio test: t is solved at the first
coefficient or point with rhs != 0, and every other must agree; the
exact mode tests all coefficients at once, cross-multiplied
(``_expanded_ratio``).  The eiconal identity also demands t > 0.

Every mode evaluates the multiple D*u the jet holds: in both exact modes
D is the least positive integer making every coefficient integral (both
channels of a sqrt(3) coefficient), so the kernel works on integers and
integer-coefficient polynomials; in float mode D is the power of two that
brings the largest coefficient into [1, 2), so the float tolerances do not
depend on u's scale.  Each lhs has degree two more in u than its rhs, so
t(u) = t(D*u) / D**2 exactly.  The constant is exact in both exact
modes; only the identity's global validity is randomized in the random mode.
On a Q(sqrt3) form the point modes' pieces are ``QSqrt3Array`` pairs, so
each ``sides`` runs on the two integer channels, and only the two sides
it returns are joined to QSqrt3; the exact mode's pieces are single
PolyArrays whose sqrt(3) terms carry a factor 2 in their codes.

Both point modes evaluate the sides through one function,
``_sides_of_blocks`` (``_sides_at`` on a stack of points), on blocks of
points that bound its (points, n, n) stacks, each block as
``modular.ResidueStack``s: float64 ones under numpy's own rounding, each
row the single point's bit for bit, or int64 ones modulo 2**64 and as
many residue primes as the bound read off the identity's own sides
(``_Identity.bound``) needs, each side then lifted by CRT to the Python
int one point gives alone; ``modular`` states the int64 bounds.  Each
block's sides come out as two arrays, which a caller concatenates or
reads row by row.  A float block may bring the v, g and H its caller
already holds, which are then not evaluated again.  One exact Hessian
per block serves every modulus, with g and v from it by Euler's
identities, wherever the jet's own bound keeps it in int64
(2 L R^2 < 2**62 at |p_a| <= R, every catalog form at the random mode's
points); past that bound each modulus takes its own residue jet
(``_exact_route``).
The random mode draws its points in the same blocks, one ``_randbelow``
call per block (the stream of one ``randrange`` per coordinate), so
memory stays O(block) for any ``trials`` and no block after the first
that refutes t is drawn; its moduli and residue jets are taken once per
check, for |p_a| < DEFAULT_BOUND.  The Hsiang check of ``algebra`` and the cone
sampler's mean curvatures (``_curvatures``, with the gradient stack it
holds) run their points through the same function, and
``tables.classify`` reads the checks into one record; this module
imports neither.

Policy: exact expansion for n <= 15, randomized above, both overridable.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .cubics import CubicForm, Jet, block_rows
from .modular import ResidueStack, _stack, inverse, lift, moduli
from .poly import PolyArray
from .scalars import (QSqrt3, cleared, denominator, exact_div, format_rational, is_exact, joined,
                      per_channel)

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


def _ratio(pairs):
    """The t with l = t * r for every exact pair (l, r), else None.  t is
    solved at the first pair with r != 0, which no other t fits, or is 0 if
    there is none; the pairs are read up to the first that refutes it."""
    t = None
    for lv, rv in pairs:
        if t is None and rv:
            t = exact_div(lv, rv)
        elif lv != (t * rv if rv else 0):
            return None
    return Fraction(0) if t is None else t


def _randbelow(width: int, count: int, rng: random.Random) -> np.ndarray:
    """``count`` successive ``rng.randrange(width)`` draws, 1 <= width < 2**32,
    as one int64 array.

    ``randrange`` takes the top k = width.bit_length() bits of one 32-bit
    Mersenne Twister word and draws a new word while that value is not
    below ``width``.  ``getrandbits(32 w)`` gives the next w words, the
    first in the lowest bits.  Each round asks for one word per value
    still missing, so no word past the last accepted one is drawn, and
    ``rng`` ends where the draws one by one leave it.
    """
    shift = 32 - width.bit_length()
    out = [np.zeros(0, dtype=np.int64)]
    need = count
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need).to_bytes(4 * need, "little"),
                              dtype="<u4") >> shift
        out.append(words[words < width].astype(np.int64))
        need -= len(out[-1])
    return np.concatenate(out)


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """<x, y> along the last axis.  Each is the BLAS dot that ``x @ y`` and
    ``np.linalg.norm`` take for one pair of vectors, so each row's comes
    out as the single vectors' does."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _residue_pieces(jet: Jet, X: np.ndarray, q: int, v=None, g=None, H=None) -> Tuple:
    """(v, g, H, r2) modulo q at the points X on ``jet.modulo(q)``, as
    ``ResidueStack``s: modulo 2**64 the jet's own, wrapped; at float64
    points, with q = 0 on the float jet, its own, and r2 each row's
    ``_dots``.  A float caller may pass the arrays of v, g and H it holds
    at X, which are then not evaluated again.  Modulo a prime only H is,
    which stays in int64 (``modular``), and Euler's H x = 2 g and
    x . g = 3 v for the cubic give g and v.  The exact route takes these
    per modulus only where one int64 Hessian cannot serve every modulus
    (``_exact_route``)."""
    x = ResidueStack(X, q)
    H = _stack(jet.hessian(x.x) if H is None else H, q)
    if not q:
        return (_stack(jet.value(X) if v is None else v, q),
                _stack(jet.gradient(X) if g is None else g, q), H, x @ x)
    g = H @ x * inverse(2, q)
    return x @ g * inverse(3, q), g, H, x @ x


def _exact_route(ident: _Identity, jet: Jet, n: int, R: int) -> Callable:
    """The function from a block B of points of Z^n with |p_a| <= R to its
    ``_residue_pieces`` on the exact ``jet`` at each modulus of ``ident``,
    one modulus at a time: 2**64 (q = 0) and the primes of
    ``moduli(ident.bound(n, L, R))``, L = ``Jet.l1``.  Built once for all
    the blocks.

    One Hessian serves every modulus when 2 L R^2 < 2**62.  Each channel
    of H x = 2 g is then at most 2 L R^2 in magnitude (``_Identity.bound``),
    and so is each entry of H, which adds m p_c once per rotation, so both
    are exact in int64 however their sums wrap on the way.  The block
    takes H0 = ``jet.modulo(0).hessian(B)`` once and g0 = H0 B / 2, an
    exact halving; modulo each q, H = H0, g = g0 and v = (B . g) / 3, as
    3 is a unit modulo 2**64 and every prime.  These are the residues the
    jet modulo q gives.  Where the bound fails, as on a form scaled by
    10^18, an entry of H0 or H0 B may wrap, so H0 holds H modulo 2**64
    alone: it gives no residue modulo a prime and cannot be halved.  That
    block takes its pieces on ``jet.modulo(q)`` at each q instead."""
    L = jet.l1
    qs = (0,) + moduli(ident.bound(n, L, R))
    if 2 * L * R * R >= 2 ** 62:
        jets = [jet.modulo(q) for q in qs]
        return lambda B: (_residue_pieces(j, B, q) for j, q in zip(jets, qs))
    j0 = jet.modulo(0)

    def pieces(B):
        def half(h):            # h B on one channel, even and exact
            return (h @ B[..., None])[..., 0] >> 1

        H0 = j0.hessian(B)
        g0 = per_channel(half, H0)
        for q in qs:
            x, g = ResidueStack(B, q), _stack(g0, q)
            yield x @ g * inverse(3, q), g, _stack(H0, q), x @ x

    return pieces


def _sides_of_blocks(ident: _Identity, jet: Jet, n: int, blocks: Iterable,
                     R: Optional[int]) -> Iterator[Tuple]:
    """The arrays (lhs, rhs) of ``ident.sides`` at the rows of each block
    of points in turn; lazy, so a caller that stops early draws and
    evaluates no further block.

    Float64 blocks (R None), on the float ``jet``, are tuples (P, v, g, H)
    of the points and the arrays of v, g and H a caller holds there, each
    None where it holds none.  Each runs ``ident.sides`` on its
    ``_residue_pieces`` at q = 0 alone, numpy's float64 rounding, each row
    the single point's bit for bit; a side that is no stack, such as a
    constant, is broadcast to every row.  Int64 blocks, on the exact jet,
    with R bounding |p_a| on all of them, run it once per modulus of
    ``_exact_route``, each modulus's pieces dropped before the next are
    made, and ``lift`` gives each side as the object array of the Python
    ints (or QSqrt3s) single points give."""
    if R is None:
        return (tuple(np.broadcast_to(getattr(s, "x", s), len(P))
                      for s in ident.sides(*_residue_pieces(jet, P, 0, v, g, H)))
                for P, v, g, H in blocks)
    pieces = _exact_route(ident, jet, n, R)
    return (tuple(map(lift, zip(*itertools.starmap(ident.sides, pieces(B))))) for B in blocks)


def _rows(blocks: Iterator[Tuple]) -> Iterator[Tuple]:
    """The (lhs, rhs) of each row of each block of sides in turn, lazily."""
    return itertools.chain.from_iterable(zip(*sides) for sides in blocks)


def _sides_at(ident: _Identity, jet: Jet, P: np.ndarray,
              G: Optional[np.ndarray] = None) -> Iterator[Tuple]:
    """``_sides_of_blocks`` at the point stack P, in blocks of
    ``block_rows`` of an n x n Hessian in row order, with R = max|P| on
    int64 points; ``_rows`` reads them row by row.  G, the float jet's
    gradient at P if given, serves as each float block's g."""
    n = P.shape[-1]
    rows = block_rows(n * n)
    if P.dtype == float:
        return _sides_of_blocks(ident, jet, n, (
            (P[s:s + rows], None, None if G is None else G[s:s + rows], None)
            for s in range(0, len(P), rows)), None)
    R = int(np.abs(P).max(initial=0))
    return _sides_of_blocks(ident, jet, n, (P[s:s + rows] for s in range(0, len(P), rows)), R)


def _proportional_float(ident: _Identity, u: CubicForm, seed: int):
    """t with lhs = t * rhs for ``ident`` at FLOAT_TRIALS Gaussian points
    in R^n on the float jet of ``u``, or None; raises ValueError where
    float64 overflows, rather than failing the identity.  The points and
    their pieces are the form's ``float_pieces``, which every float check
    at this seed shares."""
    blocks = u.float_pieces(seed, FLOAT_TRIALS)
    # the blocks' (rows, 2) arrays joined, so that np.dot reads ls and rs at
    # the stride of one (points, 2) array, as it read the rows of the single
    # points: on a contiguous side BLAS can sum in another order
    ls, rs = np.concatenate([np.stack(b, axis=1) for b in _sides_of_blocks(
        ident, u.jet(exact=False), u.n, blocks, None)]).T
    denom = float(np.dot(rs, rs))
    t = float(np.dot(ls, rs)) / denom if denom >= 1e-30 else 0.0
    if not (np.isfinite(ls).all() and np.isfinite(rs).all() and math.isfinite(denom)
            and math.isfinite(t)):
        raise ValueError("identity sides are not finite in float64")
    resid = np.max(np.abs(ls - t * rs) / (1.0 + np.abs(t * rs)))
    return t if resid < FLOAT_REL_TOL else None


# ---------------------------------------------------------------------------
# the four proportionality identities, each written once
# ---------------------------------------------------------------------------

class _Norm(int):
    """An upper bound on N(x), the sum of |r| + 2|s| over the entries
    r + sqrt3 s of a piece or side x at one point, on which every
    operation a side uses gives one on its result: ``+`` and ``-`` add,
    ``*`` and ``@`` multiply, and ``sum``, ``trace`` and a sign return
    it unchanged.

    Proof: on entries N(x +- y) <= N(x) + N(y) and N(xy) <= N(x) N(y),
    as 3 <= 2 * 2.  Each entry of an elementwise ``*``, of ``@`` or of a
    scalar times an array is a sum of products x_i y_j, and no pair
    (i, j) occurs twice in the result, so its N is at most N(x) N(y); a
    ``sum`` or ``trace`` adds each entry at most once.  A side is one
    entry per point, and its N bounds |r| and |s|, the magnitudes of
    both sqrt(3) channels.
    """

    __add__ = __radd__ = __sub__ = __rsub__ = lambda x, y: _Norm(int.__add__(x, y))
    __mul__ = __rmul__ = __matmul__ = __rmatmul__ = lambda x, y: _Norm(int.__mul__(x, y))
    sum = trace = __neg__ = __pos__ = lambda x: x


@dataclass(frozen=True)
class _Identity:
    """lhs = t * rhs with (lhs, rhs) = sides(u(p), Du(p), D^2u(p), |p|^2).

    ``degree`` is the degree of lhs - t rhs in p (the Schwartz-Zippel
    degree); ``positive`` says the identity holds only with t > 0.
    """
    name: str
    degree: int
    sides: Callable
    positive: bool = False

    def bound(self, n: int, L: int, R: int) -> int:
        """A bound on |lhs| and |rhs|, on both sqrt(3) channels of D*u, at
        p in Z^n with |p_a| <= R, L = ``Jet.l1``: ``sides`` on the
        ``_Norm``s of the pieces.  A rotation (a; b, c) of m adds m p_b p_c
        to g_a and m p_c, m p_b to H_ab, H_ac, and ``Jet.l1`` sums every
        rotation's N(m), so N(v) <= L R^3, N(g) <= L R^2, N(H) <= 2 L R
        and N(r2) <= n R^2."""
        return int(max(self.sides(*map(_Norm, (L * R ** 3, L * R * R, 2 * L * R, n * R * R)))))


RADIAL = _Identity("radial", 5, lambda v, g, H, r2: ((g @ g) * H.trace() - g @ (H @ g), r2 * v))
EICONAL = _Identity("eiconal", 4, lambda v, g, H, r2: (g @ g, r2 * r2), positive=True)
TRACE2 = _Identity("trace2", 2, lambda v, g, H, r2: ((H * H).sum(), r2))
TRACE3 = _Identity("trace3", 3, lambda v, g, H, r2: (((H @ H) * H).sum(), v))


def _coefficient(side: PolyArray, mono: int):
    """The coefficient r + s sqrt(3) of the monomial with odd code ``mono``
    in an expanded side, r itself where s is 0."""
    r, s = (int(side.coef[i]) if i < side.code.size and side.code[i] == k else 0
            for k, i in zip((mono, 2 * mono), np.searchsorted(side.code, [mono, 2 * mono])))
    return QSqrt3(r, s) if s else r


def _same_terms(x, y) -> bool:
    """Whether two PolyArrays hold the same terms: their arrays are equal,
    as a PolyArray's terms are sorted, each key once, with no zero."""
    return all(np.array_equal(getattr(x, f), getattr(y, f)) for f in ("idx", "code", "coef"))


def _expanded_ratio(lhs: PolyArray, rhs: PolyArray):
    """``_ratio`` over the coefficients of two expanded sides, each a
    ``PolyArray`` of shape (): t is solved at rhs's first monomial, and
    q lhs and p rhs, expanded on the same kernel, must have the same terms
    for t = p / q, p an int, or p in Z[sqrt3] where t has a sqrt(3) part."""
    if not rhs.code.size:
        return None if lhs.code.size else Fraction(0)
    first = int(rhs.code[0])
    mono = first if first & 1 else first // 2
    t = exact_div(_coefficient(lhs, mono), _coefficient(rhs, mono))
    q = denominator(t)
    p = cleared(q, t)
    if isinstance(p, QSqrt3):
        p = PolyArray.collect(rhs.nvars, (), 0, [0, 0], [1, 2], np.array([p.a, p.b], dtype=object))
    return t if _same_terms(lhs * q, rhs * p) else None


def _require_trials(trials: int) -> None:
    """Raise ValueError for trials < 1: an exact check at no random point
    would read as one that holds."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")


def _check(ident: _Identity, u: CubicForm, mode: str, trials: int,
           seed: int) -> CheckReport:
    m = _pick_mode(u, mode)
    jet = u.jet(exact=m != "float")
    if m == "float":
        t = _proportional_float(ident, u, seed)
    elif m == "exact":
        t = _expanded_ratio(*ident.sides(*u.symbolic))
    else:
        _require_trials(trials)
        # one draw per block of points, so memory stays O(block) however
        # large ``trials``, and no block past a refuting one is drawn; one
        # route for every block, as no coordinate reaches DEFAULT_BOUND
        rng, rows = random.Random(seed), block_rows(u.n * u.n)
        blocks = (_randbelow(DEFAULT_BOUND, k * u.n, rng).reshape(k, u.n)
                  for k in (min(rows, trials + 1 - s) for s in range(0, trials + 1, rows)))
        t = _ratio(_rows(_sides_of_blocks(ident, jet, u.n, blocks, DEFAULT_BOUND - 1)))
    if t is None or (ident.positive and not t > 0):
        return CheckReport(ident.name, False, None, m, 0.0)
    t = t / jet.scale / jet.scale
    if m == "float" and not math.isfinite(t):
        raise ValueError("the identity constant is not finite in float64")
    # the power underflows to 0.0 from 57 trials on; the least positive
    # float still bounds it from above, and claims no certainty
    err = max((ident.degree / DEFAULT_BOUND) ** trials, math.ulp(0.0)) \
        if m == "random" else 0.0
    return CheckReport(ident.name, True, t, m, err)


# ---------------------------------------------------------------------------
# the five identity checks
# ---------------------------------------------------------------------------

def check_harmonic(u: CubicForm) -> bool:
    """Lap u == 0; the Laplacian of a cubic is linear, so always exact.
    Every coefficient of the kernel's D Lap u is 0 on an exact form, and at
    most FLOAT_REL_TOL in magnitude on a float one (D a power of two)."""
    lap = joined(u.jet(exact=u.is_exact_form).laplacian(u.n))
    if u.is_exact_form:
        return not any(lap)
    return bool((np.abs(lap) <= FLOAT_REL_TOL).all())


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
    """kappa > 0 with |Du|^2 = kappa |x|^4; kappa = 9 is the normalized case.
    The zero form, with kappa = 0, fails it in every mode."""
    return _check(EICONAL, u, mode, trials, seed)


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
# mean curvature of the zero cone
# ---------------------------------------------------------------------------

GRAD_THRESHOLD = 0.1
MAX_TRIES = 200                 # rays drawn per requested cone point
BISECT_STEPS = 80
# The bisection step at which a ray proven rejected leaves the stack.  By
# step 9 every trivial-cone ray of seeds 1-3 is proven at thresholds 0.1
# to 1e3 (at step 8, 63 % at seed 1); 12 leaves a factor 8 in |hi - lo|
# for forms with a larger L / D, and a proven ray still skips all but 12
# of the 60-80 steps a catalog stack takes to its fixed point.
EARLY_STEP = 12
POINT_BATCH = 256               # cone points searched together


def _curvatures(jet: Jet, X: np.ndarray, grad_threshold: float) -> List[Optional[float]]:
    """The cone's mean curvature H = (|Du|^2 Lap u - Du . (D^2u) Du) / |Du|^3
    at each nonzero row x of X on the float ``jet`` (degree -1 in x, 0 in u),
    or None where the gradient at x / |x| is under the threshold or H is
    not finite.

    The rows go to the sphere, p = x / |x|, and their gradients G and
    gradient norms gn are taken as one stack.  ``_sides_at`` gives the
    numerator, the radial identity's lhs, of each row that passes, from
    that row of G and one Hessian per block: each row of a stack holds the
    single point's bits, so G's is the gradient the row has alone.
    H = lhs / gn**3 / |x| is then taken on the row's own scalars, as for a
    single point: an array ``gn ** 3`` can differ from the scalar's in the
    last bit.
    """
    nx = np.sqrt(_dots(X, X))
    P = X / nx[:, None]
    G = jet.gradient(P)
    gn = np.sqrt(_dots(G, G))
    keep = np.flatnonzero(~(gn < grad_threshold * jet.scale))
    lhs = [side for side, _ in _rows(_sides_at(RADIAL, jet, P[keep], G[keep]))]
    out = [None] * len(X)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i, side in zip(keep, lhs):
            h = float(side / gn[i] ** 3 / nx[i])
            out[i] = h if math.isfinite(h) else None
    return out


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
    """x / |x| along the last axis, each row as the single vector's."""
    return x / np.sqrt(_dots(x, x))[..., None]


def _bisect(jet, a: np.ndarray, b: np.ndarray, ua: np.ndarray,
            grad_threshold: float) -> Tuple[np.ndarray, np.ndarray]:
    """Bisect the sphere arcs a[r] -> b[r], u(a[r]) = ua[r] and u(b[r])
    of the other sign, for at most BISECT_STEPS steps.  Returns the rows r
    still on the stack at the end, in order, and their unit midpoints.

    A midpoint of u's sign moves lo, any other nonzero value (NaN too)
    moves hi, and a zero leaves both, so that ray stays where it is.
    The bisection stops at the first step that changes no bit of any
    ray's lo or hi: each row is evaluated on its own, so every later step
    would recompute the same midpoints.

    At step EARLY_STEP a ray leaves the stack when gn(lo) + L (|hi - lo|
    + 2**-40) < grad_threshold * D / 2, where gn is the jet's gradient
    norm and L = 2 jet.l1 bounds the Frobenius norm of its Hessian on the
    unit ball (a rotation (a; b, c) puts m x_c and m x_b in two entries).
    Every later lo, hi and midpoint lies on the arc lo -> hi, within
    |hi - lo| of lo, so its gradient norm is below that bound and
    ``_curvatures`` would reject the end point: the ray is rejected.  The
    2**-40 L and the factor 1/2 leave at least 2**-39 L for float rounding;
    each gradient entry sums at most C(n + 2, 2) products, so for n <=
    MAX_DIM each of the two norms is off by under 2**-40 L.  A NaN, zero
    or negative threshold removes no ray."""
    live, lo, hi, sa = np.arange(len(a)), a, b, np.sign(ua)
    floor = 0.5 * grad_threshold * jet.scale
    for step in range(BISECT_STEPS):
        if step == EARLY_STEP:
            G = jet.gradient(lo)
            d = hi - lo
            bound = np.sqrt(_dots(G, G)) + 2 * jet.l1 * (np.sqrt(_dots(d, d)) + 2.0 ** -40)
            stay = ~(bound < floor)
            live, lo, hi, sa = live[stay], lo[stay], hi[stay], sa[stay]
        mid = _unit(lo + hi)
        um = jet.value(mid)
        to_lo = np.sign(um) == sa
        to_hi = ~to_lo & (um != 0.0)
        new_lo = np.where(to_lo[:, None], mid, lo)
        new_hi = np.where(to_hi[:, None], mid, hi)
        if not ((new_lo.view(np.int64) != lo.view(np.int64)).any()
                or (new_hi.view(np.int64) != hi.view(np.int64)).any()):
            break
        lo, hi = new_lo, new_hi
    return live, _unit(lo + hi)


def _sample_batch(u: CubicForm, idxs: range, seed: int, grad_threshold: float,
                  report: ConeSampleReport) -> None:
    """Search the cone points ``idxs`` together and add their points, in
    index order, and their rejections to ``report``."""
    jet = u.jet(exact=False)
    n, count = u.n, len(idxs)
    rngs = [np.random.default_rng((seed, idx)) for idx in idxs]
    drawn = np.zeros(count, dtype=int)
    need = np.ones(count, dtype=int)        # rays to bisect in the next round
    failed = np.zeros(count, dtype=bool)    # a round rejected all its rays
    pending = np.ones(count, dtype=bool)
    crossed = np.zeros(count, dtype=bool)
    # the queue: the sign-changing rays not yet bisected, grouped by owner
    # (position in idxs) and in draw order within each owner
    owner, ends, ua = np.empty(0, dtype=int), np.empty((0, 2, n)), np.empty(0)
    hits = {}
    while True:
        queued = np.bincount(owner, minlength=count)
        short = np.flatnonzero(pending & (queued < need) & (drawn < MAX_TRIES))
        if short.size:
            k = np.minimum(drawn[short] + 1, MAX_TRIES - drawn[short])
            new = _unit(np.concatenate([rngs[i].standard_normal((j, 2, n))
                                        for i, j in zip(short, k.tolist())]))
            drawn[short] += k
            v = jet.value(new.reshape(-1, n)).reshape(-1, 2)
            # antipodal ends, as every two ends are in dimension 1, span no arc
            arc = (new[:, 0] + new[:, 1]).any(axis=-1)
            ray = arc & ~((v[:, 0] == 0.0) | (v[:, 1] == 0.0)
                          | (np.sign(v[:, 0]) == np.sign(v[:, 1])))
            got = np.repeat(short, k)[ray]
            crossed[got] = True
            owner = np.concatenate([owner, got])
            order = np.argsort(owner, kind="stable")
            owner = owner[order]
            ends = np.concatenate([ends, new[ray]])[order]
            ua = np.concatenate([ua, v[ray, 0]])[order]
            continue
        pending &= (queued > 0) | (drawn < MAX_TRIES)
        if not pending.any():
            break
        # each pending point's next need rays, judged in draw order
        rank = np.arange(len(owner)) - np.searchsorted(owner, owner)
        take = rank < need[owner]
        who, rank_taken = owner[take], rank[take]
        live, P = _bisect(jet, ends[take, 0], ends[take, 1], ua[take], grad_threshold)
        hs = _curvatures(jet, P, grad_threshold)
        ok = np.zeros(len(who), dtype=bool)
        ok[live] = [h is not None for h in hs]
        first = np.full(count, MAX_TRIES)
        np.minimum.at(first, who[ok], rank_taken[ok])
        report.rejected += int(np.count_nonzero(~ok & (rank_taken < first[who])))
        for r in np.flatnonzero(ok & (rank_taken == first[who])):
            i = np.searchsorted(live, r)
            hits[idxs[who[r]]] = (P[i].copy(), hs[i])
        done = first < MAX_TRIES
        again = np.bincount(who, minlength=count).astype(bool) & ~done
        need[again] *= 1 + failed[again]    # 1, 1, 2, 4, ... rays per round
        failed |= again
        pending &= ~done
        keep = ~take & ~done[owner]
        owner, ends, ua = owner[keep], ends[keep], ua[keep]
    # a point none of whose rays changed sign (e.g. the zero form) counts once
    report.rejected += int(np.count_nonzero(~crossed))
    for idx in sorted(hits):
        p, h = hits[idx]
        report.points.append(p)
        report.curvatures.append(h)


def sample_cone(u: CubicForm, count: int, seed: int,
                grad_threshold: float = GRAD_THRESHOLD) -> ConeSampleReport:
    """Find zero-level points by bisection along random sphere segments.

    Point ``idx`` draws up to MAX_TRIES rays from its own stream
    ``default_rng((seed, idx))``: two Gaussian points a, b normalised to
    the sphere.  A ray where u changes sign, its ends not antipodal, is
    bisected (``_bisect``), and the first whose end point has a mean
    curvature (``_curvatures``) gives the point.  Each ray rejected before
    it (gradient under the threshold, or not finite) counts once in
    ``rejected``, and so does a point none of whose rays changed sign.

    Up to POINT_BATCH points are searched together, so memory does not
    grow with ``count``, in rounds.  Each pending point keeps a queue of
    the sign-changing rays it has drawn and not yet bisected.  While the
    queue is shorter than the point needs next, the point draws its next
    1, 2, 4, ... rays, the same a, b, a, b, ... stream as drawing them one
    by one.  A round then bisects, as one array, each pending point's
    next ray, or its next 2, 4, ... from its second round in a row whose
    rays were all rejected, and takes the mean curvatures of their end
    points from one stack; a ray ``_bisect`` proves rejected leaves
    early.  Each point's rays are judged in draw order, up to its first
    accepted one, so a point bisects a ray it does not judge only after
    two rejected rounds.  The report, with points in index order, is the
    one a ray-by-ray search gives, bit for bit.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    report = ConeSampleReport(requested=count)
    for first in range(0, count, POINT_BATCH):
        _sample_batch(u, range(first, min(first + POINT_BATCH, count)), seed,
                      grad_threshold, report)
    return report
