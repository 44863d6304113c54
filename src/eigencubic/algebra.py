"""The metrised commutative algebra of a cubic form.

V(u) carries the product fixed by <x o y, z> = u(x; y; z) against the
standard Euclidean inner product, so (x o y)_k = 6 sum T_ijk x_i y_j and
x o x = 2 grad u(x) and L_x = D^2u(x).  Both come from the form's one
(u, Du, D^2u) kernel, ``CubicForm.jet``, the only route to them: the
exact operations below read its exact jet (a float coefficient enters as
the binary fraction it is), the idempotent / Peirce pipeline its float64
jet.  Weak associativity, <x o y, z> = <y o z, x>, holds for every
form by construction, as both sides are u(x; y; z).  The Hsiang identity
<x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta |x|^2 <x^2,x> runs at random
rational points; it is 4 times the radial identity of
``identities.RADIAL``, since x^2 = 2 Du, x^3 = 2 D^2u Du and
<x^2, x> = 6u.  On a Q(sqrt3) form the kernel gives each piece as a
``QSqrt3Array``, two integer arrays, and each exact operation joins it to
QSqrt3 entries only where its result leaves the kernel: the Hsiang
residual at a point.  The multiplication rank joins nothing: it is
certified first from n gradients modulo one residue prime, where sqrt3
has a root, and where that certificate fails it is the largest rank of
the products e_i o e_j modulo the residue primes p = 11 (mod 12), over
enough of them that a Hadamard bound leaves no larger rank; one row
reduction modulo p, ``modular._rank_mod_p``, serves both, and
``modular`` states the int64 bounds of both.

The Hsiang check runs whole batches of points through
``identities._sides_at``, as the random identity checks do, on int64
residue stacks modulo 2**64 and as many residue primes as the radial
bound at |x| <= 9 needs, lifted by CRT to Python ints; the points'
numerators lie in [-9, 9], which bounds every sum before any arithmetic.
At |x| <= 9 the jet's bound 2 L R^2 < 2**62 holds for every catalog form,
so each block takes one exact int64 Hessian, and every modulus its pieces
from it.  For a rational theta, theta D^2 = num/den, a point's residual is 0
exactly when den lhs = num rhs on the lifted sides; that one integer
test finds the nonzero points, and only those build a Fraction.  A
Q(sqrt3) theta builds its residual at every point.  It draws its
points in one vectorised pass that reproduces the stream of one
``random.randint`` per coordinate, so its residual does not depend on
how the points are drawn.

Idempotents are located by projected gradient ascent of |u| on the unit
sphere (stationary points have grad u = lambda x), rescaled by 1/(2 lambda),
then polished by Newton steps on c o c - c = 0.  Both run on blocks of
restarts, each step one stack of the restarts still running, with
``cubics.BLOCK`` bounding its temporaries: the ascent's line search tries
growing stacks of halved steps, and the polish takes one stacked Hessian,
``eigh`` and residual per step.  Every restart keeps its own steps and
stop rules and ends where it would alone, bit for bit, and the Peirce
records of all the idempotents come from one stack too.  The search runs
on the float jet of s*u (s = ``Jet.scale``), so its cutoffs do not depend
on u's scale, and an idempotent c' of s*u is c = s c'.  The Newton system
J = 2 L_c - I is singular exactly when 1/2 sits in the Peirce spectrum,
the generic case here, and then c lies on a continuous family of
idempotents along J's null space.  Steps go through the symmetric
pseudo-inverse with J's near-null eigenvalues dropped (``_newton_step``):
the least-norm Newton step on the normal space of the family, which ends
each catalog restart in one step, so an idempotent does not drift along
its family with the rounding.  A gradient fallback takes the steps that
do not lower |c o c - c|.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .cubics import CubicForm, Jet, block_rows
from .identities import RADIAL, _dots, _randbelow, _require_trials, _rows, _sides_at, _unit
from .modular import _at_root, _rank_mod_p, primes
from .scalars import QSqrt3

NEWTON_STEPS = 80
IDEMPOTENT_RESIDUAL = 1e-10
DEDUP_DISTANCE = 1e-6
BIN_TOLERANCE = 1e-6
PEIRCE_EIGENVALUES = (-1.0, -0.5, 0.5)
# The most steps one restart's ascent takes.  Every catalog restart stops
# on its tangent norm or its line search within 30 steps; the cap only
# ends an ascent that creeps on without converging.
ASCENT_STEPS = 200
# The most halvings of the step one ascent step's line search tries, and
# of one gradient-fallback step of the Newton polish.
ASCENT_HALVINGS = 30
POLISH_HALVINGS = 20
# The largest |c o c - c| a Peirce record accepts, in the float jet's units.
PEIRCE_RESIDUAL = 1e-8


@dataclass
class PeirceData:
    c: np.ndarray
    length_sq: float
    eigenvalues: np.ndarray
    triple: tuple
    one_multiplicity: int
    unbinned: List[float] = field(default_factory=list)
    residual: float = 0.0

    def to_json_dict(self) -> dict:
        return {"idempotent": [float(v) for v in self.c],
                "length_sq": self.length_sq,
                "spectrum": [float(v) for v in self.eigenvalues],
                "triple": list(self.triple),
                "one_multiplicity": self.one_multiplicity,
                "unbinned": [float(v) for v in self.unbinned],
                "residual": self.residual}


class MetrisedAlgebra:
    def __init__(self, form: CubicForm):
        self.form = form
        self.n = form.n

    def multiplication_rank(self) -> int:
        """dim span{e_i o e_j}; 1 exactly for the trivial family.

        The products are the rows j >= i of the symmetric L_{e_i}, held
        as D L_{e_i} on the exact jet.  A float form's rank is their SVD
        rank.  An exact form's rank is n if ``_full_rank_mod_p`` says so:
        the rows D*Du(x) = D (x o x) / 2 lie in the span, and their matrix
        modulo p is the exact one's image under the ring map
        Z[sqrt3] -> F_p, so its full rank holds over Q(sqrt3).  Otherwise
        it is the largest rank r, over the residue primes p = 11 (mod 12)
        of ``modular.primes``, of the matrix A of the products modulo p
        (``_rank_mod_p``), taken until r = n or the product M of the primes
        taken exceeds (2L)^(2r+2), L = ``Jet.l1``.

        Proof that r is then the rank over Q(sqrt3).  The ring map takes
        minors to minors, so no rank modulo p exceeds it.  Were it above
        r, some (r+1)-minor mu = a + sqrt3 b of A would be nonzero, and so
        would its norm N(mu) = a^2 - 3b^2, as sqrt3 is irrational.  A row
        of A has channel norm sum |x| + 2 sum |y| <= 2L over its entries
        x + sqrt3 y (a rotation adds m to its entries at most twice), which
        bounds the Euclidean norms of the row and of its conjugate, so
        Hadamard gives |N(mu)| = |mu| |mu'| <= (2L)^(2r+2).  Each prime
        taken gives rank at most r, so mu maps to a + t b = 0 modulo it,
        and it divides (a + t b)(a - t b) = N(mu).  Then M divides
        N(mu) != 0, so M <= (2L)^(2r+2).  Each prime takes the products on
        its own residue jet, ``Jet.modulo(p)``.
        """
        n = self.n
        if not self.form.is_exact_form:
            L = self.form.jet(exact=False).hessian(np.eye(n))
            return int(np.linalg.matrix_rank(L[np.triu_indices(n)], tol=1e-9))
        jet = self.form.jet(exact=True)
        if _full_rank_mod_p(jet, n):
            return n
        rank, M, bound = 0, 1, 2 * jet.l1
        eye = np.eye(n, dtype=np.int64)
        for p in primes():
            L = _at_root(jet.modulo(p).hessian(eye), p)
            rank = max(rank, _rank_mod_p(L[np.triu_indices(n)], p))
            M *= p
            if rank == n or M > bound ** (2 * rank + 2):
                return rank

    # -- idempotents and Peirce data ------------------------------------------
    def find_idempotents(self, restarts: int = 64, seed: int = 0,
                         bin_tol: float = BIN_TOLERANCE) -> List[PeirceData]:
        """Seeded multistart search; returns deduplicated PeirceData records.

        Each restart draws from an independent stream keyed by
        (seed, restart index), so results do not depend on scheduling.
        The ascent (``_ascend``) and the Newton polish (``_polish``) run
        on blocks of restarts, and the records of all the idempotents
        come from stacks too (``_peirce_records``); each restart and each
        record is the one a loop over it alone gives, bit for bit.  A
        restart whose linear algebra fails is skipped like one that does
        not converge.
        """
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        jet = self.form.jet(exact=False)
        rows = block_rows(self.n * self.n)
        kept, k = np.empty((restarts, self.n)), 0
        for first in range(0, restarts, rows):
            block = range(first, min(first + rows, restarts))
            X = _unit(np.stack([np.random.default_rng((seed, r)).standard_normal(self.n)
                                for r in block]))
            for hit in _polish(jet, *_ascend(jet, X)):
                if hit is None:
                    continue
                c, res = hit
                if res > IDEMPOTENT_RESIDUAL or np.linalg.norm(c) < 1e-8:
                    continue
                # |c - d| to every kept d, each as np.linalg.norm gives it
                d = c - kept[:k]
                if (np.sqrt(_dots(d, d)) < DEDUP_DISTANCE).any():
                    continue
                kept[k] = c
                k += 1
        found = sorted((c * jet.scale for c in kept[:k]),
                       key=lambda c: tuple(np.round(c, 8)))
        return [p for s in range(0, len(found), rows)
                for p in _peirce_records(jet, np.stack(found[s:s + rows]), bin_tol)]

    # -- the defining identity -----------------------------------------------
    def check_hsiang_identity(self, theta, trials: int = 100, seed: int = 0):
        """Max residual of <x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta <x,x><x^2,x>
        over random rational points; exact arithmetic, so 0 means identity.

        With x^2 = 2 Du, x^3 = 2 D^2u Du and <x^2, x> = 6u both sides are
        4 times the sides of the radial identity, which
        ``identities._sides_at`` evaluates for D*u at the integer points
        d*x, in blocks, as the random mode of the identity checks does.
        A rational theta skips each point whose sides pass the integer
        test den lhs = num rhs, whose residual is 0.
        """
        _require_trials(trials)
        rng = random.Random(seed)
        jet = self.form.jet(exact=True)
        D = jet.scale
        X, dens = _rational_batch(self.n, trials, rng)
        c = theta * D * D
        points = zip(_rows(_sides_at(RADIAL, jet, X)), dens.tolist())
        if isinstance(c, (int, Fraction)):
            # c = num / den: a point's residual is 0 exactly when den lhs =
            # num rhs, which needs no Fraction
            num, den = c.numerator, c.denominator
            points = [((lhs, rhs), d) for (lhs, rhs), d in points if den * lhs != num * rhs]
        worst = Fraction(0)
        for (lhs, rhs), d in points:
            diff = lhs - c * rhs
            if isinstance(diff, QSqrt3) and not diff.b:
                diff = diff.a           # as joining the channel pair gives it
            if diff:                    # lhs carries D^3 d^5 and rhs D d^5
                worst = max(worst, abs(4 * diff / Fraction(D ** 3 * d ** 5)))
        return worst

    def weak_associativity_max_residual(self, trials: int = 1000, seed: int = 0):
        """Max |<x o y, z> - <y o z, x>| over ``trials`` triples: an exact
        0, by construction, without drawing one.

        Proof.  <x o y, z> = <D^2u(x) y, z> = D^3u(x; y; z), and the third
        derivative of a polynomial is symmetric in its three arguments,
        as partial derivatives commute; so <y o z, x> = D^3u(y; z; x) is
        the same number at every triple, for every CubicForm.
        """
        _require_trials(trials)
        return Fraction(0)


def _ascend(jet: Jet, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projected ascent of |u| from each unit row of X; the end points and
    u there.

    Each row keeps its own step, starting at 0.4, and runs until its
    tangent gradient is below 1e-12, ``ASCENT_HALVINGS`` halvings of its
    step find no larger |u| or ``ASCENT_STEPS`` steps are done.  Each
    pass works on the rows still running as one stack, and every product,
    norm and dot comes out as it does for the row alone (``Jet``,
    ``identities._dots``), so each row ends where a loop over that row
    alone ends, bit for bit.
    """
    X = X.copy()
    U = jet.value(X)
    step = np.full(len(X), 0.4)
    live = np.arange(len(X))
    for _ in range(ASCENT_STEPS):
        x = X[live]
        g = jet.gradient(x)
        tangent = g - _dots(g, x)[:, None] * x
        moving = ~(np.sqrt(_dots(tangent, tangent)) < 1e-12)
        live, tangent = live[moving], tangent[moving]
        live = live[_line_search(jet, X, U, step, live, tangent)]
        if not live.size:
            break
    return X, U


def _line_search(jet: Jet, X: np.ndarray, U: np.ndarray, step: np.ndarray,
                 live: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """One ascent step of the rows ``live`` of X along their tangents:
    which of them found a larger |u|.

    Row r tries the steps t, t/2, t/4, ... (t = step[r], signed as u) in
    turn, up to ``ASCENT_HALVINGS`` of them, and moves to the first where
    |u| rises: X[r] and U[r] take that point, and step[r] 1.2 times that
    step.  The candidates run in growing stacks, 1, 2, 4, ... per row
    still searching, each candidate step halved from the one before as
    the loop over them halves it, so every row ends where that loop
    ends, bit for bit.
    """
    n = X.shape[1]
    sgn = np.where(U[live] >= 0, 1.0, -1.0)
    cur, t, x = np.abs(U[live]), step[live], X[live]
    climbed = np.zeros(len(live), dtype=bool)
    todo = np.arange(len(live))     # rows of ``live`` still searching
    tried, width = 0, 1
    while todo.size and tried < ASCENT_HALVINGS:
        w = min(width, ASCENT_HALVINGS - tried)
        cand = np.multiply.accumulate(
            np.concatenate([t[todo, None], np.full((todo.size, w - 1), 0.5)], axis=1),
            axis=1)
        xn = _unit((x[todo, None, :] + (cand * sgn[todo, None])[..., None]
                    * tangent[todo, None, :]).reshape(-1, n))
        un = jet.value(xn).reshape(-1, w)
        up = np.abs(un) > cur[todo, None]
        hit = up.any(axis=1)
        k = np.flatnonzero(hit)
        j = up[k].argmax(axis=1)
        rows = live[todo[k]]
        X[rows], U[rows], step[rows] = xn[k * w + j], un[k, j], cand[k, j] * 1.2
        climbed[todo[k]] = True
        t[todo] = cand[:, -1] * 0.5
        todo = todo[~hit]
        tried, width = tried + w, 2 * width
    return climbed


def _polish(jet: Jet, X: np.ndarray, U: np.ndarray) -> List[Optional[Tuple[np.ndarray, float]]]:
    """Newton on c o c = c from each ascent end point, row of X with
    u = U there; per row, c with |c o c - c|, or None if u(x) ~ 0 or its
    linear algebra failed.

    Each pass takes the rows still running as one stack: their Hessians,
    one stacked ``eigh`` (matrix by matrix if that raises, so that only a
    failing row is dropped), and their new residuals, with ``_dots``
    norms.  The pseudo-inverse step (``_newton_step``) and the gradient
    fallback (``_fallback``) run per row, so each row ends where a loop
    over that row alone ends, bit for bit.  From an ascent end point on a
    catalog form the first Newton step takes |c o c - c| below the stop
    rule 1e-14, so a block takes one ``eigh`` and no fallback; the
    fallback and the further steps serve starts far from an idempotent
    and forms that are not Hsiang.
    """
    out: List[Optional[Tuple[np.ndarray, float]]] = [None] * len(X)
    lam = 3.0 * U                         # grad u(x) = lam x at a critical point
    start = np.flatnonzero(~(np.abs(lam) < 1e-8))
    C = X[start] / (2.0 * lam[start])[:, None]
    F = 2.0 * jet.gradient(C) - C         # c o c - c
    fn = np.sqrt(_dots(F, F))
    I = np.eye(X.shape[1])
    live = np.arange(len(start))
    failed = np.zeros(len(start), dtype=bool)
    for _ in range(NEWTON_STEPS):
        live = live[~(fn[live] < 1e-14)]
        if not live.size:
            break
        J = 2.0 * jet.hessian(C[live]) - I
        eigs = _eighs(J)
        ok = np.array([e is not None for e in eigs])
        failed[live[~ok]] = True
        live, J = live[ok], J[ok]
        if not live.size:
            break
        CN = C[live] + np.stack([_newton_step(*e, F[r])
                                 for e, r in zip(filter(None, eigs), live)])
        FN = 2.0 * jet.gradient(CN) - CN
        fnn = np.sqrt(_dots(FN, FN))
        better = fnn < fn[live]
        C[live[better]], F[live[better]], fn[live[better]] = CN[better], FN[better], fnn[better]
        going = better.copy()
        for i in np.flatnonzero(~better):
            going[i] = _fallback(jet, J[i], C, F, fn, live[i])
        live = live[going]
    for i in np.flatnonzero(~failed):
        out[start[i]] = (C[i], fn[i])
    return out


def _fallback(jet: Jet, J: np.ndarray, C: np.ndarray, F: np.ndarray,
              fn: np.ndarray, r: int) -> bool:
    """The polish's step for row r of C when the pseudo-inverse step did
    not lower |F|: one projected-gradient step on |F|^2, its length halved
    up to ``POLISH_HALVINGS`` times until |F| falls.  Updates row r of C,
    F and fn; returns whether it moved.  It runs per row: growing stacks
    of these halvings, across the stalled rows, made the search
    benchmark about 4 % slower."""
    grad = J @ F[r]
    gn = np.linalg.norm(grad)
    if gn < 1e-16:
        return False
    t = min(0.5, fn[r] / gn)
    for _ in range(POLISH_HALVINGS):
        cn = C[r] - t * grad
        Fn_v = 2.0 * jet.gradient(cn) - cn
        fn_new = np.linalg.norm(Fn_v)
        if fn_new < fn[r]:
            C[r], F[r], fn[r] = cn, Fn_v, fn_new
            return True
        t *= 0.5
    return False


def _eighs(J: np.ndarray) -> list:
    """``np.linalg.eigh`` of each matrix of the stack J, or None where it
    fails: one stacked call, and one call per matrix only if that one
    raises."""
    try:
        return list(zip(*np.linalg.eigh(J)))
    except np.linalg.LinAlgError:
        out = []
        for M in J:
            try:
                out.append(np.linalg.eigh(M))
            except np.linalg.LinAlgError:
                out.append(None)
        return out


def _newton_step(lam: np.ndarray, V: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Least-norm solution of J delta = -F for the symmetric J = V diag(lam) V^T,
    J's eigenvalues at or below sqrt(eps) * max|lambda| dropped: a
    pseudo-inverse through J's ``eigh``.

    Why that cutoff.  At a Hsiang idempotent c, L_c has the Peirce
    eigenvalues 1, -1, -1/2 and 1/2, so J = 2 L_c - I has 1, -3, -2 and 0,
    and every nonzero one has |lambda| >= 1.  J is the derivative of
    F = c o c - c, and where 1/2 is a Peirce eigenvalue the idempotents
    near c form a family along J's null space.  At a point a distance e
    off the family J's eigenvalues move by O(e), so the ascent's end
    points, about 1e-12 off, give J tangent eigenvalues near 1e-12; a
    cutoff below them, as lstsq's eps * n * max|lambda| (3.6e-14 at
    n = 54), divides F's rounding by them: c moves along the family with
    the rounding, two summation orders of one catalog form ending up to
    5e-5 apart, and two steps in three do not lower |F|.  The cutoff
    sqrt(eps) * max|lambda|, 1.5e-8 to 4.5e-8 here, drops them and keeps
    every Peirce eigenvalue, so the step is the least-norm Newton step on
    the normal space of the family, which converges quadratically where J
    keeps its rank near the solutions (Ben-Israel 1966).  At an isolated
    idempotent J is invertible near c and nothing is dropped.  On a form
    that is not Hsiang a nonzero eigenvalue may fall below the cutoff; its
    direction is then left to further steps and to ``_fallback``, and the
    residual gates judge where the polish ends.
    """
    keep = np.abs(lam) > np.sqrt(np.finfo(float).eps) * np.max(np.abs(lam))
    return V[:, keep] @ ((V[:, keep].T @ -F) / lam[keep])


def _peirce_records(jet: Jet, C: np.ndarray, bin_tol: float) -> List[PeirceData]:
    """The PeirceData of each row of C, from one stacked gradient, Hessian
    and ``eigvalsh``; raises ValueError at the first row whose residual is
    above PEIRCE_RESIDUAL (in the jet's units) or not finite."""
    CN = C / jet.scale
    with np.errstate(invalid="ignore", over="ignore"):
        F = 2.0 * jet.gradient(CN) - CN
        residuals = jet.scale * np.sqrt(_dots(F, F))
    for residual in residuals:
        if not residual <= PEIRCE_RESIDUAL * jet.scale:
            raise ValueError(f"not an idempotent: |c o c - c| = {residual:.3g}")
    L = jet.hessian(CN)
    E = np.linalg.eigvalsh(0.5 * (L + L.swapaxes(-1, -2)))
    # each eigenvalue's bin: the first of 1, -1, -1/2, 1/2 within bin_tol,
    # or -1 for none
    near = np.abs(E[..., None] - np.array((1.0,) + PEIRCE_EIGENVALUES)) < bin_tol
    bins = np.where(near.any(axis=-1), near.argmax(axis=-1), -1)
    counts = (bins[..., None] == np.arange(4)).sum(axis=1).tolist()
    return [PeirceData(c=c, length_sq=float(c @ c), eigenvalues=np.sort(e),
                       triple=tuple(k[1:]), one_multiplicity=k[0],
                       unbinned=e[b < 0].tolist(), residual=float(residual))
            for c, e, b, k, residual in zip(C, E, bins, counts, residuals)]


def _full_rank_mod_p(jet: Jet, n: int) -> bool:
    """Whether D*Du of the exact ``jet`` at n integer points, drawn from
    ``random.Random(0)`` in [-9, 9] as one ``randint`` per coordinate,
    has rank n modulo the first residue prime.  No int64 sum reaches
    2**63: each gradient entry is below 2**55 (``modular``)."""
    p = next(primes())
    X = _randbelow(19, n * n, random.Random(0)).reshape(n, n) - 9
    return _rank_mod_p(_at_root(jet.modulo(p).gradient(X), p), p) == n


def _rational_batch(n: int, count: int, rng: random.Random):
    """The Hsiang check's random rational points, numerators in [-9, 9]
    and denominators in [1, 3], returned as int64 arrays (numerators of
    shape (count, n), denominators).  The values, and the state ``rng`` is left in, are
    those of a ``rng.randint(-9, 9)`` per coordinate, point by point,
    followed by a ``rng.randint(1, 3)`` per point."""
    nums = _randbelow(19, count * n, rng).reshape(count, n) - 9
    return nums, _randbelow(3, count, rng) + 1

