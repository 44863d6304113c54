"""The metrised commutative algebra of a cubic form.

V(u) carries the product fixed by <x o y, z> = u(x; y; z) against the
standard Euclidean inner product, so (x o y)_k = 6 sum T_ijk x_i y_j and
x o x = 2 grad u(x) and L_x = D^2u(x).  Both come from the form's one
(u, Du, D^2u) kernel, ``CubicForm.jet``, the only route to them: the
exact operations below read its exact jet (a float coefficient enters as
the binary fraction it is), the idempotent / Peirce pipeline its float64
jet.  The two exact checks run at random rational points: weak
associativity compares the trilinear contractions <x o y, z> and
<y o z, x>, and the Hsiang identity
<x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta |x|^2 <x^2,x> is 4 times the
radial identity of ``identities.RADIAL``, since x^2 = 2 Du,
x^3 = 2 D^2u Du and <x^2, x> = 6u.  On a Q(sqrt3) form the kernel
gives each piece as a ``QSqrt3Array``, two integer arrays, and each
exact operation joins it to QSqrt3 entries only where its result leaves
the kernel: the operators L_{e_i} of ``multiplication_rank``, the Hsiang
residual at a point and a nonzero weak-associativity difference.

Both checks run whole batches of points through the kernel, on int64
copies of the jet's arrays where ``identities._int64_jet`` proves that no
sum can overflow, and on its Python ints for a jet beyond that bound.
The points' numerators lie in [-9, 9], which bounds every sum before any
arithmetic.  Weak associativity takes batches of triples
(``WEAK_DIFF_FACTOR``).  The Hsiang check takes its points in the blocks
of ``identities._exact_sides``, shared with the random identity checks:
gradient and Hessian stacks in int64, the radial sides on Python ints.
Both checks draw their points in one vectorised pass that reproduces the
stream of one ``random.randint`` per coordinate, so their residuals do
not depend on how the points are drawn.

Idempotents are located by projected gradient ascent of |u| on the unit
sphere (stationary points have grad u = lambda x), rescaled by 1/(2 lambda),
then polished by Newton steps on c o c - c = 0.  The ascent runs on blocks
of restarts, each step one stack of the restarts still climbing, with
``ASCENT_BLOCK`` bounding its temporaries; every restart keeps its own
step and stop rule and ends where it would alone, bit for bit.  The Newton
polish runs one restart at a time, in restart order.  The search runs on the
float jet of s*u (s = ``Jet.scale``), so its cutoffs do not depend on u's
scale, and an idempotent c' of s*u is c = s c'.  The Newton system
2 L_c - I is singular exactly when 1/2 sits in the Peirce spectrum, the
generic case here, so steps go through the symmetric pseudo-inverse with
a gradient fallback when they stall.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Tuple

import numpy as np

from .cubics import CubicForm, Jet
from .identities import (RADIAL, _dots, _exact_sides, _int64_jet, _randbelow,
                         _unit)
from .scalars import QSqrt3, QSqrt3Array, exact_div, joined

NEWTON_STEPS = 80
IDEMPOTENT_RESIDUAL = 1e-10
DEDUP_DISTANCE = 1e-6
BIN_TOLERANCE = 1e-6
PEIRCE_EIGENVALUES = (-1.0, -0.5, 0.5)
# A weak-associativity triple has numerators in [-9, 9], so one product
# m x_a (y_b z_c + y_c z_b) of ``Jet.trilinear`` is at most 9 * 2 * 81 |m|
# in magnitude, and the difference of two contractions at most this
# factor times sum |m| over the jet's arrays.
WEAK_DIFF_FACTOR = 2 * 9 * 2 * 81
# The most products one batch of triples holds in each temporary array.
TRILINEAR_CHUNK = 1 << 14
# The most entries of one (restarts, 3 monomials) temporary of the ascent.
ASCENT_BLOCK = 1 << 14
# The most steps one restart's ascent takes.  Every catalog restart stops
# on its tangent norm or its line search within 30 steps; the cap only
# ends an ascent that creeps on without converging.
ASCENT_STEPS = 200


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

        The columns j >= i of L_{e_i} are the products e_i o e_j.
        """
        n = self.n
        if not self.form.is_exact_form:
            jet = self.form.jet(exact=False)
            rows = [jet.hessian(e)[i:] for i, e in enumerate(np.eye(n))]
            return int(np.linalg.matrix_rank(np.concatenate(rows), tol=1e-9))
        jet = self.form.jet(exact=True)
        pivots: List[list] = []
        pivot_cols: List[int] = []
        for i, ei in enumerate(np.eye(n, dtype=int).astype(object)):
            L = joined(jet.hessian(ei))         # D L_{e_i}: the same span
            for j in range(i, n):
                row = list(L[:, j])
                for prow, pcol in zip(pivots, pivot_cols):
                    v = row[pcol]
                    if v:
                        row = [rv - v * pv for rv, pv in zip(row, prow)]
                col = next((k for k, v in enumerate(row) if v), None)
                if col is not None:
                    inv = exact_div(1, row[col])
                    row = [rv * inv for rv in row]
                    pivots.append(row)
                    pivot_cols.append(col)
                    if len(pivots) == n:
                        return n
        return len(pivots)

    # -- idempotents and Peirce data ------------------------------------------
    def find_idempotents(self, restarts: int = 64, seed: int = 0,
                         bin_tol: float = BIN_TOLERANCE) -> List[PeirceData]:
        """Seeded multistart search; returns deduplicated PeirceData records.

        Each restart draws from an independent stream keyed by
        (seed, restart index), so results do not depend on scheduling.
        The ascent runs on blocks of restarts (``_ascend``), the Newton
        polish on one restart at a time, in restart order.  A restart
        whose linear algebra fails is skipped like one that does not
        converge.
        """
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        jet = self.form.jet(exact=False)
        rows = max(1, ASCENT_BLOCK // max(1, jet.m.size))
        found: List[np.ndarray] = []
        for first in range(0, restarts, rows):
            block = range(first, min(first + rows, restarts))
            X = _unit(np.stack([np.random.default_rng((seed, r)).standard_normal(self.n)
                                for r in block]))
            for x, ux in zip(*_ascend(jet, X)):
                try:
                    hit = _polish(jet, x, ux)
                except np.linalg.LinAlgError:
                    continue            # a failed eigh ends this restart only
                if hit is None:
                    continue
                c, res = hit
                if res > IDEMPOTENT_RESIDUAL or np.linalg.norm(c) < 1e-8:
                    continue
                if any(np.linalg.norm(c - d) < DEDUP_DISTANCE for d in found):
                    continue
                found.append(c)
        found = sorted((c * jet.scale for c in found),
                       key=lambda c: tuple(np.round(c, 8)))
        return [self.peirce(c, bin_tol=bin_tol) for c in found]

    def peirce(self, c, bin_tol: float = BIN_TOLERANCE,
               residual_tol: float = 1e-8) -> PeirceData:
        """Eigendecomposition of L_c binned at 1, -1, -1/2, 1/2.

        Leftover eigenvalues are reported in ``unbinned`` rather than
        forced into a bin, so a non-conforming algebra stays visible.
        ``residual_tol`` is in the float jet's units, as the search's are.
        """
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise ValueError("idempotent has wrong length")
        jet = self.form.jet(exact=False)
        cn = c / jet.scale
        residual = jet.scale * float(np.linalg.norm(2.0 * jet.gradient(cn) - cn))
        if residual > residual_tol * jet.scale:
            raise ValueError(f"not an idempotent: |c o c - c| = {residual:.3g}")
        L = jet.hessian(cn)
        eigenvalues = np.linalg.eigvalsh(0.5 * (L + L.T))
        counts = []
        used = np.zeros(len(eigenvalues), dtype=bool)
        one_mult = 0
        for target in (1.0,) + PEIRCE_EIGENVALUES:
            sel = (~used) & (np.abs(eigenvalues - target) < bin_tol)
            used |= sel
            if target == 1.0:
                one_mult = int(np.sum(sel))
            else:
                counts.append(int(np.sum(sel)))
        unbinned = [float(v) for v in eigenvalues[~used]]
        return PeirceData(c=c, length_sq=float(c @ c),
                          eigenvalues=np.sort(eigenvalues),
                          triple=tuple(counts), one_multiplicity=one_mult,
                          unbinned=unbinned, residual=residual)

    # -- the defining identity -----------------------------------------------
    def check_hsiang_identity(self, theta, trials: int = 100, seed: int = 0):
        """Max residual of <x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta <x,x><x^2,x>
        over random rational points; exact arithmetic, so 0 means identity.

        With x^2 = 2 Du, x^3 = 2 D^2u Du and <x^2, x> = 6u both sides are
        4 times the sides of the radial identity, which
        ``identities._exact_sides`` evaluates for D*u at the integer points
        d*x, in blocks, as the random mode of the identity checks does.
        """
        rng = random.Random(seed)
        jet = self.form.jet(exact=True)
        D = jet.scale
        X, dens = _rational_batch(self.n, trials, rng)
        worst = Fraction(0)
        for (lhs, rhs), d in zip(_exact_sides(RADIAL.sides, jet, X), dens.tolist()):
            diff = lhs - theta * D * D * rhs
            if isinstance(diff, QSqrt3) and not diff.b:
                diff = diff.a           # as joining the channel pair gives it
            # lhs carries D^3 d^5 and rhs D d^5
            worst = max(worst, abs(4 * diff / Fraction(D ** 3 * d ** 5)))
        return worst

    def weak_associativity_max_residual(self, trials: int = 1000, seed: int = 0):
        """Max |<x o y, z> - <y o z, x>| over random rational triples, exact.

        The residual is 0 by construction for every CubicForm: both sides
        are the complete polarization, which sums all six orderings of
        each monomial at its coefficient, so the difference cancels term
        by term.  The check therefore tests the index handling of
        ``Jet.trilinear``, not an axiom the form could fail.

        The triples run through ``Jet.trilinear`` in batches of at most
        ``TRILINEAR_CHUNK`` products, on int64 arrays when ``_int64_jet``
        proves that no sum can overflow, else on Python ints.  Only the
        nonzero differences become exact scalars, in trial order, so the
        result is the one a loop over single triples gives, in value and
        in type.
        """
        rng = random.Random(seed)
        jet = _int64_jet(self.form.jet(exact=True), WEAK_DIFF_FACTOR)
        X, dx = _rational_batch(self.n, trials, rng)
        Y, dy = _rational_batch(self.n, trials, rng)
        Z, dz = _rational_batch(self.n, trials, rng)
        if jet.m.dtype == object:
            X, Y, Z = X.astype(object), Y.astype(object), Z.astype(object)
        dens = (dx * dy * dz).tolist()
        step = max(1, TRILINEAR_CHUNK // max(1, jet.m.size))
        worst = Fraction(0)
        for start in range(0, trials, step):
            x, y, z = (P[start:start + step] for P in (X, Y, Z))
            diff = jet.trilinear(x, y, z) - jet.trilinear(y, z, x)
            if not isinstance(diff, QSqrt3Array):
                diff = QSqrt3Array(diff, np.zeros_like(diff))
            r, s = diff.r, diff.s
            for i in np.flatnonzero((r != 0) | (s != 0)):
                v = joined(QSqrt3Array(int(r[i]), int(s[i])))
                worst = max(worst, abs(v / Fraction(jet.scale * dens[start + i])))
        return worst


def _ascend(jet: Jet, X: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Projected ascent of |u| from each unit row of X; the end points and
    u there.

    Each row keeps its own step, starting at 0.4, and runs until its
    tangent gradient is below 1e-12, 30 halvings of its step find no
    larger |u| or ``ASCENT_STEPS`` steps are done.  Each pass works on the rows still
    running as one stack, and every product, norm and dot comes out as
    it does for the row alone (``Jet``, ``identities._dots``), so each
    row ends where a loop over that row alone ends, bit for bit.
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
        sgn = np.where(U[live] >= 0, 1.0, -1.0)
        cur = np.abs(U[live])
        todo = np.arange(len(live))     # rows of ``live`` still searching
        for _ in range(30):
            if not todo.size:
                break
            rows = live[todo]
            xn = _unit(X[rows] + (step[rows] * sgn[todo])[:, None] * tangent[todo])
            un = jet.value(xn)
            up = np.abs(un) > cur[todo]
            X[rows[up]], U[rows[up]] = xn[up], un[up]
            step[rows] *= np.where(up, 1.2, 0.5)
            todo = todo[~up]
        live = np.delete(live, todo)    # no larger |u| along the tangent
        if not live.size:
            break
    return X, U


def _polish(jet: Jet, x: np.ndarray, ux: float) -> Optional[Tuple[np.ndarray, float]]:
    """Newton on c o c = c from the ascent's end point x, u(x) = ux;
    returns c with |c o c - c|, or None if u(x) ~ 0."""
    lam = 3.0 * ux                        # grad u(x) = lam x at a critical point
    if abs(lam) < 1e-8:
        return None
    c = x / (2.0 * lam)
    I = np.eye(len(x))
    Fv = 2.0 * jet.gradient(c) - c        # c o c - c
    fn = np.linalg.norm(Fv)
    for _ in range(NEWTON_STEPS):
        if fn < 1e-14:
            break
        J = 2.0 * jet.hessian(c) - I
        cn = c + _newton_step(J, Fv)
        Fn_v = 2.0 * jet.gradient(cn) - cn
        fn_new = np.linalg.norm(Fn_v)
        if fn_new < fn:
            c, Fv, fn = cn, Fn_v, fn_new
            continue
        # pseudo-inverse step stalled: one projected-gradient step on |F|^2
        grad = J @ Fv
        gn = np.linalg.norm(grad)
        if gn < 1e-16:
            break
        t = min(0.5, fn / gn)
        improved = False
        for _ in range(20):
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


def _newton_step(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Least-norm solution of J delta = -F for symmetric J.

    J = 2 L_c - I is singular whenever 1/2 is a Peirce eigenvalue, so the
    solve is a pseudo-inverse through eigh, dropping eigenvalues at or
    below lstsq's cutoff eps * n * max|lambda|.
    """
    lam, V = np.linalg.eigh(J)
    keep = np.abs(lam) > np.finfo(float).eps * len(lam) * np.max(np.abs(lam))
    return V[:, keep] @ ((V[:, keep].T @ -F) / lam[keep])


def _rational_batch(n: int, count: int, rng: random.Random):
    """Random rational points, numerators in [-9, 9] and denominators in
    [1, 3], returned as int64 arrays (numerators of shape (count, n),
    denominators).  The values, and the state ``rng`` is left in, are
    those of a ``rng.randint(-9, 9)`` per coordinate, point by point,
    followed by a ``rng.randint(1, 3)`` per point."""
    nums = _randbelow(19, count * n, rng).reshape(count, n) - 9
    return nums, _randbelow(3, count, rng) + 1

