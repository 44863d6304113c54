"""The metrised commutative algebra of a cubic form.

V(u) carries the product fixed by <x o y, z> = u(x; y; z) against the
standard Euclidean inner product, so (x o y)_k = 6 sum T_ijk x_i y_j and
x o x = 2 grad u(x) and L_x = D^2u(x).  Both come from the form's one
(u, Du, D^2u) kernel, ``CubicForm.jet``: exact operations run it on
exact scalars over the coefficient field, the idempotent / Peirce
pipeline on float64.  The two exact checks run on the same kernel at
random rational points: weak associativity compares the trilinear
contractions <x o y, z> and <y o z, x>, and the Hsiang identity
<x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta |x|^2 <x^2,x> is 4 times the
radial identity of ``identities.RADIAL``, since x^2 = 2 Du,
x^3 = 2 D^2u Du and <x^2, x> = 6u.

Idempotents are located by projected gradient ascent of |u| on the unit
sphere (stationary points have grad u = lambda x), rescaled by 1/(2 lambda),
then polished by Newton steps on c o c - c = 0.  The search runs on the
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .cubics import CubicForm, Jet
from .identities import RADIAL
from .scalars import exact_div

NEWTON_STEPS = 80
IDEMPOTENT_RESIDUAL = 1e-10
DEDUP_DISTANCE = 1e-6
BIN_TOLERANCE = 1e-6
PEIRCE_EIGENVALUES = (-1.0, -0.5, 0.5)


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

    # -- exact operations -------------------------------------------------
    def _operator(self, x: Sequence):
        """(D L_x, D) with L_x = D^2u(x) and D the kernel's integer scale;
        exact on exact input."""
        if len(x) != self.n:
            raise ValueError("vector length mismatch")
        jet = self.form.jet(exact=True)
        return jet.hessian(np.array(x, dtype=object)), Fraction(jet.scale)

    def multiply(self, x: Sequence, y: Sequence) -> list:
        """x o y, exact on exact inputs; equals D^2u(x) y."""
        if len(y) != self.n:
            raise ValueError("vector length mismatch")
        L, D = self._operator(x)
        return list(L @ np.array(y, dtype=object) / D)

    def mult_operator(self, x: Sequence) -> list:
        """Matrix of y -> x o y; symmetric on exact input."""
        L, D = self._operator(x)
        return (L / D).tolist()

    def trace_of_mult(self, x: Sequence):
        """trace L_x = Lap u(x); vanishes identically iff the form is harmonic."""
        return self.form.laplacian().eval(x)

    def generic_trace_form(self, x: Sequence, y: Sequence):
        """tau(x, y) = trace(L_x L_y)."""
        Lx, D = self._operator(x)
        Ly, _ = self._operator(y)
        return (Lx * Ly.T).sum() / (D * D)

    def multiplication_rank(self) -> int:
        """dim span{e_i o e_j}; 1 exactly for the trivial family.

        The columns j >= i of L_{e_i} are the products e_i o e_j.
        """
        n = self.n
        if not self.form.is_exact_form:
            jet = self.form.jet(exact=False)
            rows = [jet.hessian(e)[i:] for i, e in enumerate(np.eye(n))]
            return int(np.linalg.matrix_rank(np.concatenate(rows), tol=1e-9))
        pivots: List[list] = []
        pivot_cols: List[int] = []
        for i in range(n):
            ei = [0] * n
            ei[i] = 1
            L, _ = self._operator(ei)           # D L_{e_i}: the same span
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
        (seed, restart index), so results do not depend on scheduling.  A
        restart whose linear algebra fails is skipped like one that does
        not converge.
        """
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        found: List[np.ndarray] = []
        for r in range(restarts):
            rng = np.random.default_rng((seed, r))
            try:
                hit = self._search_one(rng)
            except np.linalg.LinAlgError:
                continue                # a failed eigh ends this restart only
            if hit is None:
                continue
            c, res = hit
            if res > IDEMPOTENT_RESIDUAL or np.linalg.norm(c) < 1e-8:
                continue
            if any(np.linalg.norm(c - d) < DEDUP_DISTANCE for d in found):
                continue
            found.append(c)
        scale = self.form.jet(exact=False).scale
        found = sorted((c * scale for c in found), key=lambda c: tuple(np.round(c, 8)))
        return [self.peirce(c, bin_tol=bin_tol) for c in found]

    def _search_one(self, rng) -> Optional[Tuple[np.ndarray, float]]:
        """One restart: ascent of |u| on the sphere, then Newton on
        c o c = c; returns c with |c o c - c|, or None if u(x) ~ 0."""
        n = self.n
        jet = self.form.jet(exact=False)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        ux = jet.value(x)
        step = 0.4
        for _ in range(200):
            g = jet.gradient(x)
            lam = float(g @ x)
            tangent = g - lam * x
            tnorm = np.linalg.norm(tangent)
            if tnorm < 1e-12:
                break
            sgn = 1.0 if ux >= 0 else -1.0
            cur = abs(ux)
            for _ in range(30):
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
        lam = 3.0 * ux                        # grad u(x) = lam x at a critical point
        if abs(lam) < 1e-8:
            return None
        c = x / (2.0 * lam)
        I = np.eye(n)
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
    def _exact_jet(self) -> Jet:
        """The exact kernel; a float coefficient enters as the binary
        fraction it is, so the checks below stay exact on float forms."""
        u = self.form
        if not u.is_exact_form:
            u = CubicForm(u.n, {k: Fraction(c) for k, c in u.terms.items()})
        return u.jet(exact=True)

    def check_hsiang_identity(self, theta, trials: int = 100, seed: int = 0):
        """Max residual of <x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta <x,x><x^2,x>
        over random rational points; exact arithmetic, so 0 means identity.

        With x^2 = 2 Du, x^3 = 2 D^2u Du and <x^2, x> = 6u both sides are
        4 times the sides of the radial identity, which the kernel
        evaluates for D*u at the integer point d*x.
        """
        rng = random.Random(seed)
        jet = self._exact_jet()
        D = jet.scale
        X, dens = _rational_batch(self.n, trials, rng)
        worst = Fraction(0)
        for p, d in zip(X, dens):
            lhs, rhs = RADIAL.sides(jet.value(p), jet.gradient(p), jet.hessian(p),
                                    p @ p)
            # lhs carries D^3 d^5 and rhs D d^5
            diff = 4 * (lhs - theta * D * D * rhs) / Fraction(D ** 3 * d ** 5)
            worst = max(worst, abs(diff))
        return worst

    def weak_associativity_max_residual(self, trials: int = 1000, seed: int = 0):
        """Max |<x o y, z> - <y o z, x>| over random rational triples, exact.

        The residual is 0 by construction for every CubicForm: both sides
        are the complete polarization, which sums all six orderings of
        each monomial at its coefficient, so the difference cancels term
        by term.  The check therefore tests the index handling of
        ``Jet.trilinear``, not an axiom the form could fail.
        """
        rng = random.Random(seed)
        jet = self._exact_jet()
        X, dx = _rational_batch(self.n, trials, rng)
        Y, dy = _rational_batch(self.n, trials, rng)
        Z, dz = _rational_batch(self.n, trials, rng)
        worst = Fraction(0)
        for x, y, z, d in zip(X, Y, Z, dx * dy * dz):
            diff = (jet.trilinear(x, y, z) - jet.trilinear(y, z, x)) / \
                Fraction(jet.scale * d)
            worst = max(worst, abs(diff))
        return worst


def _newton_step(J: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Least-norm solution of J delta = -F for symmetric J.

    J = 2 L_c - I is singular whenever 1/2 is a Peirce eigenvalue, so the
    solve is a pseudo-inverse through eigh, dropping eigenvalues at or
    below lstsq's cutoff eps * n * max|lambda|.
    """
    lam, V = np.linalg.eigh(J)
    keep = np.abs(lam) > np.finfo(float).eps * len(lam) * np.max(np.abs(lam))
    return V[:, keep] @ ((V[:, keep].T @ -F) / lam[keep])


def _rational_batch(n: int, count: int, rng):
    """Random rational points, numerators in [-9, 9] and denominators in
    [1, 3], returned as (integer array, denominators)."""
    nums = np.array([[rng.randint(-9, 9) for _ in range(n)]
                     for _ in range(count)], dtype=object)
    dens = np.array([rng.randint(1, 3) for _ in range(count)], dtype=object)
    return nums, dens
