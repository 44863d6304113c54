"""The metrised commutative algebra of a cubic form.

V(u) carries the product fixed by <x o y, z> = u(x; y; z) against the
standard Euclidean inner product, so (x o y)_k = 6 sum T_ijk x_i y_j and
x o x = 2 grad u(x) and L_x = D^2u(x).  Both come from the form's one
(u, Du, D^2u) kernel, ``CubicForm.jet``: exact operations run it on
exact scalars over the coefficient field, the idempotent / Peirce
pipeline on float64.  The batch checks of weak associativity and the
Hsiang identity keep their own integer-channel products (``_IntBatch``).

Idempotents are located by projected gradient ascent of |u| on the unit
sphere (stationary points have grad u = lambda x), rescaled by 1/(2 lambda),
then polished by Newton steps on c o c - c = 0.  The Newton system
2 L_c - I is singular exactly when 1/2 sits in the Peirce spectrum, the
generic case here, so steps go through the symmetric pseudo-inverse with
a gradient fallback when they stall.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .cubics import CubicForm
from .scalars import QSqrt3

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
        self._batch = None

    def _int_batch(self) -> "_IntBatch":
        if self._batch is None:
            self._batch = _IntBatch(self.form)
        return self._batch

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
                    inv = _inv(row[col])
                    row = [rv * inv for rv in row]
                    pivots.append(row)
                    pivot_cols.append(col)
                    if len(pivots) == n:
                        return n
        return len(pivots)

    # -- idempotents and Peirce data ------------------------------------------
    def find_idempotents(self, restarts: int = 64, seed: int = 0,
                         newton_steps: int = 80,
                         residual_tol: float = IDEMPOTENT_RESIDUAL,
                         dedup: float = DEDUP_DISTANCE,
                         bin_tol: float = BIN_TOLERANCE) -> List[PeirceData]:
        """Seeded multistart search; returns deduplicated PeirceData records.

        Each restart draws from an independent stream keyed by
        (seed, restart index), so results do not depend on scheduling.
        """
        if restarts < 1:
            raise ValueError("restarts must be at least 1")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        jet = self.form.jet(exact=False)
        found: List[np.ndarray] = []
        for r in range(restarts):
            rng = np.random.default_rng((seed, r))
            c = self._search_one(rng, newton_steps)
            if c is None:
                continue
            res = np.linalg.norm(2.0 * jet.gradient(c) - c)
            if res > residual_tol or np.linalg.norm(c) < 1e-8:
                continue
            if any(np.linalg.norm(c - d) < dedup for d in found):
                continue
            found.append(c)
        found.sort(key=lambda c: tuple(np.round(c, 8)))
        return [self.peirce(c, bin_tol=bin_tol) for c in found]

    def _search_one(self, rng, newton_steps: int) -> Optional[np.ndarray]:
        n = self.n
        jet = self.form.jet(exact=False)
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        step = 0.4
        for _ in range(200):
            g = jet.gradient(x)
            lam = float(g @ x)
            tangent = g - lam * x
            tnorm = np.linalg.norm(tangent)
            if tnorm < 1e-12:
                break
            ux = jet.value(x)
            sgn = 1.0 if ux >= 0 else -1.0
            cur = abs(ux)
            for _ in range(30):
                xn = x + step * sgn * tangent
                xn /= np.linalg.norm(xn)
                if abs(jet.value(xn)) > cur:
                    x = xn
                    step *= 1.2
                    break
                step *= 0.5
            else:
                break
        lam = 3.0 * jet.value(x)              # grad u(x) = lam x at a critical point
        if abs(lam) < 1e-8:
            return None
        c = x / (2.0 * lam)
        I = np.eye(n)
        Fv = 2.0 * jet.gradient(c) - c        # c o c - c
        fn = np.linalg.norm(Fv)
        for _ in range(newton_steps):
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
        return c

    def peirce(self, c, bin_tol: float = BIN_TOLERANCE,
               residual_tol: float = 1e-8) -> PeirceData:
        """Eigendecomposition of L_c binned at 1, -1, -1/2, 1/2.

        Leftover eigenvalues are reported in ``unbinned`` rather than
        forced into a bin, so a non-conforming algebra stays visible.
        """
        c = np.asarray(c, dtype=float)
        if c.shape != (self.n,):
            raise ValueError("idempotent has wrong length")
        jet = self.form.jet(exact=False)
        residual = float(np.linalg.norm(2.0 * jet.gradient(c) - c))
        if residual > residual_tol:
            raise ValueError(f"not an idempotent: |c o c - c| = {residual:.3g}")
        L = jet.hessian(c)
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
    def check_hsiang_identity(self, theta, trials: int = 100, seed: int = 0,
                              bound: int = 9):
        """Max residual of <x^2,x^2> tr L_x - <x^2,x^3> = (2/3) theta <x,x><x^2,x>
        over random rational points; exact arithmetic, so 0 means identity.
        """
        rng = random.Random(seed)
        ib = self._int_batch()
        X, dens = _rational_batch(self.n, trials, rng, bound)
        Xp = (X, None)
        Z2 = ib.multiply(Xp, Xp)            # true x^2 times denom * d^2
        Z3 = ib.multiply(Z2, Xp)            # true x^3 times denom^2 * d^3
        d22 = ib.dot(Z2, Z2)                # scale denom^2 d^4
        d23 = ib.dot(Z2, Z3)                # scale denom^3 d^5
        d2x = ib.dot(Z2, Xp)                # scale denom d^3
        dxx = np.sum(X * X, axis=1)         # scale d^2
        lap = self.form.laplacian()
        D = Fraction(ib.denom)
        two_thirds = Fraction(2, 3)
        worst = Fraction(0)
        for i in range(trials):
            dd = Fraction(int(dens[i]))
            trv = lap.eval([int(x) for x in X[i]]) / dd
            v22 = _pair(d22[0][i], d22[1][i]) / (D * D * dd ** 4)
            v23 = _pair(d23[0][i], d23[1][i]) / (D ** 3 * dd ** 5)
            v2x = _pair(d2x[0][i], d2x[1][i]) / (D * dd ** 3)
            vxx = Fraction(int(dxx[i])) / (dd * dd)
            lhs = v22 * trv - v23
            rhs = two_thirds * theta * vxx * v2x
            diff = lhs - rhs
            mag = abs(diff) if isinstance(diff, QSqrt3) else abs(Fraction(diff))
            if mag > worst:
                worst = mag
        return worst

    def weak_associativity_max_residual(self, trials: int = 1000, seed: int = 0,
                                        bound: int = 9):
        """Max |<x o y, z> - <x, y o z>| over random rational triples, exact."""
        rng = random.Random(seed)
        ib = self._int_batch()
        X, dx = _rational_batch(self.n, trials, rng, bound)
        Y, dy = _rational_batch(self.n, trials, rng, bound)
        Z, dz = _rational_batch(self.n, trials, rng, bound)
        lhs = ib.dot(ib.multiply((X, None), (Y, None)), (Z, None))
        rhs = ib.dot((X, None), ib.multiply((Y, None), (Z, None)))
        worst = Fraction(0)
        D = Fraction(ib.denom)
        for i in range(trials):
            diff = _pair(lhs[0][i] - rhs[0][i], lhs[1][i] - rhs[1][i])
            scale = D * Fraction(int(dx[i] * dy[i] * dz[i]))
            diff = diff / scale
            mag = abs(diff) if isinstance(diff, QSqrt3) else abs(Fraction(diff))
            if mag > worst:
                worst = mag
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


def _inv(v):
    if isinstance(v, QSqrt3):
        return v.inverse()
    return 1 / Fraction(v)


def _pair(a, b):
    """Exact scalar from integer sqrt3-channels."""
    a = Fraction(int(a))
    b = Fraction(int(b))
    return a if b == 0 else QSqrt3(a, b)


class _IntBatch:
    """Vectorized exact products over integer batches.

    The tensor weights 6w are cleared to integers (a + b sqrt3)/denom and
    algebra values are carried as integer channel pairs; results are exact
    up to the known power of ``denom``, which cancels in the identities
    checked here.  Arrays are object dtype (python ints), so there is no
    overflow to guard against.
    """

    def __init__(self, form: CubicForm):
        coo = form.coo()
        denom = 1
        for _, _, _, w in coo:
            q = 6 * w
            if isinstance(q, QSqrt3):
                denom = math.lcm(denom, q.a.denominator, q.b.denominator)
            else:
                denom = math.lcm(denom, Fraction(q).denominator)
        self.denom = int(denom)
        self.a_idx = np.array([e[0] for e in coo], dtype=np.intp)
        self.b_idx = np.array([e[1] for e in coo], dtype=np.intp)
        self.c_idx = np.array([e[2] for e in coo], dtype=np.intp)
        wa, wb = [], []
        for _, _, _, w in coo:
            q = 6 * w
            if isinstance(q, QSqrt3):
                wa.append(int(q.a * denom))
                wb.append(int(q.b * denom))
            else:
                wa.append(int(Fraction(q) * denom))
                wb.append(0)
        self.wa = np.array(wa, dtype=object)
        self.wb = np.array(wb, dtype=object)
        self.has_sqrt3 = any(wb)
        self.n = form.n

    def multiply(self, X, Y):
        """(Xa,Xb) o (Ya,Yb) channelwise; scaled by one power of denom."""
        Xa, Xb = X
        Ya, Yb = Y
        m = Xa.shape[0]
        Za = np.zeros((m, self.n), dtype=object)
        Zb = np.zeros((m, self.n), dtype=object) if (self.has_sqrt3 or Xb is not None
                                                     or Yb is not None) else None
        for e in range(len(self.wa)):
            a, b, c = self.a_idx[e], self.b_idx[e], self.c_idx[e]
            wa, wb = self.wa[e], self.wb[e]
            xa = Xa[:, a]
            ya = Ya[:, b]
            xb = Xb[:, a] if Xb is not None else None
            yb = Yb[:, b] if Yb is not None else None
            aa = xa * ya
            ab = xa * yb if yb is not None else None
            ba = xb * ya if xb is not None else None
            bb = xb * yb if (xb is not None and yb is not None) else None
            ra = wa * aa
            if bb is not None:
                ra = ra + 3 * wa * bb
            if wb:
                if ab is not None:
                    ra = ra + 3 * wb * ab
                if ba is not None:
                    ra = ra + 3 * wb * ba
            Za[:, c] += ra
            if Zb is not None:
                rb = 0
                if wb:
                    rb = wb * aa
                    if bb is not None:
                        rb = rb + 3 * wb * bb
                if ab is not None:
                    rb = rb + wa * ab
                if ba is not None:
                    rb = rb + wa * ba
                if not np.isscalar(rb) or rb != 0:
                    Zb[:, c] += rb
        return Za, Zb

    @staticmethod
    def dot(X, Y):
        """Batch inner product of channel pairs -> (a, b) channel arrays."""
        Xa, Xb = X
        Ya, Yb = Y
        da = np.sum(Xa * Ya, axis=1)
        if Xb is not None and Yb is not None:
            da = da + 3 * np.sum(Xb * Yb, axis=1)
        db = np.zeros_like(da)
        if Yb is not None:
            db = db + np.sum(Xa * Yb, axis=1)
        if Xb is not None:
            db = db + np.sum(Xb * Ya, axis=1)
        return da, db


def _rational_batch(n: int, count: int, rng, bound: int = 9):
    """Random rational points returned as (integer array, denominators)."""
    nums = np.array([[rng.randint(-bound, bound) for _ in range(n)]
                     for _ in range(count)], dtype=object)
    dens = np.array([rng.randint(1, 3) for _ in range(count)], dtype=object)
    return nums, dens
