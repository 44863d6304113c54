"""Hurwitz-Radon function and symmetric Clifford systems.

A symmetric Clifford system is a tuple A_0..A_q of symmetric involutions
with A_i A_j + A_j A_i = 0 for i != j.  The builder assembles systems
from tensor products of the 2x2 generators

    I, P = diag(1,-1), Q = [[0,1],[1,0]], R = [[0,1],[-1,0]]

and makes no minimality claim; ``verify_clifford_system`` alone is the
correctness authority.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

P2 = ((1, 0), (0, -1))
Q2 = ((0, 1), (1, 0))
R2 = ((0, 1), (-1, 0))


def hurwitz_radon(m: int) -> int:
    """rho(m) = 8a + 2^b for m = 2^(4a+b) * odd, 0 <= b <= 3."""
    if not isinstance(m, int) or m < 1:
        raise ValueError("argument must be a positive integer")
    e = 0
    while m % 2 == 0:
        m //= 2
        e += 1
    a, b = divmod(e, 4)
    return 8 * a + 2 ** b


@dataclass(frozen=True)
class CliffordSystem:
    q: int
    two_l: int
    mats: Tuple[Tuple[Tuple[int, ...], ...], ...]

    def __post_init__(self):
        if len(self.mats) != self.q + 1:
            raise ValueError("expected q+1 matrices")

    def to_json_dict(self) -> dict:
        return {"q": self.q, "two_l": self.two_l,
                "mats": [[list(row) for row in m] for m in self.mats]}


def _mat_mul(A, B):
    n = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(n))
                       for j in range(n)) for i in range(n))


def _kron(A, B):
    na, nb = len(A), len(B)
    return tuple(tuple(A[i // nb][j // nb] * B[i % nb][j % nb]
                       for j in range(na * nb)) for i in range(na * nb))


def _eye(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def verify_clifford_system(S: CliffordSystem) -> Tuple[bool, Optional[str]]:
    """Exact check of symmetry, A_i^2 = I, and pairwise anticommutation.

    Returns (True, None), or (False, description of the first violation).
    """
    n = S.two_l
    mats = S.mats
    for idx, A in enumerate(mats):
        if len(A) != n or any(len(row) != n for row in A):
            return False, f"A{idx} is not {n}x{n}"
        for i in range(n):
            for j in range(i + 1, n):
                if A[i][j] != A[j][i]:
                    return False, f"A{idx} is not symmetric at ({i},{j})"
        if _mat_mul(A, A) != _eye(n):
            return False, f"A{idx}^2 != I"
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            AB = _mat_mul(mats[i], mats[j])
            BA = _mat_mul(mats[j], mats[i])
            if any(AB[r][c] + BA[r][c] != 0 for r in range(n) for c in range(n)):
                return False, f"A{i} and A{j} do not anticommute"
    return True, None


def _complex_structures(count: int) -> List[tuple]:
    """count pairwise-anticommuting antisymmetric complex structures.

    Base layers come from C, H and O left multiplications; each doubling
    step {R x I} + {Q x J_i} adds one more structure.
    """
    if count <= 0:
        return []
    if count == 1:
        return [R2]
    if count <= 3:
        # quaternion left multiplications L_i, L_j, L_k on R^4
        li = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))
        lj = ((0, 0, -1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, -1, 0, 0))
        lk = ((0, 0, 0, -1), (0, 0, -1, 0), (0, 1, 0, 0), (1, 0, 0, 0))
        return [li, lj, lk][:count]
    if count <= 7:
        from .composition import CDElement, cd_mul
        out = []
        for m in range(1, count + 1):
            em = CDElement.basis(8, m)
            cols = []
            for j in range(8):
                ej = CDElement.basis(8, j)
                cols.append(cd_mul(em, ej).coeffs)
            out.append(tuple(tuple(cols[j][i] for j in range(8))
                             for i in range(8)))
        return out
    inner = _complex_structures(count - 1)
    n = len(inner[0])
    out = [_kron(R2, _eye(n))]
    out.extend(_kron(Q2, J) for J in inner)
    return out


def build_clifford_system(q: int) -> CliffordSystem:
    """A verified system of q+1 symmetric anticommuting involutions.

    q = 0, 1 live on R^2; otherwise the system is {P x I, Q x I, R x J_i}
    over q-1 anticommuting complex structures J_i.
    """
    if not isinstance(q, int) or q < 0:
        raise ValueError("q must be a nonnegative integer")
    if q == 0:
        mats = (P2,)
        system = CliffordSystem(0, 2, mats)
    elif q == 1:
        system = CliffordSystem(1, 2, (P2, Q2))
    else:
        js = _complex_structures(q - 1)
        n = len(js[0])
        mats = [_kron(P2, _eye(n)), _kron(Q2, _eye(n))]
        mats.extend(_kron(R2, J) for J in js)
        system = CliffordSystem(q, 2 * n, tuple(mats))
    ok, reason = verify_clifford_system(system)
    if not ok:
        raise AssertionError(f"construction produced an invalid system: {reason}")
    return system
