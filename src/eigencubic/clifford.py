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
from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from .composition import CDElement, cd_mul

P2 = np.array([[1, 0], [0, -1]])
Q2 = np.array([[0, 1], [1, 0]])
R2 = np.array([[0, 1], [-1, 0]])


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


def verify_clifford_system(S: CliffordSystem) -> Tuple[bool, Optional[str]]:
    """Exact check of symmetry, A_i^2 = I, and pairwise anticommutation.

    Returns (True, None), or (False, description of the first violation).
    """
    n = S.two_l
    mats = []
    for idx, rows in enumerate(S.mats):
        if len(rows) != n or any(len(row) != n for row in rows):
            return False, f"A{idx} is not {n}x{n}"
        # object entries keep every product exact, whatever the integers
        A = np.array(rows, dtype=object).reshape(n, n)
        asym = np.argwhere(np.triu(A != A.T, 1))
        if len(asym):
            i, j = asym[0].tolist()
            return False, f"A{idx} is not symmetric at ({i},{j})"
        if not (A @ A == np.eye(n, dtype=int)).all():
            return False, f"A{idx}^2 != I"
        mats.append(A)
    for i, j in combinations(range(len(mats)), 2):
        if (mats[i] @ mats[j] + mats[j] @ mats[i]).any():
            return False, f"A{i} and A{j} do not anticommute"
    return True, None


def _complex_structures(count: int) -> List[np.ndarray]:
    """count pairwise-anticommuting antisymmetric complex structures.

    Base layers come from C, H and O left multiplications; each doubling
    step {R x I} + {Q x J_i} adds one more structure.
    """
    if count <= 0:
        return []
    if count == 1:
        return [R2]
    if count <= 7:
        # left multiplications by e_1..e_count on H = K_4 or O = K_8
        dim = 4 if count <= 3 else 8
        units = [CDElement.basis(dim, j) for j in range(dim)]
        # column j of L_{e_m} is e_m e_j
        return [np.array([cd_mul(units[m], e).coeffs for e in units]).T
                for m in range(1, count + 1)]
    inner = _complex_structures(count - 1)
    eye = np.eye(len(inner[0]), dtype=int)
    return [np.kron(R2, eye)] + [np.kron(Q2, J) for J in inner]


def build_clifford_system(q: int) -> CliffordSystem:
    """A verified system of q+1 symmetric anticommuting involutions.

    q = 0, 1 live on R^2; otherwise the system is {P x I, Q x I, R x J_i}
    over q-1 anticommuting complex structures J_i.
    """
    if not isinstance(q, int) or q < 0:
        raise ValueError("q must be a nonnegative integer")
    if q <= 1:
        mats = [P2, Q2][:q + 1]
    else:
        js = _complex_structures(q - 1)
        eye = np.eye(len(js[0]), dtype=int)
        mats = [np.kron(P2, eye), np.kron(Q2, eye)] + [np.kron(R2, J) for J in js]
    system = CliffordSystem(q, len(mats[0]),
                            tuple(tuple(map(tuple, A.tolist())) for A in mats))
    ok, reason = verify_clifford_system(system)
    if not ok:
        raise AssertionError(f"construction produced an invalid system: {reason}")
    return system
