"""The classification data: 23 admissible Peirce triples with statuses.

The table is embedded as code-level data; it is the single source of
truth the tests compare computed triples against.
Twelve triples carry a witness constructor, eight are eliminated, and
the three n2 = 8 rows (3,8,12), (5,8,16), (9,8,24) remain open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

Triple = Tuple[int, int, int]

REALIZABLE = "realizable"
ELIMINATED = "eliminated"
OPEN = "open"
NOT_ADMISSIBLE = "not-admissible"


@dataclass(frozen=True)
class TripleRecord:
    n1: int
    n2: int
    n3: int
    status: str
    witness: Optional[str]

    @property
    def triple(self) -> Triple:
        return (self.n1, self.n2, self.n3)

    @property
    def dim(self) -> int:
        return 1 + self.n1 + self.n2 + self.n3

    def to_json_dict(self) -> dict:
        return {"n1": self.n1, "n2": self.n2, "n3": self.n3, "dim": self.dim,
                "status": self.status, "witness": self.witness}


_ROWS = (
    (2, 0, 2, REALIZABLE, "cartan-d1"),
    (3, 0, 4, REALIZABLE, "cartan-d2"),
    (5, 0, 8, REALIZABLE, "cartan-d4"),
    (9, 0, 16, REALIZABLE, "cartan-d8"),
    (0, 5, 3, REALIZABLE, "involution-d2"),
    (1, 5, 5, REALIZABLE, "complexified-d1"),
    (2, 5, 7, ELIMINATED, None),
    (4, 5, 11, REALIZABLE, "albert21"),
    (0, 8, 6, REALIZABLE, "involution-d4"),
    (1, 8, 8, REALIZABLE, "complexified-d2"),
    (2, 8, 10, ELIMINATED, None),
    (3, 8, 12, OPEN, None),
    (5, 8, 16, OPEN, None),
    (9, 8, 24, OPEN, None),
    (0, 14, 12, REALIZABLE, "involution-d8"),
    (1, 14, 14, REALIZABLE, "complexified-d4"),
    (2, 14, 16, ELIMINATED, None),
    (3, 14, 18, ELIMINATED, None),
    (0, 26, 24, ELIMINATED, None),
    (1, 26, 26, REALIZABLE, "complexified-d8"),
    (2, 26, 28, ELIMINATED, None),
    (3, 26, 30, ELIMINATED, None),
    (7, 26, 38, ELIMINATED, None),
)

def admissible_triples() -> List[TripleRecord]:
    """All 23 a priori admissible Peirce triples in table order."""
    return [TripleRecord(*row) for row in _ROWS]


def status(triple) -> str:
    """Status of a triple; NOT_ADMISSIBLE if it is outside the table."""
    rec = record_for(triple)
    return NOT_ADMISSIBLE if rec is None else rec.status


def record_for(triple) -> Optional[TripleRecord]:
    t = tuple(int(v) for v in triple)
    for rec in admissible_triples():
        if rec.triple == t:
            return rec
    return None


def cross_validate(seed: int = 0, restarts: int = 8, which: str = "all") -> List[Dict]:
    """Run every realizable witness through construct -> radial -> Peirce.

    Returns one report dict per table row of status ``which`` ("all" for
    every row), so no witness runs for a row left out; eliminated and open
    rows are marked untestable.  A ValueError or LinAlgError, which valid
    input can raise, is a failed row; any other exception propagates.
    """
    from .algebra import MetrisedAlgebra
    from .cubics import catalog_build
    from .identities import check_radial

    reports = []
    for rec in admissible_triples():
        if which != "all" and rec.status != which:
            continue
        rep = {"triple": list(rec.triple), "dim": rec.dim, "status": rec.status,
               "witness": rec.witness}
        if rec.status != REALIZABLE:
            rep["result"] = "untestable"
            reports.append(rep)
            continue
        try:
            u = catalog_build(rec.witness)
            rad = check_radial(u, seed=seed)
            rep["radial_pass"] = rad.passed
            rep["radial_mode"] = rad.mode
            rep["radial_error_bound"] = rad.error_bound
            alg = MetrisedAlgebra(u)
            idems = alg.find_idempotents(restarts=restarts, seed=seed)
            triples = sorted({p.triple for p in idems})
            rep["dim_computed"] = u.n
            rep["idempotents_found"] = len(idems)
            rep["triples_computed"] = [list(t) for t in triples]
            ok = (rad.passed and u.n == rec.dim and len(idems) > 0
                  and triples == [rec.triple])
            rep["result"] = "pass" if ok else "fail"
        except (ValueError, np.linalg.LinAlgError) as exc:
            rep["result"] = "fail"
            rep["error"] = f"{type(exc).__name__}: {exc}"
        reports.append(rep)
    return reports
