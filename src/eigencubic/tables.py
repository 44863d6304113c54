"""Classification: ``classify``, one form's record from its checks and
multiplication rank, and the 23 admissible Peirce triples with statuses,
embedded as code-level data, the single source of truth the tests
compare computed triples against.  Twelve triples carry a witness
constructor, eight are eliminated, and the three n2 = 8 rows (3,8,12),
(5,8,16), (9,8,24) remain open.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .algebra import MetrisedAlgebra
from .cubics import CubicForm, catalog_build
from .identities import (DEFAULT_TRIALS, _json_constant, check_harmonic, check_radial,
                         trace_identity_cubic, trace_identity_quadratic)

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
