"""Write golden.json: the expected verdict of every op of every workload.

    python3 perfbench/make_golden.py

Runs one pass of each workload at seed 1 and records each op's verdict: the
exact theta, kappa, trace2 and trace3 constants with modes and error bounds,
harmonicity, rank, the Hsiang and weak-associativity residuals, the Peirce
triples found, the cone-sample count with a bound on max |H|, and the float
constants.  An op that raises at seed 1 takes its verdict from seed 2, and the
file names it.  A second pass at seed 2 must then match every recorded
verdict, which shows that the verdicts do not depend on the seed.  The file is
generated, never edited by hand.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import GOLDEN, judge  # noqa: E402
from workload import WORKLOADS, Tracer, run_passes, set_up  # noqa: E402

SEED = 1
SECOND_SEED = 2
FLOAT_TOLERANCE = 1e-6
CURVATURE_BOUND = 1e-9


def expected(kind: str, v: dict) -> dict:
    """The part of a verdict that must hold at every seed."""
    if kind == "spectrum":
        return {"triples": v["triples"]}
    if kind == "cone-sample":
        if v["max_abs_curvature"] > CURVATURE_BOUND:
            raise SystemExit(f"max |H| {v['max_abs_curvature']} above {CURVATURE_BOUND}")
        return {"found": v["found"], "max_abs_curvature_bound": CURVATURE_BOUND}
    return v


def one_pass(workload: str, seed: int) -> list:
    tr = Tracer()
    lib, names, texts, _ = set_up(workload, tr)
    _, ops = run_passes(lib, tr, workload, names, texts, seed, 1, False)
    return json.loads(json.dumps(ops))      # the worker's JSON round trip


def main():
    golden = {"seed": SEED, "second_seed": SECOND_SEED,
              "float_tolerance": FLOAT_TOLERANCE, "verdicts": {},
              "raised_at_seed": []}
    for w in WORKLOADS:
        first, second = one_pass(w, SEED), one_pass(w, SECOND_SEED)
        table = golden["verdicts"][w] = {}
        for a, b in zip(first, second):
            src = a
            if a["error"] is not None:
                golden["raised_at_seed"].append(
                    {"workload": w, "form": a["form"], "kind": a["kind"],
                     "seed": SEED, "error": a["error"]})
                src = b
            if src["error"] is not None:
                raise SystemExit(f"{w} {a['form']} {a['kind']} raised at both seeds")
            table.setdefault(a["form"], {})[a["kind"]] = expected(a["kind"],
                                                                  src["verdict"])
        wrong = judge(second, golden, w)
        if wrong:
            raise SystemExit(f"seed {SECOND_SEED} disagrees with seed {SEED}: "
                             f"{wrong[0]['form']} {wrong[0]['error']}")
        print(f"{w}: {len(first)} ops recorded, seed {SECOND_SEED} agrees", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
