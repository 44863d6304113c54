"""Self-test of the benchmark: a short run of every workload on its smallest forms.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json names exactly the metrics the result line carries, that
an untraced and a traced run of each workload give results of the contract's
shape with every metric present and finite, and that a corrupted golden value
is reported as a failed op of an otherwise finished run, not as an exception.
Exits non-zero with a message on the first failed check.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SMALLEST = {"certify-exact": ("trivial", "clifford-q0"),
            "certify-random": ("complexified-d2",),
            "search": ("clifford-q0", "clifford-q1")}


def check(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"selftest FAILED: {what}")


def check_result(result: dict, names: list, what: str):
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{what}: keys")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted")
    check(isinstance(result["failed"], int), f"{what}: failed")
    check(list(result["metrics"]) == [n for n, _ in names],
          f"{what}: metric names {sorted(set(result['metrics']) ^ {n for n, _ in names})}")
    for name, unit in names:
        m = result["metrics"][name]
        check(set(m) == {"value", "unit"} and m["unit"] == unit, f"{what}: {name} unit")
        check(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]),
              f"{what}: {name} value {m['value']}")


def quiet_report(rec) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.report(rec)


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounded = [(n, u) for n, u in run.END_TO_END if n in run.BOUNDED]
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == bounded,
          "BENCHMARK.json end_to_end differs from run.BOUNDED")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names(),
          "BENCHMARK.json per_layer differs from run.per_layer_names()")
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from workload.WORKLOADS")

    golden = json.loads(run.GOLDEN.read_text())
    for workload, forms in SMALLEST.items():
        rec = run.run_workload(workload, forms=forms, golden=golden, passes=1)
        result = quiet_report(rec)
        check_result(result, bounded, f"{workload} untraced")
        check(set(rec["metrics"]) == set(dict(run.END_TO_END)), f"{workload}: report")
        check(result["correct"] and result["failed"] == 0, f"{workload}: {rec['failures']}")
        rec = run.run_workload(workload, forms=forms, golden=golden, passes=2, trace=True)
        result = quiet_report(rec)
        check_result(result, run.per_layer_names(), f"{workload} traced")
        share_sum = rec["details"]["share_sum"]
        check(0.0 < share_sum <= 1.0, f"{workload}: share sum {share_sum}")
        json.dumps(result)

    bad = copy.deepcopy(golden)
    bad["verdicts"]["certify-exact"]["clifford-q0"]["certify"]["radial"]["constant"] = "-7"
    rec = run.run_workload("certify-exact", forms=SMALLEST["certify-exact"], golden=bad,
                           passes=1)
    check(not rec["correct"] and rec["failed"] == 1 and rec["attempted"] == 2,
          f"corrupted golden: correct={rec['correct']} failed={rec['failed']}")
    check(rec["failures"][0]["form"] == "clifford-q0" and
          rec["failures"][0]["error"].startswith("verdict mismatch"),
          f"corrupted golden: {rec['failures']}")
    print("selftest ok")


if __name__ == "__main__":
    main()
