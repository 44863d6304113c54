"""Compare two sets of benchmark runs, one row per (workload, metric).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the records ``run.py --out`` appends, one per run; the i-th
untraced run of a workload in one file is paired with the i-th in the other,
so make the runs as alternating pairs (parent first, then change first, and so
on) with the same seeds and ``--seconds`` on both sides.  Bounds and
directions come from BENCHMARK.json.  The verdict of a row:

- ``too-few-pairs``: fewer than 10 pairs; nothing is claimed;
- ``gain``: the change wins at least 9 of 10 pairs (ties count for neither)
  and the medians differ by more than the parent's interquartile spread;
  ``gain-void`` when the change also fails more ops than the parent;
- ``unresolved``: the spread of either side, its interquartile distance over
  its median, exceeds the bound, unless every change run beats every parent
  run (``better-all``);
- ``regression``: the change's median is worse than the parent's by more than
  the bound; otherwise ``no-regression``.

Metrics the records hold but BENCHMARK.json does not bound (``pass_s``,
``op_p50_s`` and ``op_tail_s``) get rows too, judged by the gain rule alone:
``gain`` or ``unbounded``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path: Path) -> dict:
    """Untraced records by workload, in file order."""
    runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec["trace"]:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def row(parent, change, metric):
    """Verdict and figures for one metric over paired runs."""
    name, lower, bound = metric["name"], metric["better"] == "lower", metric["bound"]
    n = min(len(parent), len(change))
    p = [r["metrics"][name] for r in parent[:n]]
    c = [r["metrics"][name] for r in change[:n]]
    mp, mc = statistics.median(p), statistics.median(c)
    (p1, p3), (c1, c3) = quartiles(p), quartiles(c)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    wins = sum(better(b, a) for a, b in zip(p, c))
    worse = ((mc - mp) if lower else (mp - mc)) / mp
    spread = max((p3 - p1) / mp, (c3 - c1) / mc)
    more_failures = sum(r["failed"] for r in change[:n]) > \
        sum(r["failed"] for r in parent[:n])
    if n < MIN_PAIRS:
        verdict = "too-few-pairs"
    elif wins >= WIN_SHARE * n and better(mc, mp) and abs(mc - mp) > p3 - p1:
        verdict = "gain-void" if more_failures else "gain"
    elif bound is None:
        verdict = "unbounded"
    elif spread > bound:
        verdict = "better-all" if all(better(b, a) for a in p for b in c) \
            else "unresolved"
    elif worse > bound:
        verdict = "regression"
    else:
        verdict = "no-regression"
    return {"n": n, "parent": (mp, p1, p3), "change": (mc, c1, c3), "wins": wins,
            "worse": worse, "spread": spread, "bound": bound, "verdict": verdict}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--benchmark", type=Path, default=HERE.parent / "BENCHMARK.json")
    args = ap.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    parent, change = load(args.parent), load(args.change)
    bounded = {m["name"] for m in metrics}
    recorded = next(iter(parent.values()), [{"metrics": {}}])[0]["metrics"]
    metrics += [{"name": n, "better": "lower", "bound": None}
                for n in recorded if n not in bounded]
    print(f"{'workload':15s} {'metric':12s} {'n':>3s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'worse':>7s} {'spread':>7s} "
          f"{'bound':>6s} {'wins':>5s}  verdict")
    for workload in sorted(set(parent) | set(change)):
        if workload not in parent or workload not in change:
            print(f"{workload:15s} runs on one side only")
            continue
        for metric in metrics:
            r = row(parent[workload], change[workload], metric)
            fmt = "{:10.4g} [{:9.4g}, {:9.4g}]"
            print(f"{workload:15s} {metric['name']:12s} {r['n']:3d} "
                  f"{fmt.format(*r['parent']):>32s} {fmt.format(*r['change']):>32s} "
                  f"{r['worse']:+7.1%} {r['spread']:7.1%} "
                  f"{'-' if r['bound'] is None else format(r['bound'], '.0%'):>6s} "
                  f"{r['wins']:5d}  {r['verdict']}")
        fp = sum(x["failed"] for x in parent[workload])
        fc = sum(x["failed"] for x in change[workload])
        ap_ = sum(x["attempted"] for x in parent[workload])
        ac = sum(x["attempted"] for x in change[workload])
        print(f"{workload:15s} failed ops: parent {fp}/{ap_}, change {fc}/{ac}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
