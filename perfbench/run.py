"""Benchmark of the eigencubic workbench: one workload per run, timed from outside.

    python3 perfbench/run.py --workload certify-exact --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # the three workloads in turn

Each workload runs in worker processes (``workload.py``) started from the
package source under ``src/``.  Four set-up-only workers, two started before
the measuring worker and two after it, and the measuring worker itself give
the set-up samples; the measuring worker runs a fixed number
of whole passes, derived from ``--seconds`` and the nominal pass time below, so
both sides of a comparison see the same sample counts.  Every op's output is
checked against ``golden.json``; a raised exception or a differing verdict is a
failed op, and the run goes on.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of the traced passes with ``--trace 1``.  ``--out FILE``
appends the full record (environment stamp included) as a JSON line, the input
of ``compare.py``.  See NOTES.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "workload.py"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from workload import CHECK_FUNCTIONS, RESTARTS, WORKLOADS  # noqa: E402

# Wall time of one untraced pass at the commit that defined the benchmark
# (2-core shared x86 box, Python 3.11, numpy 2.4 with OpenBLAS on one thread).
# It fixes how many passes a run makes; it is not a target.
NOMINAL_PASS_S = {"certify-exact": 4.8, "certify-random": 23.0, "search": 14.3}
MIN_PASSES = 2          # a median over passes, and one traced pass with --trace 1
SETUP_PROBES = 4        # set-up-only workers; the measuring worker is a fifth sample
RUN_LIMIT_S = 170.0     # every worker is killed past this, and the run fails
TAIL_BEYOND = 10        # op_tail_s: highest percentile with ten samples beyond it

# Package defaults of the randomized identity checks, and each identity's
# degree: a passed Schwartz-Zippel report must carry (deg/bound)**trials.
SZ_TRIALS = 20
SZ_BOUND = 10 ** 6
SZ_DEGREE = {"radial": 5, "eiconal": 4, "trace2": 2, "trace3": 3}

END_TO_END = (("setup_s", "s"), ("pass_norm", "cal"), ("pass_s", "s"),
              ("op_p50_s", "s"), ("op_tail_s", "s"), ("peak_rss_mb", "MB"))
# The end-to-end metrics BENCHMARK.json bounds and the result line carries.
# A shared host changes speed for minutes at a time, so the seconds of a pass
# (pass_s) and of an op spread by up to 0.3 from run to run; they are printed
# and compared but not bounded.  pass_norm, the pass time in units of the
# worker's calibration loop, spreads by about 0.1 (NOTES.md).
BOUNDED = ("setup_s", "pass_norm", "peak_rss_mb")

SETUP_FUNCTIONS = ("cubics.catalog_build", "cubics.to_json_dict", "cubics.coo")
PASS_FUNCTIONS = (
    ("cubics.from_json_dict", "cubics.to_float")
    + tuple(f"identities.{mode}.{fn}" for mode in ("exact", "random", "float")
            for fn in CHECK_FUNCTIONS.values())
    + ("identities.check_harmonic", "identities.sample_cone",
       "algebra.MetrisedAlgebra", "algebra.multiplication_rank",
       "algebra.check_hsiang_identity", "algebra.weak_associativity_max_residual",
       "algebra.find_idempotents"))
FUNCTION_FIELDS = (("busy_s", "s"), ("calls", "count"), ("failed", "count"),
                   ("share", "ratio"))
COUNTERS = (("cubics.coo_entries", "count"), ("identities.random.sz_trials", "count"),
            ("identities.sample_cone.found", "count"),
            ("identities.sample_cone.rejected", "count"),
            ("identities.sample_cone.accept_ratio", "ratio"),
            ("algebra.find_idempotents.restarts", "count"),
            ("algebra.find_idempotents.found", "count"),
            ("algebra.find_idempotents.yield", "ratio"),
            ("trace.overhead_ratio", "ratio"))


def per_layer_names() -> list:
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    out = [(f"{fn}.{field}", unit) for fn in SETUP_FUNCTIONS + PASS_FUNCTIONS
           for field, unit in FUNCTION_FIELDS]
    return out + list(COUNTERS)


class BenchmarkError(RuntimeError):
    """The run could not be measured; no result is printed."""


# -- environment ------------------------------------------------------------------

def _commit(root: Path):
    """HEAD of a git checkout, read from .git without running git; else None."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, seed: int) -> dict:
    return {"commit": _commit(root), "src_sha256": _source_digest(root),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "loadavg_start": list(os.getloadavg()), "seed": seed}


# -- workers ------------------------------------------------------------------------

def _worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # One client with no threads of its own: BLAS pools on a small shared box
    # only add noise to the float workload.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _start(root, args, deadline):
    """Start a worker; return (process, seconds from start until it is ready)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER)] + args, cwd=root,
                            env=_worker_env(root), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        _finish(proc, deadline)
        raise BenchmarkError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchmarkError("worker ran past the run limit and was killed")
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with code {proc.returncode}")
    return out


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


# -- verdicts --------------------------------------------------------------------------

def _close(a, b, tol):
    if a is None or b is None:
        return a is b
    return abs(a - b) <= tol * max(1.0, abs(b))


def mismatch(kind: str, got: dict, want: dict, tol: float):
    """Why the op's verdict differs from the golden one, or None."""
    if kind == "spectrum":
        ok = got["triples"] == want["triples"]
        return None if ok else f"triples {got['triples']} != {want['triples']}"
    if kind == "cone-sample":
        if got["found"] != want["found"]:
            return f"found {got['found']} != {want['found']}"
        if got["max_abs_curvature"] > want["max_abs_curvature_bound"]:
            return f"max |H| {got['max_abs_curvature']} above the bound"
        return None
    for check in want:
        g, w = got.get(check), want[check]
        if kind == "verify-float" and isinstance(w, dict):
            if (g["pass"], g["mode"]) != (w["pass"], w["mode"]) or \
                    not _close(g["constant"], w["constant"], tol):
                return f"{check}: {g} != {w}"
        elif g != w:
            return f"{check}: {g} != {w}"
    for check, deg in SZ_DEGREE.items():
        rep = got.get(check)
        if isinstance(rep, dict) and rep["mode"] == "random" and rep["pass"] and \
                rep["error_bound"] != (deg / SZ_BOUND) ** SZ_TRIALS:
            return f"{check}: error bound {rep['error_bound']} is not (deg/bound)^trials"
    return None


def judge(ops, golden, workload):
    """Mark every op failed or not; return the mismatched (wrong-answer) ops."""
    table = golden["verdicts"][workload]
    wrong = []
    for op in ops:
        if op["error"] is None:
            reason = mismatch(op["kind"], op["verdict"], table[op["form"]][op["kind"]],
                              golden["float_tolerance"])
            if reason:
                op["error"] = "verdict mismatch: " + reason
                wrong.append(op)
        op["failed"] = op["error"] is not None
    return wrong


# -- metrics ---------------------------------------------------------------------------

def tail(values):
    """(value, percentile, samples beyond) of the op-time tail."""
    xs = sorted(values)
    idx = max(0, len(xs) - 1 - TAIL_BEYOND)
    return xs[idx], 100.0 * (idx + 1) / len(xs), len(xs) - 1 - idx


def end_to_end(setups, passes, ops, peak_rss_mb):
    untraced = [p for p in passes if not p["traced"]]
    walls = [p["wall_s"] for p in untraced]
    cal_ms = statistics.median(p["cal_s"] for p in untraced) * 1e3
    op_walls = [o["wall_s"] for o in ops if not o["traced"]]
    tail_value, pct, beyond = tail(op_walls)
    metrics = {"setup_s": statistics.median(setups),
               "pass_norm": statistics.median(p["wall_s"] / p["cal_s"] for p in untraced),
               "pass_s": statistics.median(walls),
               "op_p50_s": statistics.median(op_walls),
               "op_tail_s": tail_value, "peak_rss_mb": peak_rss_mb}
    notes = {"setup_s": f"median of {len(setups)} set-ups",
             "pass_norm": f"median of {len(walls)} passes, calibration {cal_ms:.2f} ms",
             "pass_s": f"median of {len(walls)} passes",
             "op_p50_s": f"n={len(op_walls)}",
             "op_tail_s": f"p{pct:.1f}, n={len(op_walls)}, {beyond} beyond",
             "peak_rss_mb": "measuring worker"}
    return metrics, notes


def per_layer(result, ops):
    """Per-layer metrics of the traced passes, per traced pass."""
    traced = [p["wall_s"] for p in result["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in result["passes"] if not p["traced"]]
    n = len(traced)
    mean_pass = sum(traced) / n
    busy, calls, failed = {}, {}, {}
    for name, t0, t1, _parent, ok in result["setup_spans"] + result["spans"]:
        if name.startswith("op."):
            continue
        busy[name] = busy.get(name, 0.0) + (t1 - t0)
        calls[name] = calls.get(name, 0) + 1
        failed[name] = failed.get(name, 0) + (not ok)
    m = {}
    for fn in SETUP_FUNCTIONS + PASS_FUNCTIONS:
        per = 1 if fn in SETUP_FUNCTIONS else n
        m[f"{fn}.busy_s"] = busy.get(fn, 0.0) / per
        m[f"{fn}.calls"] = calls.get(fn, 0) / per
        m[f"{fn}.failed"] = failed.get(fn, 0) / per
        m[f"{fn}.share"] = m[f"{fn}.busy_s"] / mean_pass
    t_ops = [o for o in ops if o["traced"]]
    cones = [o["verdict"] for o in t_ops if o["kind"] == "cone-sample" and o["verdict"]]
    found = sum(c["found"] for c in cones)
    rejected = sum(c["rejected"] for c in cones)
    spectra = [o for o in t_ops if o["kind"] == "spectrum"]
    restarts = RESTARTS * len(spectra)
    idems = sum(o["verdict"]["idempotents"] for o in spectra if o["verdict"])
    sz = sum(SZ_TRIALS for o in t_ops if o["kind"] == "certify" and o["verdict"]
             for c in SZ_DEGREE if o["verdict"][c]["mode"] == "random"
             and o["verdict"][c]["pass"])
    m.update({
        "cubics.coo_entries": sum(result["coo_entries"].values()),
        "identities.random.sz_trials": sz / n,
        "identities.sample_cone.found": found / n,
        "identities.sample_cone.rejected": rejected / n,
        "identities.sample_cone.accept_ratio":
            found / (found + rejected) if found + rejected else 0.0,
        "algebra.find_idempotents.restarts": restarts / n,
        "algebra.find_idempotents.found": idems / n,
        "algebra.find_idempotents.yield": idems / restarts if restarts else 0.0,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced),
    })
    return m, {"traced_pass_s": statistics.median(traced), "traced_passes": n,
               "share_sum": sum(m[f"{fn}.share"] for fn in PASS_FUNCTIONS),
               "coo_entries_per_form": result["coo_entries"]}


# -- one workload ----------------------------------------------------------------------

def run_workload(workload, seed=1, seconds=20, trace=False, forms=(), golden=None,
                 passes=None):
    """Measure one workload; return the full record (see NOTES.md)."""
    if not (ROOT / "src" / "eigencubic" / "__init__.py").is_file():
        raise BenchmarkError(f"no package source under {ROOT / 'src'}")
    if golden is None:
        golden = json.loads(GOLDEN.read_text())
    env = environment(ROOT, seed)
    passes = passes or passes_for(workload, seconds)
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", workload, "--seed", str(seed)]
    if forms:
        base += ["--forms", ",".join(forms)]

    def probe():
        proc, s = _start(ROOT, base + ["--setup-only"], deadline)
        _finish(proc, deadline)
        return s

    # Half the set-up probes run before the measuring worker and half after,
    # so that one burst of contention on the host does not slow them all.
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    proc, s = _start(ROOT, base + ["--passes", str(passes), "--trace", str(int(trace))],
                     deadline)
    setups.append(s)
    result = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    env.update(result["env"])
    ops = result["ops"]
    wrong = judge(ops, golden, workload)
    rec = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
           "passes": passes, "env": env, "correct": not wrong,
           "attempted": len(ops), "failed": sum(o["failed"] for o in ops),
           "failures": [{"pass": o["pass"], "form": o["form"], "kind": o["kind"],
                         "error": o["error"]} for o in ops if o["failed"]]}
    if trace:
        rec["metrics"], rec["details"] = per_layer(result, ops)
        rec["spans"] = result["spans"]
    else:
        rec["metrics"], rec["details"] = end_to_end(setups, result["passes"], ops,
                                                    result["peak_rss_mb"])
    rec["details"]["fail_ratio"] = f"{rec['failed']}/{rec['attempted']}"
    return rec


def report(rec) -> dict:
    """Print the record for a reader; return the result object of the contract."""
    units = dict(per_layer_names() if rec["trace"] else END_TO_END)
    print(f"== {rec['workload']} seed={rec['seed']} passes={rec['passes']} "
          f"trace={rec['trace']}")
    print("env " + json.dumps(rec["env"], sort_keys=True))
    for name, value in rec["metrics"].items():
        note = rec["details"].get(name, "")
        print(f"  {name:48s} {value:14.6g} {units[name]:6s} {note}")
    for key, value in rec["details"].items():
        if key not in rec["metrics"]:
            print(f"  {key:48s} {value}")
    for f in rec["failures"]:
        print(f"  failed op: pass {f['pass']} {f['form']} {f['kind']}: {f['error']}")
    return {"correct": rec["correct"], "attempted": rec["attempted"],
            "failed": rec["failed"],
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in rec["metrics"].items()
                        if rec["trace"] or k in BOUNDED}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="append the full record as a JSON line to this file")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for w in workloads:
            rec = run_workload(w, args.seed, args.seconds, bool(args.trace))
            results[w] = report(rec)
            if args.trace:
                out_dir = HERE / "out"
                out_dir.mkdir(exist_ok=True)
                (out_dir / f"spans-{w}-seed{args.seed}.json").write_text(
                    json.dumps(rec.pop("spans")))
            if args.out:
                with args.out.open("a") as fh:
                    fh.write(json.dumps(rec, sort_keys=True) + "\n")
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": v for w, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
