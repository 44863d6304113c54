"""Workloads of the eigencubic benchmark and the worker process that runs them.

One worker process runs one workload: it imports the package, builds the
workload's catalog forms and emits their JSON text (the set-up), prints
``ready``, then runs whole passes over the workload's op list, one op at a
time, and prints one JSON result line.  An op is the library work of one CLI
command on one catalog form and starts from the form's JSON text, so the
per-form caches (``coo``, the dense tensor, ``_IntBatch``) are cold in every
op, as in a fresh CLI process.  The program receives only that text and the
seed.

Before every op and once at the end of each pass the worker times a fixed
calibration loop of the standard library (``calibrate``); a pass's time over
its mean calibration time gives ``pass_norm`` in ``run.py``, a pass time that
the host's changing speed leaves mostly unmoved.  The calibration time is not
part of the pass time.

With ``--trace 1`` every second pass is traced: each call the benchmark makes
into a public function of ``cubics``, ``identities`` or ``algebra`` gets a
span.  The untraced passes of the same process give the overhead ratio.

Run by ``run.py``; by hand::

    PYTHONPATH=src python3 perfbench/workload.py --workload search --seed 1 --passes 1
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
from fractions import Fraction

WORKLOADS = ("certify-exact", "certify-random", "search")

# Sizes follow the roadmap's harness item; the SZ trial count and bound are
# the package defaults (20 trials at integers below 10**6).
RESTARTS = 16
CONE_POINTS = 50
HSIANG_POINTS = 100
WEAK_TRIPLES = 1000

# Iterations of the calibration loop: about 5 ms on the reference box.
CALIBRATION_ITERATIONS = 2000

# verify --check all, in the CLI's order; harmonic is mode-free.
CHECKS = ("radial", "eiconal", "harmonic", "trace2", "trace3")
CHECK_FUNCTIONS = {"radial": "check_radial", "eiconal": "check_eiconal",
                   "trace2": "trace_identity_quadratic",
                   "trace3": "trace_identity_cubic"}


def workload_forms(workload: str, catalog: dict) -> list:
    """Catalog names of the workload, in catalog order."""
    if workload == "certify-exact":
        return [n for n, e in catalog.items() if e.dim <= 27]
    if workload == "certify-random":
        return [n for n, e in catalog.items() if e.dim > 15]
    if workload == "search":
        return list(catalog)
    raise ValueError(f"unknown workload {workload!r}")


def op_kinds(workload: str) -> tuple:
    """The CLI commands run on every form of the workload."""
    return ("spectrum", "cone-sample", "verify-float") if workload == "search" \
        else ("certify",)


class Tracer:
    """Spans around library calls, kept in memory until the run ends.

    A span is ``[name, start, end, parent, ok]``; ``parent`` is the index of
    the op span that caused it (op spans have ``parent`` -1).  When ``on`` is
    false ``call`` only forwards, so untraced passes pay no timer reads.
    """

    def __init__(self):
        self.on = False
        self.spans = []
        self._parent = -1

    def call(self, name, fn, *args, **kwargs):
        if not self.on:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        ok = False
        try:
            out = fn(*args, **kwargs)
            ok = True
            return out
        finally:
            self.spans.append([name, t0, time.perf_counter(), self._parent, ok])

    def open_op(self, name) -> int:
        if not self.on:
            return -1
        self.spans.append([name, time.perf_counter(), None, -1, False])
        self._parent = len(self.spans) - 1
        return self._parent

    def close_op(self, idx: int, ok: bool):
        if idx >= 0:
            self.spans[idx][2] = time.perf_counter()
            self.spans[idx][4] = ok
        self._parent = -1


# -- ops ------------------------------------------------------------------------

def _load(lib, tr, text):
    return tr.call("cubics.from_json_dict", lib.CubicForm.from_json_dict,
                   json.loads(text))


def _verify(lib, tr, u, label, mode, seed):
    """verify --check all: the five reports in CLI order."""
    out = {}
    for check in CHECKS:
        if check == "harmonic":
            out[check] = tr.call("identities.check_harmonic", lib.check_harmonic, u)
            continue
        fname = CHECK_FUNCTIONS[check]
        kw = {"seed": seed} if mode is None else {"mode": mode, "seed": seed}
        out[check] = tr.call(f"identities.{label}.{fname}",
                             getattr(lib, fname), u, **kw)
    return out


def op_certify(lib, tr, text, seed, mode):
    """verify --check all, classify's rank step, Hsiang and weak associativity.

    ``mode`` is "exact" (certify-exact) or "auto" (certify-random, where every
    form has n > 15 and auto resolves to Schwartz-Zippel).
    """
    u = _load(lib, tr, text)
    label = "exact" if mode == "exact" else "random"
    reports = _verify(lib, tr, u, label, mode, seed)
    alg = tr.call("algebra.MetrisedAlgebra", lib.MetrisedAlgebra, u)
    rank = tr.call("algebra.multiplication_rank", alg.multiplication_rank)
    radial = reports["radial"]
    hsiang = None
    if radial.passed:
        hsiang = tr.call("algebra.check_hsiang_identity", alg.check_hsiang_identity,
                         radial.constant, trials=HSIANG_POINTS, seed=seed)
    weak = tr.call("algebra.weak_associativity_max_residual",
                   alg.weak_associativity_max_residual,
                   trials=WEAK_TRIPLES, seed=seed)
    return {"reports": reports, "rank": rank, "hsiang": hsiang, "weak": weak}


def op_spectrum(lib, tr, text, seed):
    u = _load(lib, tr, text)
    alg = tr.call("algebra.MetrisedAlgebra", lib.MetrisedAlgebra, u)
    return tr.call("algebra.find_idempotents", alg.find_idempotents,
                   restarts=RESTARTS, seed=seed)


def op_cone(lib, tr, text, seed):
    u = _load(lib, tr, text)
    return tr.call("identities.sample_cone", lib.sample_cone, u, CONE_POINTS, seed)


def op_verify_float(lib, tr, text, seed):
    u = _load(lib, tr, text)
    uf = tr.call("cubics.to_float", u.to_float)
    return {"reports": _verify(lib, tr, uf, "float", None, seed)}


def run_op(lib, tr, kind, text, seed, workload):
    if kind == "certify":
        mode = "exact" if workload == "certify-exact" else "auto"
        return op_certify(lib, tr, text, seed, mode)
    if kind == "spectrum":
        return op_spectrum(lib, tr, text, seed)
    if kind == "cone-sample":
        return op_cone(lib, tr, text, seed)
    return op_verify_float(lib, tr, text, seed)


# -- verdicts -------------------------------------------------------------------

def _report_json(rep):
    return rep if isinstance(rep, bool) else rep.to_json_dict()


def verdict(kind: str, raw) -> dict:
    """The op's output as a JSON value, in the form the golden file stores."""
    if kind == "spectrum":
        return {"triples": sorted({tuple(p.triple) for p in raw}),
                "idempotents": len(raw)}
    if kind == "cone-sample":
        return raw.to_json_dict()
    out = {c: _report_json(r) for c, r in raw["reports"].items()}
    if kind == "certify":
        out["rank"] = raw["rank"]
        out["hsiang_residual"] = None if raw["hsiang"] is None else str(raw["hsiang"])
        out["weak_associativity_residual"] = str(raw["weak"])
    return out


# -- the worker -----------------------------------------------------------------

class Library:
    """The package's public functions the benchmark calls, imported at set-up."""

    def __init__(self):
        from eigencubic import algebra, cubics, identities
        self.CATALOG = cubics.CATALOG
        self.CubicForm = cubics.CubicForm
        self.catalog_build = cubics.catalog_build
        self.MetrisedAlgebra = algebra.MetrisedAlgebra
        self.sample_cone = identities.sample_cone
        self.check_harmonic = identities.check_harmonic
        for fname in CHECK_FUNCTIONS.values():
            setattr(self, fname, getattr(identities, fname))


def set_up(workload, tr, forms=None):
    """Import, build the workload's forms cold and emit their JSON text."""
    lib = Library()
    names = workload_forms(workload, lib.CATALOG)
    if forms:
        unknown = set(forms) - set(names)
        if unknown:
            raise ValueError(f"forms not in workload {workload}: {sorted(unknown)}")
        names = [n for n in names if n in forms]
    texts, coo = {}, {}
    for name in names:
        form = tr.call("cubics.catalog_build", lib.catalog_build, name)
        texts[name] = json.dumps(tr.call("cubics.to_json_dict", form.to_json_dict),
                                 sort_keys=True)
        if tr.on:
            coo[name] = len(tr.call("cubics.coo", form.coo))
    return lib, names, texts, coo


def calibrate() -> float:
    """Seconds one fixed loop of Fraction and dict work takes, collector off.

    It uses no part of the package, so a change to the program does not move
    it, while a slower host slows it with the ops around it.  The collector
    is off so that the objects the ops left alive do not change its cost.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(CALIBRATION_ITERATIONS):
            acc += Fraction(i, 7)
            table[(i, 7 * i)] = acc
        return time.perf_counter() - t0
    finally:
        gc.enable()


def run_passes(lib, tr, workload, names, texts, seed, passes, trace):
    """Whole passes over the op list; every odd pass is traced when ``trace``."""
    kinds = op_kinds(workload)
    pass_records, ops = [], []
    for p in range(passes):
        tr.on = trace and p % 2 == 1
        raws, cals = [], []
        t_pass = time.perf_counter()
        for name in names:
            for kind in kinds:
                cals.append(calibrate())
                span = tr.open_op(f"op.{kind}")
                t0 = time.perf_counter()
                try:
                    raw, error = run_op(lib, tr, kind, texts[name], seed, workload), None
                except Exception as exc:  # counted as a failed op; the run goes on
                    raw = None
                    error = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                tr.close_op(span, error is None)
                raws.append((name, kind, raw, error, wall))
        cals.append(calibrate())
        pass_records.append({"wall_s": time.perf_counter() - t_pass - sum(cals),
                             "cal_s": sum(cals) / len(cals), "traced": tr.on})
        for name, kind, raw, error, wall in raws:
            ops.append({"pass": p, "traced": tr.on, "form": name, "kind": kind,
                        "wall_s": wall, "error": error,
                        "verdict": None if raw is None else verdict(kind, raw)})
    tr.on = False
    return pass_records, ops


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy before 1.26 has no dict mode
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
            "blas_threads": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                              "MKL_NUM_THREADS")}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--forms", default="", help="comma-separated subset of the forms")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    tr = Tracer()
    tr.on = bool(args.trace)
    forms = [f for f in args.forms.split(",") if f]
    lib, names, texts, coo = set_up(args.workload, tr, forms)
    setup_spans, tr.spans = tr.spans, []
    print("ready", flush=True)
    if args.setup_only:
        return
    passes, ops = run_passes(lib, tr, args.workload, names, texts, args.seed,
                             args.passes, bool(args.trace))
    print(json.dumps({"passes": passes, "ops": ops,
                      "setup_spans": setup_spans, "spans": tr.spans,
                      "coo_entries": coo, "env": environment(),
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                      / 1024.0}), flush=True)


if __name__ == "__main__":
    main()
