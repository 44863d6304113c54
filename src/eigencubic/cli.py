"""Command-line frontend.

Exit codes: 0 all requested checks passed, 1 a mathematical check failed,
2 usage or input error (``--exact`` together with ``--random``, counts
out of range, a ``--tol`` that is not finite and positive, a NaN or
negative ``--grad-threshold``, a NaN ``--max-curvature``, a form path
that is a directory or cannot be read, an output path that cannot be
opened for writing, a form file with dim < 1, a monomial listed twice, a
JSON key repeated in one object, JSON nested past the decoder's recursion
limit, a coefficient with a zero denominator, one that is not finite or
exceeds 1e50 in magnitude or a largest one below 1e-50, the zero form
where a radial constant is asked for), 3 internal error (any other exception,
reported as one stderr line ``internal error: <Type>: <message>``), 141
(128 + SIGPIPE) when the reader of stdout closed it early, with nothing
on stderr.
Rationals are serialized as "p/q" strings and floats with round-trip
precision; runs with identical arguments (and seed) produce
byte-identical output, on any build for the exact commands and within
one numpy/BLAS build for output computed in floats (see the README).
"""

from __future__ import annotations

import json
import math
import os
import sys
from typing import Optional

import click

from .algebra import BIN_TOLERANCE, MetrisedAlgebra
from .clifford import build_clifford_system, hurwitz_radon
from .cubics import CATALOG, CubicForm, catalog_build
from .identities import (GRAD_THRESHOLD, CheckReport, check_eiconal, check_harmonic,
                         check_radial, classify as classify_form, sample_cone,
                         trace_identity_cubic, trace_identity_quadratic)
from .tables import admissible_triples, cross_validate

MATH_FAIL = 1
INTERNAL_FAIL = 3
BROKEN_PIPE = 128 + 13          # 128 + SIGPIPE, as a shell reports a killed writer
# The largest Clifford system size the CLI builds: 2l grows as 2**q, and
# q = 10 (2l = 64) builds and verifies in about 0.3 s, q = 11 in about
# 2.8 s (2-vCPU host, Python 3.11, numpy 2.4).
MAX_CLIFFORD_Q = 10


def _check_kwargs(mode: Optional[str], trials: Optional[int], seed: int) -> dict:
    """Keyword arguments of the checks for verify/classify: ``--exact``
    forces expansion, ``--random N`` the randomized test, else auto; both
    at once is a usage error.

    Every randomized path draws only from streams derived from the seed,
    so identical arguments give byte-identical output.
    """
    if mode and trials is not None:
        raise click.UsageError("--exact and --random cannot be used together")
    kw = {"mode": mode or ("random" if trials is not None else "auto"),
          "seed": seed}
    if trials is not None:
        kw["trials"] = trials
    return kw


def _emit(obj) -> None:
    click.echo(json.dumps(obj, sort_keys=True))


def _unique_keys(pairs) -> dict:
    """A JSON object as a dict, with a ValueError for a key given twice."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"key {key!r} is repeated")
        out[key] = value
    return out


def _load_form(path: str) -> CubicForm:
    # RecursionError: JSON nested past the decoder's limit
    try:
        with open(path) as fh:
            return CubicForm.from_json_dict(json.load(fh, object_pairs_hook=_unique_keys))
    except FileNotFoundError:
        raise click.UsageError(f"no such file: {path}")
    except OSError as exc:
        raise click.UsageError(f"cannot read {path}: {exc.strerror or exc}")
    except (ValueError, KeyError, TypeError, RecursionError) as exc:
        raise click.UsageError(f"invalid cubic-form file {path}: {exc}")


def _write_json(path: str, obj) -> None:
    """obj as one sorted JSON line in the file at path."""
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}")
    with fh:
        json.dump(obj, fh, sort_keys=True)
        fh.write("\n")


def _reject_zero_form(u: CubicForm) -> None:
    if u.is_zero():
        raise click.UsageError("the zero form has no radial constant")


def _check_tol(ctx, param, value):
    if not (math.isfinite(value) and value > 0):
        raise click.BadParameter("must be finite and positive")
    return value


def _check_grad_threshold(ctx, param, value):
    if not value >= 0:
        raise click.BadParameter("must be a nonnegative number")
    return value


def _check_not_nan(ctx, param, value):
    if value is not None and math.isnan(value):
        raise click.BadParameter("must be a number, not nan")
    return value


class _Main(click.Group):
    """Reports an unexpected exception in one stderr line, exit code 3,
    and a reader that closed stdout early with exit code 141."""

    def invoke(self, ctx):
        try:
            try:
                return super().invoke(ctx)
            finally:
                sys.stdout.flush()      # a closed pipe shows here after sys.exit too
        except BrokenPipeError:
            # as the signal module docs advise: the rest of stdout goes to
            # devnull, so the flush at interpreter exit cannot fail again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            sys.exit(BROKEN_PIPE)
        except (click.ClickException, click.Abort, click.exceptions.Exit):
            raise
        except Exception as exc:
            click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
            ctx.exit(INTERNAL_FAIL)


@click.group(cls=_Main)
def main():
    """Workbench for cubic minimal cones: construct the catalog forms,
    verify their differential identities, and compute Peirce data."""


# -- catalog ---------------------------------------------------------------

@main.group()
def catalog():
    """List or emit the named cubic forms."""


@catalog.command("list")
@click.option("--json", "as_json", is_flag=True, help="one JSON record per line")
def catalog_list(as_json):
    """Print every catalog form with dimension, expected triple and status."""
    from .tables import status as triple_status
    for name, entry in CATALOG.items():
        st = triple_status(entry.triple) if entry.triple else None
        rec = {"name": name, "dim": entry.dim, "family": entry.family,
               "triple": list(entry.triple) if entry.triple else None,
               "table_status": st}
        if as_json:
            _emit(rec)
        else:
            triple = "-" if entry.triple is None else str(entry.triple)
            click.echo(f"{name:18s} dim {entry.dim:3d}  triple {triple:12s} "
                       f"[{entry.family}{', ' + st if st else ''}]")


@catalog.command("emit")
@click.argument("name")
@click.argument("path", type=click.Path(dir_okay=False, writable=True))
def catalog_emit(name, path):
    """Write the named form to PATH in the JSON cubic-form format."""
    if name not in CATALOG:
        raise click.UsageError(f"unknown catalog form: {name}")
    form = catalog_build(name)
    _write_json(path, form.to_json_dict())
    click.echo(f"wrote {name} (dim {form.n}, {len(form.keys)} terms) to {path}")


# -- verify -----------------------------------------------------------------

CHECKS = ("radial", "eiconal", "harmonic", "trace2", "trace3")


@main.command()
@click.argument("path", type=click.Path(exists=False))
@click.option("--check", "checks", default="all",
              help="radial|eiconal|harmonic|trace2|trace3|all")
@click.option("--exact", "mode", flag_value="exact", help="force full expansion")
@click.option("--random", "trials", type=click.IntRange(min=1), default=None,
              help="force randomized testing with this many trials")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def verify(path, checks, mode, trials, seed):
    """Verify differential identities of the form in PATH."""
    u = _load_form(path)
    wanted = CHECKS if checks == "all" else tuple(checks.split(","))
    for c in wanted:
        if c not in CHECKS:
            raise click.UsageError(f"unknown check: {c}")
    if "radial" in wanted:
        _reject_zero_form(u)
    kw = _check_kwargs(mode, trials, seed)
    ok = True
    for c in wanted:
        if c == "harmonic":
            r = CheckReport("harmonic", check_harmonic(u),
                            mode="exact" if u.is_exact_form else "float")
        else:
            fn = {"radial": check_radial, "eiconal": check_eiconal,
                  "trace2": trace_identity_quadratic,
                  "trace3": trace_identity_cubic}[c]
            r = fn(u, **kw)
        _emit(r.to_json_dict())
        ok = ok and r.passed
    if not ok:
        sys.exit(MATH_FAIL)


# -- spectrum / classify ------------------------------------------------------

@main.command()
@click.argument("path")
@click.option("--restarts", type=click.IntRange(min=1), default=64,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--tol", type=float, default=BIN_TOLERANCE, show_default=True,
              callback=_check_tol, help="eigenvalue binning tolerance")
def spectrum(path, restarts, seed, tol):
    """Idempotents of the form's algebra with Peirce spectra, JSON lines."""
    u = _load_form(path)
    alg = MetrisedAlgebra(u)
    idems = alg.find_idempotents(restarts=restarts, seed=seed, bin_tol=tol)
    for p in idems:
        _emit(p.to_json_dict())
    if not idems:
        _emit({"warning": "no nonzero idempotent found"})
        sys.exit(MATH_FAIL)


@main.command("classify")
@click.argument("path")
@click.option("--exact", "mode", flag_value="exact")
@click.option("--random", "trials", type=click.IntRange(min=1), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
def classify_cmd(path, mode, trials, seed):
    """Print the classification record of the form in PATH."""
    u = _load_form(path)
    _reject_zero_form(u)
    _emit(classify_form(u, **_check_kwargs(mode, trials, seed)).to_json_dict())


# -- tables --------------------------------------------------------------------

@main.command()
@click.option("--status", "which", default="all",
              type=click.Choice(["all", "realizable", "eliminated", "open"]))
@click.option("--json", "as_json", is_flag=True)
@click.option("--validate", is_flag=True,
              help="run every realizable witness through the full pipeline")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--restarts", type=click.IntRange(min=1), default=8,
              show_default=True)
def triples(which, as_json, validate, seed, restarts):
    """The admissible Peirce triples of the status asked for, optionally
    cross-validated."""
    if validate:
        reports = cross_validate(seed=seed, restarts=restarts, which=which)
        ok = True
        for rep in reports:
            _emit(rep)
            ok = ok and rep["result"] in ("pass", "untestable")
        if not ok:
            sys.exit(MATH_FAIL)
        return
    for rec in admissible_triples():
        if which != "all" and rec.status != which:
            continue
        if as_json:
            _emit(rec.to_json_dict())
        else:
            click.echo(f"({rec.n1:>2},{rec.n2:>3},{rec.n3:>3})  dim {rec.dim:3d}  "
                       f"{rec.status:11s} {rec.witness or ''}")


# -- clifford systems -------------------------------------------------------------

@main.command()
@click.argument("m", type=int)
def rho(m):
    """Hurwitz-Radon function at M."""
    if m < 1:
        raise click.UsageError("m must be a positive integer")
    click.echo(str(hurwitz_radon(m)))


@main.command("clifford")
@click.option("--q", type=click.IntRange(0, MAX_CLIFFORD_Q), required=True,
              help="system size minus one")
@click.option("--emit", "emit_path", type=click.Path(dir_okay=False),
              default=None, help="write the system as JSON to this path")
def clifford_cmd(q, emit_path):
    """Build and verify a symmetric Clifford system with q+1 matrices."""
    system = build_clifford_system(q)       # verified, or it raises
    if emit_path:
        _write_json(emit_path, system.to_json_dict())
    _emit({"q": system.q, "two_l": system.two_l, "verified": True,
           "violation": None})


# -- cone sampling ------------------------------------------------------------------

@main.command("cone-sample")
@click.argument("path")
@click.option("--count", type=click.IntRange(min=0), default=200,
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), required=True)
@click.option("--grad-threshold", type=float, default=GRAD_THRESHOLD, show_default=True,
              callback=_check_grad_threshold)
@click.option("--max-curvature", type=float, default=None,
              callback=_check_not_nan, help="exit 1 if any |H| exceeds this")
def cone_sample(path, count, seed, grad_threshold, max_curvature):
    """Sample zero-level points of the form and report mean curvature."""
    u = _load_form(path)
    rep = sample_cone(u, count, seed, grad_threshold=grad_threshold)
    for p, h in zip(rep.points, rep.curvatures):
        _emit({"point": [float(v) for v in p], "curvature": h})
    _emit(rep.to_json_dict())
    if max_curvature is not None and rep.max_abs_curvature > max_curvature:
        sys.exit(MATH_FAIL)


if __name__ == "__main__":
    main()
