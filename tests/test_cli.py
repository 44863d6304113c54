import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from eigencubic import algebra, identities
from eigencubic.cli import CHECKS, main
from eigencubic.cubics import CATALOG, catalog_build
from eigencubic.scalars import QSqrt3
from formref import scaled
from test_cubics import _CATALOG_SHA256

TRANSCRIPT = Path(__file__).parent / "data" / "readme_transcript.txt"


@pytest.fixture()
def runner():
    return CliRunner()


def run(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def test_rho(runner):
    res = run(runner, "rho", "16")
    assert res.exit_code == 0
    assert res.output.strip() == "9"


def test_rho_rejects_nonpositive(runner):
    res = runner.invoke(main, ["rho", "0"])
    assert res.exit_code == 2


def test_catalog_list(runner):
    res = run(runner, "catalog", "list")
    assert res.exit_code == 0
    line = next(l for l in res.output.splitlines() if l.startswith("octonion21"))
    assert "dim  21" in line
    res = run(runner, "catalog", "list", "--json")
    recs = [json.loads(l) for l in res.output.splitlines()]
    byname = {r["name"]: r for r in recs}
    assert byname["octonion21"]["dim"] == 21
    assert byname["cartan-d1"]["triple"] == [2, 0, 2]


def test_catalog_emit(runner, tmp_path):
    out = tmp_path / "out.json"
    res = run(runner, "catalog", "emit", "cartan-d1", str(out))
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert data["dim"] == 5


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_emit_writes_the_pinned_json(runner, tmp_path, name):
    # the file is the sorted JSON whose digest test_cubics pins, plus "\n"
    out = tmp_path / "out.json"
    assert run(runner, "catalog", "emit", name, str(out)).exit_code == 0
    data = out.read_bytes()
    assert data.endswith(b"\n")
    assert hashlib.sha256(data[:-1]).hexdigest() == _CATALOG_SHA256[name][1]


def test_catalog_emit_unknown_name(runner, tmp_path):
    res = runner.invoke(main, ["catalog", "emit", "nonsense",
                               str(tmp_path / "x.json")])
    assert res.exit_code == 2


def _emit(runner, tmp_path, name):
    path = tmp_path / f"{name}.json"
    run(runner, "catalog", "emit", name, str(path))
    return str(path)


def test_verify_radial_exact(runner, tmp_path):
    path = _emit(runner, tmp_path, "clifford-q0")
    res = run(runner, "verify", path, "--check", "radial", "--exact")
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec == {"check": "radial", "pass": True, "constant": "-8",
                   "mode": "exact", "error_bound": 0.0}


def test_verify_harmonic_failure_exit_code(runner, tmp_path):
    path = _emit(runner, tmp_path, "trivial")
    res = runner.invoke(main, ["verify", path, "--check", "harmonic"])
    assert res.exit_code == 1
    assert not json.loads(res.output)["pass"]


def test_verify_all(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    res = runner.invoke(main, ["verify", path, "--check", "all"])
    recs = [json.loads(l) for l in res.output.splitlines()]
    assert {r["check"] for r in recs} == \
        {"radial", "eiconal", "harmonic", "trace2", "trace3"}
    assert all(r["pass"] for r in recs)
    assert res.exit_code == 0


def test_verify_unknown_check(runner, tmp_path):
    path = _emit(runner, tmp_path, "trivial")
    res = runner.invoke(main, ["verify", path, "--check", "bogus"])
    assert res.exit_code == 2


def test_verify_missing_file(runner):
    res = runner.invoke(main, ["verify", "/nonexistent.json"])
    assert res.exit_code == 2


def test_verify_invalid_json(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = runner.invoke(main, ["verify", str(bad)])
    assert res.exit_code == 2


def test_spectrum(runner, tmp_path):
    path = _emit(runner, tmp_path, "clifford-q0")
    res = run(runner, "spectrum", path, "--restarts", "16", "--seed", "5")
    assert res.exit_code == 0
    recs = [json.loads(l) for l in res.output.splitlines()]
    assert recs
    for rec in recs:
        assert rec["triple"] == [0, 2, 0]
        assert rec["residual"] < 1e-10
        assert rec["one_multiplicity"] == 1


def test_spectrum_singular_newton_system(runner, tmp_path):
    # restart 8 meets a singular Newton system that an SVD-based least
    # squares solve does not converge on
    path = _emit(runner, tmp_path, "complexified-d8")
    res = run(runner, "spectrum", path, "--restarts", "16", "--seed", "1")
    assert res.exit_code == 0
    assert {tuple(json.loads(l)["triple"]) for l in res.output.splitlines()} \
        == {(1, 26, 26)}


def test_negative_seed_rejected(runner, tmp_path):
    # every command that takes --seed rejects a negative one as a usage error
    path = _emit(runner, tmp_path, "clifford-q0")
    for args in (["verify", path], ["classify", path], ["triples"],
                 ["spectrum", path, "--restarts", "4"],
                 ["cone-sample", path, "--count", "1"]):
        res = runner.invoke(main, args + ["--seed", "-1"])
        assert res.exit_code == 2, args[0]
        assert "--seed" in res.output, args[0]


def test_verify_forced_random_mode(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    res = run(runner, "verify", path, "--check", "radial", "--random", "10",
              "--seed", "2")
    rec = json.loads(res.output)
    assert rec["pass"] and rec["mode"] == "random"
    assert rec["constant"] == "-54"
    assert 0 < rec["error_bound"] <= (5 / 10 ** 6) ** 10


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_exact_and_random_together_are_a_usage_error(runner, tmp_path, command):
    # each flag forces a mode, so asking for both names no run: exit 2,
    # with both flags in the message and nothing on stdout
    path = _emit(runner, tmp_path, "cartan-d1")
    res = runner.invoke(main, [command, path, "--exact", "--random", "3"])
    assert res.exit_code == 2 and res.stdout == ""
    assert "--exact" in res.stderr and "--random" in res.stderr


@pytest.mark.parametrize("trials", ["70", "200"])
def test_verify_random_bound_does_not_underflow(runner, tmp_path, trials):
    # (deg/10**6)**trials underflows to 0.0 here; a randomized verdict
    # still reports a positive bound, the least positive float
    path = _emit(runner, tmp_path, "cartan-d1")
    res = run(runner, "verify", path, "--random", trials, "--seed", "2")
    assert res.exit_code == 0
    recs = [json.loads(line) for line in res.output.splitlines()]
    random_recs = [r for r in recs if r["mode"] == "random"]
    assert len(random_recs) == 4
    for rec in random_recs:
        assert rec["pass"] and rec["error_bound"] == 5e-324


def test_classify_sqrt3_constants(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d4")
    res = run(runner, "classify", path)
    rec = json.loads(res.output)
    assert rec["label"] == "exceptional-or-mutant"
    assert rec["radial_theta"] == "-2"


# the constants of (1 + sqrt3) cartan-d1, the first of each pair the
# rational part and the second the sqrt3 part
_SQRT3_CD1 = {"radial": ("-216", "-108"), "eiconal": ("36", "18"), "harmonic": None,
              "trace2": ("504", "252"), "trace3": ("-648", "-324")}


def test_sqrt3_constants_in_every_mode(runner, tmp_path):
    # (1 + sqrt3) cartan-d1 has constants with a sqrt3 part: verify in
    # auto, exact and random mode, and classify, exit 0 with each one,
    # with warnings as errors; the eiconal t > 0 runs QSqrt3.sign
    path = tmp_path / "sqrt3-cd1.json"
    path.write_text(json.dumps(scaled(catalog_build("cartan-d1"), QSqrt3(1, 1)).to_json_dict()))
    want = {c: v and {"rational": v[0], "sqrt3": v[1]} for c, v in _SQRT3_CD1.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for flags in ((), ("--exact",), ("--random", "20", "--seed", "1")):
            res = run(runner, "verify", str(path), "--check", "all", *flags)
            assert res.exit_code == 0, flags
            recs = [json.loads(line) for line in res.output.splitlines()]
            assert {r["check"]: r["constant"] for r in recs} == want, flags
            assert all(r["pass"] for r in recs)
        res = run(runner, "classify", str(path))
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert (rec["radial_theta"], rec["quad_trace"], rec["cubic_trace"]) == \
        (want["radial"], want["trace2"], want["trace3"])
    assert rec["label"] == "exceptional-or-mutant"


def test_spectrum_deterministic(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    a = run(runner, "spectrum", path, "--restarts", "8", "--seed", "3").output
    b = run(runner, "spectrum", path, "--restarts", "8", "--seed", "3").output
    assert a == b


def test_cone_sample_deterministic(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    a = run(runner, "cone-sample", path, "--count", "20", "--seed", "3").output
    b = run(runner, "cone-sample", path, "--count", "20", "--seed", "3").output
    assert a == b


def _form_file(dim=3, **first_term):
    """x1 x2^2 - x1 x3^2 with ``dim`` and fields of its first term replaced."""
    terms = [{"ijk": [1, 2, 2], "c": "1", **first_term}, {"ijk": [1, 3, 3], "c": "-1"}]
    return json.dumps({"dim": dim, "terms": terms})


_DEGENERATE_FILES = {
    "cube": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "1"}]}',
    "negative-dim": '{"dim": -2, "terms": []}',
    "nan": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": NaN}]}',
    "infinity": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": Infinity}]}',
    "overflow": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": 1e400}]}',
    "zero": '{"dim": 3, "terms": []}',
    "huge-float": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": 1e120}, '
                  '{"ijk": [1, 2, 2], "c": 1.0}]}',
    "huge-rational": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "1%s"}]}' % ("0" * 400),
    # its idempotents, of size 1e300, would overflow |c|^2
    "tiny": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": 1e-300}, '
            '{"ijk": [1, 2, 2], "c": "-3/10%s"}]}' % ("0" * 299),
    # 2 x1 x2 x3, harmonic, if the repeated x1^3 entries were summed
    "repeated-monomial": '{"dim": 3, "terms": [{"ijk": [1, 1, 1], "c": "1"}, '
                         '{"ijk": [1, 1, 1], "c": "-1"}, {"ijk": [1, 2, 3], "c": "2"}]}',
    # each is x1 x2^2 - x1 x3^2 in 3 variables if 3.7, 1.9 and true are
    # truncated to integers, and its c3 of false read as 0
    "float-dim": _form_file(3.7),
    "float-ijk": _form_file(ijk=[1.9, 2, 2]),
    "bool-ijk": _form_file(ijk=[True, 2, 2]),
    "bool-c": _form_file(c=True),
    "bool-c3": _form_file(c3=False),
    "dim-129": _form_file(129),
    # a zero denominator names no rational, in either part of a c/c3 pair
    "one-over-zero": _form_file(c="1/0"),
    "zero-over-zero": _form_file(c="0/0"),
    "c3-over-zero": _form_file(c3="2/0"),
    # a float c makes a float form, whose terms carry no exact sqrt(3) part
    "float-c-with-c3": _form_file(c=0.5, c3="1"),
    # an infinite c3 names no rational, as an infinite c names no coefficient
    "c3-infinite": _form_file(c3=float("inf")),
    "c3-overflow": '{"dim": 3, "terms": [{"ijk": [1, 2, 2], "c": "1", "c3": 1e400}, '
                   '{"ijk": [1, 3, 3], "c": "-1"}]}',
    # JSON nested past the decoder's recursion limit
    "nested-arrays": "[" * 100_000 + "]" * 100_000,
    "nested-objects": '{"a": ' * 50_000 + "1" + "}" * 50_000,
    # a repeated key, at the top level or in a term, is not read as its
    # last value (dim 2 here would make x1 x2^2 a valid form)
    "repeated-dim": '{"dim": 3, "dim": 2, "terms": [{"ijk": [1, 2, 2], "c": "1"}]}',
    "repeated-c": '{"dim": 3, "terms": [{"ijk": [1, 2, 2], "c": "1", "c": "2"}, '
                  '{"ijk": [1, 3, 3], "c": "-1"}]}',
}


_DEGENERATE_RUNS = [
    ("cube", ["verify", "--check", "eiconal", "--random", "0"]),
    ("cube", ["verify", "--check", "eiconal", "--random", "-3"]),
    ("cube", ["classify", "--random", "0"]),
    ("cube", ["spectrum", "--seed", "1", "--restarts", "0"]),
    (None, ["triples", "--validate", "--restarts", "0"]),
    ("cube", ["cone-sample", "--seed", "1", "--count", "-2"]),
    ("negative-dim", ["verify"]),
    ("negative-dim", ["classify"]),
    ("negative-dim", ["spectrum", "--seed", "1"]),
    ("nan", ["classify"]),
    ("nan", ["spectrum", "--seed", "1"]),
    ("infinity", ["classify"]),
    ("infinity", ["spectrum", "--seed", "1"]),
    ("overflow", ["classify"]),
    ("overflow", ["spectrum", "--seed", "1"]),
    ("zero", ["verify"]),
    ("zero", ["classify"]),
    ("repeated-monomial", ["verify", "--check", "harmonic"]),
    ("tiny", ["spectrum", "--seed", "1"]),
    *((form, ["classify"]) for form in ("float-dim", "float-ijk", "bool-ijk",
                                        "bool-c", "bool-c3", "dim-129")),
    (None, ["clifford", "--q", "11"]),
    (None, ["clifford", "--q", "-1"]),
    # an output path in a directory that does not exist
    (None, ["catalog", "emit", "cartan-d1", "{missing}/x.json"]),
    (None, ["clifford", "--q", "2", "--emit", "{missing}/sys.json"]),
    # a tolerance nothing bins within, and gates that NaN would switch off
    *(("cube", ["spectrum", "--seed", "1", "--tol", tol])
      for tol in ("-1", "0", "nan", "inf")),
    *(("cube", ["cone-sample", "--seed", "1", "--count", "3", opt, value])
      for opt, value in (("--grad-threshold", "nan"), ("--grad-threshold", "-1"),
                         ("--max-curvature", "nan"))),
    *((huge, args) for huge in ("huge-float", "huge-rational")
      for args in (["classify"], ["verify"], ["spectrum", "--seed", "1"],
                   ["cone-sample", "--seed", "1", "--count", "3"])),
    *((form, args) for form in ("one-over-zero", "zero-over-zero", "c3-over-zero",
                                "c3-infinite", "c3-overflow", "nested-arrays", "nested-objects",
                                "repeated-dim", "repeated-c")
      for args in (["verify"], ["classify"], ["spectrum", "--seed", "1"],
                   ["cone-sample", "--seed", "1", "--count", "3"])),
    *(("float-c-with-c3", args) for args in (["verify", "--check", "harmonic"], ["classify"],
                                             ["spectrum", "--seed", "1"])),
]


@pytest.mark.parametrize("form, args", _DEGENERATE_RUNS,
                         ids=[f"{form}:{' '.join(args)}" for form, args in _DEGENERATE_RUNS])
def test_degenerate_input_is_a_usage_error(runner, tmp_path, form, args):
    # out-of-range counts, parseable but degenerate forms and output paths
    # that cannot be written are usage errors: exit 2 with click's one
    # "Error:" line, nothing on stdout
    args = [a.replace("{missing}", str(tmp_path / "missing-dir")) for a in args]
    if form is not None:
        path = tmp_path / f"{form}.json"
        path.write_text(_DEGENERATE_FILES[form])
        args = [args[0], str(path), *args[1:]]
    res = runner.invoke(main, args)
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert [l for l in res.stderr.splitlines() if l.startswith("Error:")] == \
        [res.stderr.splitlines()[-1]]
    assert "internal error" not in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("form, key", [("repeated-dim", "dim"), ("repeated-c", "c")])
def test_a_repeated_key_is_named(runner, tmp_path, form, key):
    path = tmp_path / "form.json"
    path.write_text(_DEGENERATE_FILES[form])
    res = runner.invoke(main, ["classify", str(path)])
    assert res.exit_code == 2 and res.stdout == ""
    assert f"key {key!r} is repeated" in res.stderr


def test_float_c_with_c3_names_the_term(runner, tmp_path):
    path = tmp_path / "form.json"
    path.write_text(_DEGENERATE_FILES["float-c-with-c3"])
    res = runner.invoke(main, ["verify", str(path), "--check", "harmonic"])
    assert res.exit_code == 2 and res.stdout == ""
    assert "a float c cannot carry c3 (ijk [1, 2, 2])" in res.stderr


@pytest.mark.parametrize("args", [["verify"], ["classify"], ["spectrum", "--seed", "1"],
                                  ["cone-sample", "--seed", "1", "--count", "3"]],
                         ids=" ".join)
def test_a_directory_as_the_form_path_is_a_usage_error(runner, tmp_path, args):
    res = runner.invoke(main, [args[0], str(tmp_path), *args[1:]])
    assert res.exit_code == 2, res.output
    assert res.stdout == ""
    assert res.stderr.splitlines()[-1].startswith(f"Error: cannot read {tmp_path}: ")
    assert "internal error" not in res.stderr and "Traceback" not in res.stderr


@pytest.mark.parametrize("args", [["catalog", "list"],
                                  ["verify", "cube", "--check", "harmonic"]],
                         ids=" ".join)
def test_a_closed_stdout_pipe_exits_141(tmp_path, args):
    # a reader that stopped early is no internal error, also where the
    # command then fails a check (the cube is not harmonic): exit
    # 128 + SIGPIPE with nothing on stderr.  The read end is closed before
    # the command starts, so its first write meets the closed pipe.
    cube = tmp_path / "cube.json"
    cube.write_text(_DEGENERATE_FILES["cube"])
    args = [str(cube) if a == "cube" else a for a in args]
    paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "eigencubic.cli", *args],
                             stdout=write, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (141, b"")


def _strict_json_lines(text: str) -> list:
    """Each line of ``text`` as JSON, refusing NaN and Infinity."""
    def no_constant(name):
        raise ValueError(f"{name} in the output")
    return [json.loads(line, parse_constant=no_constant) for line in text.splitlines()]


# u = x1^3 + (3/2) sqrt3 x1^3 - 7/8 x1 x2^2 - 2/3 x2^3; the float x1 x2^2 and
# the sqrt(3) x1^3 coefficients both feed the x1 entry of Lap u
_MIXED = {"dim": 2, "terms": [{"ijk": [1, 2, 2], "c": -0.875},
                              {"ijk": [2, 2, 2], "c": "-2/3"},
                              {"ijk": [1, 1, 1], "c": "1", "c3": "3/2"}]}


@pytest.mark.parametrize("args", [["verify"], ["verify", "--random", "3"],
                                  ["classify"]], ids=" ".join)
def test_mixed_float_and_sqrt3_coefficients(runner, tmp_path, args):
    # a float coefficient makes the whole form a float one, sqrt(3) parts
    # included, so Lap u is summed in float64 like every float check
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_MIXED))
    res = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert res.exit_code in (0, 1), res.output
    assert _strict_json_lines(res.stdout)


def test_verify_reports_a_float_form_in_float_mode(runner, tmp_path):
    # every check of a float form, harmonic included, runs in float64
    path = tmp_path / "mixed.json"
    path.write_text(json.dumps(_MIXED))
    reports = _strict_json_lines(runner.invoke(main, ["verify", str(path)]).stdout)
    assert [r["check"] for r in reports] == list(CHECKS)
    assert [r["mode"] for r in reports] == ["float"] * 5


_FUZZ_RUNS = (["verify"], ["verify", "--random", "3"], ["classify"],
              ["classify", "--random", "2"],
              ["spectrum", "--seed", "1", "--restarts", "4"],
              ["cone-sample", "--seed", "1", "--count", "3"])
# a zero denominator included: the file is then a usage error
_rational_text = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(0, 9))
_float = st.one_of(st.floats(-10, 10, allow_nan=False),
                   st.sampled_from([1e40, -1e40, 1e-40, -1e-40]))
_coefficient = st.one_of(
    st.fixed_dictionaries({"c": _rational_text}),
    st.fixed_dictionaries({"c": _rational_text, "c3": _rational_text}),
    st.fixed_dictionaries({"c": _float}),
    st.fixed_dictionaries({"c": _float, "c3": _rational_text}))


@st.composite
def _form_files(draw) -> dict:
    """A well-formed form file: dim 1-6, 0-6 distinct monomials."""
    dim = draw(st.integers(1, 6))
    ijk = st.lists(st.integers(1, dim), min_size=3, max_size=3).map(sorted)
    keys = draw(st.lists(ijk, max_size=6, unique_by=tuple))
    return {"dim": dim, "terms": [{"ijk": k, **draw(_coefficient)} for k in keys]}


def test_generated_form_files_keep_the_exit_contract(runner, tmp_path):
    # no well-formed file ends in an internal error (exit 3), and stdout
    # is strict JSON whatever the exit code
    path = tmp_path / "form.json"

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(_form_files())
    def contract(form):
        path.write_text(json.dumps(form))
        for args in _FUZZ_RUNS:
            res = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert res.exit_code in (0, 1, 2), (form, args, res.output)
            _strict_json_lines(res.stdout)

    contract()


def _form_text(dim="3", ijk="[1, 2, 2]", c='"1"', c3=None, terms=None) -> str:
    """The text of x1 x2^2 - x1 x3^2 with the raw JSON text of ``dim``,
    ``terms`` or a field of the first term put in; a raw text may carry
    a repeated key, as '3, "dim": 2'."""
    first = '{"ijk": %s, "c": %s%s}' % (ijk, c, "" if c3 is None else ', "c3": ' + c3)
    terms = terms or '[%s, {"ijk": [1, 3, 3], "c": "-1"}]' % first
    return '{"dim": %s, "terms": %s}' % (dim, terms)


def _nested(depth: int, array: bool) -> str:
    return "[" * depth + "]" * depth if array else '{"a": ' * depth + "1" + "}" * depth


_huge = st.integers(51, 6000).map(lambda k: "9" * k)
# each class of malformed file, as text; no file of any class names a
# usable form
_MALFORMED_TEXT = {
    "wrong JSON types": st.one_of(
        st.sampled_from(["[]", '"form"', "3", "null", "true"]),
        st.sampled_from(['"3"', "3.0", "[3]", "null", "true", "{}"]).map(
            lambda v: _form_text(dim=v)),
        st.sampled_from(['{"a": 1}', '"t"', "3", "null", "true"]).map(
            lambda v: _form_text(terms=v)),
        st.sampled_from(["[1, 2, 2]", '"t"', "3", "null", "true"]).map(
            lambda v: _form_text(terms="[%s]" % v)),
        st.sampled_from(['"122"', '{"a": 1}', "1", "null", "[1, 2]", "[1, 2, 2, 2]",
                         '["1", 2, 2]', "[1.0, 2, 2]"]).map(lambda v: _form_text(ijk=v)),
        st.builds(lambda v, field: _form_text(**{field: v}),
                  st.sampled_from(["[1]", '{"a": 1}', "null", "true"]),
                  st.sampled_from(["c", "c3"]))),
    "missing keys": st.sampled_from(["dim", "terms", "ijk", "c"]).map(
        lambda key: _form_text().replace('"%s": ' % key, '"x%s": ' % key, 1)),
    "deep nesting": st.builds(
        lambda depth, array, field: _form_text(**{field: _nested(depth, array)})
        if field else _nested(depth, array),
        st.integers(1000, 100_000), st.booleans(),
        st.sampled_from([None, "dim", "terms", "ijk", "c", "c3"])),
    "NaN and infinite literals": st.one_of(
        st.builds(lambda v, field: _form_text(**{field: v}),
                  st.sampled_from(["NaN", "Infinity", "-Infinity", "1e400"]),
                  st.sampled_from(["dim", "c", "c3"])),
        st.sampled_from(["NaN", "Infinity"]).map(lambda v: _form_text(ijk="[%s, 2, 2]" % v))),
    "out-of-range and boolean indices": st.one_of(
        st.sampled_from(["0", "-1", "4", "1" + "0" * 30, "true", "false"]).map(
            lambda v: _form_text(ijk="[%s, 2, 2]" % v)),
        st.sampled_from(["0", "-5", "129", "1" + "0" * 30]).map(lambda v: _form_text(dim=v))),
    "zero denominators": st.builds(
        lambda num, field: _form_text(**{field: '"%d/0"' % num}),
        st.integers(-9, 9), st.sampled_from(["c", "c3"])),
    "huge digit strings": _huge.flatmap(lambda h: st.sampled_from([
        _form_text(c='"%s"' % h), _form_text(c3='"%s"' % h), _form_text(c="%s.0" % h),
        _form_text(dim=h), _form_text(ijk="[1, 2, %s]" % h)])),
    "repeated keys": st.sampled_from([
        _form_text(dim='3, "dim": 2'), _form_text(dim='3, "dim": 3'),
        _form_text(dim='3, "terms": []'), _form_text(ijk='[1, 2, 2], "ijk": [1, 3, 3]'),
        _form_text(c='"1", "c": "1"'), _form_text(c3='"1", "c3": "2"')]),
}
_MALFORMED = {name: cls.map(str.encode) for name, cls in _MALFORMED_TEXT.items()}
# a BOM, UTF-16 and UTF-32, and bytes that are no UTF-8 in the c string
_MALFORMED["bad encodings"] = st.one_of(
    st.sampled_from(["utf-8-sig", "utf-16", "utf-16-le", "utf-32"]).map(_form_text().encode),
    st.sampled_from([b"\xff", b"\xe9", b"\xc3\x28", b"\xed\xa0\x80"]).map(
        lambda bad: _form_text().encode().replace(b'"1"', b'"1' + bad + b'"', 1)))


def test_malformed_form_files_are_usage_errors(runner, tmp_path):
    # every command that reads a form exits 2 on a malformed file, with
    # nothing on stdout and click's one "Error:" line, never an internal
    # error: files drawn from each class of malformed input, in text or
    # in a bad encoding
    path = tmp_path / "form.json"
    commands = (["verify"], ["classify"], ["spectrum", "--seed", "1"],
                ["cone-sample", "--seed", "1", "--count", "3"])

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(st.one_of(*_MALFORMED.values()))
    def contract(data):
        path.write_bytes(data)
        for args in commands:
            res = runner.invoke(main, [args[0], str(path), *args[1:]])
            assert res.exit_code == 2, (data[:200], args, res.output)
            assert res.stdout == ""
            assert [l for l in res.stderr.splitlines() if l.startswith("Error:")] == \
                [res.stderr.splitlines()[-1]]

    contract()


@pytest.mark.parametrize("error, code", [(RuntimeError, 3), (ValueError, 1)],
                         ids=["RuntimeError", "ValueError"])
def test_triples_validate_fails_a_row_only_on_a_value_error(runner, monkeypatch, error, code):
    # a ValueError from the search, which valid input can raise, fails the
    # row it came from, exit 1; any other exception is an internal error,
    # exit 3 with one stderr line, not a failed math check
    def broken(self, **kw):
        raise error("injected")

    monkeypatch.setattr(algebra.MetrisedAlgebra, "find_idempotents", broken)
    res = runner.invoke(main, ["triples", "--validate", "--seed", "1"])
    assert res.exit_code == code
    if error is RuntimeError:
        assert (res.stdout, res.stderr) == ("", "internal error: RuntimeError: injected\n")
    else:
        rows = [r for r in map(json.loads, res.stdout.splitlines())
                if r["status"] == "realizable"]
        assert len(rows) == 12
        assert all(r["result"] == "fail" and r["error"] == "ValueError: injected"
                   for r in rows)


def test_triples_validate_exit_code(runner, monkeypatch):
    # the verdict of `triples --validate` is read off the canned reports:
    # any fail row exits 1 after every row is printed
    rows = [{"triple": [2, 0, 2], "result": "pass"},
            {"triple": [9, 0, 16], "result": "untestable"}]
    monkeypatch.setattr("eigencubic.cli.cross_validate", lambda **kw: rows)
    res = run(runner, "triples", "--validate")
    assert res.exit_code == 0
    assert [json.loads(l) for l in res.output.splitlines()] == rows
    rows = rows[:1] + [{"triple": [3, 0, 4], "result": "fail"}] + rows[1:]
    res = run(runner, "triples", "--validate")
    assert res.exit_code == 1
    assert [json.loads(l) for l in res.output.splitlines()] == rows


def test_triples_validate_keeps_the_status_filter(runner, monkeypatch):
    # --status picks the reports printed, as it picks the rows listed, and
    # the exit code is read off the printed reports only; the filter is
    # cross_validate's own, which the canned reports follow
    rows = [{"triple": [2, 0, 2], "status": "realizable", "result": "pass"},
            {"triple": [3, 0, 4], "status": "realizable", "result": "fail"},
            {"triple": [1, 1, 1], "status": "eliminated", "result": "untestable"},
            {"triple": [4, 4, 4], "status": "open", "result": "untestable"}]
    monkeypatch.setattr("eigencubic.cli.cross_validate", lambda which, **kw: [
        r for r in rows if which in ("all", r["status"])])
    for which, want, code in (("all", rows, 1), ("realizable", rows[:2], 1),
                              ("eliminated", rows[2:3], 0), ("open", rows[3:], 0)):
        res = run(runner, "triples", "--validate", "--status", which)
        assert res.exit_code == code, which
        assert [json.loads(l) for l in res.output.splitlines()] == want


def test_spectrum_of_zero_form_warns(runner, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text('{"dim": 2, "terms": []}')
    res = run(runner, "spectrum", str(path), "--seed", "1", "--restarts", "4")
    assert res.exit_code == 1
    assert json.loads(res.output) == {"warning": "no nonzero idempotent found"}


def test_cone_sample_max_curvature_exit_code(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    args = ["cone-sample", path, "--seed", "1", "--count", "3"]
    assert run(runner, *args).exit_code == 0
    assert run(runner, *args, "--max-curvature", "-1").exit_code == 1


def test_spectrum_tol_default_is_unchanged(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    args = ["spectrum", path, "--restarts", "8", "--seed", "1"]
    res = run(runner, *args)
    assert res.exit_code == 0
    assert {tuple(json.loads(l)["triple"]) for l in res.output.splitlines()} \
        == {(2, 0, 2)}
    assert run(runner, *args, "--tol", "1e-6").output == res.output


@pytest.mark.parametrize("command, option, constant",
                         [("cone-sample", "grad_threshold", identities.GRAD_THRESHOLD),
                          ("spectrum", "tol", algebra.BIN_TOLERANCE)])
def test_option_defaults_are_the_library_constants(command, option, constant):
    # each default is read from the library, not written again as a literal
    param = next(p for p in main.commands[command].params if p.name == option)
    assert param.default is constant


def test_cone_sample_gate_defaults_and_inf(runner, tmp_path):
    # inf is an explicit request: every ray is under an infinite gradient
    # threshold, and no curvature exceeds an infinite bound
    path = _emit(runner, tmp_path, "cartan-d1")
    args = ["cone-sample", path, "--seed", "1", "--count", "3"]
    res = run(runner, *args)
    assert res.exit_code == 0
    assert json.loads(res.output.splitlines()[-1])["found"] == 3
    assert run(runner, *args, "--grad-threshold", "0.1",
               "--max-curvature", "inf").output == res.output
    res = run(runner, *args, "--grad-threshold", "inf")
    assert res.exit_code == 0
    assert json.loads(res.output.splitlines()[-1])["found"] == 0


def test_internal_error_exit_code(runner, tmp_path, monkeypatch):
    # an exception that is neither a usage error nor a failed check exits 3
    # with one stderr line instead of a traceback
    path = _emit(runner, tmp_path, "clifford-q0")

    def broken(u):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr("eigencubic.cli.check_harmonic", broken)
    res = runner.invoke(main, ["verify", path, "--check", "harmonic"])
    assert res.exit_code == 3
    assert res.stdout == ""
    assert res.stderr == "internal error: LinAlgError: SVD did not converge\n"


def _readme_commands():
    """The README commands whose output is exact, with the file each writes."""
    cmds = []
    for name in ("cartan-d1", "cartan-d4"):
        cmds += [(["catalog", "emit", name, "out.json"], "out.json"),
                 (["verify", "out.json", "--check", "radial", "--exact"], None),
                 (["verify", "out.json", "--check", "all", "--random", "20",
                   "--seed", "1"], None),
                 (["classify", "out.json"], None)]
    return cmds + [(["triples", "--status", "open"], None),
                   (["rho", "16"], None),
                   (["clifford", "--q", "4", "--emit", "sys.json"], "sys.json")]


def readme_transcript(runner) -> str:
    """Stdout, exit code and written file of each README command, in order."""
    out = []
    with runner.isolated_filesystem():
        for args, written in _readme_commands():
            res = runner.invoke(main, args)
            out.append(f"$ eigencubic {' '.join(args)}\n{res.stdout}"
                       f"[exit {res.exit_code}]\n")
            if written:
                out.append(f"[file {written}]\n{Path(written).read_text()}")
    return "".join(out)


def test_readme_transcript(runner):
    # byte-identical README output is a contract; the transcript changes
    # only with an intended output change (PYTHONPATH=src python
    # tests/test_cli.py rewrites it)
    assert readme_transcript(runner) == TRANSCRIPT.read_text()


def test_classify(runner, tmp_path):
    path = _emit(runner, tmp_path, "clifford-q1")
    res = run(runner, "classify", path)
    rec = json.loads(res.output)
    assert rec["label"] == "clifford-type"
    assert rec["radial_theta"] == "-8"


def test_triples_listing(runner):
    res = run(runner, "triples", "--json")
    recs = [json.loads(l) for l in res.output.splitlines()]
    assert len(recs) == 23
    res = run(runner, "triples", "--status", "open", "--json")
    recs = [json.loads(l) for l in res.output.splitlines()]
    assert len(recs) == 3
    assert all(r["status"] == "open" for r in recs)


def test_clifford_cmd(runner, tmp_path):
    out = tmp_path / "sys.json"
    res = run(runner, "clifford", "--q", "2", "--emit", str(out))
    assert res.exit_code == 0
    rec = json.loads(res.output)
    assert rec["verified"] and rec["two_l"] == 4
    data = json.loads(out.read_text())
    assert len(data["mats"]) == 3


def test_clifford_cmd_verifies_once(runner, monkeypatch):
    # build_clifford_system verifies its system, and the command trusts it
    from eigencubic import cli, clifford
    calls = []

    def counted(S):
        calls.append(S.q)
        return verify(S)

    verify = clifford.verify_clifford_system
    for module in (clifford, cli):
        monkeypatch.setattr(module, "verify_clifford_system", counted, raising=False)
    res = run(runner, "clifford", "--q", "3")
    assert res.exit_code == 0 and json.loads(res.output)["verified"]
    assert calls == [3]


@pytest.mark.parametrize("args", [("verify", "--check", "all", "--exact"),
                                  ("classify", "--exact")])
@pytest.mark.parametrize("name, channels", [("cartan-d2", 1), ("cartan-d4", 2)])
def test_exact_checks_expand_the_pieces_once(runner, tmp_path, monkeypatch, args,
                                             name, channels):
    # every exact check of a form multiplies the same PolyArray pieces, so
    # a command reads them off the jet once: one Jet.symbolic call per
    # form, whose v, g and H carry the sqrt(3) channel of the Q(sqrt3)
    # form cartan-d4 as terms of even code
    from eigencubic.cubics import Jet
    from eigencubic.poly import PolyArray
    calls = []

    def counted(self, n):
        calls.append(symbolic(self, n))
        return calls[-1]

    symbolic = Jet.symbolic
    monkeypatch.setattr(Jet, "symbolic", counted)
    path = _emit(runner, tmp_path, name)
    res = run(runner, args[0], path, *args[1:])
    assert res.exit_code == 0
    assert len(calls) == 1
    assert all(isinstance(x, PolyArray) for x in calls[0])
    assert [bool((x.code % 2 == 0).any()) for x in calls[0]] == [channels == 2] * 3 + [False]


def test_cone_sample(runner, tmp_path):
    path = _emit(runner, tmp_path, "clifford-q0")
    res = run(runner, "cone-sample", path, "--count", "20", "--seed", "1",
              "--max-curvature", "1e-6")
    assert res.exit_code == 0
    lines = [json.loads(l) for l in res.output.splitlines()]
    summary = lines[-1]
    assert summary["found"] == 20
    assert summary["max_abs_curvature"] < 1e-6


def test_cone_sample_never_prints_nan(runner, tmp_path, monkeypatch):
    # a 1e300 coefficient would overflow |Du| in float64 on u itself; the
    # normalised float jet finds every point, and stdout stays strict
    # JSON with no NaN curvature.  The loader rejects such a file (exit
    # 2), so its bound is lifted here to let the sampler meet the form.
    monkeypatch.setattr("eigencubic.cubics.MAX_COEFFICIENT", float("inf"))
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 3, "terms": [{"ijk": [1,1,1], "c": 1e300}, '
                    '{"ijk": [1,2,2], "c": 1.0}]}')
    res = run(runner, "cone-sample", str(path), "--count", "3", "--seed", "1")
    assert res.exit_code == 0

    def no_constant(name):
        raise ValueError(f"{name} in cone-sample output")

    recs = [json.loads(l, parse_constant=no_constant) for l in res.stdout.splitlines()]
    assert recs[-1]["requested"] == 3 and recs[-1]["found"] == 3
    assert all(r["curvature"] == r["curvature"] for r in recs[:-1])


def test_sqrt3_form_round_trip_and_verify(runner, tmp_path):
    # cartan-d4 carries sqrt3 components (the "c3" field); the file must
    # round-trip bit-exactly and still pass its checks
    path = _emit(runner, tmp_path, "cartan-d4")
    blob = json.loads((tmp_path / "cartan-d4.json").read_text())
    assert any("c3" in rec for rec in blob["terms"])
    res = run(runner, "verify", path, "--check", "radial,eiconal,harmonic")
    assert res.exit_code == 0
    recs = [json.loads(l) for l in res.output.splitlines()]
    assert all(r["pass"] for r in recs)
    eic = next(r for r in recs if r["check"] == "eiconal")
    assert eic["constant"] == "1/3"


def test_emit_round_trip_byte_identical(runner, tmp_path):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    run(runner, "catalog", "emit", "cartan-d2", str(p1))
    run(runner, "catalog", "emit", "cartan-d2", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    # loading and re-serializing is the identity
    from eigencubic.cubics import CubicForm
    data = json.loads(p1.read_text())
    assert CubicForm.from_json_dict(data).to_json_dict() == data


if __name__ == "__main__":
    TRANSCRIPT.parent.mkdir(exist_ok=True)
    TRANSCRIPT.write_text(readme_transcript(CliRunner()))
