import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from eigencubic.cli import main

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
    path = _emit(runner, tmp_path, "clifford-q0")
    res = runner.invoke(main, ["spectrum", path, "--restarts", "4",
                               "--seed", "-1"])
    assert res.exit_code == 2


def test_verify_forced_random_mode(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d1")
    res = run(runner, "verify", path, "--check", "radial", "--random", "10",
              "--seed", "2")
    rec = json.loads(res.output)
    assert rec["pass"] and rec["mode"] == "random"
    assert rec["constant"] == "-54"
    assert 0 < rec["error_bound"] <= (5 / 10 ** 6) ** 10


def test_classify_sqrt3_constants(runner, tmp_path):
    path = _emit(runner, tmp_path, "cartan-d4")
    res = run(runner, "classify", path)
    rec = json.loads(res.output)
    assert rec["label"] == "exceptional-or-mutant"
    assert rec["radial_theta"] == "-2"


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
    (None, ["clifford", "--q", "11"]),
    (None, ["clifford", "--q", "-1"]),
    *((huge, args) for huge in ("huge-float", "huge-rational")
      for args in (["classify"], ["verify"], ["spectrum", "--seed", "1"],
                   ["cone-sample", "--seed", "1", "--count", "3"])),
]


@pytest.mark.parametrize("form, args", _DEGENERATE_RUNS,
                         ids=[f"{form}:{' '.join(args)}" for form, args in _DEGENERATE_RUNS])
def test_degenerate_input_is_a_usage_error(runner, tmp_path, form, args):
    # out-of-range counts and parseable but degenerate forms are usage
    # errors: exit 2 with click's one "Error:" line, nothing on stdout
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
