from collections import Counter

from eigencubic.cubics import CATALOG
from eigencubic.tables import (ELIMINATED, NOT_ADMISSIBLE, OPEN, REALIZABLE,
                               admissible_triples, cross_validate, record_for, status)

EXPECTED_ROWS = [
    (2, 0, 2, 5), (3, 0, 4, 8), (5, 0, 8, 14), (9, 0, 16, 26),
    (0, 5, 3, 9), (1, 5, 5, 12), (2, 5, 7, 15), (4, 5, 11, 21),
    (0, 8, 6, 15), (1, 8, 8, 18), (2, 8, 10, 21), (3, 8, 12, 24),
    (5, 8, 16, 30), (9, 8, 24, 42),
    (0, 14, 12, 27), (1, 14, 14, 30), (2, 14, 16, 33), (3, 14, 18, 36),
    (0, 26, 24, 51), (1, 26, 26, 54), (2, 26, 28, 57), (3, 26, 30, 60),
    (7, 26, 38, 72),
]


def test_table_matches_digit_for_digit():
    rows = admissible_triples()
    assert len(rows) == 23
    got = [(r.n1, r.n2, r.n3, r.dim) for r in rows]
    assert got == EXPECTED_ROWS


def test_status_partition():
    counts = Counter(r.status for r in admissible_triples())
    assert counts == {REALIZABLE: 12, ELIMINATED: 8, OPEN: 3}


def test_dimension_relations():
    for r in admissible_triples():
        assert r.dim == 1 + r.n1 + r.n2 + r.n3
        assert r.n3 == 2 * r.n1 + r.n2 - 2


def test_eliminated_list():
    eliminated = {(2, 5, 7), (2, 8, 10), (2, 14, 16), (3, 14, 18),
                  (0, 26, 24), (2, 26, 28), (3, 26, 30), (7, 26, 38)}
    assert {r.triple for r in admissible_triples()
            if r.status == ELIMINATED} == eliminated


def test_open_list():
    assert {r.triple for r in admissible_triples() if r.status == OPEN} == \
        {(3, 8, 12), (5, 8, 16), (9, 8, 24)}


def test_n2_zero_rows_follow_hurwitz_radon_pattern():
    # data observation only: the n2 = 0 rows have n1 = rho(2^k) + 1 for
    # k = 0..3, i.e. {2,3,5,9} = {1,2,4,8} shifted by one
    from eigencubic.clifford import hurwitz_radon
    n1s = [r.n1 for r in admissible_triples() if r.n2 == 0]
    assert n1s == [hurwitz_radon(2 ** k) + 1 for k in range(4)]


def test_status_lookup():
    assert status((2, 8, 10)) == ELIMINATED
    assert status((9, 8, 24)) == OPEN
    assert status((4, 5, 11)) == REALIZABLE
    assert status((9, 0, 16)) == REALIZABLE
    assert status((1, 1, 1)) == NOT_ADMISSIBLE
    assert status((0, 0, 0)) == NOT_ADMISSIBLE


def test_witnesses_exist_in_catalog():
    for r in admissible_triples():
        if r.status == REALIZABLE:
            assert r.witness in CATALOG
            assert CATALOG[r.witness].dim == r.dim
            assert CATALOG[r.witness].triple == r.triple
        else:
            assert r.witness is None


def test_albert_witness():
    rec = record_for((4, 5, 11))
    assert rec.witness == "albert21" and rec.dim == 21


def test_cross_validate_runs_only_the_rows_asked_for(monkeypatch):
    # the open and eliminated rows need no witness, so asking for them
    # alone builds no form; the rows come in table order, each untestable
    import eigencubic.cubics

    def refuse(name):
        raise AssertionError(f"built {name}")

    monkeypatch.setattr(eigencubic.cubics, "catalog_build", refuse)
    for which, count in ((OPEN, 3), (ELIMINATED, 8)):
        reports = cross_validate(seed=1, restarts=1, which=which)
        assert [r["triple"] for r in reports] == \
            [list(r.triple) for r in admissible_triples() if r.status == which]
        assert len(reports) == count
        assert all(r["status"] == which and r["result"] == "untestable" for r in reports)
