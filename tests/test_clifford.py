import json

import pytest

from eigencubic.clifford import (CliffordSystem, build_clifford_system,
                                 hurwitz_radon, verify_clifford_system)

P = ((1, 0), (0, -1))
Q = ((0, 1), (1, 0))
I = ((1, 0), (0, 1))


def test_hurwitz_radon_first_16():
    want = (1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1, 9)
    got = tuple(hurwitz_radon(m) for m in range(1, 17))
    assert got == want


def test_hurwitz_radon_spot_values():
    assert hurwitz_radon(16) == 9
    assert hurwitz_radon(8) == 8
    assert hurwitz_radon(12) == 4
    assert hurwitz_radon(2) == 2
    for m in (1, 3, 5, 99, 1001):
        assert hurwitz_radon(m) == 1
    assert hurwitz_radon(32) == 10
    assert hurwitz_radon(64) == 12
    assert hurwitz_radon(128) == 16
    assert hurwitz_radon(256) == 9 + 8


def test_hurwitz_radon_rejects_bad_input():
    for bad in (0, -1, -16):
        with pytest.raises(ValueError):
            hurwitz_radon(bad)


def test_verify_accepts_q1_pair():
    ok, reason = verify_clifford_system(CliffordSystem(1, 2, (P, Q)))
    assert ok and reason is None


def test_verify_rejects_commuting_pair():
    ok, reason = verify_clifford_system(CliffordSystem(1, 2, (P, I)))
    assert not ok
    assert "anticommute" in reason


def test_verify_rejects_non_involution():
    bad = ((2, 0), (0, -2))
    ok, reason = verify_clifford_system(CliffordSystem(0, 2, (bad,)))
    assert not ok and "!= I" in reason


def test_verify_rejects_asymmetric():
    R = ((0, 1), (-1, 0))
    ok, reason = verify_clifford_system(CliffordSystem(0, 2, (R,)))
    assert not ok and "symmetric" in reason


def test_build_small_systems():
    s0 = build_clifford_system(0)
    assert s0.two_l == 2 and s0.mats == (P,)
    s1 = build_clifford_system(1)
    assert s1.two_l == 2 and s1.mats == (P, Q)
    s2 = build_clifford_system(2)
    assert s2.two_l == 4 and len(s2.mats) == 3
    assert verify_clifford_system(s2)[0]


def test_build_larger_systems_verified():
    for q in range(3, 9):
        s = build_clifford_system(q)
        assert len(s.mats) == q + 1
        ok, reason = verify_clifford_system(s)
        assert ok, (q, reason)


def test_built_systems_trace_free():
    for q in range(0, 7):
        s = build_clifford_system(q)
        for A in s.mats:
            assert sum(A[i][i] for i in range(s.two_l)) == 0


def test_build_rejects_negative():
    with pytest.raises(ValueError):
        build_clifford_system(-1)


def test_json_round_trip():
    # the JSON that `clifford --emit` writes carries the whole system
    s = build_clifford_system(3)
    d = json.loads(json.dumps(s.to_json_dict(), sort_keys=True))
    back = CliffordSystem(d["q"], d["two_l"],
                          tuple(tuple(map(tuple, m)) for m in d["mats"]))
    assert back == s
