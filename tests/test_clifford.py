import hashlib
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


# sha256 of the sorted JSON of build_clifford_system(q), q = 0..9, so a
# change in how any system is built shows even where it still verifies
_SYSTEM_SHA256 = [
    "f1d0b483023eab54db05bac5761836ffde9ce179ee991f65847954cba08ab82b",
    "bff582e81860340077f0bf0ed672230c26260ce947507b8e79d4b3b69d3cfd03",
    "c1cad949a1877e5ca765c63049bd5278d37553ec59c62d9f79492738528f9bb9",
    "750830277e66a6ccc09b0086f23be38bb05abe5a7dca6d28f4fd7e47709f5ec2",
    "fc6579f1b5cd6017c7070778f764cb4f7e67f66d59013f44ad79ce2bd035e803",
    "85119cfea2b6fb19749bd0c2c0c1880253e62ec684cd1be3644bee2edbafcb58",
    "d98c7eb662a46cc87f24a9c11cf89976eff76f6f59f60105ced47c2c780bbefe",
    "bdd6d3c18008d1eb630c681d643006beb569ffbae86544194421902cd5689b17",
    "2948935a1ece12612601d704fcc85bd7ebbf051614ea9045eabe33d6e91341ff",
    "e6d0281e0e473bd983fce3e3544737033d38ea10b996e47b08b574d8440ac8fc",
]


@pytest.mark.parametrize("q", range(10))
def test_built_systems_pinned(q):
    blob = json.dumps(build_clifford_system(q).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == _SYSTEM_SHA256[q]
