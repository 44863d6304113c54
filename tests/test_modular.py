import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from eigencubic.cubics import CATALOG, catalog_build
from eigencubic.identities import DEFAULT_BOUND, EICONAL, RADIAL, TRACE2, TRACE3
from eigencubic.modular import PRIME_TOP, ResidueStack, inverse, mod, moduli, primes

_INT64 = np.iinfo(np.int64)
_FIRST_TWO = list(itertools.islice(primes(), 2))


def _edges(q):
    """int64 values at the extremes and near the multiples of q."""
    k = _INT64.max // q
    return np.array([_INT64.min, _INT64.min + 1, _INT64.max, _INT64.max - 1, 0, 1, -1,
                     q, -q, q - 1, 1 - q, q + 1, -q - 1, k * q, -k * q, k * q - 1,
                     -k * q + 1, 2 * q, -2 * q], dtype=np.int64)


@pytest.mark.parametrize("q", _FIRST_TWO + [3])
def test_mod_is_python_remainder_at_the_int64_extremes(q):
    # x - (x // q) q wraps in the product, never in the difference; in
    # place too, and with no RuntimeWarning from the wrap
    x = _edges(q)
    want = [v % q for v in x.tolist()]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mod(x, q)
        assert got.dtype == np.int64 and got.tolist() == want
        assert x.tolist() == _edges(q).tolist()
        block = np.stack([x, x[::-1]])
        same = mod(block, q, out=block)
        assert same is block and block.tolist() == [want, want[::-1]]
        assert ResidueStack(_edges(q), q).x.tolist() == want


def test_mod_makes_one_block_size_array():
    # on one (5, 54, 54) int64 block, below numpy's 256 KiB threshold for
    # eliding temporaries, x // q is the one array mod makes, with or
    # without out
    x = np.random.default_rng(1).integers(_INT64.min, _INT64.max, (5, 54, 54))
    want = [v % _FIRST_TWO[0] for v in x.ravel().tolist()]
    tracemalloc.start()
    try:
        for out in (None, x):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            got = mod(x, _FIRST_TWO[0], out=out)
            peak = tracemalloc.get_traced_memory()[1] - base
            assert x.nbytes <= peak < 3 * x.nbytes // 2
            assert got.ravel().tolist() == want
            del got
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("a", [1, 3, 5, 2 ** 63 - 1])
def test_inverse_modulo_two_to_the_64_is_an_int64(a):
    # the unit inverse modulo 2**64 is given as the int64 it wraps to, and
    # times a it is 1 modulo 2**64; modulo a prime it is pow's
    v = inverse(a, 0)
    assert _INT64.min <= v <= _INT64.max and (v * a) % 2 ** 64 == 1
    for q in _FIRST_TWO:
        assert inverse(a, q) == pow(a, -1, q)


def test_residue_primes_are_one_sequence_11_mod_12():
    # the first 200 residue primes are the numbers = 11 (mod 12) below
    # PRIME_TOP that no odd prime below sqrt(PRIME_TOP) divides, largest
    # first, none skipped; the first is the rank's first prime of old,
    # 134217467
    got = list(itertools.islice(primes(), 200))
    assert got[0] == 134217467
    top = math.isqrt(PRIME_TOP)
    small = [d for d in range(3, top + 1, 2) if all(d % e for e in range(3, math.isqrt(d) + 1, 2))]
    assert got == [p for p in range(PRIME_TOP - 9, got[-1] - 1, -12) if all(p % d for d in small)]
    assert moduli(2 ** 3000) == tuple(got[:len(moduli(2 ** 3000))])


# len(moduli(bound)) for the radial, eiconal, trace2 and trace3 bounds of
# each catalog form's exact jet at |p_a| <= 10**6 - 1, the random mode's
# points, and at 9, the Hsiang check's, and of its float copy's exact jet
# at 10**6 - 1: 204 counts, each the one the odd primes below PRIME_TOP
# took before the sequence kept only those = 11 (mod 12)
_MODULI_COUNTS = {
    "trivial": "210100002101", "clifford-q0": "210100002101",
    "clifford-q1": "210100002101", "clifford-q2": "320100003201",
    "cartan-d1": "320100003201", "cartan-d2": "321200009647",
    "cartan-d4": "320200009647", "cartan-d8": "321200009647",
    "involution-d2": "210100002101", "involution-d4": "320100003201",
    "involution-d8": "320100003201", "complexified-d1": "320100003201",
    "complexified-d2": "320100003201", "complexified-d4": "320200003202",
    "complexified-d8": "321200003212", "octonion21": "320100003201",
    "albert21": "320100003201",
}


def test_moduli_counts_are_unchanged_on_the_catalog():
    assert set(_MODULI_COUNTS) == set(CATALOG)
    for name, want in _MODULI_COUNTS.items():
        u = catalog_build(name)
        got = ""
        for jet, R in ((u.jet(exact=True), DEFAULT_BOUND - 1), (u.jet(exact=True), 9),
                       (u.to_float().jet(exact=True), DEFAULT_BOUND - 1)):
            got += "".join(str(len(moduli(ident.bound(u.n, jet.l1, R))))
                           for ident in (RADIAL, EICONAL, TRACE2, TRACE3))
        assert got == want, name
