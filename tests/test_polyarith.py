"""Differential tests: the Kronecker kernel and every product routed through
it against schoolbook references kept in this file."""

import inspect
import random
import tracemalloc
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_groupring import reference_omega_family
from test_padic import _iterated_teichmuller

from normtower import curve, honda, localpoints, polyarith, series, unramified
from normtower.groupring import poly_trim
from normtower.polyarith import (
    divmod_monic,
    inv_mod,
    mul,
    mul_mod,
    mul_vec,
    pow_mod,
    rem_monic,
    teichmuller,
    truncate,
    xgcd_fp,
)
from normtower.series import TruncSeries
from normtower.tower import TowerElt, build_tower
from normtower.unramified import build_unramified

# -- schoolbook references ----------------------------------------------------


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def ref_rem(a, m):
    """Long division by a monic m over Z; remainder with deg(m) coefficients."""
    n = len(m) - 1
    r = list(a) + [0] * max(n - len(a), 0)
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        for i in range(n + 1):
            r[k - n + i] -= c * m[i]
    return r[:n]


def ref_cyclic(a, b, d):
    out = [0] * d
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % d] += x * y
    return out


def ref_field_mul(fd, a, b, q):
    return tuple(x % q for x in ref_rem(ref_mul(list(a), list(b)), fd.modulus))


def phi_coeffs(p, n):
    """Phi_{p^(n+1)}(x) = sum_{i<p} x^(i p^n)."""
    c = [0] * ((p - 1) * p**n + 1)
    for i in range(p):
        c[i * p**n] = 1
    return c


ints = st.integers(-(2**70), 2**70)
polys = st.lists(ints, max_size=10)

# -- the kernel ---------------------------------------------------------------


@settings(deadline=None, max_examples=200)
@given(polys, polys)
def test_mul_matches_schoolbook_on_signed_inputs(a, b):
    assert mul(a, b) == ref_mul(a, b)


def test_mul_edge_cases():
    assert mul([], [1, 2]) == [] and mul([3], []) == []
    assert mul([0, 0], [0, 0, 0]) == [0, 0, 0, 0]
    assert mul([-5], [7]) == [-35]
    assert mul([1], [0, -1, 2]) == [0, -1, 2]
    half = 1 << 63   # a coefficient that fills a slot to its sign bit
    assert mul([half - 1, -(half - 1)], [1, 1]) == [half - 1, 0, -(half - 1)]


@settings(deadline=None, max_examples=25)
@given(st.lists(st.integers(-(2**3000), 2**3000), min_size=1, max_size=6),
       st.lists(st.integers(-(2**3000), 2**3000), min_size=1, max_size=6))
def test_mul_with_3000_bit_coefficients(a, b):
    assert mul(a, b) == ref_mul(a, b)


@settings(deadline=None, max_examples=100)
@given(st.lists(ints, min_size=1, max_size=4), st.lists(ints, min_size=5, max_size=40))
def test_mul_blocked_path_for_unequal_lengths(a, b):
    assert mul(a, b) == ref_mul(a, b)
    assert mul(b, a) == ref_mul(a, b)


def _reference_pack(a, s: int, half: int) -> int:
    """A verbatim copy of _pack as it was when every slot was biased by half."""
    raw = b"".join((x + half).to_bytes(s, "little") for x in a)
    bias = int.from_bytes((b"\x00" * (s - 1) + b"\x80") * len(a), "little")
    return int.from_bytes(raw, "little") - bias


def _reference_mul(a, b) -> list[int]:
    """A verbatim copy of mul as it was when every block was one big-int product."""
    _pack = _reference_pack
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    out = [0] * (len(a) + n - 1)
    bound = max(map(abs, a)) * max(map(abs, b)) * n
    if not bound:
        return out
    s = (bound.bit_length() + 8) // 8  # bytes per slot, so that bound < 2^(8s-1)
    half, base = 1 << (8 * s - 1), 1 << (8 * s)
    packed_b = _pack(b, s, half)
    for j in range(0, len(a), n):
        block = a[j:j + n]
        m = len(block) + n - 1
        # the product's slots hold signed values, so read them as balanced
        # digits: a slot at or above half borrows one from the next slot
        raw = memoryview((_pack(block, s, half) * packed_b).to_bytes(m * s, "little", signed=True))
        borrow = 0
        for i, k in enumerate(range(0, m * s, s), j):
            c = int.from_bytes(raw[k:k + s], "little") + borrow
            borrow = c >= half
            out[i] += c - base if borrow else c
    return out


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 40), st.data())
def test_pack_matches_the_biased_pack(s, data):
    """Two's complement with a borrow per slot packs the same integer as
    biasing every slot by half: all signs, and slots at +-(half - 1)."""
    half = 1 << (8 * s - 1)
    edge = st.sampled_from([0, 1, -1, half - 1, 1 - half])
    a = data.draw(st.lists(st.integers(1 - half, half - 1) | edge, max_size=30))
    assert polyarith._pack(a, s) == _reference_pack(a, s, half)


def test_pack_holds_at_most_two_packed_sizes():
    """61 coefficients of 3263 bits, as the shipped compositions pack: the
    biased pack peaked at 4.2 times the packed size."""
    rng = random.Random(61)
    a = [rng.randint(-(2**3263), 2**3263) for _ in range(61)]
    s = 817
    tracemalloc.start()
    try:
        packed = polyarith._pack(a, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert packed == _reference_pack(a, s, 1 << (8 * s - 1))
    assert peak < 2.5 * s * len(a)


def _spy_residues(monkeypatch):
    """The lengths of the factors that mul multiplies by residues, the one
    whose nonzero rows drive the convolution second."""
    shapes, real = [], polyarith._mul_residues
    monkeypatch.setattr(polyarith, "_mul_residues",
                        lambda a, b, *rest: shapes.append((len(a), len(b))) or real(a, b, *rest))
    return shapes


def _residues_everywhere(mp):
    mp.setattr(polyarith, "_RESIDUE_BYTES", 0)
    mp.setattr(polyarith, "_RESIDUE_COEFFS", 0)
    mp.setattr(polyarith, "_RESIDUE_SLOT", 0)


@settings(deadline=None, max_examples=300)
@given(st.sampled_from([1, 8, 16, 63, 70, 500, 3000]), st.sampled_from([1 << 17, 512, 8]), st.data())
def test_residues_match_one_product_per_block(bits, block_bytes, data):
    """With the crossover at 0, every product mod a modulus is multiplied by
    residues: signed, zero and all-zero factors of 0 to 13 coefficients,
    single coefficients, longer factors of 14 to 40, sparse factors, and
    every 16-bit limb at 0xFFFF (+-(2^16l - 1)), in both argument orders;
    with blocks of 128 KB, of a few rows and primes (a short last block), or
    of one."""
    top = 2**bits - 1
    full = 2 ** (-(-bits // 16) * 16) - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0, full, -full]))

    def poly(lengths):
        n = data.draw(lengths)
        return data.draw(st.one_of(st.just([0] * n), st.lists(coeff, min_size=n, max_size=n),
                                   st.lists(st.sampled_from([0, 0, 0, full, -full]), min_size=n, max_size=n)))

    a = poly(st.integers(0, 13))
    b = poly(st.one_of(st.integers(0, 13), st.integers(14, 40)))
    mod = data.draw(_moduli(full * full * 40))
    with pytest.MonkeyPatch.context() as mp:
        _residues_everywhere(mp)
        mp.setattr(polyarith, "_BLOCK_BYTES", block_bytes)
        shapes = _spy_residues(mp)
        got, swapped = mul(a, b, None, mod), mul(b, a, None, mod)
    assert got == swapped == [c % mod for c in _reference_mul(a, b)]
    assert len(shapes) == (2 if any(a) and any(b) else 0)


def test_residues_at_the_slot_boundary(monkeypatch):
    """7 * 31 * 151 = 2^15 - 1: the full overlaps fill their slots to half - 1,
    of both signs when the factors alternate, in the exact product, and mod
    a modulus by residues; the edge cases of the single product too."""
    _residues_everywhere(monkeypatch)
    for n in range(1, 30):
        for sign in (1, -1):
            a, b = [31 * sign**i for i in range(n)], [151 * sign**i for i in range(7)]
            got = mul(a, b)
            assert got == mul(b, a) == _reference_mul(a, b) == ref_mul(a, b)
            assert n < 7 or max(map(abs, got)) == 2**15 - 1
            for mod in (3**20, 2**15 - 1, 2**15, 2**16 + 1):
                assert mul(a, b, None, mod) == mul(b, a, None, mod) == [c % mod for c in got]
    test_mul_edge_cases()


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_convolution_reduces_every_chunk(chunk, monkeypatch):
    """A sparser factor with more nonzero coefficients than the int64
    accumulation chunk, the chunk made small, mod a modulus."""
    _residues_everywhere(monkeypatch)
    monkeypatch.setattr(polyarith, "_CONV_CHUNK", chunk)
    rng = random.Random(chunk)
    a = [rng.randint(-(2**200), 2**200) for _ in range(23)]
    b = [rng.choice([0, rng.randint(-(2**200), 2**200)]) for _ in range(17)]
    q = 3**300
    shapes = _spy_residues(monkeypatch)
    assert mul(a, b, None, q) == mul(b, a, None, q) == [c % q for c in ref_mul(a, b)]
    for keep in (1, 9, 17, 30, 39):   # cut inside the sparser factor, past it, and whole
        assert mul(a, b, keep, q) == mul(b, a, keep, q) == [c % q for c in ref_mul(a, b)[:keep]]
    assert len(shapes) == 12


def test_sparser_factor_longer_than_the_chunk(monkeypatch):
    """2100 nonzero coefficients, past the real chunk of 2048, mod a modulus,
    whole and cut before and after the last row of the sparser factor."""
    _residues_everywhere(monkeypatch)
    rng = random.Random(2100)
    a, b = ([rng.randint(-(2**100), 2**100) for _ in range(2100)] for _ in range(2))
    q = 3**70
    shapes = _spy_residues(monkeypatch)
    full = mul(a, b, None, q)
    assert full == [c % q for c in _reference_mul(a, b)]
    assert shapes == [(2100, 2100)] and polyarith._CONV_CHUNK == 2048
    for keep in (2049, 2101):
        assert mul(a, b, keep, q) == full[:keep]


def test_limbs_past_the_float_exact_limit_take_one_product(monkeypatch):
    """2048 limbs of 16 bits is the most whose float64 residue sums stay
    exact: a coefficient of 2^32768 - 1 is multiplied by residues mod q, one
    of 2^32768 takes one product."""
    monkeypatch.setattr(polyarith, "_powers", polyarith._powers)  # the grown table goes with the test
    _residues_everywhere(monkeypatch)
    shapes = _spy_residues(monkeypatch)
    q = 3**20000
    try:
        for top, taken in ((2**32768 - 1, 1), (2**32768, 0)):
            a, b = [top, 3, -top], [5, -7]
            assert mul(a, b, None, q) == [c % q for c in ref_mul(a, b)]
            assert len(shapes) == taken
            shapes.clear()
    finally:
        polyarith._crt_table.cache_clear()


def test_shipped_products_take_the_residue_path(monkeypatch):
    """The n = 1, D = 60 compositions multiply 61 coefficients of 3263 bits
    mod 3^2059: they must be multiplied by residues (a mis-set crossover
    shows here), and agree with one product reduced."""
    shapes = _spy_residues(monkeypatch)
    rng = random.Random(61)
    a, b = ([rng.randint(-(2**3263), 2**3263) for _ in range(61)] for _ in range(2))
    q = 3**2059
    assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)]
    assert shapes == [(61, 61)]


def test_residue_path_holds_at_most_fifteen_packed_sizes(monkeypatch):
    """61 by 61 coefficients of 3263 bits (slots of 817 bytes, 49.8 KB
    packed) mod 3^2059, the tables built: the residues of both factors, the
    product's coefficients and at most one block of each stage at a time
    peak at 14 packed sizes."""
    rng = random.Random(62)
    a, b = ([rng.randint(-(2**3263), 2**3263) for _ in range(61)] for _ in range(2))
    q = 3**2059
    shapes = _spy_residues(monkeypatch)
    expect = mul(a, b, None, q)
    tracemalloc.start()
    try:
        got = mul(a, b, None, q)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == expect == [c % q for c in _reference_mul(a, b)]
    assert shapes == [(61, 61)] * 2
    assert peak < 15 * 817 * 61


def test_omega_identity_product_matches_one_product_per_block(monkeypatch):
    """omega_4 = omega-tilde_4^- * omega_4^+ at p = 5: over Z, one product
    per block; mod 5^300, 522 by 105 coefficients in slots of 79 bytes,
    multiplied by residues."""
    fam = reference_omega_family(5, 4)
    q = 5**300
    shapes = _spy_residues(monkeypatch)
    exact = mul(fam.omega_tilde_minus, fam.omega_plus)
    assert shapes == []
    got = mul(fam.omega_tilde_minus, fam.omega_plus, None, q)
    assert shapes == [(522, 105)]
    assert exact == _reference_mul(fam.omega_tilde_minus, fam.omega_plus)
    assert got == [c % q for c in exact]
    assert poly_trim(exact) == poly_trim(fam.omega)


@pytest.mark.parametrize("side", [-1, 0])
def test_mul_on_each_side_of_the_crossover(side, monkeypatch):
    """16 coefficients at 2^x, x = 4s - 3, make a bound of 8s - 1 bits, so
    slots of s bytes: s * 16 one byte-slot below the crossover, or at it."""
    s = -(-polyarith._RESIDUE_BYTES // 16) + side
    x = 4 * s - 3
    a = [(-1) ** i * 2**x for i in range(16)]
    b = [2**x] + [3 * i - 20 for i in range(15)]
    q = 3**x
    shapes = _spy_residues(monkeypatch)
    assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)] == [c % q for c in ref_mul(a, b)]
    assert shapes == ([(16, 16)] if side == 0 else [])


def test_only_products_mod_q_take_residues_past_the_crossover(monkeypatch):
    """Past the crossover, 16 by 16 coefficients in slots of 1 KB: the exact
    product is one big-int product per block and the product mod q is
    taken by residues; both are the schoolbook product, the second reduced
    mod q."""
    rng = random.Random(16)
    a, b = ([rng.randint(-(2**4000), 2**4000) for _ in range(16)] for _ in range(2))
    q = 3**2600
    packed, real_pack = [], polyarith._pack
    monkeypatch.setattr(polyarith, "_pack", lambda c, s: packed.append(len(c)) or real_pack(c, s))
    shapes = _spy_residues(monkeypatch)
    exact = mul(a, b)
    assert shapes == [] and packed == [16, 16]
    packed.clear()
    got = mul(a, b, None, q)
    assert shapes == [(16, 16)] and packed == []
    assert exact == ref_mul(a, b)
    assert got == [c % q for c in exact]


@pytest.mark.parametrize("n", [4, 5, 6, 7])
@pytest.mark.parametrize("kb", [2, 8])
def test_short_factors_take_one_product_past_the_crossover(n, kb, monkeypatch):
    """Mod a modulus, a shorter factor of 4 to 6 coefficients, or a sparser
    factor of 6 nonzero ones, is one product at 2 and 8 times the byte
    crossover, where the residues are slower; 7 are multiplied by residues."""
    rng = random.Random(n * kb)
    bits = 4 * kb * polyarith._RESIDUE_BYTES // n
    a = [rng.randint(-(2**bits), 2**bits) for _ in range(3 * n)]
    b = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
    s = (max(map(abs, a)) * max(map(abs, b)) * n).bit_length() // 8 + 1
    assert s * n >= kb * polyarith._RESIDUE_BYTES and s >= polyarith._RESIDUE_SLOT
    q = 3**bits
    shapes = _spy_residues(monkeypatch)
    assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)]
    sparse = [x if i % 2 else 0 for i, x in enumerate(a + a)][:12]
    assert mul(sparse, a, None, q) == [c % q for c in _reference_mul(sparse, a)]
    assert shapes == ([(3 * n, n)] if n == 7 else [])


def test_small_slots_take_one_product_at_every_length(monkeypatch):
    """Mod a modulus, slots of 63 bytes stay on one product even with 512
    coefficients (32 KB packed); 64 bytes go to residues."""
    rng = random.Random(64)
    for s, taken in ((63, []), (64, [(512, 512)])):
        bits = (8 * s - 1 - 10) // 2   # bound = top^2 * 512 < 2^(8s - 1)
        a, b = ([rng.randint(2 ** (bits - 1), 2**bits) for _ in range(512)] for _ in range(2))
        assert (max(a) * max(b) * 512).bit_length() // 8 + 1 == s
        q = 3**bits
        shapes = _spy_residues(monkeypatch)
        assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)]
        assert shapes == taken
        monkeypatch.undo()


# -- the float64 bounds ---------------------------------------------------------


def test_float64_products_are_exact_at_the_bounds():
    """The residue regime's float64 matrix products at their largest
    operands: 2048 limbs of 0xFFFF against residues p - 1, and 2048 residues
    p - 1 against limbs of 0xFFFF, each entry 2048 (2^16 - 1)(p - 1) < 2^53,
    summed as Python ints. A BLAS that rounds fails here, not in a table."""
    p = int(polyarith._primes()[0])
    assert polyarith._MAX_LIMBS * 0xFFFF * (p - 1) < 2**53
    assert polyarith._MAX_PRIMES * 0xFFFF * (p - 1) < 2**53
    limbs = np.full((70, polyarith._MAX_LIMBS), 0xFFFF, dtype=np.uint16)
    residues = np.full((polyarith._MAX_LIMBS, 40), p - 1, dtype=np.int32)
    residues[::3] = p - 2   # not every partial sum a round number
    expect = [sum(0xFFFF * int(r) for r in residues[:, 0])] * 40
    rows = polyarith._exact_product(limbs, residues)
    assert rows.shape == (70, 40) and all(list(map(int, row)) == expect for row in rows)
    crt = polyarith._exact_product(residues.T.copy(), limbs.T.copy())
    assert crt.shape == (40, 70) and {int(x) for x in crt.ravel()} == {expect[0]}


def _is_prime(q: int) -> bool:
    """Miller-Rabin with the bases 2, 3, 5 and 7, exact below 3.2 * 10^9."""
    d, r = q - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, q)
        if x in (1, q - 1):
            continue
        for _ in range(r - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


def test_primes_and_prime_counts_meet_the_bounds():
    """The primes are distinct primes below 2^26; the int64 convolution's
    chunk stays below 2^63; and at every bound bit length the regime
    admits, the primes _prime_count picks multiply past 2 bound, at most an
    eighth more of them than needed."""
    primes = polyarith._primes().tolist()
    assert len(primes) == polyarith._MAX_PRIMES == len(set(primes))
    assert primes == sorted(primes, reverse=True) and primes[0] < 2**26
    assert all(_is_prime(q) for q in primes)
    assert (primes[0] - 1) + polyarith._CONV_CHUNK * (primes[0] - 1) ** 2 < 2**63
    product, widths = 1, [1]   # widths[k]: bits of the product of the first k primes
    for q in primes:
        product *= q
        widths.append(product.bit_length())
    bits = 1   # a bound below 2^bits; a product of bits + 2 bits exceeds twice it
    while (k := polyarith._prime_count((1 << bits) - 1)) <= polyarith._MAX_PRIMES:
        assert widths[k] >= bits + 2 and k <= 1.125 * -(-(bits + 4) // 26)
        bits += 1
    assert bits == 26 * polyarith._MAX_PRIMES - 3


def _packed_bytes(a, b) -> int:
    """The longer factor's packed size in bytes, as mul computes it."""
    n = min(len(a), len(b))
    return ((max(map(abs, a)) * max(map(abs, b)) * n).bit_length() // 8 + 1) * max(len(a), len(b))


@pytest.mark.parametrize("la, n, every, bits", [(61, 61, 1, 3263), (93, 93, 2, 938)])
def test_workload_products_stay_on_the_direct_loop(la, n, every, bits, monkeypatch):
    """The largest series products of point_series (the D = 60 compositions,
    61 by 61 coefficients of 3263 bits, mod 3^2059) and of full_grid (93 by
    93 at d = 2, at most 46 nonzero rows, mod 3^592) are multiplied by
    residues, their convolution run directly over the sparser factor's
    nonzero rows."""
    rng = random.Random(la)
    a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
    b = [rng.randint(-(2**bits), 2**bits) if i % every == 0 else 0 for i in range(n)]
    q = 3 ** {3263: 2059, 938: 592}[bits]
    residues = _spy_residues(monkeypatch)
    assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)]
    assert residues == [(la, n)]


@pytest.mark.parametrize("la, n, bits", [(548, 183, 360)])
def test_workload_products_stay_off_the_decimal_path(la, n, bits, monkeypatch):
    """A product of 548 by 183 coefficients of 360 bits (about 49 KB
    packed), which lay below the crossover of the removed libmpdec regime:
    every product stays off a decimal path now, and this one, mod 3^228, is
    multiplied by residues, convolved directly, and comes out exact."""
    rng = random.Random(la)
    a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
    b = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
    assert 40 << 10 < _packed_bytes(a, b) < 128 << 10
    assert not hasattr(polyarith, "decimal")
    q = 3**228
    shapes = _spy_residues(monkeypatch)
    assert mul(a, b, None, q) == [c % q for c in _reference_mul(a, b)]
    assert shapes == [(la, n)]


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 4), st.data())
def test_mul_vec_matches_schoolbook(d, data):
    row = st.one_of(st.just([0] * d), st.lists(ints, min_size=d, max_size=d))
    rows = st.lists(row, max_size=10)
    a, b = data.draw(rows), data.draw(rows)
    expect = [[0] * (2 * d - 1) for _ in range(len(a) + len(b) - 1 if a and b else 0)]
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            for k, c in enumerate(ref_mul(x, y)):
                expect[i + j][k] += c
    assert mul_vec(a, b, d) == expect


def reference_mul_vec(a, b, d, rows=None, mod=None):
    """A verbatim copy of mul_vec as it was when it packed every row, its
    full product cut to the first `rows` entries, and those reduced mod
    `mod` after the exact product."""
    if not a or not b:
        return []
    w = 2 * d - 1
    pad = [0] * (d - 1)

    def spread(rows):
        flat = []
        for r in rows:
            flat += r
            flat += pad
        return flat

    c = mul(spread(a), spread(b))
    out = [c[i:i + w] for i in range(0, (len(a) + len(b) - 1) * w, w)][:rows]
    return out if mod is None else [[x % mod for x in r] for r in out]


def vec_operand(data, d, n, shape, stride):
    """n rows of length d: dense, nonzero only in rows offset + k stride
    (some of those may be zero too), one nonzero row, or all zero."""
    bits = data.draw(st.sampled_from([8, 70, 3000]))
    row = st.lists(st.integers(-(2**bits), 2**bits), min_size=d, max_size=d)
    zero = [0] * d
    if shape == "dense":
        return [data.draw(row) for _ in range(n)]
    if shape == "zero" or n == 0:
        return [zero] * n
    if shape == "single":
        at = data.draw(st.integers(0, n - 1))
        return [data.draw(row) if i == at else zero for i in range(n)]
    offset = data.draw(st.integers(0, stride - 1))
    return [data.draw(st.one_of(row, st.just(zero))) if i % stride == offset else zero
            for i in range(n)]


shapes = st.sampled_from(["dense", "strided", "strided", "single", "zero"])


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 4), shapes, shapes, st.integers(2, 6), st.integers(2, 6), st.data())
def test_mul_vec_matches_the_packing_of_every_row(d, shape_a, shape_b, sa, sb, data):
    na = data.draw(st.integers(0, 40))
    nb = na if data.draw(st.booleans()) else data.draw(st.integers(0, 40))
    a, b = vec_operand(data, d, na, shape_a, sa), vec_operand(data, d, nb, shape_b, sb)
    assert mul_vec(a, b, d) == reference_mul_vec(a, b, d)


@pytest.mark.parametrize("sa,sb", [(2, 3), (3, 2), (4, 6), (6, 4)])
@settings(deadline=None, max_examples=25)
@given(st.integers(1, 4), st.data())
def test_mul_vec_with_strides_that_do_not_divide(sa, sb, d, data):
    n, m = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 40))
    a, b = vec_operand(data, d, n, "strided", sa), vec_operand(data, d, m, "strided", sb)
    assert mul_vec(a, b, d) == reference_mul_vec(a, b, d)


def test_mul_vec_packs_only_the_classes_with_nonzero_rows(monkeypatch):
    """Two operands nonzero only in degrees 1 mod 4 take one product of the
    compressed rows; dense times stride 4 takes one per class."""
    lengths = []   # the rows packed into each Kronecker product, 3 slots a row at d = 2
    real = polyarith.mul
    monkeypatch.setattr(polyarith, "mul",
                        lambda a, b, *rest: lengths.append((len(a) // 3, len(b) // 3)) or real(a, b, *rest))
    sparse = [[i, 1] if i % 4 == 1 else [0, 0] for i in range(40)]
    dense = [[i, 1] for i in range(40)]
    assert mul_vec(sparse, sparse, 2) == reference_mul_vec(sparse, sparse, 2)
    assert lengths == [(10, 10)]
    lengths.clear()
    assert mul_vec(dense, sparse, 2) == reference_mul_vec(dense, sparse, 2)
    assert lengths == [(10, 10)] * 4
    lengths.clear()
    assert mul_vec(dense, dense, 2) == reference_mul_vec(dense, dense, 2)
    assert lengths == [(40, 40)]


# -- truncated products --------------------------------------------------------

REGIMES = ("one", "residue")


def _one_regime(mp, regime):
    """mul forced onto one regime, the crossover of the other moved out of
    the way."""
    never = 1 << 62
    for name in ("_RESIDUE_BYTES", "_RESIDUE_COEFFS", "_RESIDUE_SLOT"):
        mp.setattr(polyarith, name, never if regime == "one" else 0)


def _reduced(c, mod):
    """c, or each coefficient of it mod `mod`."""
    return c if mod is None else [x % mod for x in c]


def _regime_moduli(regime, bound):
    """The moduli a test of one regime draws: the residue regime serves only
    products mod a modulus, the one-product regime also exact ones."""
    return _moduli(bound) if regime == "residue" else st.one_of(st.none(), _moduli(bound))


def _keeps(data, full):
    """1, a length up to the full one, the full length, or a length past it."""
    return data.draw(st.one_of(st.just(1), st.integers(1, full), st.just(full),
                               st.integers(full + 1, full + 5)))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(REGIMES), st.sampled_from([1, 70, 3000]), st.data())
def test_truncated_mul_is_the_full_product_cut(regime, bits, data):
    """mul(a, b, keep, mod) == mul(a, b, None, mod)[:keep] in each regime, mod
    a modulus (or exactly, in the one-product regime): signed, zero and
    extreme coefficients, sparse factors, and factors of unequal lengths
    (so that keep falls before, inside and past the shorter one), in both
    argument orders."""
    top = 2**bits - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    sparse = st.sampled_from([0, 0, 0, top, -top])
    a = data.draw(st.lists(coeff, min_size=1, max_size=13))
    b = data.draw(st.one_of(st.lists(coeff, min_size=1, max_size=13), st.lists(sparse, min_size=14, max_size=40)))
    keep = _keeps(data, len(a) + len(b) - 1)
    mod = data.draw(_regime_moduli(regime, top * top * 13))
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        full = mul(a, b, None, mod)
        got, swapped = mul(a, b, keep, mod), mul(b, a, keep, mod)
    assert full == _reduced(ref_mul(a, b), mod)
    assert got == swapped == full[:keep]


@pytest.mark.parametrize("regime", REGIMES)
def test_truncation_at_the_slot_boundary(regime, monkeypatch):
    """7 * 31 * 151 = 2^15 - 1 with alternating signs: the slot below the
    cut and the one above it fill to +-(half - 1), so the last slot read
    borrows from, or lends to, one that is not read; at every keep, exactly
    and mod a modulus in the one-product regime, mod one in the residue
    regime."""
    _one_regime(monkeypatch, regime)
    moduli = (3**20, 2**15 - 1) if regime == "residue" else (None, 3**20, 2**15 - 1)
    for n in range(1, 20):
        for sign in (1, -1):
            a, b = [31 * sign**i for i in range(n)], [-151 * sign**i for i in range(7)]
            for mod in moduli:
                full = _reduced(ref_mul(a, b), mod)
                for keep in range(1, len(full) + 2):
                    assert mul(a, b, keep, mod) == mul(b, a, keep, mod) == full[:keep]


def test_truncated_one_product_packs_only_the_blocks_below_keep(monkeypatch):
    """A longer factor of three blocks with keep inside the first: one block
    is packed and multiplied, and only the kept slots are read."""
    _one_regime(monkeypatch, "one")
    rng = random.Random(3)
    a = [rng.randint(-(2**90), 2**90) for _ in range(30)]
    b = [rng.randint(-(2**90), 2**90) for _ in range(10)]
    read, real = [], polyarith._unpack
    monkeypatch.setattr(polyarith, "_unpack", lambda x, out, slots, *rest: read.append(slots) or real(x, out, slots, *rest))
    assert mul(a, b, 7) == ref_mul(a, b)[:7]
    assert read == [range(0, 7)]
    read.clear()
    assert mul(a, b, 15) == ref_mul(a, b)[:15]
    assert read == [range(0, 15), range(10, 15)]


def test_truncated_point_series_product_convolves_and_lifts_61_rows(monkeypatch):
    """The D = 60 compositions' product, 61 by 61 coefficients of 3263 bits
    kept to degree 60 mod 3^2059, convolves and rebuilds 61 rows, not 121."""
    rng = random.Random(61)
    a, b = ([rng.randint(-(2**3263), 2**3263) for _ in range(61)] for _ in range(2))
    q = 3**2059
    full = mul(a, b, None, q)
    convolved, lifted = [], []
    real_convolve, real_lift = polyarith._convolve, polyarith._crt_lift

    def convolve(*args):
        c = real_convolve(*args)
        convolved.append(len(c))
        return c

    monkeypatch.setattr(polyarith, "_convolve", convolve)
    monkeypatch.setattr(polyarith, "_crt_lift", lambda v, *rest: lifted.append(len(v)) or real_lift(v, *rest))
    assert mul(a, b, 61, q) == full[:61] == [c % q for c in ref_mul(a, b)[:61]]
    assert convolved == [61] and sum(lifted) == 61


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(REGIMES), st.integers(1, 3), shapes, shapes, st.sampled_from([2, 3, 4]),
       st.sampled_from([2, 3, 4]), st.data())
def test_truncated_mul_vec_is_the_full_product_cut(regime, d, shape_a, shape_b, sa, sb, data):
    """mul_vec(a, b, d, rows, mod) == mul_vec(a, b, d, None, mod)[:rows] for
    dense, strided (strides 2, 3 and 4), single-row and zero operands, in
    each regime, mod a modulus (or exactly, in the one-product regime); and
    both agree with packing every row."""
    a = vec_operand(data, d, data.draw(st.integers(1, 30)), shape_a, sa)
    b = vec_operand(data, d, data.draw(st.integers(1, 30)), shape_b, sb)
    rows = _keeps(data, len(a) + len(b) - 1)
    mod = data.draw(_regime_moduli(regime, 2**6000 * d * 30))
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        full = mul_vec(a, b, d, None, mod)
        got = mul_vec(a, b, d, rows, mod)
    assert got == full[:rows] == reference_mul_vec(a, b, d, rows, mod)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(REGIMES), st.integers(1, 3), shapes, st.sampled_from([2, 3, 4]), st.data())
def test_prepared_operand_products_match_the_packing_of_every_row(regime, d, shape_b, sb, data):
    """One Operand multiplies several left factors, dense or strided, kept to
    rows in any order, shorter cuts first or last, and mod a modulus (or not,
    in the one-product regime): every product is the plain one, whatever its
    memo holds from the last."""
    b = vec_operand(data, d, data.draw(st.integers(1, 30)), shape_b, sb)
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        op = polyarith.Operand(b, d)
        for _ in range(data.draw(st.integers(1, 4))):
            a = vec_operand(data, d, data.draw(st.integers(1, 30)), data.draw(shapes), data.draw(st.sampled_from([2, 4])))
            rows = _keeps(data, len(a) + len(b) - 1)
            mod = data.draw(st.sampled_from([3**20, 5**7] + ([None] if regime == "one" else [])))
            assert mul_vec(a, op, d, rows, mod) == reference_mul_vec(a, b, d, rows, mod)


def test_prepared_operand_keeps_each_cut_apart(monkeypatch):
    """A prepared factor cut short by one product and whole in the next, in
    either regime, exactly and mod q: its memo keeps the packing and
    residues of each cut apart."""
    rng = random.Random(20)
    a, b = ([[rng.randint(-(2**300), 2**300)] for _ in range(20)] for _ in range(2))
    for regime in REGIMES:
        for mod in (None, 3**400):
            with pytest.MonkeyPatch.context() as mp:
                _one_regime(mp, regime)
                op = polyarith.Operand(b, 1)
                for rows in (3, 39, 3, 10):
                    assert mul_vec(a, op, 1, rows, mod) == reference_mul_vec(a, b, 1, rows, mod)


# -- products mod a modulus ------------------------------------------------------


def _moduli(bound):
    """1, p^N, a modulus that is no prime power, or one past the coefficient
    bound, so that negative coefficients wrap."""
    return st.one_of(st.just(1), st.builds(pow, st.sampled_from([3, 5, 7]), st.integers(1, 400)),
                     st.builds(lambda e: 6 * 5**e, st.integers(0, 300)), st.integers(bound + 1, 2 * bound + 2))


@settings(deadline=None, max_examples=300)
@given(st.sampled_from(REGIMES), st.sampled_from([1, 70, 3000]), st.data())
def test_mul_mod_is_the_exact_product_reduced(regime, bits, data):
    """mul(a, b, keep, mod) == [c % mod for c in mul(a, b, keep)] in each
    regime: signed, zero and extreme coefficients, sparse and all-zero
    factors, every keep, in both argument orders."""
    top = 2**bits - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    a = data.draw(st.one_of(st.lists(coeff, min_size=1, max_size=13), st.lists(st.just(0), min_size=1, max_size=5)))
    b = data.draw(st.one_of(st.lists(coeff, min_size=1, max_size=13),
                            st.lists(st.sampled_from([0, 0, 0, top, -top]), min_size=14, max_size=40)))
    keep = _keeps(data, len(a) + len(b) - 1)
    mod = data.draw(_moduli(top * top * min(len(a), len(b))))
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        exact = mul(a, b, keep)
        got, swapped = mul(a, b, keep, mod), mul(b, a, keep, mod)
    assert exact == ref_mul(a, b)[:keep]
    assert got == swapped == [c % mod for c in exact]


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(REGIMES), st.sampled_from([1, 2, 4]), shapes, shapes, st.sampled_from([2, 3, 4]),
       st.sampled_from([2, 3, 4]), st.data())
def test_mul_vec_mod_is_the_exact_product_reduced(regime, d, shape_a, shape_b, sa, sb, data):
    """mul_vec(a, b, d, rows, mod) against the exact product of every row
    packed, reduced mod `mod` after it: dense, strided, single-row and zero
    operands, in each regime."""
    a = vec_operand(data, d, data.draw(st.integers(1, 30)), shape_a, sa)
    b = vec_operand(data, d, data.draw(st.integers(1, 30)), shape_b, sb)
    rows = _keeps(data, len(a) + len(b) - 1)
    mod = data.draw(_moduli(2**6000 * d * min(len(a), len(b))))
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        got = mul_vec(a, b, d, rows, mod)
    assert got == reference_mul_vec(a, b, d, rows, mod)


def _fewest_primes(bound):
    """The fewest primes whose product M exceeds 2 bound: _prime_count
    without its rounding up."""
    m = 1
    for k, p in enumerate(polyarith._primes().tolist()):
        if m > 2 * bound:
            return k
        m *= p


@pytest.mark.parametrize("k", [1, 2, 4, 7])
def test_mul_mod_at_the_explicit_crt_margin(k, monkeypatch):
    """Products whose largest coefficient is +-bound, with bound below
    M_k / 2 and above M_k / 4, M_k the product of the first k primes: factors
    of +-top with n top^2 = bound, and the single coefficients
    +-(M_k - 1) / 2 times +-1. The mod path takes the fewest primes with
    M > 4 bound, k + 1, so that sum x_i / p_i lies within 1/4 of an
    integer. With only k primes it would lie within 2^-28 of a half at
    +-(M_k - 1) / 2, where rint may take either side."""
    _residues_everywhere(monkeypatch)
    monkeypatch.setattr(polyarith, "_prime_count", _fewest_primes)
    counts, real = [], polyarith._crt_table
    monkeypatch.setattr(polyarith, "_crt_table", lambda k, mod: counts.append((k, mod)) or real(k, mod))
    m = prod(polyarith._primes()[:k].tolist())
    x = (m - 1) // 2
    cases = [([x], [1]), ([-x], [1]), ([x], [-1]), ([x, -x, x], [1]), ([x - 1, 1 - x], [-1])]
    for n in (1, 3, 7):
        top = isqrt(x // n)
        cases += [([top] * n, [top] * n), ([top] * n, [-top] * n),
                  ([(-1) ** i * top for i in range(n)], [(-1) ** (i + 1) * top for i in range(n)])]
    for a, b in cases:
        exact = ref_mul(a, b)
        bound = max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))
        assert max(map(abs, exact)) == bound and 4 * bound > m > 2 * bound
        for mod in (3**400, 6 * 5**100, m, 2 * bound + 1):
            counts.clear()
            assert mul(a, b, None, mod) == mul(b, a, None, mod) == [c % mod for c in exact]
            assert counts == [(k + 1, mod)] * 2


@settings(deadline=None, max_examples=150)
@given(polys, st.lists(ints, max_size=5))
def test_monic_reduction(a, low):
    m = low + [1]
    quo, rem = divmod_monic(a, m)
    assert rem == ref_rem(a, m) == rem_monic(a, m)
    assert len(rem) == len(m) - 1
    back = ref_mul(quo, m) + [0] * len(a)
    assert [x + y for x, y in zip(back, truncate(rem, len(back)))][: len(a)] == truncate(a, len(a))


@settings(deadline=None, max_examples=100)
@given(polys, st.integers(1, 6))
def test_group_ring_modulus_reduces_as_the_cyclic_fold(a, d):
    folded = [0] * d
    for i, c in enumerate(a):
        folded[i % d] += c
    assert rem_monic(a, [-1] + [0] * (d - 1) + [1]) == folded


@pytest.mark.parametrize("p,n", [(3, -1), (3, 0), (3, 2), (5, 1), (7, 1)])
def test_tower_modulus_is_phi(p, n):
    t = build_tower(p, 1, max(n, 0), 4)
    assert list(t.modulus(n)) == ([-1, 1] if n == -1 else phi_coeffs(p, n))


def test_truncate_cuts_and_pads():
    assert truncate([1, 2, 3], 2) == [1, 2]
    assert truncate((1,), 3) == [1, 0, 0]
    assert truncate([], 0) == []


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([3, 5, 7]), st.lists(st.integers(0, 6), max_size=8),
       st.lists(st.integers(0, 6), max_size=8))
def test_xgcd_bezout_identity(p, a, b):
    g, s, t = xgcd_fp(a, b, p)
    if not any(x % p for x in a + b):
        assert (g, s, t) == ([], [], [])
        return
    assert g[-1] == 1
    sa, tb = ref_mul(s, a), ref_mul(t, b)
    n = max(len(sa), len(tb), len(g))
    combo = [(x + y) % p for x, y in zip(truncate(sa, n), truncate(tb, n))]
    assert combo == truncate(g, n)
    for f in (a, b):   # g divides both
        assert not any(x % p for x in ref_rem(f, g))


@settings(deadline=None, max_examples=150)
@given(st.sampled_from([3, 5, 7]), st.integers(1, 12), st.lists(st.integers(-50, 50), max_size=7),
       st.lists(st.integers(-50, 50), min_size=1, max_size=6))
def test_inverse_mod_a_monic(p, N, a, m):
    """inv_mod against the definition: a x = 1 in (Z/p^N)[x]/(m) exactly when
    a is prime to m mod p, and ZeroDivisionError otherwise."""
    m, q = m + [1], p**N
    if len(xgcd_fp(a, m, p)[0]) != 1:
        with pytest.raises(ZeroDivisionError):
            inv_mod(a, m, p, q)
        return
    x = inv_mod(a, m, p, q)
    assert len(x) == len(m) - 1 and all(0 <= c < q for c in x)
    assert [c % q for c in ref_rem(ref_mul(a, x), m)] == [1 % q] + [0] * (len(m) - 2)


# -- the arithmetic of (Z/q)[x]/(m) --------------------------------------------


def _quotient_ring(data):
    """(m, q): m monic of degree 1..6 with signed coefficients, and q = p,
    p^N or a modulus that is no prime power."""
    m = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6)) + [1]
    p = data.draw(st.sampled_from([3, 5, 7]))
    q = data.draw(st.one_of(st.just(p), st.builds(pow, st.just(p), st.integers(2, 300)),
                            st.builds(lambda e: 6 * 5**e, st.integers(0, 60))))
    return m, q


def _ring_factors(data):
    """Signed, zero, short and long factors, up to 3000-bit coefficients."""
    top = 2 ** data.draw(st.sampled_from([1, 70, 3000])) - 1
    coeff = st.one_of(st.integers(-top, top), st.sampled_from([top, -top, 0]))
    return data.draw(st.one_of(st.lists(coeff, max_size=14), st.lists(st.just(0), min_size=1, max_size=4)))


@settings(deadline=None, max_examples=300)
@given(st.data())
def test_ring_product_is_the_exact_product_reduced(data):
    """mul_mod(a, b, m, q) is rem_monic of the exact product, then % q."""
    m, q = _quotient_ring(data)
    a, b = _ring_factors(data), _ring_factors(data)
    assert mul_mod(a, b, m, q) == [c % q for c in rem_monic(ref_mul(a, b), m)]


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 40), st.data())
def test_ring_power_is_repeated_products(e, data):
    """pow_mod(a, e, m, q) against e products by the schoolbook, from 1."""
    m, q = _quotient_ring(data)
    a = _ring_factors(data)
    want = truncate([1 % q], len(m) - 1)
    for _ in range(e):
        want = [c % q for c in rem_monic(ref_mul(want, a), m)]
    assert pow_mod(a, e, m, q) == want


@settings(deadline=None, max_examples=100)
@given(st.sampled_from([3, 5, 7]), st.sampled_from([1, 2, 7, 64, 300]),
       st.one_of(st.just(0), st.integers(-10**30, 10**30)), st.integers(-10**30, 10**30),
       st.integers(-10**30, 10**30))
def test_teichmuller_at_degree_one_is_the_iterated_power(p, N, c, a1, t):
    """In (Z/q)[x]/(x - c), the lift of the class of a1 x + a0, whose value
    is u + p t for each unit residue u, against x -> x^p iterated on that
    value: starts of any size and sign, m = x included."""
    q = p**N
    for u in range(1, p):
        assert teichmuller([u + p * t - a1 * c, a1], [-c, 1], p, q) == [_iterated_teichmuller(p, N, u + p * t)]


# -- the rewritten ring products ----------------------------------------------

FIELDS = [(p, d) for p in (3, 5) for d in (1, 2, 4)]


def coords(data, n, q):
    return tuple(data.draw(st.integers(0, q - 1)) for _ in range(n))


@pytest.mark.parametrize("p,d", FIELDS)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_field_mul(p, d, data):
    fd = build_unramified(p, d, 6)
    a, b = coords(data, d, fd.q), coords(data, d, fd.q)
    q = p ** data.draw(st.integers(1, 6))
    assert fd.mul(a, b, q) == ref_field_mul(fd, a, b, q)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_field_reduce_divides_only_rows_longer_than_d(d, monkeypatch):
    """Rows of 1 to 2d - 1 signed coordinates, and zero rows, reduce as
    through rem_monic; only those longer than d are divided."""
    fd = build_unramified(3, d, 20)
    rng = random.Random(d)
    rows = [[rng.randint(-(3**40), 3**40) for _ in range(k)] for k in range(1, 2 * d)]
    rows += [[0] * k for k in range(1, 2 * d)]
    divided, real = [], unramified.rem_monic
    monkeypatch.setattr(unramified, "rem_monic", lambda c, m: divided.append(len(c)) or real(c, m))
    for q in (None, 3**5):
        expect = [tuple(x % (q or fd.q) for x in real(c, fd.modulus)) for c in rows]
        assert [fd.reduce(c, q) for c in rows] == expect
    assert len(divided) == 4 * (d - 1) and all(k > d for k in divided)


@pytest.mark.parametrize("p,d", FIELDS)
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_tower_mul(p, d, data):
    n = 1 if p == 3 else 0
    t = build_tower(p, d, n, 5)
    L, q = t.level_dim(n), t.q
    a = [coords(data, d, q) for _ in range(L)]
    b = [coords(data, d, q) for _ in range(L)]
    conv = [[0] * (2 * d - 1) for _ in range(2 * L - 1)]
    for i in range(L):
        for j in range(L):
            for k, c in enumerate(ref_mul(a[i], b[j])):
                conv[i + j][k] += c
    rows = [ref_rem(r, t.field.modulus) for r in conv]
    cols = [ref_rem(list(c), phi_coeffs(p, n)) for c in zip(*rows)]
    expect = [[x % q for x in r] for r in zip(*cols)]
    got = TowerElt(t, n, np.array(a, dtype=object)) * TowerElt(t, n, np.array(b, dtype=object))
    assert got.coords.tolist() == expect


@pytest.mark.parametrize("p,d", FIELDS)
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_series_mul(p, d, data):
    fd = build_unramified(p, d, 8)
    deg_a, deg_b = data.draw(st.integers(0, 7)), data.draw(st.integers(0, 7))
    pa, pb = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
    a = TruncSeries(fd, tuple(coords(data, d, p**pa) for _ in range(deg_a + 1)), 1, pa)
    b = TruncSeries(fd, tuple(coords(data, d, p**pb) for _ in range(deg_b + 1)), 2, pb)
    deg, q = min(deg_a, deg_b), p ** min(pa, pb)
    expect = [fd.zero()] * (deg + 1)
    for i in range(deg + 1):
        for j in range(deg + 1 - i):
            prod = ref_field_mul(fd, a.coeffs[i], b.coeffs[j], q)
            expect[i + j] = tuple((x + y) % q for x, y in zip(expect[i + j], prod))
    got = a * b
    assert got.coeffs == tuple(expect)
    assert (got.den, got.prec) == (3, min(pa, pb))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 3, 4]), st.data())
def test_strided_series_product_matches_reducing_every_row(stride, data):
    """At d = 2, series nonzero only in degrees f + k stride (the curve log
    and exp live in degrees 1 mod 4) multiply to rows that are zero off a
    stride: reduce sees only the rows nonzero mod the field's q, taken mod
    it, and the product is bit-identical to reducing every exact row."""
    fd, prec = build_unramified(3, 2, 20), data.draw(st.integers(1, 20))
    q = 3**prec

    def strided():
        f, deg = data.draw(st.integers(0, stride - 1)), data.draw(st.integers(0, 40))
        return TruncSeries(fd, tuple(coords(data, 2, q) if i % stride == f else fd.zero()
                                     for i in range(deg + 1)), 0, prec)

    a, b = strided(), strided()
    deg = min(a.deg, b.deg)
    rows = mul_vec(a.coeffs[:deg + 1], b.coeffs[:deg + 1], 2)[:deg + 1]
    expect = tuple(fd.reduce(c, q) for c in rows)
    reduced, real = [], unramified.FieldDesc.reduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(unramified.FieldDesc, "reduce",
                   lambda self, c, q=None: reduced.append(c) or real(self, c, q))
        got = a * b
    assert got.coeffs == expect
    rows = [[x % fd.q for x in c] for c in rows]   # q divides fd.q
    assert reduced == [c for c in rows if any(c)]


def _spy_moduli(monkeypatch, module, name):
    """The modulus each call of module.name (mul or mul_vec) passes, None for
    an exact product."""
    mods, real = [], getattr(module, name)
    sig = inspect.signature(real)

    def spy(*args, **kwargs):
        mods.append(sig.bind(*args, **kwargs).arguments.get("mod"))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return mods


def test_ring_products_pass_their_modulus(monkeypatch):
    """mul_mod, which serves O_k, the tower, the group ring and Z/q, passes
    q to mul where the product can take residues (factors of at least 7
    coefficients); below that it multiplies exactly and reduces each
    coefficient once, after the remainder by m. The minimal-polynomial
    product of build_unramified passes q to mul_vec."""
    fd = build_unramified(3, 2, 7)
    mods = _spy_moduli(monkeypatch, polyarith, "mul")
    a, b, m = [1, 2, 3], [4, -5], [1, 0, 1]
    assert mul_mod(a, b, m, 3**9) == [c % 3**9 for c in rem_monic(ref_mul(a, b), m)]
    fd.mul((1, 2), (3, 4))
    mul_mod((1, 2, 3), (4, 5, 6), [-1, 0, 0, 1], 5**4)   # in Z_5[F]/(F^3 - 1)
    a, b, m = list(range(-3, 5)), list(range(9, 2, -1)), [2, 0, 0, 0, 0, 0, 0, 0, 0, 1]
    assert mul_mod(a, b, m, 3**9) == [c % 3**9 for c in rem_monic(ref_mul(a, b), m)]
    assert mods == [None, None, None, 3**9]
    mods = _spy_moduli(monkeypatch, unramified, "mul_vec")
    unramified.build_unramified.__wrapped__(5, 3, 6)   # past its cache
    assert mods == [5**6] * 3


def test_formal_log_takes_its_products_mod_q(monkeypatch):
    """formal_log's Newton quotient and its last product pass q to mul, and
    reach the residue regime mod q at the point_series shape (D = 40,
    q = 3^980); only the exact integer series of the unit U are exact."""
    ss3, fd = curve.curve_from_preset("ss3", 3), build_unramified(3, 1, 980)
    q = 3**980
    mods = _spy_moduli(monkeypatch, curve, "mul")
    residues = []
    real = polyarith._mul_residues
    monkeypatch.setattr(polyarith, "_mul_residues", lambda *args: residues.append(args[-1]) or real(*args))
    curve.formal_log.__wrapped__(ss3, fd, 40, 980)   # past its cache
    assert mods.count(q) == 2 * (40).bit_length() + 1   # two products per Newton step, one last
    assert set(mods) == {None, q}
    assert residues and set(residues) == {q}


@pytest.mark.parametrize("p,d", FIELDS)
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_group_ring_mul(p, d, data):
    q = p**5
    a, b = coords(data, d, q), coords(data, d, q)
    assert mul_mod(a, b, [-1] + [0] * (d - 1) + [1], q) == [x % q for x in ref_cyclic(a, b, d)]


def _series_cache_clear():
    for f in (curve.formal_log, honda.honda_log, honda.honda_exp):
        f.cache_clear()


@pytest.fixture
def fresh_series_caches():
    _series_cache_clear()
    yield
    _series_cache_clear()


def _bundle_digits(d, D=30, target=6):
    b = honda.series_bundle(curve.curve_from_preset("ss3", 3), d, 0, D, target)
    parts = (b.curve_log, b.curve_exp, b.honda.series, b.honda_exp_series, b.forward,
             b.backward, b.curve_exp.compose(b.curve_log))
    return [(s.coeffs, s.den, s.prec) for s in parts], b.report, b


def _reference_series_products(monkeypatch):
    """Every series product taken by reference_mul_vec, the rows of a
    prepared right factor (polyarith.Operand) included: the counts of
    TruncSeries.__mul__ calls and of the products the reference took."""
    counts = {"mul": 0, "reference": 0}
    real_mul = TruncSeries.__mul__

    def reference(a, b, *rest):
        counts["reference"] += 1
        return reference_mul_vec(a, b.rows if isinstance(b, polyarith.Operand) else b, *rest)

    def series_mul(self, other):
        counts["mul"] += 1
        return real_mul(self, other)

    monkeypatch.setattr(series, "mul_vec", reference)
    monkeypatch.setattr(TruncSeries, "__mul__", series_mul)
    return counts


@pytest.mark.parametrize("d", [1, 2])
def test_series_bundle_is_bit_identical_to_packing_every_row(d, fresh_series_caches, monkeypatch):
    """The full_grid bundles, whose curve log and exp live in degrees 1 mod 4,
    come out the same whether series products skip the zero rows or not;
    the reference reaches every series product."""
    got = _bundle_digits(d)[:2]
    _series_cache_clear()
    counts = _reference_series_products(monkeypatch)
    assert _bundle_digits(d)[:2] == got
    assert counts["reference"] == counts["mul"] > 0


def _point_series_digits():
    """The point_series benchmark's first case: the bundle at d = 1, n = 0,
    D = 40 to 4 digits, its local point to 3 digits and a torsion probe."""
    digits, report, b = _bundle_digits(1, 40, 4)
    lp = localpoints.local_point_direct(b, 0, 3)
    point = [(x.coords.tolist(), x.den, x.prec) for x in (lp.log_value, lp.param_value)]
    return digits, report, point, lp.effective_prec, lp.report, localpoints.torsion_probe(b, 0, trials=4, seed=7)


def test_point_series_bundle_is_bit_identical_to_reducing_the_exact_product(fresh_series_caches, monkeypatch):
    """Series products taken mod the field's q by the explicit CRT give the
    same bundle, local point and probe as the exact products of every row,
    each reduced after it."""
    mods = []
    real = polyarith._mul_residues
    monkeypatch.setattr(polyarith, "_mul_residues",
                        lambda *args: mods.append(args[-1]) or real(*args))
    got = _point_series_digits()
    assert mods and None not in mods   # the products reach the residue regime, each mod q
    _series_cache_clear()
    counts = _reference_series_products(monkeypatch)
    assert _point_series_digits() == got
    assert counts["reference"] == counts["mul"] > 0
