"""Differential tests of the Horner loops, which multiply by one prepared
right factor (`polyarith.Operand`): `TruncSeries.compose`, the Newton steps
of `TruncSeries.reversion` and `eval_series_at_tower`, each against a
verbatim copy, kept here, of the code that multiplied by plain rows,
aligned every coefficient and reduced the tower products exactly."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_polyarith import REGIMES, _one_regime

from normtower import series, tower
from normtower.localpoints import eval_series_at_tower
from normtower.polyarith import mul_vec, rem_monic
from normtower.series import TruncSeries
from normtower.tower import TowerElt, build_tower, tower_scalar, tower_zero
from normtower.unramified import build_unramified

N = 12  # the fields' precision; series and tower values are stored at most mod p^N

# -- verbatim copies of the loops as they were ---------------------------------


def reference_align(self, other):
    den = max(self.den, other.den)
    prec = min(self.prec + den - self.den, other.prec + den - other.den)
    q = self.field.p**prec
    sa = self.p ** (den - self.den)
    sb = self.p ** (den - other.den)
    a = [tuple(x * sa % q for x in c) for c in self.coeffs]
    b = [tuple(x * sb % q for x in c) for c in other.coeffs]
    return a, b, den, prec, q


def reference_add(self, other):
    deg = min(self.deg, other.deg)
    a, b, den, prec, q = reference_align(self.truncate(deg), other.truncate(deg))
    co = tuple(self.field.add(x, y, q) for x, y in zip(a, b))
    return TruncSeries(self.field, co, den, prec)


def reference_sub(self, other):
    deg = min(self.deg, other.deg)
    a, b, den, prec, q = reference_align(self.truncate(deg), other.truncate(deg))
    co = tuple(self.field.sub(x, y, q) for x, y in zip(a, b))
    return TruncSeries(self.field, co, den, prec)


def reference_series_mul(self, other):
    deg = min(self.deg, other.deg)
    prec = min(self.prec, other.prec)
    q = self.field.p**prec
    # mod a power of p that q divides, the same for every product of the field
    conv = mul_vec(self.coeffs[: deg + 1], other.coeffs[: deg + 1], self.field.d, deg + 1, max(q, self.field.q))
    zero = self.field.zero()  # the rows off a strided product's stride are zero
    out = tuple(self.field.reduce(c, q) if any(c) else zero for c in conv)
    return TruncSeries(self.field, out, self.den + other.den, prec)


def reference_compose(self, inner):
    """self(inner); inner must have zero constant term."""
    assert not any(inner.coeffs[0]), "inner series must vanish at 0"
    deg = min(self.deg, inner.deg)
    f = self.truncate(deg)
    g = inner.truncate(deg)
    acc = TruncSeries.zero(self.field, deg, max(f.prec, g.prec))
    for j in range(deg, -1, -1):
        acc = reference_series_mul(acc, g).canonical()
        cj = TruncSeries(self.field, (f.coeffs[j],) + tuple(self.field.zero() for _ in range(deg)),
                         f.den, f.prec)
        acc = reference_add(acc, cj).canonical()
    return acc


def reference_reversion(self):
    p = self.p
    assert not any(self.coeffs[0]), "reversion needs zero constant term"
    lead = self.field.divp_exact(self.coeffs[1], self.den)
    c1inv = self.field.inv(lead, p ** (self.prec - self.den))
    deg = self.deg
    wprec = self.prec - self.den
    E = TruncSeries.identity(self.field, deg, wprec).scale_field(c1inv)
    Q = TruncSeries(self.field,
                    (c1inv,) + tuple(self.field.zero() for _ in range(deg)),
                    0, wprec)
    lprime = self.derivative()
    two = TruncSeries(self.field,
                      (self.field.from_int(2, p**wprec),)
                      + tuple(self.field.zero() for _ in range(deg)),
                      0, wprec)
    good = 1
    while good < deg:
        good2 = min(2 * good + 1, deg)
        lk = self.truncate(good2).pad(good2)
        Ek = E.truncate(good2).pad(good2)
        dT = reference_compose(lprime.truncate(good2).pad(good2), Ek)
        Q = Q.truncate(good2).pad(good2)
        two_k = two.truncate(good2).pad(good2)
        for _ in range(2):
            Q = reference_series_mul(Q, reference_sub(two_k, reference_series_mul(dT, Q))).canonical().pad(good2)
        T = reference_compose(lk, Ek)
        delta = reference_sub(T, TruncSeries.identity(self.field, good2, T.prec)).canonical().pad(good2)
        E = reference_sub(Ek, reference_series_mul(delta, Q)).canonical().pad(deg)
        good = good2
    return E.truncate(deg)


def reference_tower_mul(self, other):
    assert self.level == other.level
    n = self.level
    t = self.tower
    prec = min(self.prec, other.prec)
    conv = mul_vec(self.coords.tolist(), other.coords.tolist(), t.d)
    # eta-powers past the basis by Phi_{p^(n+1)}, one zeta-power at a time,
    # then zeta-powers past the basis by zeta's modulus, one eta-power at a time
    cols = [rem_monic(c, t.modulus(n)) for c in zip(*conv)]
    out = np.array([t.field.reduce(row, self.p**prec) for row in zip(*cols)], dtype=object)
    return TowerElt(t, n, out, self.den + other.den, prec)


def reference_eval(s, x, vmin):
    assert x.den == 0, "evaluate at integral arguments"
    t = x.tower
    acc = tower_zero(t, x.level, prec=min(s.prec, x.prec))
    for j in range(s.deg, -1, -1):
        acc = reference_tower_mul(acc, x)
        if any(s.coeffs[j]):
            acc = acc + tower_scalar(t, x.level, s.coeffs[j], prec=acc.prec)
    tail_floor = math.floor((s.deg + 1) * vmin) - s.den
    return acc.div_p(s.den) if s.den else acc, tail_floor


# -- inputs ----------------------------------------------------------------------

def _field(data):
    return build_unramified(data.draw(st.sampled_from([3, 5])), data.draw(st.sampled_from([1, 2])), N)


def _element(data, fd, q, unit=False):
    """Coordinates in [0, q), often zero; a unit's first is prime to p."""
    if not unit and data.draw(st.integers(0, 3)) == 0:
        return fd.zero()
    c = [data.draw(st.integers(0, q - 1)) for _ in range(fd.d)]
    if unit and c[0] % fd.p == 0:
        c[0] += 1
    return tuple(x % q for x in c)


def _series(data, fd, deg, shape, inner=False, den=None, prec=None):
    """A canonical series of degree deg: dense, or nonzero only in degrees
    1 + k s (s = 2 or 4, as the ss3 log and exp), or only up to a random
    degree, its coefficients times a random power of p so that products
    may vanish mod p^prec."""
    p = fd.p
    prec = data.draw(st.integers(1, N)) if prec is None else prec
    den = data.draw(st.integers(0, 3)) if den is None else den
    q, v = p**prec, data.draw(st.integers(0, 2))
    stride = data.draw(st.sampled_from([2, 4])) if shape == "strided" else 1
    top = data.draw(st.integers(0, deg)) if shape == "low" else deg
    co = []
    for j in range(deg + 1):
        live = j <= top and (j % stride == 1 if stride > 1 else True) and not (inner and j == 0)
        co.append(tuple(x * p**v % q for x in _element(data, fd, q)) if live else fd.zero())
    return TruncSeries(fd, tuple(co), den, prec).canonical()


shapes = st.sampled_from(["dense", "strided", "low"])


def _digits(s):
    return s.coeffs, s.den, s.prec


def _stored_in_range(s):
    q = s.p**s.prec
    return all(0 <= x < q for c in s.coeffs for x in c)


# -- compose, reversion and tower evaluation -------------------------------------


@settings(deadline=None, max_examples=300)
@given(shapes, shapes, st.data())
def test_sums_and_differences_match_aligning_every_coefficient(shape_a, shape_b, data):
    """Mixed den and prec: a side whose scale factor is 1 keeps its
    coefficients only at its own prec, and a zero addend is skipped."""
    fd = _field(data)
    a = _series(data, fd, data.draw(st.integers(0, 8)), shape_a)
    b = _series(data, fd, data.draw(st.integers(0, 8)), shape_b)
    for got, expect in ((a + b, reference_add(a, b)), (b + a, reference_add(b, a)),
                        (a - b, reference_sub(a, b))):
        assert _digits(got) == _digits(expect)
        assert _stored_in_range(got)


@settings(deadline=None, max_examples=150)
@given(st.sampled_from(REGIMES), shapes, shapes, st.data())
def test_compose_matches_the_loop_of_plain_products(regime, outer_shape, inner_shape, data):
    fd = _field(data)
    deg = data.draw(st.integers(0, 14))
    f = _series(data, fd, deg, outer_shape)
    g = _series(data, fd, data.draw(st.integers(1, 14)), inner_shape, inner=True)
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        got = f.compose(g)
        expect = reference_compose(f, g)
    assert _digits(got) == _digits(expect)
    assert _stored_in_range(got)


@settings(deadline=None, max_examples=80)
@given(st.sampled_from(REGIMES), st.sampled_from(["dense", "strided"]), st.data())
def test_reversion_matches_the_loop_of_plain_products(regime, shape, data):
    """Series c1 X + ..., c1 p^den times a unit, dense or in degrees 1 mod 2
    or 4: each Newton step prepares its iterate once for both compositions."""
    fd = _field(data)
    p, deg = fd.p, data.draw(st.integers(1, 12))
    den = data.draw(st.integers(0, 2))
    prec = data.draw(st.integers(den + 1, N))
    rest = _series(data, fd, deg, shape, inner=True, den=0, prec=prec)
    q = p**prec
    c1 = tuple(x * p**den % q for x in _element(data, fd, q, unit=True))
    l = TruncSeries(fd, (fd.zero(), c1) + rest.coeffs[2:], den, prec).canonical()
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        got = l.reversion()
        expect = reference_reversion(l)
    assert _digits(got) == _digits(expect)
    assert _stored_in_range(got)


# degrees with D + 1 a perfect square (one full last block) or one above one
# (a last block of one coefficient), and any degree up to 40
degrees = st.one_of(st.sampled_from([k * k - 1 for k in range(1, 7)] + [k * k for k in range(1, 7)]),
                    st.integers(0, 40))


def _with_a_zero_block(data, s):
    """s, or s with one of its evaluation blocks of k = ceil(sqrt(deg + 1))
    coefficients set to zero."""
    k = math.isqrt(s.deg) + 1
    if data.draw(st.booleans()):
        return s
    i = data.draw(st.integers(0, s.deg // k))
    co = list(s.coeffs)
    co[i * k:(i + 1) * k] = [s.field.zero()] * len(co[i * k:(i + 1) * k])
    return TruncSeries(s.field, tuple(co), s.den, s.prec)


@settings(deadline=None, max_examples=200)
@given(st.sampled_from(REGIMES), st.sampled_from([-1, 0, 1]), shapes, degrees, st.data())
def test_tower_evaluation_matches_the_loop_of_exact_products(regime, level, shape, deg, data):
    """Paterson-Stockmeyer against Horner's loop: several blocks, a partial
    last block, D + 1 a square or one above one, a zero block, den > 0, d in
    {1, 2} and levels -1, 0 and 1, with coordinates, den, prec and tail floor
    equal."""
    fd = _field(data)
    p = fd.p
    t = build_tower(p, fd.d, max(level, 0), N)
    s = _with_a_zero_block(data, _series(data, fd, deg, shape))
    prec = data.draw(st.integers(1, N))
    x = TowerElt(t, level, np.array([_element(data, fd, p**prec) for _ in range(t.level_dim(level))],
                                    dtype=object), 0, prec)
    vmin = Fraction(1, (p - 1) * p ** max(level, 0))
    with pytest.MonkeyPatch.context() as mp:
        _one_regime(mp, regime)
        got, floor = eval_series_at_tower(s, x, vmin)
        expect, expect_floor = reference_eval(s, x, vmin)
    assert (got.coords.tolist(), got.den, got.prec, floor) == \
        (expect.coords.tolist(), expect.den, expect.prec, expect_floor)


def test_compose_keeps_the_zero_branch_of_canonical(monkeypatch):
    """An outer series with den > 0 whose top coefficients vanish: the
    accumulator is zero with den > 0 for the first steps, canonical's zero
    branch sets its den to 0 at the same prec (ROADMAP item 2b), and the
    loop comes out as the loop of plain products, through as many zero
    branches."""
    fd = build_unramified(3, 2, N)
    one, zero = fd.one(3**8), fd.zero()
    f = TruncSeries(fd, (one, (5, 7), zero, zero, zero, zero), 2, 8)
    g = TruncSeries(fd, (zero, (1, 2), zero, (4, 0), zero, zero), 1, 9)
    zeros, real = [], TruncSeries.canonical

    def canonical(s):
        if s.den and not any(map(any, s.coeffs)):
            zeros.append((s.den, s.prec))
        return real(s)

    monkeypatch.setattr(TruncSeries, "canonical", canonical)
    got = f.compose(g)
    hits = list(zeros)
    zeros.clear()
    expect = reference_compose(f, g)
    assert hits and hits == zeros
    assert _digits(got) == _digits(expect)


# -- preparations ------------------------------------------------------------------


def _count_preparations(monkeypatch):
    made = []
    for module in (series, tower):
        real = module.Operand
        monkeypatch.setattr(module, "Operand", lambda rows, d, real=real: made.append(len(rows)) or real(rows, d))
    return made


def test_each_loop_prepares_its_fixed_factor_once(monkeypatch):
    """One preparation per compose call, one per Newton step of reversion,
    shared by that step's two compositions, and one per tower evaluation."""
    made = _count_preparations(monkeypatch)
    fd = build_unramified(3, 1, 40)
    rng = random.Random(5)
    q = 3**40
    l = TruncSeries(fd, (fd.zero(), fd.one(q)) + tuple((rng.randrange(q),) for _ in range(19)), 0, 40)
    f = TruncSeries(fd, tuple((rng.randrange(q),) for _ in range(21)), 0, 40)

    f.compose(l)
    assert made == [21]
    made.clear()

    composed, real_compose = [], TruncSeries.compose
    monkeypatch.setattr(TruncSeries, "compose", lambda s, g: composed.append(g) or real_compose(s, g))
    l.reversion()
    steps = 4   # good = 1, 3, 7, 15, 20
    assert len(made) == steps and len(composed) == 2 * steps
    assert all(g._operand is not None for g in composed)
    assert all(a is b for a, b in zip(composed[::2], composed[1::2]))   # l' and l by one E_k
    made.clear()

    t = build_tower(3, 1, 1, 40)
    x = TowerElt(t, 1, np.array([[3 * rng.randrange(q)] for _ in range(6)], dtype=object))
    eval_series_at_tower(f, x, Fraction(1, 6))
    assert made == [6, 6]   # x for the baby steps, x^k for the giant steps


@pytest.mark.parametrize("D,products", [(0, 0), (1, 1), (2, 2), (3, 2), (8, 4), (9, 5), (40, 11),
                                        (60, 14), (90, 18), (300, 33)])
def test_evaluation_makes_the_paterson_stockmeyer_count_of_tower_products(D, products, monkeypatch):
    """(k - 1) + (ceil((D + 1)/k) - 1) tower products for k = ceil(sqrt(D + 1)):
    k - 1 baby steps and one giant step per block after the top one."""
    k = math.isqrt(D) + 1
    assert (k - 1) + (-(-(D + 1) // k) - 1) == products
    fd = build_unramified(3, 1, 20)
    rng = random.Random(D)
    q = 3**20
    s = TruncSeries(fd, tuple((rng.randrange(q),) for _ in range(D + 1)), 0, 20)
    t = build_tower(3, 1, 1, 20)
    x = TowerElt(t, 1, np.array([[3 * rng.randrange(q)] for _ in range(6)], dtype=object))
    calls, real = [], TowerElt.__mul__
    monkeypatch.setattr(TowerElt, "__mul__", lambda a, b: calls.append(1) or real(a, b))
    got, _ = eval_series_at_tower(s, x, Fraction(1, 6))
    assert len(calls) == products
    monkeypatch.setattr(TowerElt, "__mul__", real)
    assert got.coords.tolist() == reference_eval(s, x, Fraction(1, 6))[0].coords.tolist()


def test_a_prepared_factor_of_higher_degree_multiplies_as_its_rows():
    """A prepared series times a shorter series, on either side: the
    product keeps the shorter degree, as the plain product does; and a copy
    made by replace carries no prepared operand."""
    fd = build_unramified(3, 2, 10)
    rng = random.Random(6)
    q = 3**10
    g = TruncSeries(fd, tuple((rng.randrange(q), rng.randrange(q)) for _ in range(9)), 0, 10).prepared()
    a = TruncSeries(fd, tuple((rng.randrange(q), rng.randrange(q)) for _ in range(5)), 1, 8)
    assert _digits(a * g) == _digits(reference_series_mul(a, g))
    assert _digits(g * a) == _digits(reference_series_mul(g, a))
    assert replace(g, den=2)._operand is None


# -- tower products mod q ------------------------------------------------------------


@pytest.mark.parametrize("p,d,n", [(3, 1, 1), (3, 2, 1), (5, 2, 0), (3, 4, 0)])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_tower_products_mod_q_match_the_exact_product(p, d, n, data):
    """Tower products pass mod = max(p^prec, q) to mul_vec where they can
    take residues (at least 7 coordinates), and multiply exactly below that,
    each coordinate reduced once after the remainders; with signed
    coordinates in, and elements made by negation and subtraction, the
    product is the exact one reduced."""
    t = build_tower(p, d, n, 6)
    L = t.level_dim(n)

    def elt():
        prec = data.draw(st.integers(1, 9))
        c = [[data.draw(st.integers(-(p**9), p**9)) for _ in range(d)] for _ in range(L)]
        return TowerElt(t, n, np.array(c, dtype=object), data.draw(st.integers(0, 2)), prec), c

    (x, cx), (y, cy) = elt(), elt()
    seen, real = [], tower.mul_vec
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tower, "mul_vec", lambda a, b, dd, rows, mod: seen.append(mod) or real(a, b, dd, rows, mod))
        products = [(x * y, x, y), (-x * y, -x, y), ((x - y) * x, x - y, x)]
    prec = min(x.prec, y.prec)
    assert seen[0] == (max(p**prec, t.q) if L * d >= 7 else None)
    for got, a, b in products:
        assert got.coords.tolist() == reference_tower_mul(a, b).coords.tolist()
        assert (got.den, got.prec) == (a.den + b.den, min(a.prec, b.prec))
    # the signed coordinates as given, multiplied exactly and reduced at the end
    conv = mul_vec(cx, cy, d)
    cols = [rem_monic(c, t.modulus(n)) for c in zip(*conv)]
    assert products[0][0].coords.tolist() == [list(t.field.reduce(row, p**prec)) for row in zip(*cols)]
