from dataclasses import fields, replace
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from normtower import groupring
from normtower.polyarith import xgcd_fp
from normtower.groupring import (
    GroupRing,
    OmegaFamily,
    annihilator,
    annihilator_matches_closed_form,
    cyclotomic_phi,
    delta_of,
    is_unit,
    omega_family,
    one_plus_x_pow,
    phi_plus_phi_inv,
    poly_mul,
    poly_trim,
    q_values,
)
from normtower.snf import OMEGA_PRECISION


# The from-scratch construction that the memoised, level-by-level build
# replaced, kept verbatim (names prefixed) as the reference: exact over Z. The
# library keeps the families mod p^K, so they are compared with it reduced
# (`reduced_reference_omega_family`), as tests/test_lambda.py builds
# presentations with it.

def reference_one_plus_x_pow(e: int) -> list[int]:
    """(1 + X)^e as integer coefficients."""
    from math import comb

    return [comb(e, k) for k in range(e + 1)]


def reference_omega_n(p: int, n: int) -> list[int]:
    """(1+X)^(p^n) - 1."""
    out = reference_one_plus_x_pow(p**n)
    out[0] -= 1
    return out


def reference_cyclotomic_phi(p: int, m: int) -> list[int]:
    """Phi_m(1+X) = sum_{i<p} (1+X)^(i p^(m-1)), the p^m-th cyclotomic polynomial at 1+X."""
    if m < 1:
        raise ValueError("m >= 1")
    acc = [0]
    for i in range(p):
        term = reference_one_plus_x_pow(i * p ** (m - 1))
        acc = [x + y for x, y in zip(acc + [0] * len(term), term + [0] * len(acc))]
    return poly_trim(acc)


def reference_omega_family(p: int, n: int) -> OmegaFamily:
    """omega_n and its plus/minus factorizations; the identity
    omega_n = omega-tilde_n^(-/+) * omega_n^(+/-) is asserted exactly over Z."""
    if n < 0:
        raise ValueError("n >= 0")
    phis = [reference_cyclotomic_phi(p, m) for m in range(1, n + 1)]
    tp, tm = [1], [1]
    for m in range(1, n + 1):
        if m % 2 == 0:
            tp = poly_mul(tp, phis[m - 1])
        else:
            tm = poly_mul(tm, phis[m - 1])
    op = poly_trim(poly_mul([0, 1], tp))
    om = poly_trim(poly_mul([0, 1], tm))
    w = reference_omega_n(p, n)
    assert poly_trim(poly_mul(tm, op)) == poly_trim(w), "omega_n != tilde_minus * plus"
    assert poly_trim(poly_mul(tp, om)) == poly_trim(w), "omega_n != tilde_plus * minus"
    return OmegaFamily(
        p=p, n=n,
        omega=tuple(w),
        phis=tuple(tuple(f) for f in phis),
        omega_tilde_plus=tuple(poly_trim(tp)),
        omega_tilde_minus=tuple(poly_trim(tm)),
        omega_plus=tuple(op),
        omega_minus=tuple(om),
    )


def reduced_reference_omega_family(p: int, n: int) -> OmegaFamily:
    """reference_omega_family(p, n), its exact identities asserted over Z,
    with every polynomial then reduced mod p^K, as omega_family keeps them."""
    ref, q = reference_omega_family(p, n), p**OMEGA_PRECISION

    def red(f):
        return tuple(c % q for c in f)

    return replace(ref, omega=red(ref.omega), phis=tuple(map(red, ref.phis)),
                   omega_tilde_plus=red(ref.omega_tilde_plus),
                   omega_tilde_minus=red(ref.omega_tilde_minus),
                   omega_plus=red(ref.omega_plus), omega_minus=red(ref.omega_minus))


def test_phi_plus_inv_small_d():
    assert phi_plus_phi_inv(GroupRing(1, 3, 4)) == (2,)
    assert phi_plus_phi_inv(GroupRing(2, 3, 4)) == (0, 2)
    assert phi_plus_phi_inv(GroupRing(4, 3, 4)) == (0, 1, 0, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_unit_annihilator_dichotomy_exhaustive(p):
    for d in range(1, 17):
        ring = GroupRing(d=d, p=p, N=5)
        x = phi_plus_phi_inv(ring)
        unit, inv = is_unit(ring, x)
        assert unit == (d % 4 != 0)
        if unit:
            assert ring.mul(x, inv) == ring.one()
        _, rank = annihilator(ring, x)
        assert rank == (2 if d % 4 == 0 else 0)
        assert annihilator_matches_closed_form(ring)


def test_zero_divisor_product_when_d_divisible_by_4():
    from normtower.groupring import alternating_annihilator_generator

    for d in (4, 8, 12):
        ring = GroupRing(d=d, p=5, N=4)
        prod = ring.mul(phi_plus_phi_inv(ring), alternating_annihilator_generator(ring))
        assert ring.is_zero(prod)


def test_p_is_not_a_unit():
    ring = GroupRing(d=3, p=3, N=4)
    ok, _ = is_unit(ring, ring.from_int(3))
    assert not ok


# The unit test of Z_p[F]/(F^d - 1) before it shared the Newton inverse of
# polyarith with O_k, kept verbatim as the reference; `GroupRing.sub` and
# `GroupRing.scalar`, which only it read, are copied next to it.

def _reference_sub(ring, a, b):
    return tuple((x - y) % ring.q for x, y in zip(a, b))


def _reference_scalar(ring, c, a):
    return tuple((c * x) % ring.q for x in a)


def reference_is_unit(ring: GroupRing, a):
    """Unit test in Z_p[F]/(F^d - 1): unit iff unit mod p; Newton-lift the inverse."""
    d = ring.d
    g, u, _ = xgcd_fp(a, [-1] + [0] * (d - 1) + [1], ring.p)  # gcd with F^d - 1 over F_p
    if len(g) != 1:
        return False, None
    x = tuple((u + [0] * d)[:d])
    # Newton: x <- x(2 - a x)
    for _ in range(ring.N.bit_length() + 1):
        ax = ring.mul(a, x)
        x = ring.mul(x, _reference_sub(ring, _reference_scalar(ring, 2, ring.one()), ax))
    assert ring.mul(a, x) == ring.one(), "unit inversion failed to converge"
    return True, x


@st.composite
def group_ring_elements(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    d = draw(st.integers(1, 16))
    ring = GroupRing(d=d, p=p, N=draw(st.integers(1, 10)))
    a = tuple(draw(st.integers(0, ring.q - 1)) for _ in range(d))
    kind = draw(st.sampled_from(["uniform", "small", "times F - 1", "times p", "plus p"]))
    if kind == "small":  # entries mod p: zero divisors mod p are common
        a = tuple(x % p for x in a)
    elif kind == "times F - 1":  # never a unit: F - 1 divides F^d - 1
        a = ring.mul(a, ring.add(ring.F(1), ring.from_int(-1)))
    elif kind == "times p":
        a = ring.mul(a, ring.from_int(p))
    elif kind == "plus p":  # a unit u plus p times anything is a unit
        u = ring.F(draw(st.integers(0, d - 1)))
        a = ring.add(u, ring.mul(a, ring.from_int(p)))
    return ring, a


@settings(deadline=None, max_examples=400)
@given(group_ring_elements())
def test_is_unit_matches_reference(data):
    ring, a = data
    assert is_unit(ring, a) == reference_is_unit(ring, a)


def test_annihilator_of_zero_is_full_ring():
    ring = GroupRing(d=3, p=3, N=4)
    _, rank = annihilator(ring, ring.zero())
    assert rank == 3


def test_omega_family_p3():
    fam = omega_family(3, 2)
    assert len(fam.omega_plus) - 1 == 7
    assert len(fam.omega_tilde_minus) - 1 == 2
    assert fam.omega_plus[0] == 0 and fam.omega_plus[1] != 0  # X * tilde
    fam0 = omega_family(3, 0)
    assert fam0.omega_plus == (0, 1)
    assert fam0.omega_tilde_plus == (1,) and fam0.omega_tilde_minus == (1,)


@pytest.mark.parametrize("p,n_top", [(3, 6), (5, 4), (7, 3)])
def test_omega_degree_matches_q(p, n_top):
    # runtime-bounded grid: each level asserts its factorization identities by
    # exact products of degree about p^n whose coefficients have about p^n bits
    # (binomials C(p^n, k)), so the top level costs most; (5, 5) takes seconds
    for n in range(0, n_top + 1):
        fam = omega_family(p, n)
        _, qp, qm = q_values(p, n)
        assert len(fam.omega_plus) - 1 == qp
        assert len(fam.omega_tilde_minus) - 1 == qm


def test_q_values_p3():
    assert [q_values(3, n)[0] for n in range(4)] == [1, 2, 7, 20]
    assert q_values(3, -1) == (0, 0, 0)
    assert q_values(3, 2) == (7, 7, 2)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_q_plus_minus_sum(p):
    for n in range(0, 7):
        _, qp, qm = q_values(p, n)
        assert qp + qm == p**n


def test_phi_cyclotomic_value_at_zero():
    # Phi_m(1 + X) at X = 0 collapses to p
    for p in (3, 5):
        for m in (1, 2, 3):
            assert cyclotomic_phi(p, m)[0] == p


def test_delta_law():
    assert delta_of(4, True) == 2
    assert delta_of(4, False) == 0
    assert delta_of(6, True) == 0
    assert delta_of(8, True) == 2
    assert delta_of(1, True) == 0


@settings(deadline=None, max_examples=50)
@given(st.sampled_from([3, 5]), st.integers(1, 6),
       st.lists(st.integers(0, 200), min_size=1, max_size=6),
       st.lists(st.integers(0, 200), min_size=1, max_size=6))
def test_group_ring_commutative_associative(p, d, a_raw, b_raw):
    ring = GroupRing(d=d, p=p, N=4)
    a = tuple((a_raw * d)[:d])
    b = tuple((b_raw * d)[:d])
    assert ring.mul(a, b) == ring.mul(b, a)
    c = ring.F(1)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))


def test_out_of_range_arguments_raise():
    with pytest.raises(ValueError):
        one_plus_x_pow(-1)
    with pytest.raises(ValueError):
        cyclotomic_phi(3, 0)
    with pytest.raises(ValueError):
        omega_family(3, -1)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 500))
def test_binomial_rows_match_comb(e):
    assert one_plus_x_pow(e) == [comb(e, k) for k in range(e + 1)]


@pytest.mark.parametrize("p,n_top", [(3, 6), (5, 5), (7, 3), (11, 2)])
def test_omega_family_matches_reference(p, n_top):
    """The families mod p^K are the exact families reduced, at every (p, n)
    the shipped configs build (n <= 6 at p = 3, n <= 5 at p = 5)."""
    for n in range(n_top + 1):
        fam, ref = omega_family(p, n), reduced_reference_omega_family(p, n)
        for f in fields(OmegaFamily):
            assert getattr(fam, f.name) == getattr(ref, f.name), (p, n, f.name)


def test_omega_family_is_built_once_level_by_level(monkeypatch):
    products = []

    def counting_mul(a, b, mod=None):
        products.append((len(a), len(b), mod))
        return poly_mul(a, b, mod=mod)

    groupring._omega_family.cache_clear()
    monkeypatch.setattr(groupring, "poly_mul", counting_mul)
    fam = omega_family(5, 3)
    # levels 0..3: one identity product each, plus one tilde product per level >= 1,
    # every one mod p^K
    assert len(products) == 4 + 3
    assert {mod for *_, mod in products} == {5**OMEGA_PRECISION}
    products.clear()
    assert omega_family(5, 3) is fam and products == []
    top = omega_family(5, 4)
    # one level: Phi_4(1+X) into omega-tilde^+, then the identity product
    assert len(products) == 2
    assert top.phis[:3] == fam.phis and top.omega_tilde_minus == fam.omega_tilde_minus
    for f in fields(OmegaFamily):
        value = getattr(top, f.name)
        assert isinstance(value, tuple) or f.name in ("p", "n")
    assert all(isinstance(phi, tuple) for phi in top.phis)
