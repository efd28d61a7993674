from functools import cache

import pytest
from hypothesis import given, settings, strategies as st
from test_padic import _iterated_teichmuller, coordinate_grids, precision_shapes

from normtower.padic import factorize, primitive_root, val_int
from normtower.polyarith import mul_mod, pow_mod, teichmuller, xgcd_fp
from normtower.tower import build_tower
from normtower.unramified import (
    FieldDesc,
    _check_field,
    _element_order_is,
    _find_primitive_poly,
    build_unramified,
)


def _mat_inv_modq(M: list[list[int]], p: int, q: int) -> list[list[int]]:
    """Inverse of a matrix that is invertible mod p, by Gaussian elimination mod q."""
    n = len(M)
    A = [[x % q for x in row] + [int(i == j) for j in range(n)] for i, row in enumerate(M)]
    for col in range(n):
        piv = next((r for r in range(col, n) if A[r][col] % p != 0), None)
        if piv is None:
            raise ValueError("matrix not invertible mod p")
        A[col], A[piv] = A[piv], A[col]
        inv = pow(A[col][col], -1, q)  # unit mod p => invertible mod q
        A[col] = [x * inv % q for x in A[col]]
        for r in range(n):
            if r != col and A[r][col]:
                c = A[r][col]
                A[r] = [(x - c * y) % q for x, y in zip(A[r], A[col])]
    return [row[n:] for row in A]


def test_build_trivial_extension():
    fd = build_unramified(3, 1, 4)
    assert fd.d == 1
    z = fd.zeta()
    # generator of the roots of unity in Q_3 is a primitive square root of 1
    assert fd.mul(z, z) == fd.one()
    assert z != fd.one()
    assert fd.frob(z, 1) == z  # Frobenius is the identity


def test_build_degree2():
    fd = build_unramified(3, 2, 4)
    z = fd.zeta()
    assert fd.pow(z, 8) == fd.one()
    assert fd.pow(z, 4) != fd.one()
    assert fd.frob(z, 1) == fd.pow(z, 3)


def test_build_degree4_p5():
    fd = build_unramified(5, 4, 3)
    z = fd.zeta()
    assert fd.frob(z, 4) == z
    assert fd.frob(z, 2) != z


def test_rejects_p2_and_composites():
    with pytest.raises(ValueError):
        build_unramified(2, 2, 3)
    with pytest.raises(ValueError):
        build_unramified(15, 2, 3)


def test_frobenius_is_ring_automorphism_of_exact_order():
    fd = build_unramified(3, 4, 4)
    z = fd.zeta()
    x = fd.add(fd.add(fd.one(), z), fd.pow(z, 2))     # 1 + z + z^2
    y = fd.add(fd.scalar(2, z), fd.pow(z, 3))         # 2z + z^3
    assert fd.frob(fd.mul(x, y), 1) == fd.mul(fd.frob(x, 1), fd.frob(y, 1))
    assert fd.frob(fd.add(x, y), 1) == fd.add(fd.frob(x, 1), fd.frob(y, 1))
    for e in (1, 2, 3):
        assert fd.frob(z, e) != z
    assert fd.frob(z, 4) == z
    assert fd.frob(z, -1) == fd.frob(z, 3)


def test_valuation_examples():
    fd = build_unramified(3, 2, 4)
    z = fd.zeta()
    assert fd.val(fd.scalar(3, z)) == 1
    assert fd.val(fd.add(fd.one(), z)) == 0
    assert fd.is_zero(fd.zero())
    assert not fd.is_zero(fd.scalar(3 ** 3, z))


@st.composite
def field_elements(draw):
    p = draw(st.sampled_from([3, 5]))
    d = draw(st.integers(1, 3))
    fd = build_unramified(p, d, 4)
    x, y, z = (tuple(draw(st.integers(0, fd.q - 1)) for _ in range(d)) for _ in range(3))
    return fd, x, y, z


@settings(deadline=None, max_examples=60)
@given(field_elements())
def test_ring_axioms(data):
    fd, x, y, z = data
    assert fd.mul(fd.mul(x, y), z) == fd.mul(x, fd.mul(y, z))
    assert fd.mul(x, fd.add(y, z)) == fd.add(fd.mul(x, y), fd.mul(x, z))
    assert fd.mul(x, y) == fd.mul(y, x)


@settings(deadline=None, max_examples=60)
@given(field_elements())
def test_valuation_multiplicative_below_precision(data):
    fd, x, y, _ = data
    if fd.is_zero(x) or fd.is_zero(y):
        return
    vx, vy = fd.val(x), fd.val(y)
    if vx + vy < fd.N:
        assert fd.val(fd.mul(x, y)) == vx + vy


@settings(deadline=None, max_examples=200)
@given(data=st.data())
def test_val_matches_the_least_coordinate_valuation(data):
    """FieldDesc.val against the minimum over coordinates it replaced."""
    p, d, prec, cap = data.draw(precision_shapes())
    fd = build_unramified(p, d, 4)
    (a,) = data.draw(coordinate_grids(p, 1, d, prec))
    assert fd.val(a, cap) == min((val_int(x, p, cap) for x in a), default=cap)
    assert fd.val(a) == min(val_int(x, p, fd.N) for x in a)


# The Newton inverse of O_k against Gauss-Jordan elimination of the matrix of
# multiplication (`_mat_inv_modq` above, kept verbatim as the reference), at
# every precision q = p^k up to the field's p^N.

@st.composite
def field_elements_at_precision(draw):
    p, d = draw(st.sampled_from([(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (5, 3), (7, 1), (7, 2)]))
    fd = build_unramified(p, d, 12)
    k = draw(st.integers(1, 12))
    small = draw(st.booleans())
    hi = p - 1 if small else fd.q - 1
    return fd, tuple(draw(st.integers(0, hi)) for _ in range(d)), p**k


@settings(deadline=None, max_examples=150)
@given(field_elements_at_precision())
def test_field_inverse_matches_gauss_jordan(data):
    fd, a, q = data
    cols = [fd.mul(a, tuple(int(j == i) for j in range(fd.d)), q) for i in range(fd.d)]
    try:
        ref = _mat_inv_modq([[cols[j][i] for j in range(fd.d)] for i in range(fd.d)], fd.p, q)
    except ValueError:
        with pytest.raises(ZeroDivisionError):
            fd.inv(a, q)
        return
    inv = fd.inv(a, q)
    assert inv == tuple(row[0] for row in ref)
    assert fd.mul(a, inv, q) == fd.one(q)


@pytest.mark.parametrize("p, d, N", [(3, 2, 4), (3, 4, 60), (3, 6, 8), (5, 3, 10), (7, 2, 200)])
def test_basis_change_matches_gauss_jordan(p, d, N):
    """The minimal polynomial from the conjugates of zeta against the change
    of basis by Gauss-Jordan that `reference_build_unramified` makes."""
    fd = build_unramified.__wrapped__(p, d, N)
    ref = reference_build_unramified(p, d, N)
    assert (fd.modulus, fd.frob_cols) == (ref.modulus, ref.frob_cols)


# ---------------------------------------------------------------------------
# differential tests: the residue field found by the order test alone and the
# Frobenius columns computed in the zeta basis, against the irreducibility
# filter and the x-basis round trip they replaced (verbatim copies)
# ---------------------------------------------------------------------------

def reference_is_irreducible_fp(h: list[int], p: int) -> bool:
    d = len(h) - 1
    if d == 1:
        return True
    xpoly = [0, 1] + [0] * (d - 2)
    powers = [list(xpoly)]
    for _ in range(d):
        powers.append(pow_mod(powers[-1], p, h, p))
    if powers[d] != xpoly:
        return False
    for ell in factorize(d):
        e = d // ell
        diff = [(powers[e][i] - xpoly[i]) % p for i in range(d)]
        if len(xgcd_fp(diff, h, p)[0]) > 1:
            return False
    return True


def reference_find_primitive_poly(p: int, d: int) -> list[int]:
    order = p**d - 1
    for code in range(p**d):
        coeffs = []
        c = code
        for _ in range(d):
            coeffs.append(c % p)
            c //= p
        h = coeffs + [1]
        if h[0] == 0:
            continue
        if not reference_is_irreducible_fp(h, p):
            continue
        if _element_order_is(h, p, order):
            return h
    raise RuntimeError(f"no primitive polynomial found for p={p}, d={d}")


def reference_build_unramified(p: int, d: int, N: int) -> FieldDesc:
    q = p**N

    if d == 1:
        # a scalar lift of its own: the iteration x -> x^p
        zeta0 = _iterated_teichmuller(p, N, primitive_root(p))
        fd = FieldDesc(
            p=p, d=1, N=N, q=q,
            modulus=((-zeta0) % q, 1),
            frob_cols=(((1,),),),
        )
        _check_field(fd)
        return fd

    hbar = reference_find_primitive_poly(p, d)
    lift = [c % q for c in hbar]
    x = [0, 1] + [0] * (d - 2)
    zeta_x = x
    for _ in range(N + 2):
        nxt = pow_mod(zeta_x, p**d, lift, q)
        if nxt == zeta_x:
            break
        zeta_x = nxt
    assert pow_mod(zeta_x, p**d, lift, q) == zeta_x, "Teichmuller lift did not stabilize"

    pows = [[1] + [0] * (d - 1)]
    for _ in range(d):
        pows.append(mul_mod(pows[-1], zeta_x, lift, q))
    C = [[pows[j][i] for j in range(d)] for i in range(d)]
    Cinv = _mat_inv_modq(C, p, q)

    def to_zeta_basis(vec_x: list[int]) -> tuple[int, ...]:
        return tuple(sum(Cinv[i][j] * vec_x[j] for j in range(d)) % q for i in range(d))

    zd = to_zeta_basis(pows[d])
    modulus = tuple((-zd[i]) % q for i in range(d)) + (1,)

    frob_all = []
    for k in range(d):
        cols = []
        for i in range(d):
            e = (p**k * i) % (p**d - 1)
            img_x = [1] + [0] * (d - 1) if i == 0 else pow_mod(zeta_x, e, lift, q)
            cols.append(to_zeta_basis(img_x))
        frob_all.append(tuple(cols))
    fd = FieldDesc(p=p, d=d, N=N, q=q, modulus=modulus, frob_cols=tuple(frob_all))
    _check_field(fd)
    return fd


FIELD_GRID = [(p, d) for p in (3, 5, 7, 11, 13) for d in range(1, 7)]


@pytest.mark.parametrize("p, d", [(p, d) for p, d in FIELD_GRID if d >= 2])
def test_primitive_poly_matches_the_irreducibility_filter(p, d):
    assert _find_primitive_poly(p, d) == tuple(reference_find_primitive_poly(p, d))


@pytest.mark.parametrize("p, d", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (5, 4)])
def test_order_test_implies_irreducible(p, d):
    """Every monic h of degree d passing the order test is irreducible, and
    there are phi(p^d - 1) / d of them, one per conjugacy class of
    generators of F_{p^d}^*."""
    order = p**d - 1
    passing = []
    for code in range(p**d):
        h = [code // p**i % p for i in range(d)] + [1]
        if _element_order_is(h, p, order):
            assert reference_is_irreducible_fp(h, p), h
            passing.append(h)
    phi = order
    for ell in factorize(order):
        phi = phi // ell * (ell - 1)
    assert len(passing) == phi // d


@pytest.mark.parametrize("p, d, N", [(3, 2, 1), (3, 2, 2), (3, 2, 592), (3, 4, 200), (5, 2, 300), (7, 3, 50)])
def test_teichmuller_root_matches_the_iteration(p, d, N):
    """The Newton lift of x against raising it to the p^d until it is fixed,
    as `reference_build_unramified` does, up to the full_grid's N = 592."""
    q = p**N
    lift = [c % q for c in _find_primitive_poly(p, d)]
    x = [0, 1] + [0] * (d - 2)
    z = x
    for _ in range(N + 2):
        nxt = pow_mod(z, p**d, lift, q)
        if nxt == z:
            break
        z = nxt
    assert teichmuller(x, lift, p, q) == z


@pytest.mark.parametrize("p, d", FIELD_GRID)
def test_field_matches_reference_construction(p, d, monkeypatch):
    # each residue polynomial is searched for once per (p, d) on both sides
    # (`_find_primitive_poly` caches its own): the searches are compared on
    # their own above
    monkeypatch.setitem(globals(), "reference_find_primitive_poly",
                        cache(reference_find_primitive_poly))
    # at d = 1 also the precisions of full_grid's series check and of
    # point_series
    for N in (1, 2, 6, 20, 64) + ((592, 980, 2059) if d == 1 else ()):
        fd = build_unramified(p, d, N)
        ref = reference_build_unramified(p, d, N)
        assert (fd.modulus, fd.frob_cols, fd.q) == (ref.modulus, ref.frob_cols, ref.q)
        for a in (fd.zeta(), fd.add(fd.one(), fd.scalar(p, fd.zeta()))):  # units
            assert fd.inv(a) == ref.inv(a)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_scalar_lifts_match_the_iteration(p):
    """The tame units of the tower and the character idempotents, both built
    on Teichmuller lifts in Z/p^N, against the iteration x -> x^p."""
    g = primitive_root(p)
    t = build_tower(p, 1, 3, 4)
    for n in range(4):
        assert t.tame_units(n) == tuple(
            _iterated_teichmuller(p, n + 1, pow(g, k, p)) for k in range(p - 1))
    for N in (1, 2, 5, 30):
        q = p**N
        tg, inv = _iterated_teichmuller(p, N, g), pow(p - 1, -1, q)
        # e_j = (1/(p - 1)) sum_k chi_j(g^k) F^(-k), chi_j(g) = tg^j
        want = [tuple(pow(tg, j * (-i % (p - 1)), q) * inv % q for i in range(p - 1))
                for j in range(p - 1)]
        assert list(build_tower(p, 1, 0, N).idempotents()) == want
