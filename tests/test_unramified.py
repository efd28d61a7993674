import pytest
from hypothesis import given, settings, strategies as st

from normtower import unramified
from normtower.unramified import _inverse_mod, build_unramified


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


# The SNF-route inverses against the Gauss-Jordan elimination they replaced
# (`_mat_inv_modq` above, kept verbatim as the reference).

@st.composite
def square_matrices(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    N = draw(st.sampled_from([1, 2, 4, 13, 40, 200]))
    d = draw(st.integers(1, 6))
    small = draw(st.booleans())  # entries mod p make singular matrices common
    hi = p - 1 if small else p**N - 1
    M = [[draw(st.integers(0, hi)) for _ in range(d)] for _ in range(d)]
    return p, N, M


@settings(deadline=None, max_examples=150)
@given(square_matrices())
def test_snf_inverse_matches_gauss_jordan(data):
    p, N, M = data
    try:
        ref = _mat_inv_modq(M, p, p**N)
    except ValueError:
        with pytest.raises(ZeroDivisionError):
            _inverse_mod(M, p, N)
        return
    assert _inverse_mod(M, p, N) == ref


@st.composite
def field_elements_at_precision(draw):
    p, d = draw(st.sampled_from([(3, 2), (3, 4), (5, 2), (5, 3), (7, 2)]))
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
def test_basis_change_matches_gauss_jordan(monkeypatch, p, d, N):
    fd = build_unramified.__wrapped__(p, d, N)
    monkeypatch.setattr(unramified, "_inverse_mod",
                        lambda M, p, N: _mat_inv_modq(M, p, p**N))
    ref = build_unramified.__wrapped__(p, d, N)
    assert (fd.modulus, fd.frob_cols) == (ref.modulus, ref.frob_cols)
