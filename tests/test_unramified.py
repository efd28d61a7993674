import pytest
from hypothesis import given, settings, strategies as st

from normtower.unramified import build_unramified


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
