import pytest
from hypothesis import given, strategies as st

from normtower.padic import ZpContext, floor_log, val_int


def test_context_rejects_bad_primes():
    with pytest.raises(ValueError):
        ZpContext(2, 4)
    with pytest.raises(ValueError):
        ZpContext(9, 4)
    with pytest.raises(ValueError):
        ZpContext(5, 0)


@pytest.mark.parametrize("b", [3, 5, 7])
def test_floor_log_is_exact(b):
    assert floor_log(0, b) == floor_log(1, b) == floor_log(b - 1, b) == 0
    for k in range(1, 61):
        assert floor_log(b**k, b) == k
        assert floor_log(b**k - 1, b) == k - 1
        assert floor_log(b**k + 1, b) == k


def test_teichmuller_examples():
    assert ZpContext(5, 2).teichmuller(1) == 1
    assert ZpContext(5, 2).teichmuller(2) == 7          # 7^4 = 2401 = 1 mod 25
    assert pow(7, 4, 25) == 1
    assert ZpContext(7, 3).teichmuller(6) == 7**3 - 1   # -1 lifts itself


def test_teichmuller_rejects_nonunit():
    with pytest.raises(ZeroDivisionError):
        ZpContext(5, 3).teichmuller(10)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.integers(1, 10**6))
def test_teichmuller_is_root_of_unity(p, N, a):
    if a % p == 0:
        a += 1
    x = ZpContext(p, N).teichmuller(a)
    assert x % p == a % p
    assert pow(x, p - 1, p**N) == 1


@given(st.sampled_from([3, 5, 7]), st.integers(1, 8), st.integers(1, 10**9))
def test_inverse_of_units(p, N, a):
    if a % p == 0:
        a += 1
    zp = ZpContext(p, N)
    assert a * zp.inv(a) % p**N == 1


def test_valuation_cap():
    assert val_int(0, 3, 5) == 5
    assert val_int(9, 3, 5) == 2
    assert val_int(3**7, 3, 5) == 5
