import pytest
from hypothesis import given, strategies as st

from normtower.padic import ZpContext, content_val, floor_log, val_int
from normtower.polyarith import teichmuller


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


def _lift(p, N, a):
    """The Teichmuller lift of the residue a in Z/p^N: `polyarith.teichmuller`
    at m = x."""
    return teichmuller([a], [0, 1], p, p**N)[0]


def test_teichmuller_examples():
    assert _lift(5, 2, 1) == 1
    assert _lift(5, 2, 2) == 7          # 7^4 = 2401 = 1 mod 25
    assert pow(7, 4, 25) == 1
    assert _lift(7, 3, 6) == 7**3 - 1   # -1 lifts itself


def _iterated_teichmuller(p, N, a):
    """The lift as it was taken by iterating x -> x^p until it stabilized."""
    q = p**N
    x = a % q
    for _ in range(N + 1):
        nx = pow(x, p, q)
        if nx == x:
            break
        x = nx
    assert pow(x, p, q) == x
    return x


@pytest.mark.parametrize("N", [1, 2, 7, 64, 300])
@pytest.mark.parametrize("p", [3, 5, 7])
def test_teichmuller_newton_matches_the_iteration(p, N):
    """Every unit residue, and each lifted by a multiple of p, gives the root
    that iterating x -> x^p gave."""
    for a in range(1, p):
        for start in (a, a + p * (7**N + 1), a - p**N):
            assert _lift(p, N, start) == _iterated_teichmuller(p, N, start)


@given(st.sampled_from([3, 5, 7]), st.integers(1, 6), st.integers(1, 10**6))
def test_teichmuller_is_root_of_unity(p, N, a):
    if a % p == 0:
        a += 1
    x = _lift(p, N, a)
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


def test_content_val_edges():
    assert content_val([], 3, 5) == 5
    assert content_val([0, 0, 0], 3, 5) == 5
    assert content_val([-9, 27], 3, 5) == 2
    assert content_val([0, -18, 0], 3, 5) == 2
    assert content_val([3**7, 0, 3**9], 3, 5) == 5  # the cap below the valuation
    assert content_val([3**7], 3, 0) == 0
    assert content_val([], 3, 0) == 0


@given(st.sampled_from([3, 5, 7]), st.lists(st.integers(-(10**30), 10**30)),
       st.integers(0, 12), st.integers(0, 70))
def test_content_val_is_the_least_capped_valuation(p, values, j, cap):
    values = [v * p**j for v in values]
    assert content_val(values, p, cap) == min((val_int(v, p, cap) for v in values), default=cap)


# The coordinate sets the content rule reads: p^-den times integral
# coordinates stored in [0, p^prec). test_series_curve, test_tower and
# test_unramified draw them to test canonical(), residual_valuation() and
# FieldDesc.val() against the loops they replaced.

@st.composite
def precision_shapes(draw):
    """(p, d, prec, den): p in {3, 5, 7}, d in 1..4, prec in 1..40, den in 0..prec + 3."""
    p = draw(st.sampled_from([3, 5, 7]))
    prec = draw(st.integers(1, 40))
    return p, draw(st.integers(1, 4)), prec, draw(st.integers(0, prec + 3))


@st.composite
def coordinate_grids(draw, p: int, rows: int, d: int, prec: int):
    """rows x d coordinates in [0, p^prec): a forced content p^j, a single
    nonzero coordinate, or all zero."""
    q = p**prec
    grid = [[0] * d for _ in range(rows)]
    kind = draw(st.sampled_from(["content", "single", "zero"]))
    if kind == "content":
        j = draw(st.integers(0, prec))
        grid = [[draw(st.integers(0, q - 1)) * p**j % q for _ in range(d)] for _ in range(rows)]
    elif kind == "single":
        j = draw(st.integers(0, prec - 1))
        grid[draw(st.integers(0, rows - 1))][draw(st.integers(0, d - 1))] = \
            draw(st.integers(1, p ** (prec - j) - 1)) * p**j
    return grid
