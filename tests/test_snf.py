from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normtower import snf
from normtower.lattice import _common_den, expected_norm_rank, norm_subgroup_lattice
from normtower.padic import PrecisionExhausted
from normtower.snf import (
    MARGIN,
    SnfResult,
    _dtype_for,
    as_matrix,
    kernel_basis,
    kernel_image,
    quotient_invariants,
    smith_divisors,
    smith_normal_form,
    span_contains_all,
    span_intersection,
    spans_equal,
    stack_cols,
)


def _det_is_unit(M: np.ndarray, p: int) -> bool:
    """det M is a p-adic unit: M mod p row-reduces to the identity."""
    A = (M % p).astype(np.int64)
    n = A.shape[0]
    for c in range(n):
        piv = None
        for r in range(c, n):
            if A[r, c] % p:
                piv = r
                break
        if piv is None:
            return False
        if piv != c:
            A[[c, piv]] = A[[piv, c]]
        inv = pow(int(A[c, c]), -1, p)
        A[c] = A[c] * inv % p
        for r in range(n):
            if r != c and A[r, c]:
                A[r] = (A[r] - A[r, c] * A[c]) % p
    return True


def unimodular(res: SnfResult) -> bool:
    """Both transforms of a full SNF are unimodular: their determinants are
    p-adic units."""
    return _det_is_unit(res.U, res.p) and _det_is_unit(res.V, res.p)


def test_diag_2_3_over_z3():
    r = smith_normal_form([[2, 0], [0, 3]], 3, 5)
    assert r.divisors == [0, 1]
    assert unimodular(r)


def test_identity_all_zero_valuations():
    r = smith_normal_form(np.eye(5, dtype=np.int64), 3, 4)
    assert r.divisors == [0] * 5


def test_zero_matrix():
    r = smith_normal_form(np.zeros((3, 2), dtype=np.int64), 3, 4)
    assert r.divisors == [4, 4]
    assert r.rank() == 0


@st.composite
def unimodular_pair(draw):
    p = draw(st.sampled_from([3, 5]))
    N = draw(st.integers(3, 6))
    n = draw(st.integers(2, 4))
    q = p**N
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.integers(0, q, size=(n, n), dtype=np.int64)

    def rand_unimodular():
        U = np.eye(n, dtype=np.int64)
        for _ in range(6):
            i, j = rng.integers(0, n, size=2)
            if i != j:
                U[i] = (U[i] + int(rng.integers(0, q)) * U[j]) % q
        return U

    return p, N, A % q, rand_unimodular(), rand_unimodular()


@settings(deadline=None, max_examples=40)
@given(unimodular_pair())
def test_snf_invariant_under_unimodular(data):
    p, N, A, U, V = data
    q = p**N
    d1 = smith_normal_form(A, p, N).divisors
    d2 = smith_normal_form((U @ A @ V) % q, p, N).divisors
    assert d1 == d2


@settings(deadline=None, max_examples=40)
@given(unimodular_pair())
def test_snf_transform_identity(data):
    p, N, A, _, _ = data
    q = p**N
    res = smith_normal_form(A, p, N)
    D = (res.U @ A @ res.V) % q
    for i in range(D.shape[0]):
        for j in range(D.shape[1]):
            if i == j and i < len(res.divisors) and res.divisors[i] < N:
                assert D[i, j] == p ** res.divisors[i]
            else:
                assert D[i, j] == 0
    assert unimodular(res)


def test_kernel():
    K = kernel_basis([[1, 1, 1]], 3, 6)
    assert K.shape[1] == 2
    for j in range(2):
        assert sum(int(v) for v in K[:, j]) % 3**6 == 0


def test_spans_and_canonical():
    A = np.array([[1, 0], [0, 3]])
    B = np.array([[1, 3], [3, 3]])
    assert spans_equal(A, B, 3, 6)
    C = np.array([[2, 4, 6], [1, 2, 3]])
    assert span_contains_all(C, np.array([[2], [1]]), 3, 6)
    assert not span_contains_all(C, np.array([[1], [0]]), 3, 6)


def test_margin_raises():
    # divisor at N-1 is inside the default margin
    with pytest.raises(PrecisionExhausted):
        kernel_basis([[3**4, 0], [0, 1]], 3, 5)


# ---------------------------------------------------------------------------
# differential tests: the one elimination core against the previous loop
# ---------------------------------------------------------------------------

def _reference_val_array(A: np.ndarray, p: int, N: int) -> np.ndarray:
    """Entrywise p-adic valuation, capped at N."""
    v = np.full(A.shape, N, dtype=np.int64)
    rem = A.copy()
    mask = rem != 0
    v[mask] = 0
    e = 0
    while e < N and mask.any():
        mask = mask & (rem % p == 0)
        rem = np.where(mask, rem // p, rem)
        v[mask] += 1
        e += 1
    return v


def _reference_snf(A, p: int, N: int, dt) -> SnfResult:
    """The SNF loop that `_eliminate` replaced, which rescanned the valuation
    of the whole trailing block at every pivot. Verbatim, except that the
    dtype is an argument so that both dtypes can be driven at small N, and
    that the result no longer carries a margin."""
    q = p**N
    A = np.array(A, dtype=dt)
    if A.ndim == 1:
        A = A.reshape(1, -1)
    A = A % q
    m, n = A.shape
    U = np.eye(m, dtype=dt) if dt is np.int64 else np.eye(m, dtype=np.int64).astype(object)
    V = np.eye(n, dtype=dt) if dt is np.int64 else np.eye(n, dtype=np.int64).astype(object)
    divisors: list[int] = []
    for s in range(min(m, n)):
        sub = A[s:, s:]
        if not (sub % q).any():
            break
        vals = _reference_val_array(sub % q, p, N)
        e = int(vals.min())
        if e >= N:
            break
        i, j = map(int, np.argwhere(vals == e)[0])
        i += s
        j += s
        if i != s:
            A[[s, i]] = A[[i, s]]
            U[[s, i]] = U[[i, s]]
        if j != s:
            A[:, [s, j]] = A[:, [j, s]]
            V[:, [s, j]] = V[:, [j, s]]
        pe = p**e
        unit = int(A[s, s]) // pe
        uinv = pow(unit % q, -1, q)
        A[s] = A[s] * uinv % q
        U[s] = U[s] * uinv % q
        # entries below/right share valuation >= e, so they divide exactly
        col = A[s + 1:, s]
        if col.any():
            c = col // pe
            A[s + 1:] = (A[s + 1:] - np.outer(c, A[s])) % q
            U[s + 1:] = (U[s + 1:] - np.outer(c, U[s])) % q
        row = A[s, s + 1:]
        if row.any():
            c = row // pe
            A[:, s + 1:] = (A[:, s + 1:] - np.outer(A[:, s], c)) % q
            V[:, s + 1:] = (V[:, s + 1:] - np.outer(V[:, s], c)) % q
        divisors.append(e)
    while len(divisors) < min(m, n):
        divisors.append(N)
    return SnfResult(p=p, N=N, divisors=divisors, U=U, V=V, shape=(m, n), _diag=A)


def _reference_eliminate(A: np.ndarray, p: int, N: int,
                         U: np.ndarray | None = None, V: np.ndarray | None = None) -> list[int]:
    """The core before the hot-row pivot search and the sparse updates, which
    made a full pass over the trailing block for every pivot. Verbatim."""
    q = p**N
    m, n = A.shape
    divisors: list[int] = []
    e, pe = 0, 1
    for s in range(min(m, n)):
        while e < N:
            hit = (A[s:, s:] % (pe * p)).ravel() != 0
            k = int(hit.argmax())
            if hit[k]:
                break
            e, pe = e + 1, pe * p
        else:  # the trailing block is zero at precision
            break
        i, j = divmod(k, n - s)
        i, j = i + s, j + s
        if i != s:
            A[[s, i], s:] = A[[i, s], s:]
            if U is not None:
                U[[s, i]] = U[[i, s]]
        if j != s:
            A[s:, [s, j]] = A[s:, [j, s]]
            if V is not None:
                V[:, [s, j]] = V[:, [j, s]]
        uinv = pow(int(A[s, s]) // pe, -1, q)
        A[s, s:] = A[s, s:] * uinv % q
        if U is not None:
            U[s] = U[s] * uinv % q
        # entries below/right share valuation >= e, so they divide exactly
        c = A[s + 1:, s] // pe
        if c.any():
            A[s + 1:, s:] = (A[s + 1:, s:] - np.outer(c, A[s, s:])) % q
            if U is not None:
                U[s + 1:] = (U[s + 1:] - np.outer(c, U[s])) % q
        if V is not None:
            c = A[s, s + 1:] // pe
            if c.any():
                V[:, s + 1:] = (V[:, s + 1:] - np.outer(V[:, s], c)) % q
                A[s, s + 1:] = 0
        divisors.append(e)
    return divisors + [N] * (min(m, n) - len(divisors))


def _twinned(fn, *args):
    """(outcome of fn(*args), number of eliminations it ran), every
    elimination checked bit for bit (divisors, A, U, V and their dtypes)
    against `_reference_eliminate` run on copies of the same operands."""
    real, checked = snf._eliminate, []

    def twin(A, p, N, U=None, V=None):
        copies = [None if X is None else X.copy() for X in (A, U, V)]
        want = _reference_eliminate(copies[0], p, N, copies[1], copies[2])
        got = real(A, p, N, U, V)
        assert got == want
        for X, Y in zip((A, U, V), copies):
            assert (X is None) == (Y is None)
            assert X is None or (X.dtype == Y.dtype and np.array_equal(X, Y))
        checked.append(A.shape)
        return got

    with mock.patch.object(snf, "_eliminate", twin):
        return _outcome(fn, *args), len(checked)


SNF_KINDS = ("random", "no_cols", "row", "col", "deficient", "margin_edge", "sparse")


@st.composite
def snf_case(draw, N_values=st.integers(1, 8), kinds=st.sampled_from(SNF_KINDS)):
    """(p, N, A): random, edge-shaped, rank-deficient, margin-edge and sparse
    matrices."""
    p = draw(st.sampled_from([3, 5]))
    N = draw(N_values)
    q = p**N
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(kinds)
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if kind == "no_cols":
        n = 0
    elif kind == "row":
        m = 1
    elif kind == "col":
        n = 1
    def draw_ints(lo, hi, size):  # exact Python ints, so products cannot wrap
        return rng.integers(lo, hi, size=size).astype(object)

    A = draw_ints(0, q, (m, n))
    if kind == "random":
        # mix in entries of every valuation so that pivots skip valuations
        A = A * p ** draw_ints(0, N + 1, (m, n))
    elif kind == "deficient":
        r = draw(st.integers(0, min(m, n) - 1)) if min(m, n) > 1 else 0
        A = draw_ints(0, q, (m, r)) @ draw_ints(0, q, (r, n))
    elif kind == "margin_edge":
        k = max(draw(st.sampled_from([N - MARGIN - 1, N - MARGIN, N - 1])), 0)
        units = draw_ints(1, q, (m, n))
        units[units % p == 0] -= 1
        A = p**k * units * draw_ints(0, 2, (m, n))
        A[0, 0] = p**k * units[0, 0]
    elif kind == "sparse":
        A = _sparse(rng, p, N, int(rng.integers(1, 41)), int(rng.integers(1, 81)))
    return p, N, (A % q).astype(np.int64)


def _sparse(rng, p: int, N: int, m: int, n: int):
    """A Galois-orbit-like m x n matrix: about 10% of its entries nonzero, of
    mixed valuation, with whole zero rows and zero columns, and rank-deficient
    (a product through r < min(m, n)) half the time."""
    q = p**N

    def sparse_ints(size, density):
        mixed = rng.integers(0, q, size=size).astype(object) * \
            p ** rng.integers(0, N + 1, size=size).astype(object)
        return mixed * (rng.random(size) < density)

    if min(m, n) > 1 and rng.random() < 0.5:
        r = int(rng.integers(0, min(m, n)))
        A = sparse_ints((m, r), 0.3) @ sparse_ints((r, n), 0.1) % q
    else:
        A = sparse_ints((m, n), 0.1)
    A[rng.random(m) < 0.2] = 0
    A[:, rng.random(n) < 0.2] = 0
    return A


def _check_against_reference(p, N, A, dt):
    q = p**N
    ref = _reference_snf(A, p, N, dt)
    div = smith_divisors(A, p, N)
    assert div.divisors == ref.divisors
    assert div.U is None and div.V is None
    assert (_outcome(div.rank), div.torsion()) == (_outcome(ref.rank), ref.torsion())
    res = smith_normal_form(A, p, N)
    assert res.divisors == ref.divisors
    for got, want in ((res.U, ref.U), (res.V, ref.V), (res._diag, ref._diag)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert unimodular(res)
    m, n = res.shape
    D = np.zeros((m, n), dtype=object)
    for i, e in enumerate(res.divisors):
        if e < N:
            D[i, i] = p**e
    UAV = (res.U.astype(object) @ np.asarray(A, dtype=object) @ res.V.astype(object)) % q
    assert np.array_equal(UAV, D)


@settings(deadline=None, max_examples=300)
@given(snf_case(), st.sampled_from([np.int64, object]))
def test_core_matches_reference(case, dt):
    p, N, A = case
    with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
        _check_against_reference(p, N, A, dt)


@settings(deadline=None, max_examples=40)
@given(snf_case(N_values=st.just(16)))
def test_core_matches_reference_object_precision(case):
    # 3^16 and 5^16 are past the int64 entry bound, so the entries pick object
    p, N, A = case
    assert _dtype_for(p**N, 1) is object
    _check_against_reference(p, N, A, object)


@settings(deadline=None, max_examples=200)
@given(snf_case(kinds=st.just("sparse")), st.sampled_from([np.int64, object]),
       st.integers(0, 2**32 - 1))
def test_every_entry_point_matches_the_verbatim_core(case, dt, seed):
    p, N, A = case
    q = p**N
    rng = np.random.default_rng(seed)
    n = A.shape[1]
    h = n // 2
    W = rng.integers(0, q, size=(rng.integers(0, 6), n))
    with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
        _check_against_reference(p, N, A, dt)
        for fn, *args in (
            (smith_divisors, A, p, N),
            (smith_normal_form, A, p, N),
            (span_contains_all, A[:, :h], A[:, h:], p, N),
            (span_contains_all, A, (A @ rng.integers(0, q, size=(n, 3))) % q, p, N),
            (kernel_image, A, W, p, N),
            (span_intersection, A[:, :h], A[:, h:], p, N),
        ):
            assert _twinned(fn, *args)[1] == 1


def test_shipped_lattices_match_the_verbatim_core(tower_3_4):
    # the 216 x 432 C(m_3) lattice of p = 3, d = 4, N = 6, and the
    # intersection of the exact sequence at n = 3: the sizes the verifier runs
    t = tower_3_4
    Cn = norm_subgroup_lattice(t, 3)
    A, B = _common_den(Cn, norm_subgroup_lattice(t, 2).embed(3))
    assert Cn.mat.shape == (216, 432)
    assert _twinned(Cn.rank) == (expected_norm_rank(3, 4, 3, None), 1)
    inter, checked = _twinned(span_intersection, A.mat, B.mat, t.p, t.N)
    assert checked == 1 and inter.shape[0] == 216


def test_quotient_invariants_empty_relations():
    assert quotient_invariants(5, np.zeros((5, 0), dtype=np.int64), 3, 6) == (5, [])


def test_quotient_invariants():
    W = np.array([[3, 0, 0], [0, 3**3, 0], [0, 0, 0], [0, 0, 0]])
    assert quotient_invariants(4, W, 3, 6) == (2, [1, 3])
    # 3^5 sits inside the margin at N = 6: the rank decision raises
    W[2, 2] = 3**5
    with pytest.raises(PrecisionExhausted):
        quotient_invariants(4, W, 3, 6)


# ---------------------------------------------------------------------------
# the dimension-aware int64 guard
# ---------------------------------------------------------------------------

def test_dtype_guard_at_the_dimension_boundary():
    p, N = 3, 15
    q = p**N
    assert q < 1 << 25  # the entries alone would allow int64
    dim = -(-(1 << 63) // (q - 1) ** 2)  # least dim with dim * (q-1)^2 >= 2^63
    assert _dtype_for(q, dim - 1) is np.int64
    assert _dtype_for(q, dim) is object
    exact = dim * (q - 1) ** 2
    row = as_matrix([q - 1] * dim, q)
    assert row.dtype == object and row.shape == (1, dim)
    assert int((row @ row.T)[0, 0]) == exact
    # the same product in int64 wraps around
    wrapped = row.astype(np.int64)
    with np.errstate(over="ignore"):
        assert int((wrapped @ wrapped.T)[0, 0]) != exact
    below = as_matrix([q - 1] * (dim - 1), q)
    assert below.dtype == np.int64
    assert int((below @ below.T)[0, 0]) == (dim - 1) * (q - 1) ** 2


def test_sparse_paths_keep_their_dtype_at_the_entry_bound():
    # at q = 3^15, just under _INT64_SAFE, the gathered and scattered blocks
    # hold products near q^2: int64 must neither wrap nor turn into object
    p, N = 3, 15
    q = p**N
    assert q < snf._INT64_SAFE
    rng = np.random.default_rng(315)
    A = (_sparse(rng, p, N, 30, 60) % q).astype(np.int64)
    B = (A[:, :20] @ rng.integers(0, q, size=(20, 4)).astype(object) % q).astype(np.int64)
    W = rng.integers(0, q, size=(5, 60))
    runs = {}
    for dt in (np.int64, object):
        with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
            div, res = smith_divisors(A, p, N), smith_normal_form(A, p, N)
            K, Nk = kernel_image(A, W, p, N)
            mats = [res.U, res.V, res._diag, K, span_intersection(A[:, :30], A[:, 30:], p, N)]
            assert all(M.dtype == dt for M in mats)
            runs[dt] = (div.divisors, res.divisors, [M.tolist() for M in mats], Nk,
                        span_contains_all(A, B, p, N), span_contains_all(A, W[:, :30].T, p, N))
    assert runs[np.int64][:4] == runs[object][:4]
    assert runs[np.int64][4:] == runs[object][4:] and runs[object][4]


# ---------------------------------------------------------------------------
# differential tests: membership and intersection with the operand carried
# through the elimination, against the transform products they replaced
# ---------------------------------------------------------------------------

def reference_span_contains_all(A, B, p: int, N: int) -> bool:
    """Every column of B lies in the column span of A (mod p^N, margin-aware)."""
    q = p**N
    res = smith_normal_form(A, p, N)
    B = as_matrix(B, q)
    Y = (res.U @ B) % q
    m, n = res.shape
    for i in range(m):
        e = res.divisors[i] if i < len(res.divisors) else N
        row = Y[i] % q
        if e >= N - MARGIN:
            bad = row % q != 0
            if bad.any():
                if ((row[bad] % p ** max(N - MARGIN, 1)) == 0).any():
                    raise PrecisionExhausted("membership decided inside margin")
                return False
        else:
            if (row % p**e != 0).any():
                return False
    return True


def reference_span_intersection(A, B, p: int, N: int) -> np.ndarray:
    """The intersection as `check_exact_sequence` built it: A times the top
    block of a kernel basis of [A | -B]."""
    q = p**N
    ker = kernel_basis(stack_cols(A, (-B) % q), p, N)
    na = A.shape[1]
    return (A @ ker[:na]) % q


@st.composite
def operand_pair(draw):
    """(p, N, A, B) with a common row count: uniform, mixed-valuation,
    zero-column, in-span, near-miss and margin-edge operands (entries p^k * unit, k in N-3..N-1)."""
    p = draw(st.sampled_from([3, 5]))
    N = draw(st.integers(1, 8))
    q = p**N
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 6))
    na, nb = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    kind = draw(st.sampled_from(["plain", "random", "in_span", "near_miss", "margin_edge"]))

    def draw_ints(lo, hi, size):  # exact Python ints, so products cannot wrap
        return rng.integers(lo, hi, size=size).astype(object)

    def units(size):
        u = draw_ints(1, q, size)
        u[u % p == 0] -= 1
        return u

    def margin_edge(size):
        k = max(draw(st.sampled_from([N - 3, N - 2, N - 1])), 0)
        return p**k * units(size) * draw_ints(0, 2, size)

    A, B = draw_ints(0, q, (m, na)), draw_ints(0, q, (m, nb))
    if kind == "random":
        # mix in entries of every valuation so that pivots skip valuations
        A = A * p ** draw_ints(0, N + 1, (m, na))
        B = B * p ** draw_ints(0, N + 1, (m, nb))
    elif kind == "in_span":
        B = A @ draw_ints(0, q, (na, nb))
    elif kind == "near_miss":
        k = max(draw(st.sampled_from([N - 3, N - 2, N - 1])), 0)
        B = A @ draw_ints(0, q, (na, nb)) + p**k * units((m, nb))
    elif kind == "margin_edge":
        A = margin_edge((m, na))
        B = margin_edge((m, nb)) if draw(st.booleans()) else A @ draw_ints(0, q, (na, nb))
    return p, N, (A % q).astype(np.int64), (B % q).astype(np.int64)


def _outcome(fn, *args):
    """fn's value, or the exception class it raised."""
    try:
        return fn(*args)
    except (PrecisionExhausted, ValueError) as e:
        return type(e)


@settings(deadline=None, max_examples=300)
@given(operand_pair(), st.sampled_from([np.int64, object]))
def test_membership_matches_reference(case, dt):
    p, N, A, B = case
    with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
        for X, Y in ((A, B), (B, A), (A, A)):
            Xc, Yc = X.copy(), Y.copy()
            assert _outcome(span_contains_all, X, Y, p, N) == \
                _outcome(reference_span_contains_all, X, Y, p, N)
            assert np.array_equal(X, Xc) and np.array_equal(Y, Yc)  # operands untouched


@settings(deadline=None, max_examples=300)
@given(operand_pair(), st.sampled_from([np.int64, object]))
def test_intersection_matches_reference(case, dt):
    p, N, A, B = case
    q = p**N
    with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
        A, B = as_matrix(A, q), as_matrix(B, q)
        got = _outcome(span_intersection, A, B, p, N)
        want = _outcome(reference_span_intersection, A, B, p, N)
        if isinstance(want, type):
            assert got is want
            return
        got, want = as_matrix(got, q), as_matrix(want, q)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def reference_kernel_image(A, W, p: int, N: int) -> tuple[np.ndarray, int]:
    """The product the kernel-block readers took, W times a kernel basis of A,
    with N less the largest finite divisor of A."""
    q = p**N
    K = (W @ kernel_basis(A, p, N)) % q
    return K, N - max((e for e in smith_divisors(A, p, N).divisors if e < N), default=0)


@settings(deadline=None, max_examples=300)
@given(operand_pair(), st.sampled_from([np.int64, object]),
       st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_kernel_image_matches_reference(case, dt, k, seed):
    p, N, A, B = case
    q = p**N
    rng = np.random.default_rng(seed)
    with mock.patch.object(snf, "_dtype_for", lambda q, dim: dt):
        # A itself (zero columns when na = 0), a stacked pair, and A's transpose
        for M in (A, np.hstack([A, B]), A.T):
            n = M.shape[1]
            for W in (rng.integers(0, q, size=(k, n)).astype(object),
                      np.eye(min(k, n), n, dtype=np.int64)):
                Mc, Wc = M.copy(), W.copy()
                got = _outcome(kernel_image, M, W, p, N)
                want = _outcome(reference_kernel_image, M, W, p, N)
                assert np.array_equal(M, Mc) and np.array_equal(W, Wc)  # operands untouched
                if isinstance(want, type):
                    assert got is want
                    continue
                (got, got_N), (want, want_N) = got, want
                assert got.dtype == dt and got.shape == want.shape
                assert np.array_equal(got.astype(object), want.astype(object))
                assert got_N == want_N


def test_kernel_image_margin_rules():
    W = np.array([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
    # a divisor at N - 1 raises
    with pytest.raises(PrecisionExhausted):
        kernel_image(np.array([[3**4, 0, 0], [0, 1, 0]]), W, 3, 5)
    # a divisor at N - 3 is nonzero; the kernel column is known mod 3^(5 - 2)
    K, Nk = kernel_image(np.array([[3**2, 0, 0], [0, 1, 0]]), W, 3, 5)
    assert (K.tolist(), Nk) == ([[0], [0], [1]], 3)


def test_membership_rejects_mismatched_rows():
    # B must live in the same ambient space as A: no row of B is ignored
    with pytest.raises(ValueError):
        span_contains_all(np.eye(2, dtype=np.int64), np.zeros((3, 1), dtype=np.int64), 3, 6)


def test_intersection_is_the_common_span():
    # span{(1, 0), (0, 3)} meets span{(1, 1)} in span{(3, 3)} over Z_3
    A = np.array([[1, 0], [0, 3]])
    B = np.array([[1], [1]])
    I = span_intersection(A, B, 3, 6)
    assert I.shape == (2, 1)
    assert spans_equal(I, np.array([[3], [3]]), 3, 6)


def test_intersection_margin_raises():
    # [A | -B] has a divisor at N - 1, inside the margin
    with pytest.raises(PrecisionExhausted):
        span_intersection(np.array([[3**4], [0]]), np.array([[0], [1]]), 3, 5)
