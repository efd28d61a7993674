"""Smith normal form and linear algebra over Z_p at precision p^N.

Z_p at finite precision is the local ring Z/p^N: every matrix is equivalent
to diag(p^e1, ..., p^er, 0, ...) with e1 <= e2 <= ... (pivoting on the entry
of minimal valuation, normalizing its unit part). A diagonal valuation e is
only meaningful while e < N - margin; anything in [N - margin, N) is an
ambiguous "zero at precision" and callers re-run at higher precision.

Matrices are numpy arrays, dtype int64 when p^N is small enough that products
cannot overflow, otherwise dtype object (exact Python ints).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .padic import PrecisionExhausted

DEFAULT_MARGIN = 2
PRECISION_BUMP = 4
_INT64_SAFE = 1 << 25  # (p^N)^2 * dim stays well inside int64


def _dtype_for(q: int):
    return np.int64 if q < _INT64_SAFE else object


def as_matrix(rows, q: int) -> np.ndarray:
    A = np.array(rows, dtype=_dtype_for(q))
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A % q


def _val_array(A: np.ndarray, p: int, N: int) -> np.ndarray:
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


@dataclass
class SnfResult:
    """U @ A @ V = diag(p^e_i) mod p^N, U and V unimodular."""

    p: int
    N: int
    divisors: list[int]          # valuations e_1 <= ... <= e_min(m,n); N means zero
    U: np.ndarray
    V: np.ndarray
    shape: tuple[int, int]
    margin: int = DEFAULT_MARGIN
    _diag: np.ndarray | None = field(default=None, repr=False)

    @property
    def q(self) -> int:
        return self.p**self.N

    def rank(self) -> int:
        return sum(1 for e in self.divisors if e < self.N - self.margin)

    def ambiguous(self) -> bool:
        return any(self.N - self.margin <= e < self.N for e in self.divisors)

    def torsion(self) -> list[int]:
        """Nontrivial finite elementary-divisor valuations (0 < e < N - margin)."""
        return sorted(e for e in self.divisors if 0 < e < self.N - self.margin)

    def certify(self) -> bool:
        """Unimodularity witness: both transform determinants are p-adic units."""
        return _det_is_unit(self.U, self.p) and _det_is_unit(self.V, self.p)


def _det_is_unit(M: np.ndarray, p: int) -> bool:
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


def smith_normal_form(A, p: int, N: int, margin: int = DEFAULT_MARGIN) -> SnfResult:
    q = p**N
    A = as_matrix(A, q)
    m, n = A.shape
    dt = _dtype_for(q)
    U = np.eye(m, dtype=dt) if dt is np.int64 else np.eye(m, dtype=np.int64).astype(object)
    V = np.eye(n, dtype=dt) if dt is np.int64 else np.eye(n, dtype=np.int64).astype(object)
    divisors: list[int] = []
    for s in range(min(m, n)):
        sub = A[s:, s:]
        if not (sub % q).any():
            break
        vals = _val_array(sub % q, p, N)
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
    return SnfResult(p=p, N=N, divisors=divisors, U=U, V=V, shape=(m, n),
                     margin=margin, _diag=A)


def kernel_basis(A, p: int, N: int, margin: int = DEFAULT_MARGIN,
                 tolerant: bool = False) -> np.ndarray:
    """Columns spanning the Z_p-kernel of A (margin-aware).

    Diagonal valuations below N - margin are genuinely nonzero, so over the
    domain Z_p they contribute nothing to the kernel; columns of V past the
    rank are exact kernel vectors mod p^N. A divisor inside [N - margin, N)
    is an ambiguous decision: strict mode raises, tolerant mode clamps it to
    zero-at-precision (callers then certify by agreement across two N)."""
    res = smith_normal_form(A, p, N, margin)
    if res.ambiguous() and not tolerant:
        raise PrecisionExhausted("kernel decision inside precision margin")
    cols = [j for j in range(res.shape[1])
            if j >= len(res.divisors) or res.divisors[j] >= res.N - res.margin]
    if not cols:
        return np.zeros((res.shape[1], 0), dtype=res.V.dtype)
    return res.V[:, cols]


def solve(A, b, p: int, N: int, margin: int = DEFAULT_MARGIN):
    """One solution x of A x = b mod p^N, or None if provably unsolvable.

    Raises PrecisionExhausted when solvability is decided by an entry within
    the margin of p^N.
    """
    q = p**N
    res = smith_normal_form(A, p, N, margin)
    b = np.array(b, dtype=res.U.dtype).reshape(-1) % q
    y = (res.U @ b) % q
    m, n = res.shape
    z = np.zeros(n, dtype=res.U.dtype)
    for i in range(m):
        yi = int(y[i])
        e = res.divisors[i] if i < len(res.divisors) else N
        if e >= N - margin:
            # this row is zero at precision: need y_i = 0 at precision too
            if yi % q == 0:
                continue
            if yi % p ** max(N - margin, 1) == 0:
                raise PrecisionExhausted("solvability decided inside margin")
            return None
        pe = p**e
        if yi % pe:
            return None
        if i < n:
            z[i] = (yi // pe) % q
        elif yi % q:
            return None
    x = (res.V @ z) % q
    return x


def span_contains_all(A, B, p: int, N: int, margin: int = DEFAULT_MARGIN) -> bool:
    """Every column of B lies in the column span of A (mod p^N, margin-aware)."""
    q = p**N
    res = smith_normal_form(A, p, N, margin)
    B = as_matrix(B, q)
    Y = (res.U @ B) % q
    m, n = res.shape
    for i in range(m):
        e = res.divisors[i] if i < len(res.divisors) else N
        row = Y[i] % q
        if e >= N - margin:
            bad = row % q != 0
            if bad.any():
                if ((row[bad] % p ** max(N - margin, 1)) == 0).any():
                    raise PrecisionExhausted("membership decided inside margin")
                return False
        else:
            if (row % p**e != 0).any():
                return False
    return True


def spans_equal(A, B, p: int, N: int, margin: int = DEFAULT_MARGIN) -> bool:
    """Lattice equality as mutual membership of generators."""
    return (span_contains_all(A, B, p, N, margin)
            and span_contains_all(B, A, p, N, margin))


def span_canonical(A, p: int, N: int, margin: int = DEFAULT_MARGIN) -> np.ndarray:
    """A small generating set with the same column span: p^{e_i} * (U^{-1} e_i).

    Since U A V = D and V is unimodular, the span of A's columns equals the
    span of U^{-1} D = A V, which has at most rank-many nonzero columns.
    """
    q = p**N
    res = smith_normal_form(A, p, N, margin)
    AV = (as_matrix(A, q) @ res.V) % q
    keep = [j for j, e in enumerate(res.divisors) if e < N]
    if not keep:
        return np.zeros((res.shape[0], 0), dtype=AV.dtype)
    return AV[:, keep]


def quotient_invariants(D_ambient: int, W, p: int, N: int,
                        margin: int = DEFAULT_MARGIN) -> tuple[int, list[int], SnfResult]:
    """(free rank, torsion divisor valuations) of Z_p^D / column-span(W)."""
    if W.shape[1] == 0:
        return D_ambient, [], smith_normal_form(np.zeros((D_ambient, 1), dtype=np.int64), p, N, margin)
    res = smith_normal_form(W, p, N, margin)
    finite = [e for e in res.divisors if e < N - margin]
    rank = D_ambient - len(finite)
    torsion = sorted(e for e in finite if e > 0)
    return rank, torsion, res


def stack_cols(*mats) -> np.ndarray:
    mats = [m for m in mats if m is not None and m.size]
    if not mats:
        raise ValueError("nothing to stack")
    dt = object if any(m.dtype == object for m in mats) else np.int64
    return np.hstack([m.astype(dt) for m in mats])
