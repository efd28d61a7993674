"""Smith normal form and linear algebra over Z_p at precision p^N.

Z_p at finite precision is the local ring Z/p^N: every matrix is equivalent
to diag(p^e1, ..., p^er, 0, ...) with e1 <= e2 <= ... .

Precision policy (stated here once, for the whole package). Every decision
made at finite precision reads SNF divisors outside the margin: e < N - MARGIN
is nonzero, e = N is zero at precision, and a divisor in [N - MARGIN, N)
raises PrecisionExhausted, and the record is rerun at the next rung of the
ladder N, N + PRECISION_BUMP, ... (PRECISION_RUNGS rungs; the last rung's
error is final). Lattice records climb through `lattice.with_precision_retry`,
module records through `at_rising_precision` from MODULE_PRECISION, harness
instances one by one from HARNESS_PRECISION, and `freeness_test` by its
certificate: an answer agreed at two consecutive rungs. N is the precision
the operand carries. The omega families that the module presentations read
are built mod p^K, K = OMEGA_PRECISION, which serves every reader at N <= K:
a remainder by a monic cap commutes with reduction mod p^K. So `flatten`
raises for N > K, and the CLI refuses a precision whose deepest ladder (the
harness ladder, each rung climbing `freeness_test`'s own) would pass K. A
kernel vector computed mod p^N is known only mod p^(N - e), e the largest
finite divisor of its matrix, so `kernel_image` returns N - e with its
columns, and the X-kernel invariants of `lambda_modules` decide on them
there. Two readers still decide at N:
- `span_intersection`, whose columns `check_exact_sequence` compares at N
  (ROADMAP item 13);
- `kernel_basis`, whose kernel columns `groupring.annihilator` returns and
  `annihilator_matches_closed_form` tests for membership at N, a path only
  tests reach (ROADMAP item 16).

One elimination core, `_eliminate`, computes the form in place. Each pivot is
the first entry, in row-major order, of minimal valuation e in the trailing
block; its unit part is normalized away and the rows below it are cleared.
Elementary operations never lower the minimal valuation of the trailing
block, so the pivot search is incremental: e is kept from one pivot to the
next and raised only when no entry of valuation e is left. A flag per row,
`hot`, marks the rows with an entry of valuation e in the trailing columns:
the pivot is the first such entry of the first hot row. A row that is not hot
stays so under the row operations (its multiplier is divisible by p), and a
row that is not updated has a zero in the pivot column, so `hot` is
recomputed only for the rows just updated, and in full when e rises. The
lattices are sparse, so the work follows the nonzero entries: only the rows
with a nonzero multiplier are cleared (in A and U), only in the columns where
the pivot row is nonzero. After the rows below the pivot are cleared, the
column operations can change only the pivot row, so they reduce to setting
it to zero, and V is updated only in the columns with a nonzero multiplier.

The core has two entries:
- `smith_normal_form` records the row operations in U and the column
  operations in V, for callers that take kernels or build a basis of a span;
- `smith_divisors` builds neither and makes no column operations, for
  callers that read only ranks and divisors; its result has U = V = None.

Callers that read only a product with a transform instead carry their
operand through the core as a passenger in place of that transform, so that
neither U nor V is built and no transform product is taken:
- membership rides as U: `span_contains_all(A, B)` passes B as U, and the
  row operations turn it into U @ B;
- a block of a kernel rides as V: `kernel_image(A, W)` passes W as V, and the
  column operations turn it into W @ V, whose kernel columns are W applied to
  a kernel basis of A. `span_intersection` eliminates [A | -B] with [A | 0]
  as W; the X-kernel invariants of `lambda_modules` read the top block of a
  kernel with W = [I_t | 0] (or a row selection of it);
- `lambda_modules.flatten` carries both through the one elimination of its
  translate matrix W: W itself rides as V, so the first r columns of W @ V
  are its relation basis, r the number of finite divisors, and the next
  X-translates of its relation vectors ride as U, so that U @ them
  certifies the span closed.
`kernel_basis` builds both transforms, for callers that read the whole
kernel.

Who reads the transforms: no program code reads U, and V is read only by
`kernel_basis` (its kernel columns, for `groupring.annihilator`, which only
tests reach), so program code reaches `smith_normal_form` only through
`kernel_basis`; the tests check that both are unimodular. No module
below the lattices imports this one: O_k, the tower and the series layers
are built and inverted by the polynomial arithmetic of `polyarith`.

Matrices are numpy arrays, dtype int64 when p^N and the matrix dimension are
small enough that no product of two reduced matrices can overflow, otherwise
dtype object (exact Python ints).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .padic import PrecisionExhausted

MARGIN = 2
PRECISION_BUMP = 4
PRECISION_RUNGS = 4
MODULE_PRECISION = 8
HARNESS_PRECISION = 10
OMEGA_PRECISION = 64  # K: the omega families are built mod p^K, and no module is flattened above it
_INT64_SAFE = 1 << 25  # int64 only below this p^N, whatever the dimension


def precision_ladder(N: int) -> range:
    """The working precisions N, N + PRECISION_BUMP, ... (PRECISION_RUNGS of them)."""
    return range(N, N + PRECISION_BUMP * PRECISION_RUNGS, PRECISION_BUMP)


def at_rising_precision(fn: Callable[[int], object], N: int):
    """fn at the first rung of the ladder from N that does not raise
    PrecisionExhausted; the last rung's error if every rung raises."""
    for Nk in precision_ladder(N):
        try:
            return fn(Nk)
        except PrecisionExhausted as e:
            last = e
    raise last


def _dtype_for(q: int, dim: int):
    """int64 when a product of two matrices reduced mod q, with inner
    dimension dim, stays exact: dim * (q - 1)^2 < 2^63."""
    if q < _INT64_SAFE and dim * (q - 1) ** 2 < 1 << 63:
        return np.int64
    return object


def as_matrix(rows, q: int) -> np.ndarray:
    A = np.array(rows, dtype=_dtype_for(q, max(np.shape(rows), default=0)))
    if A.ndim == 1:
        A = A.reshape(1, -1)
    return A % q


@dataclass
class SnfResult:
    """U @ A @ V = diag(p^e_i) mod p^N, U and V unimodular (None when only
    the divisors were computed)."""

    p: int
    N: int
    divisors: list[int]          # valuations e_1 <= ... <= e_min(m,n); N means zero
    U: np.ndarray | None
    V: np.ndarray | None
    shape: tuple[int, int]
    _diag: np.ndarray | None = field(default=None, repr=False)

    def rank(self) -> int:
        """Number of nonzero divisors; raises on a divisor inside the margin."""
        if any(self.N - MARGIN <= e < self.N for e in self.divisors):
            raise PrecisionExhausted("rank decision inside precision margin")
        return sum(1 for e in self.divisors if e < self.N)

    def torsion(self) -> list[int]:
        """Nontrivial finite elementary-divisor valuations (0 < e < N - MARGIN)."""
        return sorted(e for e in self.divisors if 0 < e < self.N - MARGIN)


def _eliminate(A: np.ndarray, p: int, N: int,
               U: np.ndarray | None = None, V: np.ndarray | None = None) -> list[int]:
    """Reduce A (m x n, entries in [0, p^N)) in place; return its divisor
    valuations, N meaning zero at precision.

    Row operations are applied to U and column operations to V when given.
    U may be any matrix with m rows and V any matrix with n columns, with
    entries in [0, p^N) and A's dtype: U ends as R @ U and V as V @ C, where R
    and C are the row and column operations. Without V the column operations
    are skipped: they would change only the pivot row, which no later pivot
    reads, so A is left diagonal only when V is given.

    For r >= s, hot[r] says whether row r has an entry of valuation e in the
    columns s: (the module docstring says why it is updated row by row). The
    rows below the pivot are cleared only where their multiplier is nonzero,
    and there only in the columns where the pivot row is nonzero; when every
    row has a nonzero multiplier they are taken as one slice."""
    q = p**N
    m, n = A.shape
    divisors: list[int] = []
    e, pe = 0, 1
    hot = (A % p).any(axis=1)
    for s in range(min(m, n)):
        i = s + int(hot[s:].argmax())
        while not hot[i] and e < N:
            e, pe = e + 1, pe * p
            hot[s:] = (A[s:, s:] % (pe * p)).any(axis=1)
            i = s + int(hot[s:].argmax())
        if e == N:  # the trailing block is zero at precision
            break
        j = s + int((A[i, s:] % (pe * p)).nonzero()[0][0])
        if i != s:
            A[s, s:], A[i, s:] = A[i, s:], A[s, s:].copy()
            hot[i] = hot[s]
            if U is not None:
                U[s], U[i] = U[i], U[s].copy()
        if j != s:
            A[s:, s], A[s:, j] = A[s:, j], A[s:, s].copy()
            if V is not None:
                V[:, s], V[:, j] = V[:, j], V[:, s].copy()
        uinv = pow(int(A[s, s]) // pe, -1, q)
        A[s, s:] = A[s, s:] * uinv % q
        if U is not None:
            U[s] = U[s] * uinv % q
        # entries below/right share valuation >= e, so they divide exactly
        k = A[s + 1:, s].nonzero()[0]
        rows = slice(s + 1, None) if k.size == m - s - 1 else s + 1 + k
        c = A[rows, s] // pe
        if c.size:
            cols = s + A[s, s:].nonzero()[0]
            blk = (rows if isinstance(rows, slice) else rows[:, None], cols)
            A[blk] = (A[blk] - c[:, None] * A[s, cols]) % q
            hot[rows] = (A[rows, s + 1:] % (pe * p)).any(axis=1)
            if U is not None:
                U[rows] = (U[rows] - c[:, None] * U[s]) % q
        if V is not None:
            cols = s + 1 + A[s, s + 1:].nonzero()[0]
            if cols.size:
                V[:, cols] = (V[:, cols] - V[:, s, None] * (A[s, cols] // pe)) % q
                A[s, cols] = 0
        divisors.append(e)
    return divisors + [N] * (min(m, n) - len(divisors))


def smith_normal_form(A, p: int, N: int) -> SnfResult:
    """Divisors with the transforms: U @ A @ V = diag(p^e_i) mod p^N."""
    A = as_matrix(A, p**N)
    m, n = A.shape
    U = np.eye(m, dtype=np.int64).astype(A.dtype)
    V = np.eye(n, dtype=np.int64).astype(A.dtype)
    divisors = _eliminate(A, p, N, U, V)
    return SnfResult(p=p, N=N, divisors=divisors, U=U, V=V, shape=(m, n), _diag=A)


def smith_divisors(A, p: int, N: int) -> SnfResult:
    """Divisors only, for callers that read ranks and torsion: U = V = None."""
    A = as_matrix(A, p**N)
    return SnfResult(p=p, N=N, divisors=_eliminate(A, p, N), U=None, V=None,
                     shape=A.shape)


def _kernel_columns(divisors: list[int], n: int, N: int) -> list[int]:
    """The columns past the rank after elimination; raises on a divisor
    inside [N - MARGIN, N)."""
    if any(N - MARGIN <= e < N for e in divisors):
        raise PrecisionExhausted("kernel decision inside precision margin")
    return [j for j in range(n) if j >= len(divisors) or divisors[j] == N]


def kernel_basis(A, p: int, N: int) -> np.ndarray:
    """Columns spanning the Z_p-kernel of A (margin-aware).

    Diagonal valuations below N - MARGIN are genuinely nonzero, so over the
    domain Z_p they contribute nothing to the kernel; the columns of V past
    the rank are killed by A mod p^N. A divisor inside [N - MARGIN, N) raises."""
    res = smith_normal_form(A, p, N)
    return res.V[:, _kernel_columns(res.divisors, res.shape[1], N)]


def kernel_image(A, W, p: int, N: int) -> tuple[np.ndarray, int]:
    """(W @ kernel_basis(A) mod p^N, the precision its columns carry), for W
    with A's column count: W rides along as V, so it ends as W @ V without V
    being built. A kernel vector mod p^N is one of Z_p only mod p^(N - e), e
    the largest finite divisor of A, so the precision returned is N - e."""
    q = p**N
    A = as_matrix(A, q)
    W = as_matrix(W, q).astype(A.dtype, copy=False)
    divisors = _eliminate(A, p, N, V=W)
    cols = _kernel_columns(divisors, A.shape[1], N)
    return W[:, cols], N - max((e for e in divisors if e < N), default=0)


def span_intersection(A: np.ndarray, B: np.ndarray, p: int, N: int) -> np.ndarray:
    """Columns spanning col-span(A) ∩ col-span(B): A x for the kernel vectors
    (x, y) of [A | -B], the kernel image under [A | 0], read at N (not at the
    precision the kernel vectors carry)."""
    return kernel_image(stack_cols(A, -B), stack_cols(A, np.zeros_like(B)), p, N)[0]


def span_contains_all(A, B, p: int, N: int) -> bool:
    """Every column of B lies in the column span of A (mod p^N, margin-aware).
    B rides along as U, so it ends as U @ B without U being built."""
    q = p**N
    A = as_matrix(A, q)
    Y = as_matrix(B, q).astype(A.dtype)
    m = A.shape[0]
    if Y.shape[0] != m:
        raise ValueError(f"B has {Y.shape[0]} rows, A has {m}")
    divisors = _eliminate(A, p, N, U=Y)
    for i in range(m):
        e = divisors[i] if i < len(divisors) else N
        row = Y[i]  # reduced mod q by the elimination
        if e >= N - MARGIN:
            bad = row != 0
            if bad.any():
                if ((row[bad] % p ** max(N - MARGIN, 1)) == 0).any():
                    raise PrecisionExhausted("membership decided inside margin")
                return False
        else:
            if (row % p**e != 0).any():
                return False
    return True


def spans_equal(A, B, p: int, N: int) -> bool:
    """Lattice equality as mutual membership of generators."""
    return span_contains_all(A, B, p, N) and span_contains_all(B, A, p, N)


def quotient_invariants(D_ambient: int, W, p: int, N: int) -> tuple[int, list[int]]:
    """(free rank, torsion divisor valuations) of Z_p^D / column-span(W)."""
    if W.shape[1] == 0:
        return D_ambient, []
    res = smith_divisors(W, p, N)
    return D_ambient - res.rank(), res.torsion()


def stack_cols(*mats) -> np.ndarray:
    mats = [m for m in mats if m is not None and m.size]
    if not mats:
        raise ValueError("nothing to stack")
    return np.hstack(mats)
