"""The unit/annihilator dichotomy of F + F^-1 in the group ring
Z_p[F]/(F^d - 1) of the unramified Galois group, the cyclotomic polynomial
families omega_n / omega_n^{+-}, and the alternating p-power sums q_n. The
character idempotents of the tame quotient Delta are the tower's
(`TowerDesc.idempotents`), built at the tower's own precision.

A group-ring element sum a_i F^i (F the Frobenius) is its coefficient list,
and multiplication by it on the F-power basis is its circulant matrix: the
dichotomy reads that matrix and nothing else. The omega family is kept mod
p^K, K = `snf.OMEGA_PRECISION`, as coefficient tuples in [0, p^K), lowest
degree first: its readers flatten it mod p^N for N <= K, and a remainder by a
monic cap commutes with reduction mod p^K. The binomial rows it is built from
are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .polyarith import mul
from .snf import OMEGA_PRECISION, kernel_basis, smith_divisors, spans_equal


# ---------------------------------------------------------------------------
# the unit/annihilator dichotomy of F + F^-1
# ---------------------------------------------------------------------------

def circulant(a, q: int) -> np.ndarray:
    """The d x d matrix, d = len(a), of multiplication by sum a_i F^i on the
    F-power basis of (Z/q)[F]/(F^d - 1): column j is F^j a, a shifted
    cyclically by j."""
    d = len(a)
    shift = (np.arange(d)[:, None] - np.arange(d)) % d
    return np.array([c % q for c in a], dtype=object)[shift]


def annihilator_matches_closed_form(p: int, d: int, N: int) -> dict:
    """The dichotomy for F + F^-1 in Z_p[F]/(F^d - 1), decided at p^N on its
    circulant C: it is a unit iff every SNF divisor of C is 0, and its
    annihilator is the kernel of C. When d = 0 mod 4 that kernel has rank 2
    and spans what the circulant of 1 - F^2 + F^4 - ... - F^(d-2) spans;
    otherwise it is zero (and F + F^-1 a unit)."""
    q = p**N
    C = circulant([int(i == 1 % d) + int(i == -1 % d) for i in range(d)], q)  # F + F^-1
    unit = all(e == 0 for e in smith_divisors(C, p, N).divisors)
    K = kernel_basis(C, p, N)
    rank = K.shape[1]
    if d % 4 == 0:
        alpha = [(-1) ** (i // 2) * (1 - i % 2) for i in range(d)]
        closed_form = spans_equal(circulant(alpha, q), K, p, N)
    else:
        closed_form = rank == 0
    return {"unit": unit, "annihilator_rank": rank, "closed_form": closed_form,
            "ok": unit == (d % 4 != 0) and rank == (2 if d % 4 == 0 else 0) and closed_form}


# ---------------------------------------------------------------------------
# integer polynomials: omega family (mod p^K)
# ---------------------------------------------------------------------------

def poly_mul(a: list[int], b: list[int], mod: int | None = None) -> list[int]:
    return mul(a, b, mod=mod)


def poly_trim(a: list[int]) -> list[int]:
    a = list(a)
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def one_plus_x_pow(e: int) -> list[int]:
    """(1 + X)^e as integer coefficients, by C(e, j+1) = C(e, j)(e - j)/(j + 1)
    (each step is an exact integer division) and the symmetry C(e, j) = C(e, e - j)."""
    if e < 0:
        raise ValueError("e >= 0")
    row = [1] * (e + 1)
    c = 1
    for j in range(e // 2):
        c = c * (e - j) // (j + 1)
        row[j + 1] = row[e - j - 1] = c
    return row


def omega_n(p: int, n: int) -> list[int]:
    """(1+X)^(p^n) - 1."""
    out = one_plus_x_pow(p**n)
    out[0] -= 1
    return out


def cyclotomic_phi(p: int, m: int) -> list[int]:
    """Phi_m(1+X) = sum_{i<p} (1+X)^(i p^(m-1)), the p^m-th cyclotomic polynomial at 1+X."""
    if m < 1:
        raise ValueError("m >= 1")
    s = p ** (m - 1)
    acc = [0] * ((p - 1) * s + 1)
    for i in range(p):
        row = one_plus_x_pow(i * s)
        acc[:len(row)] = [x + y for x, y in zip(acc, row)]
    return acc


@dataclass(frozen=True)
class OmegaFamily:
    p: int
    n: int
    omega: tuple[int, ...]
    phis: tuple[tuple[int, ...], ...]        # Phi_1(1+X) .. Phi_n(1+X)
    omega_tilde_plus: tuple[int, ...]
    omega_tilde_minus: tuple[int, ...]
    omega_plus: tuple[int, ...]
    omega_minus: tuple[int, ...]


def omega_family(p: int, n: int) -> OmegaFamily:
    """omega_n and its plus/minus factorizations mod p^K, K = OMEGA_PRECISION;
    the identity omega_n = omega-tilde_n^- * omega_n^+ is asserted mod p^K, and
    the degrees deg omega_n^+ = q_n^+, deg omega_n^- = q_n^- + 1 independently
    (every factor is monic, so reduction keeps its degree).

    Each (p, n) is built once per process and the same frozen family is
    returned to every caller."""
    if n < 0:
        raise ValueError("n >= 0")
    return _omega_family(p, n)


@cache
def _omega_family(p: int, n: int) -> OmegaFamily:
    """Level n from level n - 1, mod q = p^K: one more Phi_n(1+X), multiplied
    into omega-tilde^+ for even n and omega-tilde^- for odd n; omega_n^(+/-)
    is X * omega-tilde_n^(+/-)."""
    q = p**OMEGA_PRECISION
    if n == 0:
        phis, tp, tm = (), (1,), (1,)
    else:
        prev = _omega_family(p, n - 1)
        phi = tuple(c % q for c in cyclotomic_phi(p, n))
        phis, tp, tm = prev.phis + (phi,), prev.omega_tilde_plus, prev.omega_tilde_minus
        if n % 2 == 0:
            tp = tuple(poly_mul(tp, phi, mod=q))
        else:
            tm = tuple(poly_mul(tm, phi, mod=q))
    op, om = (0,) + tp, (0,) + tm
    w = [c % q for c in omega_n(p, n)]
    assert poly_trim(poly_mul(tm, op, mod=q)) == poly_trim(w), "omega_n != tilde_minus * plus mod p^K"
    _, qp, qm = q_values(p, n)
    assert (len(poly_trim(op)) - 1, len(poly_trim(om)) - 1) == (qp, qm + 1), \
        "deg omega_n^+ != q_n^+ or deg omega_n^- != q_n^- + 1"
    return OmegaFamily(p=p, n=n, omega=tuple(w), phis=phis,
                       omega_tilde_plus=tp, omega_tilde_minus=tm,
                       omega_plus=op, omega_minus=om)


def q_values(p: int, n: int) -> tuple[int, int, int]:
    """(q_n, q_n^+, q_n^-). q_n = sum_{i=0..n} (-1)^i p^(n-i); q_{-1} = 0.

    The n = -1 base value 0 is forced by q_n + q_{n-1} = p^n and by
    q_n^+ + q_n^- = p^n at n = 0.
    """
    if n < -1:
        raise ValueError("n >= -1")

    def q(m: int) -> int:
        if m == -1:
            return 0
        return sum((-1) ** i * p ** (m - i) for i in range(m + 1))

    qn = q(n)
    if n == -1:
        return 0, 0, 0
    qp = q(n) if n % 2 == 0 else q(n - 1)
    qm = q(n) if n % 2 == 1 else q(n - 1)
    assert qp + qm == p**n, "q_n^+ + q_n^- != p^n"
    return qn, qp, qm


def delta_of(d: int, chi_trivial: bool) -> int:
    """The freeness defect: 2 iff d = 0 (mod 4) and chi is trivial, else 0."""
    return 2 if (d % 4 == 0 and chi_trivial) else 0
