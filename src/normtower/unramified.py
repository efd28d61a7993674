"""The unramified extension O_k of Z_p of degree d, in a Teichmuller power basis.

The basis generator zeta is the Teichmuller lift (`polyarith.teichmuller`)
of the class of x in (Z/p^N)[x]/(lift), for a monic lift of a residue
polynomial h whose root generates F_{p^d}^*: x - g for the smallest
primitive root g at d = 1, else the first such h (`_find_primitive_poly`).
Then zeta^(p^d - 1) = 1 holds exactly mod p^N, and Frobenius is literally
zeta -> zeta^p, a ring automorphism of order d.

The minimal polynomial of zeta is the product of X - zeta^(p^k) over its d
Frobenius conjugates, multiplied out in (Z/p^N)[x]/(lift).

Elements are coordinate tuples of length d in the basis 1, zeta, ..., zeta^(d-1);
FieldDesc methods work on these raw tuples (the series and tower layers call
them directly). Everything is arithmetic in (Z/q)[x]/(minimal polynomial):
products, powers and inverses are polyarith's `mul_mod`, `pow_mod` and
`inv_mod`. Frobenius^k is one read-only matrix, `FieldDesc.frob_matrix(k)`,
read by `frob`, `TowerElt.galois` and `lattice.galois_span`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .padic import content_val, factorize, is_prime, primitive_root
from .polyarith import inv_mod, mul_mod, mul_vec, pow_mod, rem_monic, teichmuller


def _element_order_is(m: list[int], q: int, order: int) -> bool:
    """Does the class of x have multiplicative order `order` in (Z/q)[x]/(m)?"""
    one = [1 % q] + [0] * (len(m) - 2)
    if pow_mod([0, 1], order, m, q) != one:
        return False
    return all(pow_mod([0, 1], order // ell, m, q) != one for ell in factorize(order))


@cache
def _find_primitive_poly(p: int, d: int) -> tuple[int, ...]:
    """The first monic degree-d poly h over F_p (coefficients read as base-p
    digits, lowest first) whose root x generates F_{p^d}^*.

    No irreducibility test is needed: if x has order p^d - 1 in
    R = F_p[x]/(h), its powers are p^d - 1 distinct units, so every nonzero
    element of the p^d-element ring R is a unit, R is a field and h is
    irreducible."""
    order = p**d - 1
    for code in range(p**d):
        h = [code // p**i % p for i in range(d)] + [1]
        if _element_order_is(h, p, order):
            return tuple(h)
    raise RuntimeError(f"no primitive polynomial found for p={p}, d={d}")  # unreachable


# ---------------------------------------------------------------------------
# field description and elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class FieldDesc:
    """Unramified degree-d extension of Z_p at working precision N.

    modulus: monic minimal polynomial of zeta (length d+1).
    frob_cols[k]: columns of the matrix of Frobenius^k (image of each basis power).
    """

    p: int
    d: int
    N: int
    modulus: tuple[int, ...]
    frob_cols: tuple[tuple[tuple[int, ...], ...], ...]
    q: int

    # -- raw tuple arithmetic ------------------------------------------------

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.d

    def one(self, q: int | None = None) -> tuple[int, ...]:
        return ((1 % (q or self.q)),) + (0,) * (self.d - 1)

    def from_int(self, c: int, q: int | None = None) -> tuple[int, ...]:
        return (c % (q or self.q),) + (0,) * (self.d - 1)

    def zeta(self) -> tuple[int, ...]:
        return self.reduce((0, 1))

    def add(self, a, b, q: int | None = None):
        q = q or self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a, b, q: int | None = None):
        q = q or self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def scalar(self, c: int, a, q: int | None = None):
        q = q or self.q
        return tuple((c * x) % q for x in a)

    def mul(self, a, b, q: int | None = None):
        q = q or self.q
        if self.d == 1:
            return ((a[0] * b[0]) % q,)
        return tuple(mul_mod(a, b, self.modulus, q))

    def reduce(self, c, q: int | None = None):
        """Coordinates of sum c_i zeta^i (any length) mod the minimal polynomial
        and q: a row no longer than d takes one % per coordinate."""
        q = q or self.q
        if len(c) == self.d == 1:
            return (c[0] % q,)
        c = rem_monic(c, self.modulus) if len(c) > self.d else c
        return tuple([x % q for x in c]) + (0,) * (self.d - len(c))

    def pow(self, a, e: int):
        return tuple(pow_mod(a, e, self.modulus, self.q))

    def frob(self, a, k: int, q: int | None = None):
        """Frobenius^k, k any integer (reduced mod d)."""
        q = q or self.q
        if k % self.d == 0:
            return tuple(x % q for x in a)
        return tuple(self.frob_matrix(k) @ np.array(a, dtype=object) % q)

    @lru_cache(maxsize=None)
    def frob_matrix(self, k: int) -> np.ndarray:
        """The matrix of Frobenius^k, k any integer (reduced mod d), read-only:
        entry (j, i) is the j-th coordinate of frob^k(zeta^i), so frob^k acts
        on a coordinate vector as M @ a and on rows of coordinates as c @ M.T."""
        M = np.array(self.frob_cols[k % self.d], dtype=object).T
        M.setflags(write=False)
        return M

    def val(self, a, cap: int | None = None) -> int:
        """min p-adic valuation over coordinates, capped (cap = zero at precision)."""
        return content_val(a, self.p, self.N if cap is None else cap)

    def is_zero(self, a) -> bool:
        return all(x % self.q == 0 for x in a)

    def inv(self, a, q: int | None = None):
        """Inverse of a unit (`polyarith.inv_mod`); ZeroDivisionError for a
        non-unit."""
        return tuple(inv_mod(a, self.modulus, self.p, q or self.q))

    def divp_exact(self, a, k: int):
        pk = self.p**k
        if any(x % pk for x in a):
            raise ValueError("coordinates not divisible by p^k")
        return tuple(x // pk for x in a)


@lru_cache(maxsize=None)
def build_unramified(p: int, d: int, N: int) -> FieldDesc:
    """Construct O_k = Z_p[zeta] with zeta a Teichmuller generator, exact mod p^N.

    The residue of zeta generates F_{p^d}^* and zeta^(p^d) = zeta holds exactly,
    so Frobenius (zeta -> zeta^p) has order exactly d.
    """
    if p == 2:
        raise ValueError("p = 2 is out of scope")
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if d < 1 or N < 1:
        raise ValueError("need d >= 1 and N >= 1")
    q = p**N
    # the residue field F_p[x]/(hbar); any monic lift presents the unramified
    # extension, and zeta is the Teichmuller lift of the class of x
    hbar = ((-primitive_root(p)) % p, 1) if d == 1 else _find_primitive_poly(p, d)
    lift = [c % q for c in hbar]
    zeta_x = teichmuller([0, 1], lift, p, q)

    # the minimal polynomial of zeta: the product of X - zeta^(p^k) over the
    # d Frobenius conjugates of zeta, computed in (Z/q)[x]/(lift), where its
    # coefficients are constants
    one = [1] + [0] * (d - 1)
    poly = [one]
    for k in range(d):
        conj = pow_mod(zeta_x, p**k, lift, q)
        poly = [[c % q for c in rem_monic(v, lift)]
                for v in mul_vec(poly, [[-c for c in conj], one], d)]
    assert not any(c for v in poly for c in v[1:]), "minimal polynomial is not over Z/q"
    modulus = tuple(v[0] for v in poly)

    # Frobenius matrices: phi^k sends zeta^i to zeta^(p^k * i), a power of x
    # modulo the minimal polynomial of zeta
    frob_all = tuple(
        tuple(tuple(pow_mod([0, 1], p**k * i % (p**d - 1), modulus, q)) for i in range(d))
        for k in range(d))
    fd = FieldDesc(p=p, d=d, N=N, q=q, modulus=modulus, frob_cols=frob_all)
    _check_field(fd)
    return fd


def _check_field(fd: FieldDesc) -> None:
    z = fd.zeta()
    # order exactly p^d - 1: a (p^d - 1)-th root of unity in no proper subfield
    assert _element_order_is(fd.modulus, fd.q, fd.p**fd.d - 1), "generator has the wrong order"
    assert fd.frob(z, 1) == fd.pow(z, fd.p), "Frobenius does not act as zeta -> zeta^p"
    assert fd.frob(z, fd.d) == z, "Frobenius order wrong"
