"""The unramified extension O_k of Z_p of degree d, in a Teichmuller power basis.

The basis generator zeta is a lift of a multiplicative generator of the
residue field, normalized so that zeta^(p^d - 1) = 1 holds exactly mod p^N.
Frobenius is then literally zeta -> zeta^p, a ring automorphism of order d.

The minimal polynomial of zeta is the product of X - zeta^(p^k) over its d
Frobenius conjugates, multiplied out in (Z/p^N)[x]/(lift) for the lift of
the residue polynomial that zeta was found in.

Elements are coordinate tuples of length d in the basis 1, zeta, ..., zeta^(d-1);
FieldDesc methods work on these raw tuples (the series and tower layers call
them directly). Everything is polynomial arithmetic modulo the minimal
polynomial: products and powers go through the polyarith kernel, and
inverses through its Newton inverse `inv_mod`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, lru_cache

from .padic import ZpContext, content_val, factorize, is_prime, primitive_root
from .polyarith import inv_mod, mul, mul_vec, rem_monic


# ---------------------------------------------------------------------------
# polynomial helpers over Z/q, modulus monic
# ---------------------------------------------------------------------------

def _polymul_mod(a: list[int], b: list[int], modulus: list[int], q: int) -> list[int]:
    return [c % q for c in rem_monic(mul(a, b), modulus)]


def _polypow_mod(a: list[int], e: int, modulus: list[int], q: int) -> list[int]:
    d = len(modulus) - 1
    out = [1 % q] + [0] * (d - 1)
    base = list(a)
    while e:
        if e & 1:
            out = _polymul_mod(out, base, modulus, q)
        base = _polymul_mod(base, base, modulus, q)
        e >>= 1
    return out


def _element_order_is(h: list[int], p: int, order: int) -> bool:
    """Does x have multiplicative order `order` in F_p[x]/(h)?"""
    d = len(h) - 1
    x = ([0, 1] + [0] * (d - 2)) if d >= 2 else [(-h[0]) % p]
    one = [1] + [0] * (d - 1)
    if _polypow_mod(x, order, h, p) != one:
        return False
    for ell in factorize(order):
        if _polypow_mod(x, order // ell, h, p) == one:
            return False
    return True


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
        return self.reduce(mul(a, b), q)

    def reduce(self, c, q: int | None = None):
        """Coordinates of sum c_i zeta^i (any length) mod the minimal polynomial and q."""
        q = q or self.q
        c = rem_monic(c, self.modulus) if len(c) > self.d else c
        return tuple(x % q for x in c) + (0,) * (self.d - len(c))

    def pow(self, a, e: int):
        return tuple(_polypow_mod(a, e, self.modulus, self.q))

    def frob(self, a, k: int, q: int | None = None):
        """Frobenius^k, k any integer (reduced mod d)."""
        q = q or self.q
        k %= self.d
        if k == 0:
            return tuple(x % q for x in a)
        cols = self.frob_cols[k]
        out = [0] * self.d
        for i, ai in enumerate(a):
            if ai:
                col = cols[i]
                for j in range(self.d):
                    out[j] = (out[j] + ai * col[j]) % q
        return tuple(out)

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


def _teichmuller_root(x: list[int], lift: list[int], p: int, q: int) -> list[int]:
    """The root z = x (mod p) of f(z) = z^(p^d) - z in (Z/q)[x]/(lift), for
    x a unit mod p: Newton steps z <- z - f(z)/f'(z), f'(z) = p^d z^(p^d - 1)
    - 1 a unit inverted by `inv_mod`, each doubling the p-adic precision."""
    e = p ** (len(lift) - 1)
    z, pk = x, p  # x^(p^d) = x in the residue field
    while pk < q:
        pk = min(pk * pk, q)
        u = _polypow_mod(z, e - 1, lift, pk)
        f = [a - b for a, b in zip(_polymul_mod(u, z, lift, pk), z)]
        df = inv_mod([e * u[0] - 1] + [e * c for c in u[1:]], lift, p, pk)
        z = [(a - b) % pk for a, b in zip(z, _polymul_mod(f, df, lift, pk))]
    assert _polypow_mod(z, e, lift, q) == z, "Teichmuller lift did not stabilize"
    return z


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
    zp = ZpContext(p, N)

    if d == 1:
        zeta0 = zp.teichmuller(primitive_root(p))
        fd = FieldDesc(
            p=p, d=1, N=N, q=q,
            modulus=((-zeta0) % q, 1),
            frob_cols=(((1,),),),
        )
        _check_field(fd)
        return fd

    hbar = _find_primitive_poly(p, d)
    # any monic lift presents the unramified extension; Teichmuller-lift x
    lift = [c % q for c in hbar]
    x = [0, 1] + [0] * (d - 2)
    zeta_x = _teichmuller_root(x, lift, p, q)

    # the minimal polynomial of zeta: the product of X - zeta^(p^k) over the
    # d Frobenius conjugates of zeta, computed in (Z/q)[x]/(lift), where its
    # coefficients are constants
    one = [1] + [0] * (d - 1)
    poly = [one]
    for k in range(d):
        conj = _polypow_mod(zeta_x, p**k, lift, q)
        poly = [[c % q for c in rem_monic(v, lift)]
                for v in mul_vec(poly, [[-c for c in conj], one], d)]
    assert not any(c for v in poly for c in v[1:]), "minimal polynomial is not over Z/q"
    modulus = tuple(v[0] for v in poly)

    # Frobenius matrices: phi^k sends zeta^i to zeta^(p^k * i), a power of x
    # modulo the minimal polynomial of zeta
    frob_all = tuple(
        tuple(tuple(_polypow_mod(x, p**k * i % (p**d - 1), modulus, q)) for i in range(d))
        for k in range(d))
    fd = FieldDesc(p=p, d=d, N=N, q=q, modulus=modulus, frob_cols=frob_all)
    _check_field(fd)
    return fd


def _check_field(fd: FieldDesc) -> None:
    z = fd.zeta()
    assert fd.pow(z, fd.p**fd.d - 1) == fd.one(), "generator is not a (p^d-1)-th root of unity"
    # order is exactly p^d - 1: no collapse to a proper subfield
    for ell in factorize(fd.p**fd.d - 1):
        assert fd.pow(z, (fd.p**fd.d - 1) // ell) != fd.one()
    assert fd.frob(z, 1) == fd.pow(z, fd.p), "Frobenius does not act as zeta -> zeta^p"
    assert fd.frob(z, fd.d) == z, "Frobenius order wrong"
