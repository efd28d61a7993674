"""Fixed-precision arithmetic in Z_p mod p^N.

Scalars are plain Python ints reduced into [0, p^N), and a unit is
inverted by pow(a, -1, p^N). All arithmetic is exact mod p^N and the
precision exponent N never changes silently: an element whose residue
vanishes is "zero at precision N", not exact zero.

The p-adic content of a set of coordinates, the least valuation among them,
is read in one place, `content_val`: one gcd and one capped valuation. The
series, tower and field layers read it to strip common factors of p once;
each keeps its own branch for a set that is zero at its precision.
"""

from __future__ import annotations

import math


class PrecisionExhausted(Exception):
    """A decision (pivot, membership, rank) fell inside the precision margin."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> dict[int, int]:
    """Trial-division factorization; fine for the desk-scale p^d - 1 sizes here."""
    out: dict[int, int] = {}
    f = 2
    while f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def primitive_root(p: int) -> int:
    """The smallest primitive root mod the prime p."""
    return next(g for g in range(2, p)
                if all(pow(g, (p - 1) // ell, p) != 1 for ell in factorize(p - 1)))


def val_int(a: int, p: int, cap: int) -> int:
    """p-adic valuation of the residue a, capped at `cap` (0 -> cap)."""
    a = abs(a)
    if a == 0:
        return cap
    v = 0
    while v < cap and a % p == 0:
        a //= p
        v += 1
    return v


def content_val(values, p: int, cap: int) -> int:
    """The least p-adic valuation among the integers `values` (of their gcd),
    capped at `cap`: cap when every value is 0 or there are none."""
    return val_int(math.gcd(*values), p, cap)


def floor_log(x: int, base: int) -> int:
    """The largest k with base^k <= x (0 when x < base), in exact integers."""
    k, power = 0, base
    while power <= x:
        k, power = k + 1, power * base
    return k
