"""Exact coefficient arithmetic: polynomial products over Z by Kronecker
substitution, the two reduction rules the rings of normtower need, one
extended gcd over F_p, and the inverse of a unit of (Z/q)[x]/(m) for a monic m.

A polynomial is a sequence of ints, lowest degree first. `mul` packs both
factors in slots of W = 8s bits, wide enough for every product coefficient,
and reads the product's coefficients back out of the slots. Packing and
unpacking go through int.to_bytes / int.from_bytes in linear time. A factor
is packed as one two's-complement integer, each slot taking the borrow of
the slot below; the product's slots are read back as balanced digits.
The longer factor is cut into blocks as long as the shorter one, which
bounds the transient big ints. Each block is one big-int product below a
packed shorter factor of _MULTIPOINT_BYTES (the measured crossover) or of
fewer than _MULTIPOINT_COEFFS coefficients, and otherwise five products of a
quarter of the size, by evaluation at four points (Harvey, "Faster
polynomial multiplication via multipoint Kronecker substitution", J. Symb.
Comput. 2009; see `mul`).

The third regime starts at a longer factor of _DECIMAL_BYTES packed (128 KB)
and a shorter one of _DECIMAL_COEFFS coefficients (64): the same
substitution in base 10^w, w digits per slot. Each factor or block is packed
as one exact decimal.Decimal, libmpdec multiplies it (by number-theoretic
transform at these sizes) in a private context that traps every rounding,
and the product's slots are read back as balanced digits. Its blocks are as
long as the shorter factor and at least _DECIMAL_BLOCK_BYTES packed (128 KB).
Only the two largest products of omega_family(5, 5) reach it;
scripts/sweep_decimal_mul.py measures the crossover and the block rule.

`mul_vec` multiplies polynomials whose coefficients are themselves
length-d coefficient vectors (elements of O_k, of Z[F]/(F^d - 1), ...): each
vector is laid out in 2d - 1 slots, so the inner products cannot overlap,
and the result holds the unreduced inner products. When one operand is
nonzero only in rows f + k s, s > 1, just those rows are packed, against
each class of the other mod s that holds a nonzero row.

There are two reduction rules. Every ring is a quotient by a monic modulus
and reduces by `rem_monic`: O_k by the minimal polynomial of zeta
(`FieldDesc.modulus`), the tower level k_n by Phi_{p^(n+1)}
(`TowerDesc.modulus`) and the group ring Z_p[F]/(F^d - 1) by F^d - 1
(`GroupRing.modulus`). Series cut at their precision by `truncate`.

`inv_mod` inverts a unit of (Z/q)[x]/(m), q a power of p: `xgcd_fp` gives
the inverse mod p, and Newton steps x <- x(2 - a x) lift it, each doubling
the p-adic precision. It serves both O_k (m the minimal polynomial of zeta)
and the group ring Z_p[F]/(F^d - 1) (m = x^d - 1).
"""

from __future__ import annotations

import decimal
import sys
from math import gcd

_MULTIPOINT_BYTES = 2048  # the shorter factor's packed size from which mul evaluates at four points
_MULTIPOINT_COEFFS = 6  # and its coefficient count: below it the classes hold one or two each
_DECIMAL_BYTES = 1 << 17  # the longer factor's packed size from which mul multiplies in libmpdec
_DECIMAL_COEFFS = 64  # and the shorter factor's coefficient count: below it the conversions cost more
_DECIMAL_BLOCK_BYTES = 1 << 17  # the least packed size of a block of the longer factor there

# Exact arithmetic in libmpdec: any rounding or invalid operation raises.
_EXACT = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
                         traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation])


def _pack(a, s: int) -> int:
    """sum a_i 2^(8 s i), for |a_i| < 2^(8s-1), read as one two's-complement
    integer: each slot holds a_i less the borrow of the slot below it, which
    is one when that slot went negative, so no bias is taken off and at most
    two values of the packed size are live at once."""
    slots, borrow = [], 0
    for x in a:
        x -= borrow
        borrow = x < 0
        slots.append(x.to_bytes(s, "little", signed=True))
    raw = b"".join(slots)
    del slots
    return int.from_bytes(raw, "little", signed=True)


def _unpack(x: int, out, slots: range, s: int, half: int) -> None:
    """Adds x's s-byte slots to out[slots] as balanced digits: a slot >= half borrows one."""
    raw = memoryview(x.to_bytes(len(slots) * s, "little", signed=True))
    base, borrow = 2 * half, 0
    for i, k in zip(slots, range(0, len(raw), s)):
        c = int.from_bytes(raw[k:k + s], "little") + borrow
        borrow = c >= half
        out[i] += c - base if borrow else c


def _evaluate(a, s: int) -> tuple[int, int, int, int]:
    """A(y), A(-y) and the real and imaginary parts of A(iy), y = 2^(2s), from
    the terms y^r P_r(y^4), the class P_r = a[r::4] packed at y^4 = 2^(8s)."""
    p0, p1, p2, p3 = (_pack(a[r::4], s) << 2 * s * r for r in range(4))
    return p0 + p1 + p2 + p3, p0 - p1 + p2 - p3, p0 - p2, p1 - p3


def _classes(ay, am, ar, ai, by, bm, br, bi, t: int) -> tuple[int, int, int, int]:
    """H_0, ..., H_3 at y^4 = 2^(4t), where H = A B = sum x^r H_r(x^4), from
    the evaluations of A and B at y = 2^t: five products and exact shifts."""
    hp, hm = ay * by, am * bm
    even, odd = (hp + hm) >> 1, (hp - hm) >> (t + 1)  # H0 + y^2 H2, H1 + y^2 H3
    del hp, hm
    k = br * (ar + ai)  # Gauss's three products: H(iy) = re + i y im
    re, im = k - ai * (br + bi), (k + ar * (bi - br)) >> t
    del k
    return (even + re) >> 1, (odd + im) >> 1, (even - re) >> (2 * t + 1), (odd - im) >> (2 * t + 1)


def _pack_decimal(a, w: int) -> decimal.Decimal:
    """sum a_i 10^(w i) as one exact Decimal, by halves: each sum shifts the
    upper half by its exponent, and libmpdec carries the signs."""
    packed = [_EXACT.create_decimal(x) for x in a]
    shift = w
    while len(packed) > 1:
        pairs = zip(packed[::2], packed[1::2])
        packed = [_EXACT.add(lo, _EXACT.scaleb(hi, shift)) for lo, hi in pairs] + packed[len(packed) & ~1:]
        shift *= 2
    return packed[0]


def _read_digits(digits: str) -> int:
    """int(digits) in pieces of 640 digits, which int(str) takes under any
    str-digit limit (sys.int_info.str_digits_check_threshold)."""
    x = 0
    for k in range(0, len(digits), 640):
        piece = digits[k:k + 640]
        x = x * 10 ** len(piece) + int(piece)
    return x


def _digits(x: decimal.Decimal, m: int) -> str:
    """The digits of x, or of its ten's complement 10^m + x when x is negative
    (or -0), as _unpack reads two's complement."""
    if x.is_signed():
        x = _EXACT.add(x, _EXACT.scaleb(1, m))
    return str(x)


def _unpack_decimal(digits: str, out, slots: range, w: int, half: int) -> None:
    """Adds the w-digit slots of the last len(slots) * w digits of a digit
    string, zeros where it is shorter, to out[slots] as balanced digits, as
    _unpack does. Slots wider than the interpreter's str-digit limit are read
    in pieces; the limit is not touched."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    read = int if not limit or w <= limit else _read_digits
    base, borrow = 2 * half, 0
    for i, k in zip(slots, range(len(digits), len(digits) - len(slots) * w, -w)):
        c = (read(digits[max(k - w, 0):k]) if k > 0 else 0) + borrow
        borrow = c >= half
        out[i] += c - base if borrow else c


def _mul_decimal(a, b, bound: int, s: int, out) -> None:
    """Kronecker substitution at 10^w: each block of a and b packed as one
    Decimal, one libmpdec product (a number-theoretic transform at these
    sizes) per block, read back from slots of w digits. Each product is freed
    once _digits returns, before its digits are read, and no digit string
    outlives its block."""
    w = (bound.bit_length() + 1) * 30103 // 100000 + 1  # 10^w > 2^(bits + 1) > 2 bound
    half = 5 * 10 ** (w - 1)
    n = len(b)
    step = max(n, _DECIMAL_BLOCK_BYTES // s)
    packed_b = _pack_decimal(b, w)
    for j in range(0, len(a), step):
        block = a[j:j + step]
        slots = range(j, j + len(block) + n - 1)
        _unpack_decimal(_digits(_EXACT.multiply(_pack_decimal(block, w), packed_b), len(slots) * w),
                        out, slots, w, half)


def mul(a, b) -> list[int]:
    """The product of two polynomials over Z. From the crossover on, a block's
    product H is evaluated at y, -y and iy, y^4 = 2^W, with the classes mod 4
    of both factors packed in the same slots: five products, Gauss's three for
    H(iy), about 0.55 of one under Karatsuba. The slots and bound are the same
    and every division that recovers the classes of H is an exact shift.
    From the decimal crossover on, the whole product goes to _mul_decimal."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    out = [0] * (len(a) + n - 1)
    bound = max(map(abs, a)) * max(map(abs, b)) * n
    if not bound:
        return out
    s = (bound.bit_length() + 8) // 8  # bytes per slot, so that bound < 2^(8s-1)
    if s * len(a) >= _DECIMAL_BYTES and n >= _DECIMAL_COEFFS:
        _mul_decimal(a, b, bound, s, out)
        return out
    half = 1 << (8 * s - 1)
    multipoint = s * n >= _MULTIPOINT_BYTES and n >= _MULTIPOINT_COEFFS
    packed_b = _evaluate(b, s) if multipoint else _pack(b, s)
    for j in range(0, len(a), n):
        block = a[j:j + n]
        slots = range(j, j + len(block) + n - 1)
        if multipoint:
            for r, h in enumerate(_classes(*_evaluate(block, s), *packed_b, 2 * s)):
                _unpack(h, out, slots[r::4], s, half)
        else:
            _unpack(_pack(block, s) * packed_b, out, slots, s, half)
    return out


def _stride(rows) -> tuple[int, int]:
    """(f, s): the first nonzero row and the gcd of the gaps between nonzero
    rows, 0 with at most one of them; the scan stops once s is 1."""
    nonzero = (i for i, r in enumerate(rows) if any(r))
    f, s = next(nonzero, -1), 0
    for i in nonzero:
        s = gcd(s, i - f)
        if s == 1:
            break
    return f, s


def mul_vec(a, b, d: int) -> list[list[int]]:
    """The product of polynomials with length-d vector coefficients; entry e
    of the result is the unreduced length-(2d - 1) product of the inner
    polynomials summed over i + j = e."""
    if not a or not b:
        return []
    w = 2 * d - 1
    (fa, sa), (f, s) = _stride(a), _stride(b)
    if max(sa, s) > 1:
        if sa > s:
            a, b, f, s = b, a, fa, sa
        # b lives in rows f + k s: pair each class of a mod s with b[f::s]
        out = [[0] * w for _ in range(len(a) + len(b) - 1)]
        for r in range(s):
            if any(map(any, a[r::s])):
                for k, row in enumerate(mul_vec(a[r::s], b[f::s], d)):
                    out[r + f + k * s] = row
        return out
    pad = [0] * (d - 1)

    def spread(rows):
        flat = []
        for r in rows:
            flat += r
            flat += pad
        return flat

    c = mul(spread(a), spread(b))
    return [c[i:i + w] for i in range(0, (len(a) + len(b) - 1) * w, w)]


def divmod_monic(a, m) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by the monic m over Z; the remainder has
    exactly deg(m) coefficients."""
    n = len(m) - 1
    assert n >= 0 and m[n] == 1, "modulus must be monic"
    r = list(a)
    quo = [0] * max(len(r) - n, 0)
    terms = [(i, c) for i, c in enumerate(m[:n]) if c]
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        if c:
            quo[k - n] = c
            for i, mi in terms:
                r[k - n + i] -= c * mi
    return quo, truncate(r, n)


def rem_monic(a, m) -> list[int]:
    """a mod the monic m over Z, with exactly deg(m) coefficients."""
    return divmod_monic(a, m)[1]


def truncate(a, n: int) -> list[int]:
    """The first n coefficients of a, padded with zeros."""
    out = list(a[:n])
    out += [0] * (n - len(out))
    return out


def xgcd_fp(a, b, p: int) -> tuple[list[int], list[int], list[int]]:
    """(g, s, t) over F_p with s a + t b = g, g the monic gcd of a and b;
    all three are [] when a and b both vanish mod p."""

    def trim(u):
        u = [x % p for x in u]
        while u and not u[-1]:
            u.pop()
        return u

    def sub(u, v):
        n = max(len(u), len(v))
        return trim([x - y for x, y in zip(truncate(u, n), truncate(v, n))])

    r0, s0, t0 = trim(a), [1], []
    r1, s1, t1 = trim(b), [], [1]
    while r1:
        inv = pow(r1[-1], -1, p)
        quo, rem = divmod_monic(r0, [x * inv % p for x in r1])
        quo = [x * inv % p for x in quo]
        r0, r1 = r1, trim(rem)
        s0, s1 = s1, sub(s0, mul(quo, s1))
        t0, t1 = t1, sub(t0, mul(quo, t1))
    if not r0:
        return [], [], []
    inv = pow(r0[-1], -1, p)
    return tuple(trim([x * inv for x in u]) for u in (r0, s0, t0))


def inv_mod(a, m, p: int, q: int) -> list[int]:
    """The inverse of a in (Z/q)[x]/(m), for m monic and q a power of p,
    reduced mod q with deg(m) coefficients. ZeroDivisionError when a is not
    a unit, that is when a and m have a nontrivial common factor mod p."""
    n = len(m) - 1
    g, x, _ = xgcd_fp(a, m, p)
    if g != [1]:
        raise ZeroDivisionError("not a unit")
    pk = p
    while pk < q:
        pk = min(pk * pk, q)
        ax = rem_monic(mul(a, x), m)
        x = [c % pk for c in rem_monic(mul(x, [2 - ax[0]] + [-c for c in ax[1:]]), m)]
    return [c % q for c in truncate(x, n)]
