"""Exact coefficient arithmetic: polynomial products over Z by Kronecker
substitution or by residues mod word-size primes, the two reduction rules
the rings of normtower need, one extended gcd over F_p, and the arithmetic
of (Z/q)[x]/(m) for a monic m.

A polynomial is a sequence of ints, lowest degree first. `mul` packs both
factors in slots of W = 8s bits, wide enough for every product coefficient,
and reads the product's coefficients back out of the slots. Packing and
unpacking go through int.to_bytes / int.from_bytes in linear time. A factor
is packed as one two's-complement integer, each slot taking the borrow of
the slot below; the product's slots are read back as balanced digits.
The longer factor is cut into blocks as long as the shorter one, which
bounds the transient big ints, and each block is one big-int product.

From the residue crossover on, `mul` works by residues instead
(multi-modular multiplication; Brent and Zimmermann, "Modern Computer
Arithmetic", 2010, ch. 2). The crossover is measured: a sparser factor of at
least _RESIDUE_COEFFS nonzero coefficients (7), slots of at least
_RESIDUE_SLOT bytes (64), and those nonzero coefficients at least
_RESIDUE_BYTES packed (4 KB). Both factors are reduced mod k primes p_i
below 2^26 whose product M exceeds 2 bound, the residues are convolved per
prime, and each product coefficient is rebuilt by the CRT and lifted to
(-M/2, M/2), as _unpack reads a slot; or, for a product mod `mod`, M
exceeds 4 bound and each is rebuilt mod `mod` by the explicit CRT. The
convolution is direct over the sparser factor's nonzero coefficients. Four
bounds make it exact:

- residues: the 16-bit limbs of |a_j| times a table of 2^(16 l) mod p_i, a
  float64 matrix product whose partial sums stay below
  L (2^16 - 1)(p_i - 1) < 2^53 for L <= _MAX_LIMBS = 2048 limbs;
- direct convolution: int64 sums of products of at most (p - 1)^2, reduced
  mod p every _CONV_CHUNK = 2048 terms, so below 2^63;
- CRT: x @ limbs(M / p_i), x_i the convolved residues times the CRT
  weights w_i in [0, p_i), a float64 matrix product whose partial sums stay
  below k (p - 1)(2^16 - 1) < 2^53 for k <= _MAX_PRIMES = 2048 primes,
  then one big-int % M per coefficient;
- explicit CRT, for `mod` (Montgomery and Silverman, Math. Comp. 54, 1990;
  Bernstein, "Multidigit modular multiplication with the explicit Chinese
  remainder theorem", 1995): c = sum x_i M/p_i - t M, t an integer, so
  c mod `mod` = [x, t] @ limbs((M/p_i) mod `mod`, -M mod `mod`) mod `mod`.
  The primes are taken with M > 4 bound, so |c|/M < 1/4 and
  sum x_i/p_i = t + c/M lies within 1/4 of t. That sum, x @ (1/p_i) in
  float64, has an error below (k^2 + 2k) 2^-53 < 2^-28 in any summation
  order, so t = rint(x @ (1/p_i)) is exact, and t <= k. The matrix product's
  partial sums stay below k p (2^16 - 1) < 2^53; its rows are below
  k 2^26 mod, so the one % mod per coefficient has a quotient below 2^37.

A product outside the float64 bounds of the residues and the CRT takes one
product per block. A float64 sum of integers below 2^53 is exact in any
order, so the BLAS may block and reorder the products as it likes; the
products run in blocks of at most _BLOCK_BYTES (128 KB, the glibc mmap
threshold), which keeps the BLAS's packing and the transients small. The
primes, one table of limb powers (grown on demand) and the CRT tables of
the last _CRT_TABLES (8) pairs of a prime count and a modulus are built on
first use. scripts/sweep_mul.py measures the crossovers and the lift mod
`mod`.

`mul(a, b, keep)` returns only the first keep coefficients, as a series
product keeps degrees up to deg of 2 deg + 1; only the first keep
coefficients of each factor reach them. The bound n top_a top_b, the slot
width and the prime count are those of the whole product, and each kept
coefficient is one of its coefficients, bit for bit. The one-product regime
multiplies only the blocks that start below keep and reads only the slots
below it: the product mod 2^(8 s m), read as two's complement, gives the
low m slots the same bytes and borrows as the whole product, and the
borrow out of the last slot read belongs to a slot not read. The residue
regime reduces the first keep coefficients of each factor, convolves keep
rows (a nonzero row j < keep of the sparser factor adds its first keep - j
products) and rebuilds only those. `mul(a, b, keep, mod)` returns them mod
`mod`, in [0, mod): the residue regime rebuilds them by the explicit CRT,
from a table half as wide as M's when `mod` is half M's size, and the
one-product regime reduces its output.

`mul_vec` multiplies polynomials whose coefficients are themselves
length-d coefficient vectors (elements of O_k, of Z[F]/(F^d - 1), ...): each
vector is laid out in 2d - 1 slots, so the inner products cannot overlap,
and the result holds the unreduced inner products. When one operand is
nonzero only in rows f + k s, s > 1, just those rows are packed, against
each class of the other mod s that holds a nonzero row. `mul_vec(a, b, d,
rows)` keeps the first `rows` rows: rows * (2d - 1) coefficients of the
spread product, and of class r of a strided one ceil((rows - r - f)/s).

There are two reduction rules. Every ring is a quotient by a monic modulus
and reduces by `rem_monic`: O_k by the minimal polynomial of zeta
(`FieldDesc.modulus`), the tower level k_n by Phi_{p^(n+1)}
(`TowerDesc.modulus`) and the group ring Z_p[F]/(F^d - 1) by F^d - 1
(`GroupRing.modulus`). Series cut at their precision by `truncate`.

The quotient rings (Z/q)[x]/(m), m monic, have their arithmetic here
once: `mul_mod` multiplies and reduces by m and q, and `pow_mod` raises to
a power by squaring. For q a power of p, `inv_mod` inverts a unit (the
inverse mod p by `xgcd_fp`, lifted by Newton steps x <- x(2 - a x)), and
`teichmuller` takes the root of z^(p^deg m) = z over a unit by Newton
steps; each step doubles the p-adic precision. They serve O_k (m the
minimal polynomial of zeta, or a lift of its residue polynomial while zeta
is built), the group ring Z_p[F]/(F^d - 1) (m = x^d - 1) and Z/q itself
(m = x), where `teichmuller` lifts a residue.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, prod

import numpy as np

_RESIDUE_BYTES = 4096  # the sparser factor's nonzero coefficients packed, from which mul takes residues
_RESIDUE_COEFFS = 7  # and their count: below it one product is cheaper at every slot size
_RESIDUE_SLOT = 64  # and the bytes per slot: below it one product is cheaper at every length

# The residue regime's exactness bounds: 16-bit limbs and primes below 2^26.
_MAX_LIMBS = 2048  # L (2^16 - 1)(2^26 - 1) < 2^53: a residue's float64 partial sums are exact
_MAX_PRIMES = 2048  # k (2^26 - 1)(2^16 - 1) < 2^53: so are the CRT's
_CONV_CHUNK = (1 << 63) // (1 << 26) ** 2  # terms between reductions: p + 2048 (p - 1)^2 < 2^63
_BLOCK_BYTES = 1 << 17  # the most a float64 or int64 block of the regime holds: the glibc mmap threshold
_CRT_TABLES = 8  # CRT tables kept: a series bundle's products take few (prime count, modulus) pairs


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
    """Adds x's low len(slots) s-byte slots to out[slots] as balanced digits:
    a slot >= half borrows one. x is read mod 2^(8 s len(slots)) as two's
    complement; a truncated product, wider than the slots read, is masked to
    them first, which leaves their bytes and borrows as they are."""
    size = len(slots) * s
    if x.bit_length() >= 8 * size:
        x &= (1 << 8 * size) - 1
    raw = memoryview(x.to_bytes(size, "little", signed=x < 0))
    base, borrow = 2 * half, 0
    for i, k in zip(slots, range(0, len(raw), s)):
        c = int.from_bytes(raw[k:k + s], "little") + borrow
        borrow = c >= half
        out[i] += c - base if borrow else c


@cache
def _primes() -> np.ndarray:
    """The _MAX_PRIMES largest primes below 2^26, descending, as int64: a
    sieve of [2^26 - 2^16, 2^26) by the primes below 2^13 (91^2 > 2^13)."""
    lo = (1 << 26) - (1 << 16)
    small = np.ones(1 << 13, dtype=bool)
    small[:2] = False
    for q in range(2, 91):
        if small[q]:
            small[q * q::q] = False
    keep = np.ones(1 << 16, dtype=bool)
    for q in np.flatnonzero(small).tolist():
        keep[-lo % q::q] = False
    return lo + np.flatnonzero(keep)[::-1][:_MAX_PRIMES]


def _prime_count(bound: int) -> int:
    """A count k of primes whose product M exceeds 2 bound: each prime
    exceeds 2^26 - 2^16, so k <= 2048 of them exceed 2^(26k - 3). k is
    rounded up to a multiple of 2^(bits(k) - 4), at most one eighth more,
    so that eight CRT tables serve each doubling of the bound."""
    k = -(-(bound.bit_length() + 4) // 26)
    step = 1 << max(k.bit_length() - 4, 0)
    return -(-k // step) * step


_powers = np.ones((1, 0), dtype=np.int32)  # 2^(16 l) mod p_i, grown by _power_table


def _power_table(limbs: int, k: int) -> np.ndarray:
    """2^(16 l) mod p_i for l < limbs and the first k primes, as int32: one
    table, grown to the most limbs and primes asked for and never cut."""
    global _powers
    rows, cols = _powers.shape
    if rows < limbs or cols < k:
        rows, cols = max(rows, limbs), max(cols, k)
        p, row = _primes()[:cols], np.ones(cols, dtype=np.int64)
        table = np.empty((rows, cols), dtype=np.int32)
        for i in range(rows):
            table[i] = row
            row = (row << 16) % p
        _powers = table
    return _powers[:limbs, :k]


@lru_cache(maxsize=_CRT_TABLES)
def _crt_table(k: int, mod: int | None = None) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """(M, w, r, Q) for the first k primes: M their product, w_i the inverse
    of M/p_i mod p_i (int64), r_i the float64 1/p_i, and row i of Q the
    16-bit limbs (uint16) of M/p_i; or, given mod, of (M/p_i) mod `mod`, with
    one last row of -M mod `mod`. Q has a multiple of four columns, the last
    four zero, so that a sum of its rows times residues below 2^26 fills at
    most the slot of its columns."""
    primes = _primes()[:k].tolist()
    m = prod(primes)
    cofactors = [m // p for p in primes]
    w = np.array([pow(c % p, -1, p) for c, p in zip(cofactors, primes)], dtype=np.int64)
    if mod is not None:
        cofactors = [c % mod for c in cofactors] + [-m % mod]
    cols = 4 * (-(-max(cofactors).bit_length() // 64) + 1)
    raw = b"".join(c.to_bytes(2 * cols, "little") for c in cofactors)
    return m, w, 1 / _primes()[:k], np.frombuffer(raw, dtype="<u2").reshape(len(cofactors), cols)


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in float64 for integer matrices whose every partial sum is an
    integer below 2^53, so that it is exact in any summation order; in
    blocks of the inner dimension that hold b's converted rows within
    _BLOCK_BYTES, so that the BLAS packs little. Callers pass blocks of a's
    rows within the same size."""
    inner = max(1, _BLOCK_BYTES // (8 * b.shape[1]))
    a = a.astype(np.float64)
    acc = a[:, :inner] @ b[:inner].astype(np.float64)
    for j in range(inner, b.shape[0], inner):
        acc += a[:, j:j + inner] @ b[j:j + inner].astype(np.float64)
    return acc


def _residues(a, top: int, powers: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a_i mod p_j with the sign of a_i, |r| < p_j, as int32: the 16-bit limbs
    of |a_i| times the limb powers mod p_j, at most L (2^16 - 1)(p_j - 1).
    The limbs are laid out one block of rows at a time."""
    n = -(-top.bit_length() // 16)
    r = np.empty((len(a), len(p)), dtype=np.int32)
    step = max(1, _BLOCK_BYTES // (8 * max(n, len(p))))
    for i in range(0, len(a), step):
        raw = b"".join(abs(x).to_bytes(2 * n, "little") for x in a[i:i + step])
        limbs = np.frombuffer(raw, dtype="<u2").reshape(-1, n)
        np.remainder(_exact_product(limbs, powers[:n]).astype(np.int64), p, out=r[i:i + step], casting="unsafe")
    neg = [x < 0 for x in a]
    r[neg] = -r[neg]
    return r


def _convolve(ra: np.ndarray, rb: np.ndarray, weights: np.ndarray, p: np.ndarray, keep: int) -> np.ndarray:
    """Rows t < keep of weights sum_j ra[t - j] rb[j] mod p, column by
    column, as int32 in [0, p): int64 sums of products of at most (p - 1)^2,
    one row of rb at a time and only its nonzero rows j < keep, each adding
    its first keep - j products, reduced every _CONV_CHUNK rows, in equal
    blocks of primes whose sums fit in _BLOCK_BYTES."""
    la, rows = len(ra), np.flatnonzero(rb[:keep].any(axis=1)).tolist()
    out = np.empty((keep, len(p)), dtype=np.int32)
    blocks = -(-8 * len(out) * len(p) // _BLOCK_BYTES)
    step = -(-len(p) // blocks)
    for s in range(0, len(p), step):
        q = p[s:s + step]
        x, y = ra[:, s:s + step].astype(np.int64), rb[:, s:s + step] * weights[s:s + step] % q
        acc = np.zeros((len(out), len(q)), dtype=np.int64)
        term = np.empty_like(x)
        for done, j in enumerate(rows, 1):
            m = min(la, keep - j)
            np.multiply(x[:m], y[j], out=term[:m])
            acc[j:j + m] += term[:m]
            if done % _CONV_CHUNK == 0:
                acc %= q
        np.remainder(acc, q, out=out[:, s:s + step], casting="unsafe")
        del x, y, acc, term  # one block's arrays live at a time
    return out


def _mul_residues(a, b, top_a: int, top_b: int, bound: int, out, mod: int | None = None) -> None:
    """Writes the first keep = len(out) coefficients of a b into out by
    residues: both factors mod k primes below 2^26 with M > 2 bound,
    convolved per prime in int64 into keep rows x, each rebuilt by the CRT
    as x @ limbs(M/p_i), a float64 product of at most k (p - 1)(2^16 - 1),
    one % M, and the lift to (-M/2, M/2). Given mod, M > 4 bound, and each
    row is rebuilt mod `mod` by the explicit CRT: c = sum x_i M/p_i - t M
    with t = rint(sum x_i / p_i), so [x, t] @ limbs((M/p_i) mod `mod`,
    -M mod `mod`) and one % mod, the product's partial sums at most
    k p (2^16 - 1), as t <= k. mul passes a and b already cut to their
    first keep coefficients."""
    k = _prime_count(bound if mod is None else 2 * bound)
    m, weights, recips, cofactors = _crt_table(k, mod)
    assert (2 if mod is None else 4) * bound < m
    p = _primes()[:k]
    powers = _power_table(-(-max(top_a, top_b).bit_length() // 16), k)
    # the convolution runs over the nonzero rows of b, which carries the CRT weights
    c = _convolve(_residues(a, top_a, powers, p), _residues(b, top_b, powers, p), weights, p, len(out))
    if mod is not None:
        c = np.column_stack((c, np.rint(c @ recips)))
    step = max(1, _BLOCK_BYTES // (8 * cofactors.shape[1]))
    for i in range(0, len(c), step):
        out[i:i + step] = _crt_lift(_exact_product(c[i:i + step], cofactors), m, mod)


def _crt_lift(v: np.ndarray, m: int, mod: int | None = None) -> list[int]:
    """The rows of v, sums over 16-bit limb columns (row t is
    sum_l v[t, l] 2^(16 l)), each mod m and lifted to (-m/2, m/2), or, given
    mod, each mod `mod`, in [0, mod). Every entry is below 2^53, so every
    fourth 64-bit word of v reads as one integer, whose slots of v.shape[1]
    limbs each hold one row. A remainder mod m, and its difference with m,
    keep an allocation of m's size, so each row is negated once more into an
    int of its own size."""
    width, half = 2 * v.shape[1], m >> 1
    words = v.astype(np.uint64).ravel()
    x = sum(int.from_bytes(words[g::4].tobytes(), "little") << 16 * g for g in range(4))
    del words
    raw = memoryview(x.to_bytes(len(v) * width, "little"))
    del x
    rows = []
    for j in range(0, len(raw), width):
        y = int.from_bytes(raw[j:j + width], "little")
        if mod is None:
            y %= m
            rows.append(-(m - y) if y > half else -(-y))
        else:
            rows.append(y % mod)
    return rows


def mul(a, b, keep: int | None = None, mod: int | None = None) -> list[int]:
    """The product of two polynomials over Z, or its first keep coefficients,
    or those mod `mod`, in [0, mod): by residues from the residue crossover
    on, with the sparser factor's nonzero coefficients driving the
    convolution, when the limbs and primes it needs are inside the float64
    bounds; and otherwise one big-int product per block of the longer
    factor."""
    if not a or not b:
        return []
    if len(a) < len(b):
        a, b = b, a
    n = len(b)
    full = len(a) + n - 1
    keep = full if keep is None else min(keep, full)
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    bound = top_a * top_b * n
    if not bound or not keep:
        return [0] * keep
    s = (bound.bit_length() + 8) // 8  # bytes per slot, so that bound < 2^(8s-1)
    out = [0] * keep
    a, b = a[:keep], b[:keep]  # no later coefficient reaches the first keep
    if s >= _RESIDUE_SLOT and n >= _RESIDUE_COEFFS and s * n >= _RESIDUE_BYTES:
        za, zb = sum(map(bool, a)), sum(map(bool, b))
        nonzero = min(za, zb)
        if (nonzero >= _RESIDUE_COEFFS and s * nonzero >= _RESIDUE_BYTES
                and max(top_a, top_b).bit_length() <= 16 * _MAX_LIMBS
                and _prime_count(bound if mod is None else 2 * bound) <= _MAX_PRIMES):
            if za < zb:
                a, b, top_a, top_b = b, a, top_b, top_a
            _mul_residues(a, b, top_a, top_b, bound, out, mod)
            return out
    half = 1 << (8 * s - 1)
    packed_b = _pack(b, s)
    for j in range(0, len(a), n):
        block = a[j:j + n]
        _unpack(_pack(block, s) * packed_b, out, range(j, min(j + len(block) + len(b) - 1, keep)), s, half)
    return out if mod is None else [c % mod for c in out]


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


def mul_vec(a, b, d: int, rows: int | None = None, mod: int | None = None) -> list[list[int]]:
    """The product of polynomials with length-d vector coefficients, or its
    first `rows` entries, or those mod `mod`; entry e of the result is the
    unreduced length-(2d - 1) product of the inner polynomials summed over
    i + j = e."""
    if not a or not b:
        return []
    w = 2 * d - 1
    rows = len(a) + len(b) - 1 if rows is None else min(rows, len(a) + len(b) - 1)
    (fa, sa), (f, s) = _stride(a), _stride(b)
    if max(sa, s) > 1:
        if sa > s:
            a, b, f, s = b, a, fa, sa
        # b lives in rows f + k s: pair each class of a mod s with b[f::s]
        out = [[0] * w for _ in range(rows)]
        for r in range(s):
            kept = -(-(rows - r - f) // s)  # the rows r + f + k s below rows
            if kept > 0 and any(map(any, a[r::s])):
                for k, row in enumerate(mul_vec(a[r::s], b[f::s], d, kept, mod)):
                    out[r + f + k * s] = row
        return out
    pad = [0] * (d - 1)

    def spread(vectors):
        flat = []
        for v in vectors:
            flat += v
            flat += pad
        return flat

    c = mul(spread(a), spread(b), rows * w, mod)
    return [c[i:i + w] for i in range(0, rows * w, w)]


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


def mul_mod(a, b, m, q: int) -> list[int]:
    """The product a b in (Z/q)[x]/(m), m monic: deg(m) coefficients in [0, q)."""
    return [c % q for c in rem_monic(mul(a, b), m)]


def pow_mod(a, e: int, m, q: int) -> list[int]:
    """a^e in (Z/q)[x]/(m), m monic and e >= 0, by repeated squaring."""
    out = truncate([1 % q], len(m) - 1)
    while e:
        if e & 1:
            out = mul_mod(out, a, m, q)
        e >>= 1
        if e:
            a = mul_mod(a, a, m, q)
    return out


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
        ax = mul_mod(a, x, m, pk)
        x = mul_mod(x, [2 - ax[0]] + [-c for c in ax[1:]], m, pk)
    return [c % q for c in truncate(x, n)]


def teichmuller(a, m, p: int, q: int) -> list[int]:
    """The Teichmuller lift of a in (Z/q)[x]/(m), m monic of degree n and q
    a power of p, for a a unit mod p: the root z = a (mod p) of
    f(z) = z^e - z, e = p^n, with deg(m) coefficients in [0, q). The root
    has z^(e - 1) = 1, so f'(z) = e - 1 there and Newton's step is
    z <- z - f(z)/(e - 1), each doubling the p-adic precision. At m = x it
    is the lift of the residue a in Z/q."""
    e = p ** (len(m) - 1)
    z, pk = [c % q for c in rem_monic(a, m)], p  # z^e = z holds mod p
    while pk < q:
        pk = min(pk * pk, q)
        w = pow(e - 1, -1, pk)
        z = [(c - (y - c) * w) % pk for c, y in zip(z, pow_mod(z, e, m, pk))]
    assert pow_mod(z, e, m, q) == z, "Teichmuller lift did not stabilize"
    return z
