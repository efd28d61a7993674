"""Sweep of polyarith.mul's three size regimes: one big-int product per
block, residues mod word-size primes, and libmpdec.

  PYTHONPATH=src python scripts/sweep_mul.py [repeats]

Each cell is the median, over `repeats` alternating runs, of one regime's
time over another's on the same factors, each regime forced by moving the
crossovers of the others out of the way.

1. The residue crossover: random signed factors of `n` coefficients, all
   nonzero, in slots of `s` bytes; the residue time over the one-product
   time, by n and by s (the packed size of the shorter factor is s * n),
   then longer factors in small slots; then the same tables for products
   truncated to their first n coefficients, as the series products keep
   deg + 1 of 2 deg + 1.
2. The residue -> libmpdec boundary. First the length crossover: every
   product that building omega_family(5, 5), (3, 8) and (7, 4) sends to
   libmpdec, the residue time (and the one-product time, below 1 MB packed)
   over the libmpdec time. Then the two largest products of omega_family(5, 5) (the
   identity omega_5 = omega-tilde_5^- * omega_5^+ and the build of
   omega-tilde_5^-) under each regime and the libmpdec block rule, with the
   tracemalloc peak over the packed size of the longer factor.
3. The shipped shapes: the largest products of point_series and full_grid,
   random signed coefficients of the same lengths and sizes; the full_grid
   d = 2 product has every third coefficient zero, as mul_vec spreads it.
   The series products (all but the largest full_grid one) are also timed
   truncated to the coefficients their callers keep (deg + 1 rows): the
   residue time over the one-product time, both truncated, and the
   truncated residue time over the full one.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

from normtower import polyarith
from normtower.groupring import cyclotomic_phi, omega_family

NEVER = 1 << 62
CROSSOVERS = ("_RESIDUE_BYTES", "_RESIDUE_COEFFS", "_RESIDUE_SLOT", "_DECIMAL_BYTES",
              "_DECIMAL_COEFFS", "_DECIMAL_BLOCK_BYTES")


@contextmanager
def regime(name: str, block_bytes: int = polyarith._DECIMAL_BLOCK_BYTES):
    """mul forced onto one regime: "one" (one product per block), "residue"
    or "decimal" (libmpdec, with the given least block size)."""
    saved = {c: getattr(polyarith, c) for c in CROSSOVERS}
    polyarith._RESIDUE_BYTES = polyarith._RESIDUE_COEFFS = polyarith._RESIDUE_SLOT = (
        0 if name == "residue" else NEVER)
    polyarith._DECIMAL_BYTES = polyarith._DECIMAL_COEFFS = 0 if name == "decimal" else NEVER
    polyarith._DECIMAL_BLOCK_BYTES = block_bytes
    try:
        yield
    finally:
        for c, v in saved.items():
            setattr(polyarith, c, v)


def seconds(a, b, name: str, block_bytes: int = polyarith._DECIMAL_BLOCK_BYTES, keep=None) -> float:
    with regime(name, block_bytes):
        t = time.perf_counter()
        polyarith.mul(a, b, keep)
        return time.perf_counter() - t


def ratio(a, b, name: str, base: str, repeats: int, keep=None, base_keep=None) -> float:
    """The median of name's time over base's, the two run in turn, keeping
    keep and base_keep coefficients (None: the whole product)."""
    seconds(a, b, name)  # fill the residue tables first
    return statistics.median(seconds(a, b, name, keep=keep) / seconds(a, b, base, keep=base_keep)
                             for _ in range(repeats))


def factor(rng, n: int, bits: int, zero_every: int = 0) -> list[int]:
    return [0 if zero_every and i % zero_every == zero_every - 1 else rng.randint(-(2**bits), 2**bits)
            for i in range(n)]


def slot_bytes(a, b) -> int:
    """Bytes per slot, as mul computes them."""
    n = min(len(a), len(b))
    return (max(map(abs, a)) * max(map(abs, b)) * n).bit_length() // 8 + 1


def crossover(repeats: int, truncated: bool) -> None:
    rng = random.Random(21)

    def table(lengths, sizes):
        print("n    " + "".join(f"s={s:<7}" for s in sizes))
        for n in lengths:
            cells = []
            for s in sizes:
                bits = max((8 * s - 8 - n.bit_length()) // 2, 1)
                a, b = factor(rng, n, bits), factor(rng, n, bits)
                keep = n if truncated else None
                cells.append(f"{ratio(a, b, 'residue', 'one', repeats, keep, keep):<9.2f}")
            print(f"{n:<5}" + "".join(cells))

    print("residue / one product, random factors of n nonzero coefficients in slots of s bytes"
          + (", the first n coefficients kept" if truncated else ""))
    table((4, 5, 6, 7, 8, 10, 12, 16, 24, 32, 64), (32, 64, 128, 256, 512, 1024))
    table((128, 256, 512), (16, 32, 48, 64, 96))


def omega_products() -> list[tuple[int, list[int], list[int]]]:
    """(p, a, b) for each product that building omega_family(5, 5), (3, 8)
    and (7, 4) sends to libmpdec; these families must not be built before."""
    caught, real = [], polyarith._mul_decimal

    def spy(a, b, *rest):
        caught.append((a, b))
        return real(a, b, *rest)

    found = []
    polyarith._mul_decimal = spy
    try:
        for p, n in ((5, 5), (3, 8), (7, 4)):
            omega_family(p, n)
            found += [(p, a, b) for a, b in caught]
            caught.clear()
    finally:
        polyarith._mul_decimal = real
    return found


def length_crossover(repeats: int) -> None:
    print("p  la    n     s     residue/decimal  one/decimal")
    for p, a, b in omega_products():
        s = slot_bytes(a, b)
        one = f"{ratio(a, b, 'one', 'decimal', repeats):.2f}" if s * len(a) < 1 << 20 else "-"
        print(f"{p:<2} {len(a):<5} {len(b):<5} {s:<5} {ratio(a, b, 'residue', 'decimal', repeats):<16.2f} {one}")


def decimal_boundary(repeats: int) -> None:
    fam = omega_family(5, 4)
    phi = cyclotomic_phi(5, 5)
    tm = polyarith.mul(fam.omega_tilde_minus, phi)
    products = {"identity": (tm, (0,) + fam.omega_tilde_plus),
                "build": (phi, fam.omega_tilde_minus)}
    print("product   regime     block_kb  seconds  peak/packed")
    for name, (a, b) in products.items():
        size = slot_bytes(a, b) * max(len(a), len(b))
        for kind, kb in (("one", 0), ("residue", 0), *(("decimal", kb) for kb in (0, 128, 256, NEVER >> 10))):
            t = statistics.median(seconds(a, b, kind, kb << 10) for _ in range(repeats))
            with regime(kind, kb << 10):
                tracemalloc.start()
                polyarith.mul(a, b)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            label = "whole" if kb == NEVER >> 10 else kb if kind == "decimal" else "-"
            print(f"{name:<9} {kind:<10} {label:<9} {t:.3f}    {peak / size:.2f}")


def shipped(repeats: int) -> None:
    rng = random.Random(20)
    shapes = [("point_series D=60 compose", 61, 61, 3263, 0), ("point_series D=40", 41, 41, 1553, 0),
              ("point_series", 15, 15, 3263, 0), ("full_grid d=1", 31, 31, 938, 0),
              ("full_grid d=2 spread", 93, 93, 938, 3), ("full_grid largest", 548, 183, 300, 0)]
    print("shape                        la   n    bits  s     taken     residue/one  truncated: residue/one  /full")
    for name, la, n, bits, zero_every in shapes:
        a, b = factor(rng, la, bits, zero_every), factor(rng, n, bits, zero_every)
        taken = []
        real = polyarith._mul_residues
        polyarith._mul_residues = lambda *args: taken.append(1) or real(*args)
        try:
            polyarith.mul(a, b)
        finally:
            polyarith._mul_residues = real
        cut = "-"
        if name != "full_grid largest":
            cut = (f"{ratio(a, b, 'residue', 'one', repeats, la, la):<23.2f}"
                   f"{ratio(a, b, 'residue', 'residue', repeats, la):.2f}")
        print(f"{name:<28} {la:<4} {n:<4} {bits:<5} {slot_bytes(a, b):<5} "
              f"{'residue' if taken else 'one':<9} {ratio(a, b, 'residue', 'one', repeats):<12.2f} {cut}")


if __name__ == "__main__":
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    crossover(reps, truncated=False)
    crossover(reps, truncated=True)
    length_crossover(reps)
    decimal_boundary(reps)
    shipped(reps)
