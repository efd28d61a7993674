"""Sweep of polyarith.mul's two size regimes for products mod q, one big-int
product per block followed by % q, and residues mod word-size primes
rebuilt mod q by the explicit CRT. Only a product mod q takes residues: a
product over Z is one product per block at every size.

  PYTHONPATH=src python scripts/sweep_mul.py [repeats]

Each cell is the median, over `repeats` alternating runs, of one regime's
time over another's on the same factors, each regime forced by moving the
crossover of the other out of the way. Sections 1 and 2 take every product
mod q, the power of 3 just above 2^bits for coefficients of `bits` bits, as
a series product's field holds its coefficients below its q.

1. The residue crossover: random signed factors of `n` coefficients, all
   nonzero, in slots of `s` bytes; the residue time over the one-product
   time, by n and by s (the packed size of the shorter factor is s * n),
   then longer factors in small slots; then the same tables for products
   truncated to their first n coefficients, as the series products keep
   deg + 1 of 2 deg + 1.
2. The shipped shapes: the largest products of point_series and full_grid,
   random signed coefficients of the same lengths and sizes; the full_grid
   d = 2 product has every third coefficient zero, as mul_vec spreads it.
   The series products (all but the largest full_grid one) are also timed
   truncated to the coefficients their callers keep (deg + 1 rows): the
   residue time over the one-product time, both truncated, and the
   truncated residue time over the full one.
3. The rebuild mod q: the series shapes of the workloads, random signed
   coefficients of the stored size, truncated to deg + 1 rows as the series
   products keep them, q the power of 3 their field holds. The product mod
   q by the explicit CRT against the exact product (one product per block)
   followed by % q, in milliseconds and as the median of their ratio.
4. The Horner loops: one `compose` (the curve exp of a shipped ss3 bundle
   composed with its log) and one `eval_series_at_tower` (its twisted exp
   at the uniformizer of level n), each with its fixed factor prepared once
   and with products that prepare it at every step (`prepared` patched to
   return the series or tower value itself). The bundles are the shipped
   shapes: D = 30 at d = 1 and 2 (P = 592), D = 40 (P = 980) and D = 60
   (P = 2059, level 1) at d = 1. Milliseconds, and the median of the
   ratio of the prepared loop's time over the other's.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from normtower import honda, localpoints, polyarith
from normtower.curve import curve_from_preset
from normtower.series import TruncSeries
from normtower.tower import TowerElt, build_tower, uniformizer

NEVER = 1 << 62
CROSSOVERS = ("_RESIDUE_BYTES", "_RESIDUE_COEFFS", "_RESIDUE_SLOT")


@contextmanager
def regime(name: str):
    """mul forced onto one regime: "one" (one product per block) or
    "residue" (residues)."""
    saved = {c: getattr(polyarith, c) for c in CROSSOVERS}
    polyarith._RESIDUE_BYTES = polyarith._RESIDUE_COEFFS = polyarith._RESIDUE_SLOT = NEVER if name == "one" else 0
    try:
        yield
    finally:
        for c, v in saved.items():
            setattr(polyarith, c, v)


def seconds(a, b, name: str, q: int, keep=None) -> float:
    with regime(name):
        t = time.perf_counter()
        polyarith.mul(a, b, keep, q)
        return time.perf_counter() - t


def ratio(a, b, name: str, base: str, repeats: int, keep=None, base_keep=None) -> float:
    """The median of name's time over base's, the two run in turn, keeping
    keep and base_keep coefficients (None: the whole product), mod the
    power of 3 just above the factors' coefficients."""
    q = modulus(a, b)
    seconds(a, b, name, q)  # fill the residue tables first
    return statistics.median(seconds(a, b, name, q, keep=keep) / seconds(a, b, base, q, keep=base_keep)
                             for _ in range(repeats))


def modulus(a, b) -> int:
    """The power of 3 just above 2^bits, bits those of the factors' largest
    coefficient."""
    return 3 ** math.ceil(max(map(abs, a + b)).bit_length() / math.log2(3))


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
            polyarith.mul(a, b, None, modulus(a, b))
        finally:
            polyarith._mul_residues = real
        cut = "-"
        if name != "full_grid largest":
            cut = (f"{ratio(a, b, 'residue', 'one', repeats, la, la):<23.2f}"
                   f"{ratio(a, b, 'residue', 'residue', repeats, la):.2f}")
        print(f"{name:<28} {la:<4} {n:<4} {bits:<5} {slot_bytes(a, b):<5} "
              f"{'residue' if taken else 'one':<9} {ratio(a, b, 'residue', 'one', repeats):<12.2f} {cut}")


def mod_seconds(a, b, keep: int, q: int, explicit: bool) -> float:
    t = time.perf_counter()
    if explicit:
        polyarith.mul(a, b, keep, q)
    else:
        [c % q for c in polyarith.mul(a, b, keep)]
    return time.perf_counter() - t


def mod_lift(repeats: int) -> None:
    rng = random.Random(27)
    shapes = [("point_series D=60", 61, 3263, 2059, 0), ("point_series D=40", 41, 1553, 980, 0),
              ("full_grid d=2 spread", 93, 938, 592, 3)]
    print("shape                  n    bits  q      taken    one+%q ms    mod ms  mod/one")
    for name, n, bits, e, zero_every in shapes:
        a, b, q = factor(rng, n, bits, zero_every), factor(rng, n, bits, zero_every), 3**e
        taken = []
        real = polyarith._mul_residues
        polyarith._mul_residues = lambda *args: taken.append(1) or real(*args)
        try:
            assert polyarith.mul(a, b, n, q) == [c % q for c in polyarith.mul(a, b, n)]
        finally:
            polyarith._mul_residues = real
        pairs = [(mod_seconds(a, b, n, q, False), mod_seconds(a, b, n, q, True)) for _ in range(repeats)]
        exact, mod = (statistics.median(t) * 1e3 for t in zip(*pairs))
        print(f"{name:<22} {n:<4} {bits:<5} 3^{e:<4} {'residue' if taken else 'one':<8} {exact:<12.2f} "
              f"{mod:<7.2f} {statistics.median(m / x for x, m in pairs):.2f}")


def loop_seconds(run, prepared: bool) -> float:
    """One run of the loop, its fixed factor prepared once, or prepared by
    each product when `prepared` is False."""
    saved = TruncSeries.prepared, TowerElt.prepared
    if not prepared:
        TruncSeries.prepared = TowerElt.prepared = lambda self: self
    try:
        t = time.perf_counter()
        run()
        return time.perf_counter() - t
    finally:
        TruncSeries.prepared, TowerElt.prepared = saved


def horner_loops(repeats: int) -> None:
    ss3 = curve_from_preset("ss3", 3)
    cases = [(1, 0, 30, 6), (2, 0, 30, 6), (1, 0, 40, 4), (1, 1, 60, 3)]
    print("loop                 d  D   P     per step ms  prepared ms  prepared/per step")
    for d, n, D, target in cases:
        b = honda.series_bundle(ss3, d, n, D, target)
        t = build_tower(3, d, max(n, 0), b.field.N)
        x, vmin = uniformizer(t, n), Fraction(1, 2 * 3**max(n, 0))
        loops = [("compose exp(log)", lambda: b.curve_exp.compose(b.curve_log)),
                 (f"eval at level {n}", lambda: localpoints.eval_series_at_tower(b.honda_exp_series, x, vmin))]
        for name, run in loops:
            pairs = [(loop_seconds(run, False), loop_seconds(run, True)) for _ in range(repeats)]
            plain, prep = (statistics.median(t) * 1e3 for t in zip(*pairs))
            print(f"{name:<20} {d:<2} {D:<3} {b.field.N:<5} {plain:<12.1f} {prep:<12.1f} "
                  f"{statistics.median(q / p for p, q in pairs):.2f}")


if __name__ == "__main__":
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    crossover(reps, truncated=False)
    crossover(reps, truncated=True)
    shipped(reps)
    mod_lift(reps)
    horner_loops(reps)
