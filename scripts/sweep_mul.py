"""Sweep of polyarith.mul's two size regimes, one big-int product per block
and residues mod word-size primes, and of the residue regime's two
convolutions, direct and by FFT.

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
2. The FFT crossover. First the convolutions alone: random residues of `la`
   rows against `rows` nonzero rows, mod 32 and 128 primes, the FFT time
   over the direct time. Then every residue product that building
   omega_family(5, 5), (3, 7) and (7, 4) makes, and the largest series
   shapes of the workloads: the whole product by FFT over the whole product
   convolved directly, and the convolution the shipped crossover takes.
   Last, the tracemalloc peak of the identity omega_5 = omega-tilde_5^- *
   omega_5^+ under each convolution, over the packed size of the longer
   factor.
3. The shipped shapes: the largest products of point_series and full_grid,
   random signed coefficients of the same lengths and sizes; the full_grid
   d = 2 product has every third coefficient zero, as mul_vec spreads it.
   The series products (all but the largest full_grid one) are also timed
   truncated to the coefficients their callers keep (deg + 1 rows): the
   residue time over the one-product time, both truncated, and the
   truncated residue time over the full one.
4. The lift mod q: the series shapes of the workloads, random signed
   coefficients of the stored size, truncated to deg + 1 rows as the series
   products keep them, q the power of 3 their field holds. The product mod
   q by the explicit CRT against the exact product followed by % q, in
   milliseconds and as the median of their ratio.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from normtower import polyarith
from normtower.groupring import omega_family

NEVER = 1 << 62
CROSSOVERS = ("_RESIDUE_BYTES", "_RESIDUE_COEFFS", "_RESIDUE_SLOT", "_FFT_ROWS")


@contextmanager
def regime(name: str):
    """mul forced onto one regime: "one" (one product per block), "residue"
    (residues, convolved as the shipped crossover picks), "direct" or "fft"
    (residues, every convolution direct or by FFT)."""
    saved = {c: getattr(polyarith, c) for c in CROSSOVERS}
    polyarith._RESIDUE_BYTES = polyarith._RESIDUE_COEFFS = polyarith._RESIDUE_SLOT = NEVER if name == "one" else 0
    if name in ("direct", "fft"):
        polyarith._FFT_ROWS = NEVER if name == "direct" else 0
    try:
        yield
    finally:
        for c, v in saved.items():
            setattr(polyarith, c, v)


def seconds(a, b, name: str, keep=None) -> float:
    with regime(name):
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


def convolution_seconds(convolve, args) -> float:
    t = time.perf_counter()
    convolve(*args)
    return time.perf_counter() - t


def convolution_crossover(repeats: int) -> None:
    rng = np.random.default_rng(26)
    rows = (32, 48, 64, 80, 96, 112, 128, 192, 256)
    for k in (32, 128):
        p = polyarith._primes()[:k]
        weights = rng.integers(1, p)
        print(f"fft / direct convolution, {k} primes, la rows against `rows` nonzero rows")
        print("la    " + "".join(f"{r:<7}" for r in rows))
        for la in (64, 128, 256, 512, 1024, 2048, 4096):
            cells = []
            for lb in rows:
                if lb > la:
                    cells.append("-      ")
                    continue
                ra, rb = (rng.integers(-p + 1, p, size=(n, k)).astype(np.int32) for n in (la, lb))
                args = (ra, rb, weights, p, la + lb - 1)
                fft, direct = polyarith._fft_convolve, polyarith._convolve
                fft(*args)  # the transform plans made first
                cell = statistics.median(convolution_seconds(fft, args) / convolution_seconds(direct, args)
                                         for _ in range(repeats))
                cells.append(f"{cell:<7.2f}")
            print(f"{la:<6}" + "".join(cells))


def omega_products() -> list[tuple[str, list[int], list[int]]]:
    """(label, a, b) for each residue product that building omega_family(5, 5),
    (3, 7) and (7, 4) makes; these families must not be built before."""
    caught, real = [], polyarith._mul_residues

    def spy(a, b, *rest):
        caught.append((a, b))
        return real(a, b, *rest)

    found = []
    polyarith._mul_residues = spy
    try:
        for p, n in ((5, 5), (3, 7), (7, 4)):
            omega_family(p, n)
            found += [(f"omega({p}, {n})", a, b) for a, b in caught]
            caught.clear()
    finally:
        polyarith._mul_residues = real
    return found


def fft_crossover(repeats: int) -> None:
    rng = random.Random(26)
    shapes = [("point_series D=60", factor(rng, 61, 3263), factor(rng, 61, 3263)),
              ("full_grid d=2 class", factor(rng, 93, 938), factor(rng, 93, 938, 2))]
    print("product              la    n     rows  k     fft/direct  taken")
    for label, a, b in omega_products() + shapes:
        taken = []
        real = polyarith._fft_convolve
        polyarith._fft_convolve = lambda *args: taken.append(1) or real(*args)
        try:
            polyarith.mul(a, b)
        finally:
            polyarith._fft_convolve = real
        k = polyarith._prime_count(max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b)))
        rows = min(sum(map(bool, a)), sum(map(bool, b)))
        print(f"{label:<20} {max(len(a), len(b)):<5} {min(len(a), len(b)):<5} {rows:<5} {k:<5} "
              f"{ratio(a, b, 'fft', 'direct', repeats):<11.2f} {'fft' if taken else 'direct'}")
    fam = omega_family(5, 5)
    a, b = fam.omega_tilde_minus, fam.omega_plus
    size = slot_bytes(a, b) * len(a)
    print("omega(5, 5) identity  convolution  seconds  peak/packed")
    for kind in ("direct", "fft"):
        t = statistics.median(seconds(a, b, kind) for _ in range(repeats))
        with regime(kind):
            tracemalloc.start()
            polyarith.mul(a, b)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        print(f"                      {kind:<12} {t:.3f}    {peak / size:.2f}")


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
    print("shape                  n    bits  q      taken    exact+%q ms  mod ms  mod/exact")
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


if __name__ == "__main__":
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    crossover(reps, truncated=False)
    crossover(reps, truncated=True)
    convolution_crossover(reps)
    fft_crossover(reps)
    shipped(reps)
    mod_lift(reps)
