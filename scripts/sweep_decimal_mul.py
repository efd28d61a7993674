"""Sweep of polyarith.mul's libmpdec regime against its int regime.

  PYTHONPATH=src python scripts/sweep_decimal_mul.py [repeats]

First, the block rule: the two largest products of omega_family(5, 5) (the
identity omega_5 = omega-tilde_5^- * omega_5^+ and the build of
omega-tilde_5^-) on the int path, then in libmpdec at several least block
sizes, each the median time of `repeats` runs, with the tracemalloc peak
over the packed size of the longer factor.

Then the crossover: random signed factors of `la` and `n` coefficients of
`bits` bits, at packed sizes of the longer factor from 32 KB to 1 MB, and at
the largest shapes of the shipped workloads. Each cell is the median, over
`repeats` alternating runs, of the decimal time over the int time.
"""

from __future__ import annotations

import random
import statistics
import sys
import time
import tracemalloc

from normtower import polyarith
from normtower.groupring import cyclotomic_phi, omega_family

NEVER = 1 << 62
BLOCK = polyarith._DECIMAL_BLOCK_BYTES


def run(a, b, decimal_bytes: int, block_bytes: int) -> float:
    """Seconds for one mul with the given crossover and least block size; the
    coefficient guard is off, so that 0 forces the decimal path."""
    polyarith._DECIMAL_BYTES, polyarith._DECIMAL_BLOCK_BYTES = decimal_bytes, block_bytes
    polyarith._DECIMAL_COEFFS = 0
    t = time.perf_counter()
    polyarith.mul(a, b)
    return time.perf_counter() - t


def packed(a, b) -> int:
    """The longer factor's packed size in bytes, as mul computes it."""
    n = min(len(a), len(b))
    s = (max(map(abs, a)) * max(map(abs, b)) * n).bit_length() // 8 + 1
    return s * max(len(a), len(b))


def crossover(repeats: int) -> None:
    rng = random.Random(20)
    print("la      n     bits  packed_kb  decimal/int")
    shapes = [(61, 61, 3178), (548, 183, 300)]  # point_series and full_grid
    for kb in (32, 64, 128, 256, 1024):
        for la, n in ((64, 64), (256, 64), (1024, 32), (512, 128), (2048, 512)):
            bits = max(kb * 8192 // la // 2 - 16, 8)
            shapes.append((la, n, bits))
    for la, n, bits in shapes:
        a = [rng.randint(-(2**bits), 2**bits) for _ in range(la)]
        b = [rng.randint(-(2**bits), 2**bits) for _ in range(n)]
        ratios = []
        for _ in range(repeats):
            t_int = run(a, b, NEVER, BLOCK)
            ratios.append(run(a, b, 0, BLOCK) / t_int)
        print(f"{la:<7} {n:<5} {bits:<5} {packed(a, b) // 1024:<10} {statistics.median(ratios):.2f}")


def blocks(repeats: int) -> None:
    fam = omega_family(5, 4)
    phi = cyclotomic_phi(5, 5)
    tm = polyarith.mul(fam.omega_tilde_minus, phi)
    products = {"identity": (tm, (0,) + fam.omega_tilde_plus),
                "build": (phi, fam.omega_tilde_minus)}
    print("product   block_kb  seconds  peak/packed")
    for name, (a, b) in products.items():
        size = packed(a, b)
        t_int = statistics.median(run(a, b, NEVER, 0) for _ in range(repeats))
        print(f"{name:<9} int       {t_int:.3f}")
        for kb in (0, 64, 128, 256, 512, NEVER >> 10):
            t = statistics.median(run(a, b, 0, kb << 10) for _ in range(repeats))
            tracemalloc.start()
            run(a, b, 0, kb << 10)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            label = "whole" if kb == NEVER >> 10 else kb
            print(f"{name:<9} {label:<9} {t:.3f}    {peak / size:.2f}")


if __name__ == "__main__":
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 5
    blocks(reps)
    crossover(reps)
