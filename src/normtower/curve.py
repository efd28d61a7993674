"""Weierstrass curves with supersingular reduction: the a_p = 0 gate, the
w-expansion of the formal group, and its logarithm/exponential.

The verifier reads the curve only through its formal logarithm. It comes
from the invariant differential, written in v = w/t^3, and carries explicit
denominators (v_p(m) at degree m). No group law is built here: the tests
keep the exact chord construction over Z as the oracle for the logarithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .padic import is_prime, val_int
from .polyarith import mul, truncate
from .series import TruncSeries
from .unramified import FieldDesc


@dataclass(frozen=True)
class CurveParams:
    p: int
    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a6: int = 0

    def __post_init__(self):
        if not is_prime(self.p) or self.p == 2:
            raise ValueError("need an odd prime of good supersingular reduction")
        if self.discriminant() % self.p == 0:
            raise ValueError("bad reduction: discriminant divisible by p")

    def b_invariants(self) -> tuple[int, int, int, int]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def count_points(self) -> int:
        """#E(F_p) by brute force, point at infinity included."""
        p = self.p
        n = 1
        for x in range(p):
            rhs = (x**3 + self.a2 * x * x + self.a4 * x + self.a6) % p
            lin = (self.a1 * x + self.a3) % p
            # y^2 + lin*y - rhs = 0: complete the square (p odd)
            disc = (lin * lin + 4 * rhs) % p
            if disc == 0:
                n += 1
            elif pow(disc, (p - 1) // 2, p) == 1:
                n += 2
        return n

    def ap(self) -> int:
        return self.p + 1 - self.count_points()


CURVE_PRESETS = {
    "ss3": dict(a4=-1),          # y^2 = x^3 - x, supersingular at p = 3 mod 4
    "ss23": dict(a6=1),          # y^2 = x^3 + 1, supersingular at p = 2 mod 3
}


def curve_from_preset(name: str, p: int) -> CurveParams:
    if name not in CURVE_PRESETS:
        raise KeyError(f"unknown curve preset {name!r}")
    return CurveParams(p=p, **CURVE_PRESETS[name])


# ---------------------------------------------------------------------------
# the w-expansion (exact integers) and the formal logarithm
# ---------------------------------------------------------------------------

def _zmul(a: list[int], b: list[int], D: int, q: int | None = None) -> list[int]:
    """The product of integer series through degree D, mod q when q is given."""
    return truncate(mul(a, b, D + 1, q), D + 1)


def _zinv(u: list[int], D: int, q: int) -> list[int]:
    """1/u mod q through degree D for a series with constant term 1, by
    Newton steps g <- g (2 - u g), each doubling the correct degree."""
    g, good = [1], 1
    while good <= D:
        ug = _zmul(u, g, D, q)
        g = _zmul(g, [2 - ug[0]] + [-c for c in ug[1:]], D, q)
        good *= 2
    return g


@lru_cache(maxsize=None)
def w_expansion(curve: CurveParams, D: int) -> tuple[int, ...]:
    """w(t) = t^3 (1 + ...) solving the Weierstrass relation, exact over Z,
    through degree D."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    w = [0, 0, 0, 1] + [0] * (D - 3 if D >= 3 else 0)
    w = w[: D + 1]
    for _ in range(D + 1):
        w2 = _zmul(w, w, D)
        w3 = _zmul(w2, w, D)
        new = [0] * (D + 1)
        if D >= 3:
            new[3] = 1
        for k, c in enumerate(w):
            if c:
                if k + 1 <= D:
                    new[k + 1] += a1 * c
                if k + 2 <= D:
                    new[k + 2] += a2 * c
        for k, c in enumerate(w2):
            if c:
                if k <= D:
                    new[k] += a3 * c
                if k + 1 <= D:
                    new[k + 1] += a4 * c
        for k, c in enumerate(w3):
            if c and k <= D:
                new[k] += a6 * c
        if new == w:
            break
        w = new
    return tuple(w)


@lru_cache(maxsize=None)
def formal_log(curve: CurveParams, field: FieldDesc, D: int, prec: int) -> TruncSeries:
    """log(t) = t + ... with log'(0) = 1; denominator v_p(m) at degree m.

    Built from the invariant differential dx / (2y + a1 x + a3) with
    x = t/w, y = -1/w and v = w/t^3 = 1 + ...: its series in t is
    P = (2v + t v') / (v (2 - a1 t - a3 t^3 v)), taken mod p^prec, and
    log = t + sum P_m t^(m+1)/(m+1).
    """
    p = field.p
    q = p**prec
    half = pow(2, -1, q)
    v = [c % q for c in w_expansion(curve, D + 3)[3:]]
    # numerator 2v + t v' and denominator v (2 - a1 t - a3 t^3 v) both have
    # constant term 2: halve both
    num = [(j + 2) * c * half % q for j, c in enumerate(v)]
    bracket = [2, -curve.a1, 0] + [-curve.a3 * c for c in v]
    den = _zmul(v, [c * half % q for c in bracket[: D + 1]], D, q)
    P = _zmul(num, _zinv(den, D, q), D, q)
    assert P[0] == 1 % q, "invariant differential not normalized"
    # integrate: coefficient of t^(m+1) is P_m / (m+1)
    den_exp = max(val_int(m + 1, p, prec) for m in range(D)) if D >= 1 else 0
    co = [field.zero() for _ in range(D + 1)]
    for m in range(0, D):
        e = val_int(m + 1, p, prec)
        unit = (m + 1) // p**e
        c = field.from_int(p ** (den_exp - e) * pow(unit, -1, q) * P[m], q)
        co[m + 1] = c
    return TruncSeries(field, tuple(co), den_exp, prec).canonical()


def composition_work_precision(p: int, D: int, target: int) -> int:
    """Stored digits for reversion/composition pipelines to end with `target`
    effective digits. Reversion re-composes at every degree, and each Horner
    step can consume denominator-sized precision. The measured loss at p = 3
    (the worst of the desk primes) is about 5D digits at D = 30 and D = 60,
    whatever the stored precision; the quadratic allowance here is generous
    headroom over that. Callers assert the achieved effective precision, so
    an overrun fails loudly rather than silently."""
    return target + D * D // 2 + 4 * D + 16


def formal_exp(curve: CurveParams, field: FieldDesc, D: int, prec: int) -> TruncSeries:
    """The reversion of `formal_log`, whose cache holds the log it inverts."""
    return formal_log(curve, field, D, prec).reversion()


def multiplication_by_p_series(lg: TruncSeries, ex: TruncSeries, target: int) -> TruncSeries:
    """[p](T) = exp(p log T) from a formal log and its exp, both at the
    precision that certified them: an integral series (endomorphism over Z_p)."""
    mp = ex.compose(lg.scale_int(lg.p)).canonical()
    assert mp.den == 0, "[p]-series failed integrality"
    assert mp.effective_prec >= target
    return mp
