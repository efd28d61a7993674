"""Weierstrass curves with supersingular reduction: the a_p = 0 gate, the
formal group from the w-expansion, and its logarithm/exponential.

The group law is constructed exactly over Z by the chord construction in
(t, w)-coordinates, so its axioms are checked without any precision caveats;
the logarithm comes from the invariant differential and carries explicit
denominators (v_p(m) at degree m).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .padic import ZpContext, is_prime, val_int
from .polyarith import mul, mul_vec, truncate
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
# w-expansion and univariate unit series (exact integers)
# ---------------------------------------------------------------------------

def _zmul(a: list[int], b: list[int], D: int) -> list[int]:
    return truncate(mul(a, b, D + 1), D + 1)


def _zinv(u: list[int], D: int, times=_zmul) -> list[int]:
    """1/u through degree D for an integer series with constant term 1, by
    Newton steps g <- g (2 - u g), each doubling the correct degree; times is
    the product truncated at degree D (univariate, or `_bmul` for bivariate
    series)."""
    g, good = [1], 1
    while good <= D:
        ug = times(u, g, D)
        g = times(g, [2 - ug[0]] + [-c for c in ug[1:]], D)
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


def _unit_series_data(curve: CurveParams, D: int) -> tuple[list[int], list[int]]:
    """(U, U') with U = (w/t^3)^{-1} as exact-integer series through degree D."""
    w = w_expansion(curve, D + 3)
    U = _zinv(w[3: D + 4], D)  # w / t^3 has constant term 1
    Uprime = [(j + 1) * U[j + 1] for j in range(D)] + [0]
    return U, Uprime


@lru_cache(maxsize=None)
def formal_log(curve: CurveParams, field: FieldDesc, D: int, prec: int) -> TruncSeries:
    """log(t) = t + ... with log'(0) = 1; denominator v_p(m) at degree m.

    Built from the invariant differential: with x = t^-2 U and y = -t^-3 U,
    dx/dt / (2y + a1 x + a3) = (-2U + tU') / (-2U + a1 t U + a3 t^3); then
    log = t + sum P_m t^(m+1)/(m+1).
    """
    p = field.p
    q = p**prec
    U, Uprime = _unit_series_data(curve, D)
    num = [-2 * U[j] + (Uprime[j - 1] if j >= 1 else 0) for j in range(D + 1)]
    den = [-2 * U[j] + curve.a1 * (U[j - 1] if j >= 1 else 0)
           + (curve.a3 if j == 3 else 0) for j in range(D + 1)]
    # den has constant term -2: P = num/den = (num/-2) (den/-2)^-1 mod q
    scale = pow(-2, -1, q)

    def times(a, b, deg):
        return [c % q for c in _zmul(a, b, deg)]

    P = times([scale * c % q for c in num], _zinv([scale * c % q for c in den], D, times), D)
    assert P[0] == 1 % q, "invariant differential not normalized"
    # integrate: coefficient of t^(m+1) is P_m / (m+1)
    den_exp = max(val_int(m + 1, p, prec) for m in range(D)) if D >= 1 else 0
    zp = ZpContext(p, prec)
    co = [field.zero() for _ in range(D + 1)]
    for m in range(0, D):
        e = val_int(m + 1, p, prec)
        unit = (m + 1) // p**e
        c = field.from_int(p ** (den_exp - e) * zp.inv(unit) * P[m], q)
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


# ---------------------------------------------------------------------------
# the chord group law, exact over Z
# ---------------------------------------------------------------------------

def inversion_series(curve: CurveParams, D: int) -> tuple[int, ...]:
    """i(t) = parameter of the group inverse: -t U (U - a1 t U - a3 t^3)^{-1}, exact."""
    U, _ = _unit_series_data(curve, D)
    den = [0] * (D + 1)
    for j in range(D + 1):
        den[j] = U[j] - curve.a1 * (U[j - 1] if j >= 1 else 0) \
            - (curve.a3 if j == 3 else 0)
    tU = [0] + [-U[j] for j in range(D)]
    return tuple(_zmul(tU, _zinv(den, D), D))


def _bmul(a: list[int], b: list[int], D: int) -> list[int]:
    """Product of bivariate series through total degree D. A series is its
    t1-rows of t2-coefficients, each row D + 1 long, laid end to end, so the
    constant term comes first (as for a univariate series)."""
    n = D + 1

    def rows(s):
        return [truncate(s[k:k + n], n) for k in range(0, n * n, n)]

    prod = mul_vec(rows(a), rows(b), n, n)
    return [c if i + j <= D else 0 for i, r in enumerate(prod) for j, c in enumerate(r[:n])]


@lru_cache(maxsize=None)
def formal_group_law(curve: CurveParams, D: int) -> tuple[tuple[int, ...], ...]:
    """F(t1, t2) over Z, exact through total degree D, by the chord
    construction: F[i][j] is the coefficient of t1^i t2^j (0 when i + j > D)."""
    if D < 2:
        raise ValueError("need degree >= 2")
    n = D + 1
    w = w_expansion(curve, D + 1)
    t1, t2, w1 = [0] * (n * n), [0] * (n * n), [0] * (n * n)
    t1[n] = t2[1] = 1
    for k in range(D + 1):
        w1[k * n] = w[k]
    # the chord w = m t + c: m = (w(t2) - w(t1)) / (t2 - t1)
    m = [0] * (n * n)
    for k in range(1, D + 2):
        for i in range(k):
            m[i * n + k - 1 - i] += w[k]
    c = [x - y for x, y in zip(w1, _bmul(t1, m, D))]
    mm, mc = _bmul(m, m, D), _bmul(m, c, D)
    mmm, mmc = _bmul(mm, m, D), _bmul(mm, c, D)
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    A = [a2 * x + a4 * y + a6 * z for x, y, z in zip(m, mm, mmm)]
    A[0] += 1
    B = [a1 * x + a2 * y + a3 * z + 2 * a4 * u + 3 * a6 * v
         for x, y, z, u, v in zip(m, c, mm, mc, mmc)]
    # the third point on the chord, t3 = -t1 - t2 - B / A; then F = i(t3) by Horner
    t3 = [-x - y - z for x, y, z in zip(t1, t2, _bmul(B, _zinv(A, D, _bmul), D))]
    F = [0] * (n * n)
    for cj in reversed(inversion_series(curve, D)):
        F = _bmul(F, t3, D)
        F[0] += cj
    return tuple(tuple(F[i * n:(i + 1) * n]) for i in range(n))
