from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from test_padic import coordinate_grids, precision_shapes
from test_polyarith import _bundle_digits, _series_cache_clear, fresh_series_caches  # noqa: F401

from normtower import curve, honda, series
from normtower.curve import (
    CURVE_PRESETS,
    CurveParams,
    _zmul,
    composition_work_precision,
    curve_from_preset,
    formal_exp,
    formal_log,
    multiplication_by_p_series,
    w_expansion,
)
from normtower.padic import val_int
from normtower.polyarith import mul_vec, truncate
from normtower.series import TruncSeries
from normtower.unramified import build_unramified


SS3 = curve_from_preset("ss3", 3)
SS23 = curve_from_preset("ss23", 5)
ORACLE_CURVES = [SS3, SS23, CurveParams(p=5, a1=1, a2=1, a3=1, a6=1)]


def test_point_counts_and_ap_gate():
    assert SS3.count_points() == 4 and SS3.ap() == 0
    assert SS23.count_points() == 6 and SS23.ap() == 0


def test_bad_reduction_rejected():
    with pytest.raises(ValueError):
        CurveParams(p=3, a4=3)  # y^2 = x^3 + 3x: discriminant -1728 = 0 mod 3
    assert CurveParams(p=5, a4=-1).ap() != 0  # good but ordinary reduction at 5


def test_w_expansion_solves_weierstrass():
    D = 15
    for curve in (SS3, SS23, CurveParams(p=5, a1=1, a2=1, a3=1, a4=0, a6=1)):
        w = list(w_expansion(curve, D))
        # w = t^3 + a1 t w + a2 t^2 w + a3 w^2 + a4 t w^2 + a6 w^3 through deg D
        def mul(a, b):
            out = [0] * (D + 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    if x and y and i + j <= D:
                        out[i + j] += x * y
            return out

        w2, w3 = mul(w, w), mul(mul(w, w), w)
        rhs = [0] * (D + 1)
        rhs[3] = 1
        for k in range(D + 1):
            if k + 1 <= D:
                rhs[k + 1] += curve.a1 * w[k] + curve.a4 * w2[k]
            if k + 2 <= D:
                rhs[k + 2] += curve.a2 * w[k]
            rhs[k] += curve.a3 * w2[k] + curve.a6 * w3[k]
        assert rhs == w


# ---------------------------------------------------------------------------
# the chord group law, exact over Z: the oracle for the formal logarithm
# ---------------------------------------------------------------------------

def _inverse(u: list[int], D: int, times=_zmul) -> list[int]:
    """1/u through degree D for an integer series with constant term 1, by
    Newton steps g <- g (2 - u g); times is the product truncated at degree
    D (univariate, or `_bmul` for bivariate series)."""
    g, good = [1], 1
    while good <= D:
        ug = times(u, g, D)
        g = times(g, [2 - ug[0]] + [-c for c in ug[1:]], D)
        good *= 2
    return g


def inversion_series(curve: CurveParams, D: int) -> tuple[int, ...]:
    """i(t), the parameter of the group inverse: -t / (1 - a1 t - a3 t^3 v)
    with v = w/t^3, exact."""
    v = w_expansion(curve, D + 3)[3:]
    den = truncate([1, -curve.a1, 0] + [-curve.a3 * c for c in v], D + 1)
    return tuple([0] + [-c for c in _inverse(den, D)[:D]])


def _bmul(a: list[int], b: list[int], D: int) -> list[int]:
    """Product of bivariate series through total degree D. A series is its
    t1-rows of t2-coefficients, each row D + 1 long, laid end to end, so the
    constant term comes first (as for a univariate series)."""
    n = D + 1

    def rows(s):
        return [truncate(s[k:k + n], n) for k in range(0, n * n, n)]

    prod = mul_vec(rows(a), rows(b), n, n)
    return [c if i + j <= D else 0 for i, r in enumerate(prod) for j, c in enumerate(r[:n])]


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
    t3 = [-x - y - z for x, y, z in zip(t1, t2, _bmul(B, _inverse(A, D, _bmul), D))]
    F = [0] * (n * n)
    for cj in reversed(inversion_series(curve, D)):
        F = _bmul(F, t3, D)
        F[0] += cj
    return tuple(tuple(F[i * n:(i + 1) * n]) for i in range(n))


def test_formal_group_law_axioms():
    D = 8
    for curve in ORACLE_CURVES:
        F = formal_group_law(curve, D)
        assert len(F) == D + 1 and all(len(row) == D + 1 for row in F)
        for i in range(D + 1):
            assert F[i][0] == F[0][i] == (1 if i == 1 else 0)  # F(X, 0) = F(0, X) = X
            for j in range(D + 1):
                assert F[i][j] == F[j][i]  # commutative
                if i + j > D:
                    assert F[i][j] == 0
        # F(t, i(t)) = 0: sum over j of (sum over i of F[i][j] t^i) i(t)^j
        inv = inversion_series(curve, D)
        total, inv_pow = [0] * (D + 1), [1] + [0] * D
        for j in range(D + 1):
            total = [x + y for x, y in zip(total, _zmul([F[i][j] for i in range(D + 1)], inv_pow, D))]
            inv_pow = _zmul(inv_pow, inv, D)
        assert total == [0] * (D + 1)


def _rational_log(curve, D):
    """The formal log over exact rationals, from U = (w/t^3)^{-1} and the
    invariant differential (-2U + tU') / (-2U + a1 t U + a3 t^3)."""
    w = w_expansion(curve, D + 3)
    u = list(w[3: D + 4])
    U = [Fraction(0)] * (D + 1)
    U[0] = Fraction(1)
    for j in range(1, D + 1):
        U[j] = -sum(Fraction(u[i]) * U[j - i] for i in range(1, j + 1))
    Up = [Fraction(j + 1) * U[j + 1] for j in range(D)] + [Fraction(0)]
    num = [-2 * U[j] + (Up[j - 1] if j >= 1 else 0) for j in range(D + 1)]
    den = [-2 * U[j] + curve.a1 * (U[j - 1] if j >= 1 else 0)
           + (curve.a3 if j == 3 else 0) for j in range(D + 1)]
    dinv = [Fraction(0)] * (D + 1)
    dinv[0] = 1 / Fraction(den[0])
    for j in range(1, D + 1):
        dinv[j] = -dinv[0] * sum(den[i] * dinv[j - i] for i in range(1, j + 1))
    P = [sum(num[i] * dinv[j - i] for i in range(j + 1)) for j in range(D + 1)]
    log = [Fraction(0)] * (D + 1)
    for m in range(D):
        log[m + 1] = P[m] / (m + 1)
    return log


def _fraction_series_law(curve, D):
    """Independent group-law oracle: exp(log X + log Y) over exact rationals."""
    log = _rational_log(curve, D)
    exp = [Fraction(0)] * (D + 1)
    exp[1] = Fraction(1)
    for m in range(2, D + 1):
        # [X^m] log(exp(X)) must vanish
        comp = Fraction(0)
        for j in range(1, m + 1):
            # coefficient of X^m in (exp)^j
            powj = [Fraction(0)] * (m + 1)
            powj[0] = Fraction(1)
            for _ in range(j):
                nxt = [Fraction(0)] * (m + 1)
                for a in range(m + 1):
                    if powj[a]:
                        for b in range(1, m + 1 - a):
                            nxt[a + b] += powj[a] * exp[b]
                powj = nxt
            comp += log[j] * powj[m]
        exp[m] = -comp
    # bivariate compose: exp(log X + log Y) through total degree D
    law = {}
    S = {}
    for i in range(D + 1):
        if log[i]:
            S[(i, 0)] = S.get((i, 0), 0) + log[i]
            S[(0, i)] = S.get((0, i), 0) + log[i]
    powj = {(0, 0): Fraction(1)}
    for j in range(1, D + 1):
        nxt = {}
        for (a, b), v in powj.items():
            for (c, e), w2 in S.items():
                if a + c + b + e <= D:
                    nxt[(a + c, b + e)] = nxt.get((a + c, b + e), 0) + v * w2
        powj = nxt
        for k, v in powj.items():
            law[k] = law.get(k, 0) + exp[j] * v
    return law


@pytest.mark.parametrize("curve", ORACLE_CURVES)
def test_group_law_matches_rational_oracle(curve):
    D = 6
    F = formal_group_law(curve, D)
    oracle = _fraction_series_law(curve, D)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            v = oracle.get((i, j), 0)
            assert v.denominator == 1
            assert F[i][j] == v.numerator, ((i, j), F[i][j], v)


@pytest.mark.parametrize("curve", ORACLE_CURVES)
def test_formal_log_matches_rational_oracle(curve):
    """The log the program uses is the chord law's: at D <= 8, formal_log is
    the rational log, scaled by p^den and reduced mod p^prec."""
    p, log = curve.p, _rational_log(curve, 8)
    for D in range(9):
        lg = formal_log(curve, build_unramified(p, 1, 20), D, 20)
        q = p**lg.prec
        want = [x * p**lg.den for x in log[:D + 1]]
        assert [c for (c,) in lg.coeffs] == [x.numerator * pow(x.denominator, -1, q) % q for x in want]


def test_exp_log_identity_degree30():
    prec = composition_work_precision(3, 30, 4)
    fd = build_unramified(3, 1, prec)
    lg = formal_log(SS3, fd, 30, prec)
    ex = formal_exp(SS3, fd, 30, prec)
    for a, b in ((ex, lg), (lg, ex)):
        comp = a.compose(b).canonical()
        assert comp.effective_prec >= 4
        diff = comp - TruncSeries.identity(fd, 30, comp.prec)
        assert all(not any(c) for c in diff.coeffs)


def test_log_normalization_and_denominators():
    fd = build_unramified(3, 1, 40)
    lg = formal_log(SS3, fd, 12, 40)
    assert lg.coeff_val(1) == 0  # log'(0) = 1
    # denominators grow no faster than v_p(m)
    for m in range(1, 13):
        v = lg.coeff_val(m)
        if v != float("inf"):
            from normtower.padic import val_int
            assert v >= -val_int(m, 3, 10)


def test_multiplication_by_p_supersingular_shape():
    fd = build_unramified(3, 1, 60)
    prec = composition_work_precision(3, 11, 4)
    mp = multiplication_by_p_series(formal_log(SS3, fd, 11, prec),
                                    formal_exp(SS3, fd, 11, prec), 4)
    q = 3**mp.effective_prec
    # [p](T) = pT + ... with the degree-p^2 coefficient a unit (height two)
    assert mp.coeffs[1][0] % 3**2 == 3
    assert mp.coeffs[9][0] % 3 != 0
    for j in range(2, 9):
        assert mp.coeffs[j][0] % 3 == 0


# ---------------------------------------------------------------------------
# differential test: the invariant differential in v = w/t^3, divided mod
# p^prec, against the route through the exact unit U = 1/v and the O_k-series
# Newton inverse it replaced (verbatim copies)
# ---------------------------------------------------------------------------

def reference_inverse_unit(self: TruncSeries) -> TruncSeries:
    assert self.den == 0, "invert the canonical integral series"
    q = self._q()
    rest = (self.field.zero(),) * self.deg
    g = TruncSeries(self.field, (self.field.inv(self.coeffs[0], q),) + rest, 0, self.prec)
    two = TruncSeries(self.field, (self.field.from_int(2, q),) + rest, 0, self.prec)
    good = 1
    while good <= self.deg:
        g = g * (two - self * g)
        good *= 2
    return g


def reference_from_int_coeffs(field, ints, prec: int) -> TruncSeries:
    q = field.p**prec
    return TruncSeries(field, tuple(field.from_int(c, q) for c in ints), 0, prec)


def _unit_series_data(curve, D: int) -> tuple[list[int], list[int]]:
    """(U, U') with U = (w/t^3)^{-1} as exact-integer series through degree D."""
    w = w_expansion(curve, D + 3)
    U = _inverse(list(w[3: D + 4]), D)  # w / t^3 has constant term 1
    Uprime = [(j + 1) * U[j + 1] for j in range(D)] + [0]
    return U, Uprime


def reference_formal_log(curve, field, D: int, prec: int) -> TruncSeries:
    p = field.p
    q = p**prec
    U, Uprime = _unit_series_data(curve, D)
    num = [(-2 * U[j] + (Uprime[j - 1] if j >= 1 else 0)) % q for j in range(D + 1)]
    den = [(-2 * U[j] + curve.a1 * (U[j - 1] if j >= 1 else 0)
            + (curve.a3 if j == 3 else 0)) % q for j in range(D + 1)]
    num_s = reference_from_int_coeffs(field, num, prec)
    den_s = reference_from_int_coeffs(field, den, prec)
    P = num_s * reference_inverse_unit(den_s)
    assert P.coeffs[0] == field.one(q), "invariant differential not normalized"
    den_exp = max(val_int(m + 1, p, prec) for m in range(D)) if D >= 1 else 0
    co = [field.zero() for _ in range(D + 1)]
    for m in range(0, D):
        e = val_int(m + 1, p, prec)
        unit = (m + 1) // p**e
        c = field.scalar(p ** (den_exp - e) * pow(unit, -1, q), P.coeffs[m], q)
        co[m + 1] = c
    return TruncSeries(field, tuple(co), den_exp, prec).canonical()


LOG_CURVES = [(name, p) for name in ("ss3", "ss23") for p in (3, 5, 7, 11, 13)
              if not (name == "ss23" and p == 3)]  # y^2 = x^3 + 1 is bad at 3


def _log_outcome(fn, *args):
    """(coeffs, den, prec) of the log, or the exception class it raised: a
    degree m + 1 with v_p(m + 1) above prec has no unit part to invert, and
    pow(unit, -1, q) raises ValueError."""
    try:
        lg = fn(*args)
    except ValueError as e:
        return type(e)
    return lg.coeffs, lg.den, lg.prec


@pytest.mark.parametrize("name, p", LOG_CURVES)
def test_formal_log_matches_reference(name, p):
    curve = CurveParams(p=p, **CURVE_PRESETS[name])
    for d in range(1, 7):
        for prec in (1, 2, 6, 20, 64):
            field = build_unramified(p, d, prec)
            for D in (0, 1, 10, 30, 60):
                assert _log_outcome(formal_log, curve, field, D, prec) == \
                    _log_outcome(reference_formal_log, curve, field, D, prec)


def reference_canonical(x: TruncSeries) -> TruncSeries:
    """TruncSeries.canonical as it was, one factor of p per pass, kept
    verbatim as the reference for the one-pass content rule."""
    p = x.p
    while x.den > 0:
        if all(all(v % p == 0 for v in c) for c in x.coeffs):
            if all(all(v == 0 for v in c) for c in x.coeffs):
                return replace(x, den=0)
            nq = p ** (x.prec - 1)
            co = tuple(tuple(v // p % nq for v in c) for c in x.coeffs)
            x = TruncSeries(x.field, co, x.den - 1, x.prec - 1)
        else:
            break
    return x


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_canonical_matches_the_stripping_loop(data):
    p, d, prec, den = data.draw(precision_shapes())
    rows = data.draw(st.integers(1, 6))
    co = tuple(map(tuple, data.draw(coordinate_grids(p, rows, d, prec))))
    s = TruncSeries(build_unramified(p, d, 4), co, den, prec)
    got, want = s.canonical(), reference_canonical(s)
    assert (got.coeffs, got.den, got.prec) == (want.coeffs, want.den, want.prec)


@pytest.mark.parametrize("d", [1, 2])
def test_series_bundle_is_bit_identical_under_the_stripping_loop(d, fresh_series_caches,
                                                                 monkeypatch):
    """Every series of the full_grid bundles, and their report, come out the
    same under the one-pass canonical() and the loop it replaced."""
    got = _bundle_digits(d)
    _series_cache_clear()
    monkeypatch.setattr(series.TruncSeries, "canonical", reference_canonical)
    assert _bundle_digits(d) == got


@pytest.mark.parametrize("attempts", [1, 2])
def test_series_bundle_builds_one_curve_log_per_attempt(attempts, fresh_series_caches,
                                                        monkeypatch):
    """formal_exp inverts the cached formal_log of its attempt, so the curve's
    w-expansion is read once per attempt; a start too tight for (n=0, D=40,
    target=4) makes the bundle double its working precision once."""
    calls = []
    real = curve.w_expansion
    monkeypatch.setattr(curve, "w_expansion", lambda *a: calls.append(a) or real(*a))
    if attempts == 2:
        monkeypatch.setattr(honda, "composition_work_precision",
                            lambda p, D, target: target + 3 * D + 16)
    b = honda.series_bundle(SS3, 1, 0, 40, 4)
    start = composition_work_precision(3, 40, 4) if attempts == 1 else 4 + 3 * 40 + 16
    assert b.field.N == start * 2 ** (attempts - 1)
    assert len(calls) == attempts
