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
    _unit_series_data,
    composition_work_precision,
    curve_from_preset,
    formal_exp,
    formal_group_law,
    formal_log,
    multiplication_by_p_series,
    w_expansion,
)
from normtower.padic import ZpContext, val_int
from normtower.series import TruncSeries
from normtower.unramified import build_unramified


SS3 = curve_from_preset("ss3", 3)
SS23 = curve_from_preset("ss23", 5)


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


def test_formal_group_law_axioms():
    D = 8
    F = formal_group_law(SS3, D)
    assert len(F) == D + 1 and all(len(row) == D + 1 for row in F)
    for i in range(D + 1):
        assert F[i][0] == F[0][i] == (1 if i == 1 else 0)  # F(X, 0) = F(0, X) = X
        for j in range(D + 1):
            assert F[i][j] == F[j][i]  # commutative
            if i + j > D:
                assert F[i][j] == 0


def _fraction_series_law(curve, D):
    """Independent group-law oracle: exp(log X + log Y) over exact rationals."""
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


@pytest.mark.parametrize("curve", [SS3, SS23, CurveParams(p=5, a1=1, a2=1, a3=1, a6=1)])
def test_group_law_matches_rational_oracle(curve):
    D = 6
    F = formal_group_law(curve, D)
    oracle = _fraction_series_law(curve, D)
    for i in range(D + 1):
        for j in range(D + 1 - i):
            v = oracle.get((i, j), 0)
            assert v.denominator == 1
            assert F[i][j] == v.numerator, ((i, j), F[i][j], v)


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
# differential test: the invariant differential divided on the integer kernel
# (`_zinv` mod p^prec) against the O_k-series Newton inverse it replaced
# (verbatim copies)
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
    zp = ZpContext(p, prec)
    co = [field.zero() for _ in range(D + 1)]
    for m in range(0, D):
        e = val_int(m + 1, p, prec)
        unit = (m + 1) // p**e
        c = field.scalar(p ** (den_exp - e) * zp.inv(unit), P.coeffs[m], q)
        co[m + 1] = c
    return TruncSeries(field, tuple(co), den_exp, prec).canonical()


LOG_CURVES = [(name, p) for name in ("ss3", "ss23") for p in (3, 5, 7, 11, 13)
              if not (name == "ss23" and p == 3)]  # y^2 = x^3 + 1 is bad at 3


def _log_outcome(fn, *args):
    """(coeffs, den, prec) of the log, or the exception class it raised: a
    degree m + 1 with v_p(m + 1) above prec has no unit part to invert."""
    try:
        lg = fn(*args)
    except ZeroDivisionError as e:
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
    unit series is built once per attempt; a start too tight for (n=0, D=40,
    target=4) makes the bundle double its working precision once."""
    calls = []
    real = curve._unit_series_data
    monkeypatch.setattr(curve, "_unit_series_data", lambda *a: calls.append(a) or real(*a))
    if attempts == 2:
        monkeypatch.setattr(honda, "composition_work_precision",
                            lambda p, D, target: target + 3 * D + 16)
    b = honda.series_bundle(SS3, 1, 0, 40, 4)
    start = composition_work_precision(3, 40, 4) if attempts == 1 else 4 + 3 * 40 + 16
    assert b.field.N == start * 2 ** (attempts - 1)
    assert len(calls) == attempts
