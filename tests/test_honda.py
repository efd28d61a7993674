from math import comb

import pytest

from normtower.curve import curve_from_preset, formal_exp, formal_log
from normtower.honda import (
    HondaLog,
    composite_with_curve,
    honda_exp,
    honda_log,
    honda_type_report,
    series_bundle,
)
from normtower.padic import floor_log
from normtower.series import TruncSeries
from normtower.unramified import build_unramified


def reference_honda_log(field, n, D, tail_target):
    """A verbatim copy of honda_log as it was when it raised zeta to each
    term's power afresh (without the cache)."""
    p, d = field.p, field.d
    lg = floor_log(max(D, 1), p)
    M = tail_target + lg + 1
    prec = field.N
    assert prec >= M + tail_target + 2, "field precision too small for the term count"
    q = p**prec
    order = p**d - 1
    twist_exp = pow(p, (-(n + 1)) % d, order) if d > 1 else 1  # z = zeta^(p^((-(n+1)) mod d))
    coeffs = [field.zero() for _ in range(D + 1)]
    if D >= 1:
        coeffs[1] = field.from_int(p**M, q)  # m = 0 term: g^(0) = X
    for m in range(1, M + 1):
        e = p ** (2 * m)
        sign = -1 if m % 2 else 1
        scale = p ** (M - m)
        for j in range(1, min(D, e) + 1):
            c = comb(e, j) % q
            if c == 0:
                continue
            zpow = field.pow(field.zeta(), twist_exp * (e - j) % order)
            term = field.scalar(sign * scale * c, zpow, q)
            coeffs[j] = field.add(coeffs[j], term, q)
    series = TruncSeries(field, tuple(coeffs), M, prec).canonical()
    hl = HondaLog(series=series, twist=n + 1, terms=M, tail_floor=M + 1 - lg)
    rep = honda_type_report(hl)
    if not (rep["congruence_ok"] and rep["derivative_integral"]):
        raise ArithmeticError(f"Honda-type check failed: {rep}")
    return hl


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (5, 4)])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("D", [1, 10, 30])
def test_honda_log_matches_reference(p, d, n, D):
    fd = build_unramified(p, d, 16)
    got, ref = honda_log(fd, n, D, tail_target=4), reference_honda_log(fd, n, D, 4)
    assert (got.series.coeffs, got.series.den, got.series.prec) == \
        (ref.series.coeffs, ref.series.den, ref.series.prec)
    assert (got.twist, got.terms, got.tail_floor) == (ref.twist, ref.terms, ref.tail_floor)


def test_linear_coefficient_golden_value():
    # at d = 2 all root-of-unity twists collapse (p^2 = 1 mod p^2 - 1), so the
    # linear coefficient is the alternating sum 1 - p + p^2 - ... = 61 mod 81
    fd = build_unramified(3, 2, 30)
    hl = honda_log(fd, 0, 10, tail_target=6)
    c1 = hl.series.coeffs[1]
    den = hl.series.den
    mod = 81 * 3**den
    assert c1[0] % mod == 61 * 3**den % mod
    assert c1[1] % 81 == 0


def test_linear_coefficient_brute_binomial():
    # independent oracle: expand the iterates binomially for m <= 2 and sum
    from math import comb

    fd = build_unramified(3, 1, 20)
    hl = honda_log(fd, 0, 8, tail_target=6)
    zeta = fd.zeta()[0]
    q = 3**12
    order = 3 - 1
    got = {}
    M = hl.terms
    for j in range(1, 9):
        acc = 3**M if j == 1 else 0
        for m in range(1, M + 1):
            e = 3 ** (2 * m)
            if j <= e:
                zpow = pow(zeta, (e - j) % order, q)
                acc += (-1) ** m * 3 ** (M - m) * comb(e, j) * zpow
        got[j] = acc % q
    for j in range(1, 9):
        expect = int(hl.series.coeffs[j][0]) * 3 ** (M - hl.series.den) % q
        assert got[j] % q == expect, j


def test_m0_term_is_identity():
    fd = build_unramified(3, 1, 20)
    hl = honda_log(fd, 1, 6, tail_target=4)
    # subtracting all m >= 1 contributions leaves X: check value mod p
    assert int(hl.series.coeffs[1][0]) % 3 != 0  # unit linear coefficient


@pytest.mark.parametrize("p,d,n,D", [(3, 1, 0, 30), (3, 2, 0, 12), (5, 4, 1, 12)])
def test_honda_type_checks(p, d, n, D):
    from normtower.curve import composition_work_precision

    prec = composition_work_precision(p, D, 4)
    fd = build_unramified(p, d, prec)
    hl = honda_log(fd, n, D, tail_target=10)
    rep = honda_type_report(hl)
    assert rep["congruence_ok"]
    assert rep["derivative_integral"]


def test_twist_changes_coefficients():
    fd = build_unramified(3, 4, 25)
    h0 = honda_log(fd, 0, 8, tail_target=5)
    h1 = honda_log(fd, 1, 8, tail_target=5)
    assert h0.series.coeffs != h1.series.coeffs
    # the twist acts through Frobenius on coefficients
    tw = h0.series.frob(-1)
    assert tw.coeffs == h1.series.coeffs


def test_exp_roundtrip_and_denominator_profile():
    from normtower.curve import composition_work_precision

    prec = composition_work_precision(3, 20, 4)
    fd = build_unramified(3, 1, prec)
    hl = honda_log(fd, 0, 20, tail_target=12)
    eG = honda_exp(hl)  # internal assertion: height-two denominator profile
    comp = hl.series.compose(eG).canonical()
    assert comp.effective_prec >= 4
    diff = comp - TruncSeries.identity(fd, 20, comp.prec)
    assert all(not any(c) for c in diff.coeffs)


@pytest.mark.parametrize("p,d,curve_name,D", [(3, 1, "ss3", 30), (3, 2, "ss3", 16),
                                              (5, 2, "ss23", 12)])
def test_isomorphism_composites_integral(p, d, curve_name, D):
    curve = curve_from_preset(curve_name, p)
    b = series_bundle(curve, d, 0, D, 4)
    assert b.report["forward_integral"]
    assert b.report["backward_integral"]
    assert b.report["roundtrip_identity"]


def test_bundle_level_twist():
    curve = curve_from_preset("ss3", 3)
    b = series_bundle(curve, 2, 1, 10, 3)
    assert b.n == 1 and b.honda.twist == 2
