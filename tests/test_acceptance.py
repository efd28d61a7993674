"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
pass/fail lines as they complete.
"""

import time

import pytest

from normtower.curve import curve_from_preset
from normtower.groupring import annihilator_matches_closed_form, q_values
from normtower.honda import honda_log, honda_type_report, series_bundle
from normtower.lambda_modules import (
    closed_form_coinvariant_torsion,
    coinvariant_rank_law,
    coinvariants,
    direct_sum,
    free_presentation,
    freeness_test,
    kernel_freeness_property,
    module_report,
    present_minus,
    present_plus,
    quotient_presentation,
)
from normtower.lattice import (
    check_exact_sequence,
    cyclicity_check,
    expected_norm_rank,
    expected_plusminus_rank,
    norm_subgroup_lattice,
    plusminus_lattice,
    with_precision_retry,
)
from normtower.points import verify_trace_relations
from normtower.polyarith import inv_mod, mul_mod
from normtower.series import TruncSeries
from normtower.tower import build_tower
from normtower.unramified import build_unramified


def report(num: int, ok: bool, detail: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {detail}", flush=True)
    assert ok, detail


def test_criterion_1_trace_relations():
    cells = [(3, d, 4, 2, "ss3") for d in (1, 2, 4)] \
        + [(5, d, 3, 1, "ss23") for d in (1, 2)]
    worst = None
    for p, d, N, n_max, preset in cells:
        t0 = time.time()
        curve = curve_from_preset(preset, p)
        assert curve.ap() == 0
        tower = build_tower(p, d, n_max, N)
        for rec in verify_trace_relations(tower):
            floor = N - (rec.n + 1) // 2
            assert rec.residual_valuation >= floor, (p, d, rec)
        dt = time.time() - t0
        assert dt <= 120, f"cell (p={p}, d={d}) took {dt:.0f}s"
        worst = max(worst or 0, dt)
    report(1, True, f"trace relations hold on all cells at residual >= N - floor((n+1)/2); "
                    f"slowest cell {worst:.1f}s")


def test_criterion_2_ap_gate():
    ss3 = curve_from_preset("ss3", 3)
    ss23 = curve_from_preset("ss23", 5)
    ok = ss3.count_points() == 4 and ss23.count_points() == 6
    ok &= ss3.ap() == 0 and ss23.ap() == 0
    report(2, ok, "#E(F_3) = 4 for y^2 = x^3 - x and #E(F_5) = 6 for y^2 = x^3 + 1")


def test_criterion_3_unit_annihilator_dichotomy():
    t0 = time.time()
    for p in (3, 5, 7):
        for d in range(1, 17):
            rep = annihilator_matches_closed_form(p, d, 5)
            assert rep["unit"] == (d % 4 != 0), (p, d)
            if rep["unit"]:  # certified by an inverse mod F^d - 1
                q, m = p**5, [-1] + [0] * (d - 1) + [1]
                x = [int(i == 1 % d) + int(i == -1 % d) for i in range(d)]  # F + F^-1
                assert mul_mod(x, inv_mod(x, m, p, q), m, q) == [1] + [0] * (d - 1), (p, d)
            assert rep["annihilator_rank"] == (2 if d % 4 == 0 else 0), (p, d)
            assert rep["closed_form"], (p, d)
            assert rep["ok"], (p, d)
    dt = time.time() - t0
    report(3, dt < 1.0, f"unit iff d != 0 mod 4, annihilator rank-2 closed form, "
                        f"d <= 16, p in 3,5,7 in {dt:.2f}s")


@pytest.fixture(scope="module")
def towers_p3():
    return {d: build_tower(3, d, 3, 6) for d in (1, 2, 4)}


def test_criterion_4_rank_tables(towers_p3):
    t0 = time.time()
    cells = 0
    for d, tower in towers_p3.items():
        for n in range(-1, 4):
            for chi, triv in ((None, None), (0, True), (1, False)):
                got = norm_subgroup_lattice(tower, n, chi).rank()
                assert got == expected_norm_rank(3, d, n, triv), (d, n, triv, got)
                cells += 1
                if n < 0:
                    continue
                for sign in "+-":
                    got = plusminus_lattice(tower, n, sign, chi).rank()
                    assert got == expected_plusminus_rank(3, d, n, sign, triv), \
                        (d, n, sign, triv, got)
                    cells += 1
    dt = time.time() - t0
    report(4, dt <= 600, f"{cells} rank cells match the closed forms exactly "
                         f"(p=3, d in 1,2,4, n <= 3, all chi) in {dt:.1f}s")


def test_criterion_5_exact_sequence(towers_p3):
    for d, tower in towers_p3.items():
        for n in range(0, 4):
            rep = check_exact_sequence(tower, n, None)
            assert rep["ok"] and rep["rank_intersection"] == d, (d, n, rep)
            for chi in (0, 1):
                repc = check_exact_sequence(tower, n, chi)
                assert repc["ok"], (d, n, chi, repc)
    report(5, True, "intersection rank d, sum lattice equality and rank additivity "
                    "on the full grid")


def test_criterion_6_cyclicity_dichotomy():
    for d in (1, 2, 3, 4, 8):
        for n in range(0, 4):
            rep = with_precision_retry(3, d, n, 6, lambda tw, n=n: cyclicity_check(tw, n))
            expected = not (d % 4 == 0 and n % 2 == 0)
            assert rep["cyclic"] == expected, (d, n, rep)
    report(6, True, "membership outcome equals the predicate "
                    "(d = 0 mod 4) and (n even), d in 1,2,3,4,8, n <= 3")


def test_criterion_7_torsion_closed_form():
    N = 8
    for d in (2, 4):
        for n in (0, 1, 2):
            for gap in (2, 4):
                m = n + gap
                rep = module_report(coinvariants(present_plus(3, d, m, True), n), N)
                cf = sorted(closed_form_coinvariant_torsion(3, d, m, n, "+", True))
                assert rep["torsion"] == cf, (d, n, m, rep["torsion"], cf)
    report(7, True, "elementary-divisor multisets match the closed form "
                    "(p=3, d in 2,4, gaps 2 and 4, n <= 2, both parities)")


def test_criterion_8_coinvariant_rank_law():
    N = 8
    for d in (1, 2, 3, 4):
        for triv in (True, False):
            for sign in "+-":
                for n in (0, 1, 2):
                    rep = coinvariant_rank_law(3, d, n, triv, sign, N)
                    assert rep["ok"], rep
                    expected_delta = 2 if (d % 4 == 0 and triv and sign == "+") else 0
                    assert rep["delta"] == expected_delta
    report(8, True, "assembled totals equal d p^n + delta (plus) and d p^n (minus), "
                    "n <= 2; delta = 2 exactly at d = 0 mod 4, trivial chi")


def _hand_modules():
    def L(polys):
        return quotient_presentation(3, 1, polys)

    def finite_line():
        from normtower.lambda_modules import Presentation, lift

        return Presentation(p=3, d=1, gens=1,
                            rels=((lift(1, (3,)),), (lift(1, (0, 1)),)),
                            caps=((0, (0, 1)),))

    free = free_presentation
    return [
        (free(3, 1, 1), True, True), (free(3, 1, 2), True, True),
        (free(3, 1, 3), True, True),
        (L([[0, 1]]), False, True), (L([[3]]), False, True),
        (finite_line(), False, False),
        (L([[0, 0, 1]]), False, True), (L([[-3, 1]]), False, True),
        (L([[3, 3, 1]]), False, True), (L([[9]]), False, True),
        (L([[-3, 0, 1]]), False, True),
        (direct_sum(free(3, 1, 1), L([[0, 1]])), False, True),
        (direct_sum(free(3, 1, 2), free(3, 1, 1)), True, True),
        (direct_sum(L([[3]]), finite_line()), False, False),
        (direct_sum(L([[0, 1]]), L([[0, 1]])), False, True),
        (direct_sum(free(3, 1, 1), L([[3]])), False, True),
        (direct_sum(free(3, 1, 1), finite_line()), False, False),
        (direct_sum(L([[0, 1]]), L([[-3, 1]])), False, True),
        (direct_sum(L([[0, 0, 1]]), L([[3, 3, 1]])), False, True),
        (direct_sum(free(3, 1, 2), L([[-3, 0, 1]])), False, True),
    ]


def test_criterion_9_freeness_predicates():
    t0 = time.time()
    modules = _hand_modules()
    assert len(modules) == 20
    for pres, exp_free, exp_nofin in modules:
        rep = freeness_test(pres, 8)
        assert (rep["is_free"], rep["no_finite_submodule"]) == (exp_free, exp_nofin)
    harness = kernel_freeness_property(200, seed=20260810, N=10)
    assert harness["ok"], harness["counterexamples"]
    assert harness["trials"] >= 200
    dt = time.time() - t0
    report(9, dt <= 300,
           f"20 hand-built modules classified correctly and "
           f"{harness['trials']} random instances with zero counterexamples in {dt:.1f}s")


def test_criterion_10_series_integrity():
    ss3 = curve_from_preset("ss3", 3)
    b = series_bundle(ss3, 1, 0, 30, 4)
    comp = b.curve_exp.compose(b.curve_log).canonical()
    diff = comp - TruncSeries.identity(b.field, 30, comp.prec)
    exp_log_ok = all(not any(c) for c in diff.coeffs) and comp.effective_prec >= 4
    comp2 = b.curve_log.compose(b.curve_exp).canonical()
    diff2 = comp2 - TruncSeries.identity(b.field, 30, comp2.prec)
    exp_log_ok &= all(not any(c) for c in diff2.coeffs)
    honda_rep = honda_type_report(b.honda)
    fd2 = build_unramified(3, 2, 40)
    honda_rep_d2 = honda_type_report(honda_log(fd2, 0, 12, tail_target=8))
    ok = (exp_log_ok
          and honda_rep["congruence_ok"] and honda_rep["derivative_integral"]
          and honda_rep_d2["congruence_ok"]
          and b.report["forward_integral"] and b.report["backward_integral"]
          and b.report["roundtrip_identity"])
    report(10, ok, "exp(log) = id through degree 30, twisted-log congruence mod p, "
                   "and both isomorphism composites integral")
