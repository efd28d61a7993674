import random
import re
from dataclasses import dataclass
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_acceptance import _hand_modules
from test_groupring import reduced_reference_omega_family, reference_omega_family
from test_polyarith import ref_cyclic

from normtower import lambda_modules, snf
from normtower.groupring import q_values
from normtower.lambda_modules import (
    _DEG_BOUND,
    FlatModule,
    NotZpFinite,
    Presentation,
    _drop_null_columns,
    _flatten_vector,
    _invariant_structure_at,
    _kernel_instance,
    _matvec,
    _random_poly,
    _random_safe_module,
    _random_unimodular,
    _subquotient_structure,
    closed_form_coinvariant_torsion,
    coinvariant_rank_law,
    coinvariant_structure,
    coinvariants,
    direct_sum,
    flatten,
    free_presentation,
    freeness_test,
    invariant_structure,
    kernel_freeness_property,
    lam_add,
    lam_deg,
    lam_mul,
    lift,
    module_report,
    present_minus,
    present_plus,
    quotient_presentation,
    rank_lambda,
    supplementary_structure_check,
    x_truncated,
)
from normtower.padic import PrecisionExhausted
from normtower.polyarith import mul_vec, rem_monic
from normtower.snf import (
    MARGIN,
    PRECISION_BUMP,
    as_matrix,
    quotient_invariants,
    smith_divisors,
    smith_normal_form,
    stack_cols,
)

N = 8


def L(polys, p=3):
    return quotient_presentation(p, 1, polys)


def line_killed_by_p_and_X(p=3):
    return Presentation(p=p, d=1, gens=1,
                        rels=((lift(1, (p,)),), (lift(1, (0, 1)),)),
                        caps=((0, (0, 1)),))


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 4), (5, 2)])
def test_presentation_ranks_match_rank_table(p, d):
    for n in (0, 1, 2):
        _, qp, qm = q_values(p, n)
        assert module_report(present_plus(p, d, n, True), N)["rank"] == d * qp
        assert module_report(present_plus(p, d, n, False), N)["rank"] == d * qp
        assert module_report(present_minus(p, d, n, True), N)["rank"] == d * (qm + 1)
        assert module_report(present_minus(p, d, n, False), N)["rank"] == d * qm


def test_presentations_are_torsion_free():
    for d in (2, 4):
        for n in (0, 1, 2):
            for triv in (True, False):
                assert not module_report(present_plus(3, d, n, triv), N)["torsion"]
                assert not module_report(present_minus(3, d, n, triv), N)["torsion"]


def test_plus_simplification_when_d_not_0_mod_4():
    # for d = 2 the two-generator description collapses onto a single cyclic one
    for n in (0, 1, 2):
        two_gen = present_plus(3, 2, n, True)
        from normtower.groupring import omega_family
        one_gen = quotient_presentation(3, 2, [list(omega_family(3, n).omega_plus)])
        for level in (0, 1, 2):
            a = module_report(coinvariants(two_gen, level), N)
            b = module_report(coinvariants(one_gen, level), N)
            assert (a["rank"], a["torsion"]) == (b["rank"], b["torsion"])


def test_coinvariants_monotone_and_trivial_case():
    free = free_presentation(3, 1, 1)
    rep = module_report(coinvariants(free, 0), N)
    assert rep["rank"] == 1 and not rep["torsion"]  # quotient by X of a line
    r_prev = None
    for n in (0, 1, 2):
        r = module_report(coinvariants(free, n), N)["rank"]
        if r_prev is not None:
            assert r >= r_prev
        r_prev = r


def test_module_report_requires_caps():
    with pytest.raises(NotZpFinite):
        module_report(free_presentation(3, 1, 1), N)


@pytest.mark.parametrize("gens,caps,rels,named", [
    (1, ((0, (0, 3)),), (), "[0]"),
    (1, ((0, (0, 3)),), ((lift(1, (1, 1)),),), "[0]"),
    (2, ((0, (0, 1)), (1, (0, 3))), ((lift(1, (1,)), lift(1, (1, 1))),), "[1]"),
], ids=["3X alone", "3X with a relation", "second generator"])
def test_flatten_rejects_a_cap_that_is_not_monic(gens, caps, rels, named):
    """Z_3[X]/(3X) is not Z_p-finite: its cap is refused up front, naming
    the generator, whether or not a relation is reduced by it."""
    pres = Presentation(p=3, d=1, gens=gens, rels=rels, caps=caps)
    with pytest.raises(NotZpFinite, match=re.escape(named)):
        module_report(pres, N)


@pytest.mark.parametrize("k,raises", [(N - 3, False), (N - 2, True), (N - 1, True)])
def test_module_report_margin(k, raises):
    """Z_p / p^k killed by X: a divisor inside the margin [N - 2, N) raises."""
    pres = Presentation(p=3, d=1, gens=1,
                        rels=((lift(1, (3**k,)),), (lift(1, (0, 1)),)),
                        caps=((0, (0, 1)),))
    if raises:
        with pytest.raises(PrecisionExhausted):
            module_report(pres, N)
    else:
        assert module_report(pres, N) == {"rank": 0, "torsion": [k], "dim": 1}


def test_zero_module():
    rep = module_report(present_minus(3, 2, 0, False), N)
    assert rep == {"rank": 0, "torsion": [], "dim": 0}


@pytest.mark.parametrize("d", [2, 4])
@pytest.mark.parametrize("n", [0, 1, 2])
@pytest.mark.parametrize("gap", [2, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("triv", [True, False])
def test_coinvariant_torsion_closed_form(d, n, gap, sign, triv):
    m = n + gap
    present = present_plus if sign == "+" else present_minus
    rep = module_report(coinvariants(present(3, d, m, triv), n), N)
    assert rep["torsion"] == sorted(closed_form_coinvariant_torsion(3, d, m, n, sign, triv))


def test_torsion_multiplicity_formula():
    # plus side, trivial character: multiplicity d q_n^- + delta
    got = closed_form_coinvariant_torsion(3, 4, 4, 2, "+", True)
    _, _, qm = q_values(3, 2)
    assert got == [1] * (4 * qm + 2)
    assert closed_form_coinvariant_torsion(3, 4, 6, 2, "+", True) == [2] * (4 * qm + 2)
    # at n = 0 the polynomial part dies and only the annihilator block remains
    assert closed_form_coinvariant_torsion(3, 4, 2, 0, "+", True) == [1, 1]
    assert closed_form_coinvariant_torsion(3, 2, 2, 0, "+", True) == []


FREENESS_CASES = [
    ("free 1", lambda: free_presentation(3, 1, 1), True, True),
    ("free 3", lambda: free_presentation(3, 1, 3), True, True),
    ("X-line", lambda: L([[0, 1]]), False, True),
    ("mod p", lambda: L([[3]]), False, True),
    ("p and X", line_killed_by_p_and_X, False, False),
    ("X^2", lambda: L([[0, 0, 1]]), False, True),
    ("X - p", lambda: L([[-3, 1]]), False, True),
    ("quadratic", lambda: L([[3, 3, 1]]), False, True),
    ("p^2", lambda: L([[9]]), False, True),
    ("X^2 - p", lambda: L([[-3, 0, 1]]), False, True),
    ("free + X-line", lambda: direct_sum(free_presentation(3, 1, 1), L([[0, 1]])), False, True),
    ("free + free", lambda: direct_sum(free_presentation(3, 1, 2), free_presentation(3, 1, 1)), True, True),
    ("mod p + finite", lambda: direct_sum(L([[3]]), line_killed_by_p_and_X()), False, False),
    ("X-line + X-line", lambda: direct_sum(L([[0, 1]]), L([[0, 1]])), False, True),
    ("free + mod p", lambda: direct_sum(free_presentation(3, 1, 1), L([[3]])), False, True),
    ("free + finite", lambda: direct_sum(free_presentation(3, 1, 1), line_killed_by_p_and_X()), False, False),
    ("X-line + X-p", lambda: direct_sum(L([[0, 1]]), L([[-3, 1]])), False, True),
    ("X^2 + quadratic", lambda: direct_sum(L([[0, 0, 1]]), L([[3, 3, 1]])), False, True),
    ("finite + finite", lambda: direct_sum(line_killed_by_p_and_X(), line_killed_by_p_and_X()), False, False),
    ("free2 + X^2 - p", lambda: direct_sum(free_presentation(3, 1, 2), L([[-3, 0, 1]])), False, True),
]


@pytest.mark.parametrize("name,builder,exp_free,exp_nofin",
                         FREENESS_CASES, ids=[c[0] for c in FREENESS_CASES])
def test_freeness_ground_truth(name, builder, exp_free, exp_nofin):
    rep = freeness_test(builder(), N)
    assert rep["is_free"] == exp_free, rep
    assert rep["no_finite_submodule"] == exp_nofin, rep


def test_freeness_over_group_ring():
    # d = 2 coefficients: a free module stays free, an X-line is d-dimensional
    rep = freeness_test(free_presentation(3, 2, 1), N)
    assert rep["is_free"] and rep["no_finite_submodule"]
    rep = freeness_test(quotient_presentation(3, 2, [[0, 1]]), N)
    assert not rep["is_free"] and rep["no_finite_submodule"]
    assert rep["invariants"] == (2, [])


def test_freeness_certified_on_agreeing_rungs(monkeypatch):
    """Each rung is computed once: an unstable first rung costs one extra
    computation, and the certificate names the two rungs that agreed."""
    seen = []

    def once(pres, Nk):
        seen.append(Nk)
        return {"answer": Nk == N}  # disagrees at N, agrees from N + BUMP on

    monkeypatch.setattr(lambda_modules, "_freeness_once", once)
    rep = freeness_test(free_presentation(3, 1, 1), N)
    assert rep["certified_at"] == (N + PRECISION_BUMP, N + 2 * PRECISION_BUMP)
    assert seen == [N, N + PRECISION_BUMP, N + 2 * PRECISION_BUMP]


def test_invariant_windows_flattened_once(monkeypatch):
    """Stabilizing at the second window pair flattens three windows, not four."""
    calls = []

    def spy(pres, Nx):
        calls.append(pres)
        return flatten(pres, Nx)

    monkeypatch.setattr(lambda_modules, "flatten", spy)
    assert invariant_structure(L([[0, 1]]), N) == (1, [])
    assert len(calls) == 3
    assert len(set(calls)) == 3


SPAN_CASES = [c[:2] for c in FREENESS_CASES] + [
    ("plus d=4 n=2", lambda: present_plus(3, 4, 2, True)),
    ("minus d=2 n=1", lambda: present_minus(3, 2, 1, False)),
    ("plus d=2 m=3 over n=1", lambda: coinvariants(present_plus(3, 2, 3, True), 1)),
]


@pytest.mark.parametrize("name,builder", SPAN_CASES, ids=[c[0] for c in SPAN_CASES])
def test_relmat_divisors_are_those_of_the_span(name, builder, monkeypatch):
    """flatten eliminates once when a relation survives the caps, and
    module_report eliminates nothing more. The relation basis flatten keeps
    has, as its finite divisors, exactly the finite divisors of the full
    translate matrix W, and those are the divisors flatten keeps."""
    eliminated = []
    eliminate = snf._eliminate

    def spy(A, p, Nx, U=None, V=None):
        divisors = eliminate(A, p, Nx, U, V)
        eliminated.append(divisors)
        return divisors

    monkeypatch.setattr(lambda_modules, "_eliminate", spy)
    monkeypatch.setattr(snf, "_eliminate", spy)
    for pres in (x_truncated(builder(), 4), coinvariants(builder(), 1)):
        eliminated.clear()
        fm = flatten(pres, N)
        survives = fm.relmat.shape[1] > 0
        assert len(eliminated) == survives  # none when no relation survives the caps
        want = [e for divisors in eliminated for e in divisors if e < N]
        assert fm.divisors == want
        eliminated.clear()
        module_report(pres, N)
        assert len(eliminated) == survives  # flatten's elimination alone
        eliminated.clear()
        reference_flatten(pres, N)  # its first elimination, if any, is that of W
        assert [e for divisors in eliminated[:1] for e in divisors if e < N] == want
        assert [e for e in smith_divisors(fm.relmat, 3, N).divisors if e < N] == want
        assert fm.relmat.shape[1] == len(want)


def test_rank_lambda():
    assert rank_lambda(free_presentation(3, 1, 3), N) == 3
    assert rank_lambda(L([[0, 1]]), N) == 0
    assert rank_lambda(direct_sum(free_presentation(3, 1, 2), L([[0, 0, 1]])), N) == 2
    assert rank_lambda(free_presentation(3, 2, 1), N) == 2  # group-ring rank d


@pytest.mark.parametrize("d", [1, 2, 4])
@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("triv", [True, False])
def test_coinvariant_rank_law(d, sign, triv):
    for n in (0, 1, 2):
        rep = coinvariant_rank_law(3, d, n, triv, sign, N)
        assert rep["ok"], rep
        if n >= 1:
            # the totals' residue mod p^n isolates the defect
            assert rep["total"] % 3**n == rep["delta"]


def test_delta_appears_only_for_trivial_chi_d_mod4():
    rep = coinvariant_rank_law(3, 4, 1, True, "+", N)
    assert rep["delta"] == 2 and rep["total"] == 4 * 3 + 2
    rep = coinvariant_rank_law(3, 4, 1, False, "+", N)
    assert rep["delta"] == 0 and rep["total"] == 12
    rep = coinvariant_rank_law(3, 4, 1, True, "-", N)
    assert rep["delta"] == 0 and rep["total"] == 12


@pytest.mark.parametrize("d,triv,sign", [
    (4, True, "+"), (2, True, "+"), (4, False, "+"), (3, True, "+"),
    (4, True, "-"), (2, False, "-"),
])
def test_supplementary_structure(d, triv, sign):
    rep = supplementary_structure_check(d, triv, 3, N, sign)
    assert rep["ok"], rep


def test_supplementary_level0_discriminates():
    rep = supplementary_structure_check(4, True, 3, N, "+")
    assert rep["coinv_rank_n0"] == 4 + 2  # not 4 + 1: rules out the quadratic hybrid


def test_kernel_freeness_property_small():
    rep = kernel_freeness_property(24, seed=202608, N=10)
    assert rep["ok"], rep["counterexamples"]
    assert rep["trials"] == 24


def test_kernel_freeness_property_runs_at_p7():
    """The safe torsion blocks exist at every odd p, not only at 3 and 5."""
    rep = kernel_freeness_property(6, seed=7, N=10, p=7)
    assert rep["ok"], rep["counterexamples"]
    assert rep["trials"] == 6


def test_minus_side_has_no_finite_submodule():
    # the minus local condition at every finite level: the presentation is a
    # Z_p-free module, so its X-kernel is torsion-free at each level
    for d in (1, 2, 4):
        for n in (0, 1, 2):
            rep = freeness_test(present_minus(3, d, n, True), N)
            assert rep["no_finite_submodule"], (d, n, rep)


def test_quotient_rank_bookkeeping():
    # the ambient cohomology module is free of rank 2d and surjects onto a
    # rank-d module with no finite submodule; the kernel-rank subtraction then
    # leaves a free module of rank 2d - d = d. At the level of presentations:
    for d in (1, 2):
        ambient = free_presentation(3, d, 2)   # Lambda-rank 2d over Z_p[G]
        assert rank_lambda(ambient, N) == 2 * d
        # subtracting the local-condition rank d leaves d
        assert rank_lambda(ambient, N) - d * 1 == d


@pytest.mark.parametrize("p", [3, 5])
def test_presentations_match_the_reference_family(p, monkeypatch):
    """present_plus, present_minus and their coinvariants are the same
    presentations whether the omega families come from the memoised build
    mod p^K or from the from-scratch exact reference reduced mod p^K (cached
    here, so each (p, n) runs once)."""
    def build():
        out = {}
        for d in (1, 2, 4):
            for n in range(4):
                for trivial in (True, False):
                    for present in (present_plus, present_minus):
                        pres = present(p, d, n + 2, trivial)
                        out[present.__name__, d, n, trivial] = (pres, coinvariants(pres, n))
        return out

    new = build()
    monkeypatch.setattr(lambda_modules, "omega_family", cache(reduced_reference_omega_family))
    ref = build()
    for key in new:
        assert new[key] == ref[key], key


# ---------------------------------------------------------------------------
# the X-kernel readers and the freeness ladder as they were when every
# decision was made at N, strict or tolerant (verbatim copies, with the snf
# readers they called): a tolerant decision clamped a divisor inside the
# margin to zero at precision
# ---------------------------------------------------------------------------

def at_n_kernel_columns(divisors: list[int], n: int, N: int, tolerant: bool) -> list[int]:
    if not tolerant and any(N - MARGIN <= e < N for e in divisors):
        raise PrecisionExhausted("kernel decision inside precision margin")
    return [j for j in range(n) if j >= len(divisors) or divisors[j] >= N - MARGIN]


def at_n_kernel_image(A, W, p: int, N: int, tolerant: bool = False) -> np.ndarray:
    q = p**N
    A = as_matrix(A, q)
    W = as_matrix(W, q).astype(A.dtype, copy=False)
    divisors = snf._eliminate(A, p, N, V=W)
    return W[:, at_n_kernel_columns(divisors, A.shape[1], N, tolerant)]


def at_n_quotient_invariants(D_ambient: int, W, p: int, N: int) -> tuple[int, list[int], bool]:
    if W.shape[1] == 0:
        return D_ambient, [], False
    res = smith_divisors(W, p, N)
    rank = sum(1 for e in res.divisors if e < N - MARGIN)
    ambiguous = any(N - MARGIN <= e < N for e in res.divisors)
    return D_ambient - rank, res.torsion(), ambiguous


def at_n_module_report(pres: Presentation, N: int, tolerant: bool = False) -> dict:
    fm = flatten(pres, N)
    if fm.dim == 0:
        return {"rank": 0, "torsion": [], "dim": 0, "ambiguous": False}
    rank, torsion, ambiguous = at_n_quotient_invariants(fm.dim, fm.relmat, fm.p, N)
    if ambiguous and not tolerant:
        raise PrecisionExhausted("module invariants inside precision margin")
    return {"rank": rank, "torsion": torsion, "dim": fm.dim,
            "ambiguous": ambiguous}


def at_n_subquotient_structure(K: np.ndarray, R: np.ndarray, p: int, N: int,
                               tolerant: bool = False) -> tuple[int, list[int]]:
    K = _drop_null_columns(as_matrix(K, p**N), p, N)
    R = _drop_null_columns(as_matrix(R, p**N), p, N) if R.size else R
    t = K.shape[1]
    if t == 0:
        return 0, []
    stacked = stack_cols(K, R) if R.size else K
    C = at_n_kernel_image(stacked, np.eye(t, stacked.shape[1], dtype=np.int64), p, N, tolerant)
    rank, torsion, ambiguous = at_n_quotient_invariants(t, C, p, N)
    if ambiguous and not tolerant:
        raise PrecisionExhausted("subquotient structure inside precision margin")
    return rank, torsion


def at_n_invariant_structure(pres: Presentation, N: int,
                             tolerant: bool = False) -> tuple[int, list[int]]:
    caps = pres.cap_map()
    native = [len(c) - 1 for c in caps.values()]
    reldeg = max((lam_deg(c) for r in pres.rels for c in r), default=0)
    W = max(native + [reldeg, 2]) + 2
    lo = flatten(x_truncated(pres, W), N)
    prev = None
    for _ in range(4):
        W += 1
        hi = flatten(x_truncated(pres, W), N)
        cur = at_n_invariant_structure_at(lo, hi, tolerant)
        if cur == prev:
            return cur
        prev, lo = cur, hi
    raise PrecisionExhausted(f"X-kernel invariants did not stabilize by W={W}")


def at_n_invariant_structure_at(lo: FlatModule, hi: FlatModule,
                                tolerant: bool) -> tuple[int, list[int]]:
    p, N = hi.p, hi.N
    if hi.dim == 0:
        return 0, []
    rows = [hi.offsets[i] + a * hi.caps_deg[i] + b for i in range(hi.pres.gens)
            for a in range(hi.pres.d) for b in range(lo.caps_deg[i])]
    stacked = stack_cols(hi.X, hi.relmat) if hi.relmat.size else hi.X
    top = np.eye(hi.dim, stacked.shape[1], dtype=np.int64)[rows]
    K_lo = at_n_kernel_image(stacked, top, p, N, tolerant)
    if hi.relmat.size:
        K_lo = stack_cols(K_lo, hi.relmat[rows])
    return at_n_subquotient_structure(K_lo, lo.relmat, p, N, tolerant)


def at_n_freeness_test(pres: Presentation, N: int) -> dict:
    last = PrecisionExhausted("freeness ladder exhausted")
    prev = None
    for Nk in snf.precision_ladder(N):
        try:
            cur = at_n_freeness_once(pres, Nk)
        except PrecisionExhausted as e:
            last, prev = e, None
            continue
        if prev is not None:
            if cur == prev[1]:
                return {**cur, "certified_at": (prev[0], Nk)}
            last = PrecisionExhausted(
                f"freeness predicates unstable at N={prev[0]}: {prev[1]} vs {cur}")
        prev = (Nk, cur)
    raise last


def at_n_freeness_once(pres: Presentation, N: int) -> dict:
    inv_rank, inv_tors = at_n_invariant_structure(pres, N, tolerant=True)
    rep = at_n_module_report(x_truncated(pres, 1), N, tolerant=True)
    coin_rank, coin_tors = rep["rank"], rep["torsion"]
    return {
        "invariants": (inv_rank, inv_tors),
        "coinvariants": (coin_rank, coin_tors),
        "is_free": inv_rank == 0 and not inv_tors and not coin_tors,
        "no_finite_submodule": not inv_tors,
    }


def _outcome(fn, *args):
    try:
        return fn(*args)
    except PrecisionExhausted:
        return PrecisionExhausted


def _window_pairs(pres: Presentation, N: int, pairs: int = 2):
    """The first flat window pairs (lo, hi) that invariant_structure walks."""
    native = [len(c) - 1 for c in pres.cap_map().values()]
    reldeg = max((lam_deg(c) for r in pres.rels for c in r), default=0)
    W = max(native + [reldeg, 2]) + 2
    fms = [flatten(x_truncated(pres, W + k), N) for k in range(pairs + 1)]
    return list(zip(fms, fms[1:]))


def _assert_readers_match_reference(pres: Presentation, N: int):
    """The readers that decide at the precision of their kernel vectors agree
    with the strict readers that decided at N, raising where they raised."""
    for lo, hi in _window_pairs(pres, N):
        q = hi.q
        empty = np.zeros((hi.dim, 0), dtype=object)
        assert _outcome(_invariant_structure_at, lo, hi) == \
            _outcome(at_n_invariant_structure_at, lo, hi, False)
        for K, R in ((hi.X % q, hi.relmat), (hi.relmat, empty), (hi.X % q, empty)):
            assert _outcome(_subquotient_structure, K, R, hi.p, N) == \
                _outcome(at_n_subquotient_structure, K, R, hi.p, N, False)


@pytest.mark.parametrize("p,d,n", [(3, 1, 0), (3, 1, 2), (3, 2, 1), (3, 2, 2), (3, 4, 1),
                                   (3, 4, 2), (5, 1, 1), (5, 2, 0), (5, 2, 1), (5, 4, 1)])
@pytest.mark.parametrize("Nx", [3, N])
def test_kernel_readers_match_reference_on_presentations(p, d, n, Nx):
    for trivial in (True, False):
        for present in (present_plus, present_minus):
            _assert_readers_match_reference(present(p, d, n, trivial), Nx)


@pytest.mark.parametrize("Nx", [3, N])
def test_kernel_readers_match_reference_on_hand_and_harness_modules(Nx):
    modules = [pres for pres, _, _ in _hand_modules()]
    assert len(modules) == 20
    rng = random.Random(20260810)
    modules += [_random_safe_module(rng, p, d)[0] for p in (3, 5) for d in (1, 2)
                for _ in range(3)]
    for pres in modules:
        _assert_readers_match_reference(pres, Nx)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_x_kernel_of_a_relation_not_divisible_by_x(p, k):
    """Lambda^2 / (p^k + X, p^k) has no X-kernel: X m = f (p^k + X, p^k)
    forces X | f, so m is a multiple of the relation. Decided at N instead of
    at the precision the kernel vectors carry, it raises for k <= 2 and reads
    rank 1 for k >= 3."""
    pres = Presentation(p=p, d=1, gens=2, rels=((lift(1, (p**k, 1)), lift(1, (p**k,))),))
    for Nx in (8, 10, 20):
        assert invariant_structure(pres, Nx) == (0, [])
    assert freeness_test(pres, 10)["invariants"] == (0, [])


def _harness_freeness_calls(p: int, seed: int, trials: int) -> list:
    """The (presentation, N) of every freeness_test the harness runs."""
    calls = []

    def recording(pres, Nx):
        calls.append((pres, Nx))
        return freeness_test(pres, Nx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lambda_modules, "freeness_test", recording)
        kernel_freeness_property(trials, seed, N=10, p=p)
    return calls


def test_freeness_matches_the_tolerant_ladder():
    """On the hand modules and two harness seeds, the answers are those of the
    ladder that clamped margin divisors; they may be certified later."""
    cases = [(pres, 8) for pres, _, _ in _hand_modules()]
    for p, seed in ((3, 20260810), (5, 202608)):
        cases += _harness_freeness_calls(p, seed, 24)
    assert len(cases) > 20
    for pres, Nx in cases:
        got, want = freeness_test(pres, Nx), at_n_freeness_test(pres, Nx)
        assert got.pop("certified_at") >= want.pop("certified_at")
        assert got == want


# ---------------------------------------------------------------------------
# the X-major layout group-ring polynomials had before they were stored
# F-major: verbatim copies of its helpers and of the harness generators drawn
# in it (renamed), and converters between the two layouts
# ---------------------------------------------------------------------------

def _x_major(f):
    """f as a tuple of d-tuples, lowest X-degree first, at least one of them."""
    return tuple(tuple(c[j] if j < len(c) else 0 for c in f)
                 for j in range(max(*map(len, f), 1)))


def _f_major(f):
    """f as the tuple of its F-components, each without trailing zeros."""
    out = []
    for c in zip(*f):
        c = list(c)
        while c and not c[-1]:
            c.pop()
        out.append(tuple(c))
    return tuple(out)


def _x_major_caps(pres: Presentation) -> dict:
    return {i: _x_major(lift(pres.d, c)) for i, c in pres.caps}


def xmajor_zero(d: int):
    return ((0,) * d,)


def xmajor_const(d: int, c) -> tuple:
    if isinstance(c, int):
        return ((c,) + (0,) * (d - 1),)
    return (tuple(c),)


def xmajor_deg(f: tuple) -> int:
    for j in range(len(f) - 1, -1, -1):
        if any(f[j]):
            return j
    return -1  # zero polynomial


def xmajor_trim(f: tuple) -> tuple:
    dg = xmajor_deg(f)
    return f[: dg + 1] if dg >= 0 else (f[0][:0] + (0,) * len(f[0]),)


def _elt_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _elt_neg(a):
    return tuple(-x for x in a)


def xmajor_add(f, g):
    d = len(f[0])
    n = max(len(f), len(g))
    zf = ((0,) * d,)
    fx = f + zf * (n - len(f))
    gx = g + zf * (n - len(g))
    return tuple(_elt_add(a, b) for a, b in zip(fx, gx))


def xmajor_neg(f):
    return tuple(_elt_neg(a) for a in f)


def xmajor_mul(f, g):
    d = len(f[0])
    m = (-1,) + (0,) * (d - 1) + (1,)  # F^d - 1
    return tuple(tuple(rem_monic(c, m)) for c in mul_vec(f, g, d))


def xmajor_reduce(f, cap):
    """Remainder of f modulo a monic cap polynomial with scalar coefficients,
    one F-component at a time."""
    d = len(f[0])
    B = xmajor_deg(cap)
    assert B >= 0 and not any(any(c[1:]) for c in cap), "cap must have scalar coefficients"
    if B == 0:
        return ((0,) * d,)
    m = [c[0] for c in cap[: B + 1]]
    return tuple(zip(*(rem_monic([c[a] for c in f], m) for a in range(d))))


def xmajor_matvec(T, v, d):
    """Matrix of GRPolys times vector of GRPolys."""
    out = []
    for row in T:
        acc = xmajor_zero(d)
        for a, b in zip(row, v):
            acc = xmajor_add(acc, xmajor_mul(a, b))
        out.append(xmajor_trim(acc))
    return tuple(out)


def xmajor_matmul(A, B, d):
    return tuple(zip(*(xmajor_matvec(A, col, d) for col in zip(*B))))


def xmajor_identity(n, d):
    one = xmajor_const(d, 1)
    z = xmajor_zero(d)
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def reference_random_poly(rng, d, max_deg, p):
    coeffs = []
    for _ in range(rng.randrange(max_deg + 1) + 1):
        c = [rng.randrange(-p, p + 1) for _ in range(d)]
        coeffs.append(tuple(c))
    return xmajor_trim(tuple(coeffs)) if any(any(c) for c in coeffs) else xmajor_zero(d)


def reference_random_unimodular(rng, n, d, p, ops: int, max_deg: int):
    """U and U^{-1} as GRPoly matrices: product of transvections and sign flips."""
    U = [list(r) for r in xmajor_identity(n, d)]
    Uinv = [list(r) for r in xmajor_identity(n, d)]
    for _ in range(ops):
        if n >= 2 and rng.random() < 0.8:
            i, j = rng.sample(range(n), 2)
            f = reference_random_poly(rng, d, max_deg, p)
            # U <- E U (row_i += f row_j); Uinv <- Uinv E^{-1} (col_j -= f col_i)
            U[i] = [xmajor_trim(xmajor_add(U[i][k], xmajor_mul(f, U[j][k]))) for k in range(n)]
            for k in range(n):
                Uinv[k][j] = xmajor_trim(xmajor_add(Uinv[k][j], xmajor_neg(xmajor_mul(f, Uinv[k][i]))))
        else:
            i = rng.randrange(n)
            U[i] = [xmajor_neg(c) for c in U[i]]
            for k in range(n):
                Uinv[k][i] = xmajor_neg(Uinv[k][i])
    prod = xmajor_matmul(tuple(map(tuple, U)), tuple(map(tuple, Uinv)), d)
    assert prod == xmajor_identity(n, d), "unimodular bookkeeping broke"
    return tuple(map(tuple, U)), tuple(map(tuple, Uinv))


@pytest.mark.parametrize("p,d", [(p, d) for p in (3, 5) for d in (1, 2, 4)])
@settings(deadline=None, max_examples=20)
@given(data=st.data())
def test_lam_mul_matches_schoolbook(p, d, data):
    elt = st.tuples(*[st.integers(-p, p)] * d)
    f = tuple(data.draw(st.lists(elt, min_size=1, max_size=6)))
    g = tuple(data.draw(st.lists(elt, min_size=1, max_size=6)))
    expect = [[0] * d for _ in range(len(f) + len(g) - 1)]
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            expect[i + j] = [u + v for u, v in zip(expect[i + j], ref_cyclic(x, y, d))]
    assert lam_mul(_f_major(f), _f_major(g)) == _f_major(expect)


@pytest.mark.parametrize("p", [3, 5])
def test_random_draws_are_the_x_major_draws_transposed(p):
    """The harness generators draw what the X-major ones drew, transposed,
    and leave the rng in the same state."""
    for seed in range(8):
        for d in (1, 2, 4):
            new, old = random.Random(seed), random.Random(seed)
            for max_deg in (0, 1, 3):
                assert _x_major(_random_poly(new, d, max_deg, p)) == \
                    reference_random_poly(old, d, max_deg, p)
            for n in (1, 2, 3):
                got = _random_unimodular(new, n, d, p, ops=5, max_deg=2)
                want = reference_random_unimodular(old, n, d, p, ops=5, max_deg=2)
                assert [[list(map(_x_major, row)) for row in M] for M in got] == \
                    [[list(row) for row in M] for M in want]
            assert new.getstate() == old.getstate()


@pytest.mark.parametrize("p", [3, 5])
def test_harness_instances_match_the_x_major_stream(p, monkeypatch):
    """kernel_freeness_property meets the same instances, with the same
    outcomes and rng states, when its generators are the X-major ones with
    their draws transposed."""
    seen = []

    def recording(instance):
        def spy(rng, *args):
            out = instance(rng, *args)
            seen.append((instance.__name__, args, out, rng.getstate()))
            return out
        return spy

    for name in ("_kernel_instance", "_cokernel_instance"):
        monkeypatch.setattr(lambda_modules, name, recording(getattr(lambda_modules, name)))

    def run():
        seen.clear()
        reps = [kernel_freeness_property(12, seed, N=10, p=p) for seed in (1, 7, 202608, 20260810)]
        return reps, list(seen)

    new = run()
    assert len(new[1]) >= 48
    monkeypatch.setattr(lambda_modules, "_random_poly",
                        lambda *args: _f_major(reference_random_poly(*args)))
    monkeypatch.setattr(
        lambda_modules, "_random_unimodular",
        lambda *args, **kw: tuple(tuple(tuple(map(_f_major, row)) for row in M)
                                  for M in reference_random_unimodular(*args, **kw)))
    assert run() == new


# ---------------------------------------------------------------------------
# differential test: flatten applying X and F as index maps, against the
# dense object-matrix products it replaced (verbatim copies, with the module
# type and the relation layout it used)
# ---------------------------------------------------------------------------

@dataclass
class ReferenceFlatModule:
    pres: Presentation
    N: int
    offsets: list[int]       # per generator; basis (i, a, b) -> offsets[i] + a*B_i + b
    caps_deg: list[int]
    dim: int
    X: np.ndarray
    F: np.ndarray
    relmat: np.ndarray       # canonical generating set of the relation span

    @property
    def p(self) -> int:
        return self.pres.p

    @property
    def q(self) -> int:
        return self.p**self.N


def reference_flatten_vector(fm: ReferenceFlatModule, rel) -> np.ndarray:
    """One relation vector reduced mod caps and laid out on the flat basis."""
    pres = fm.pres
    d = pres.d
    caps = _x_major_caps(pres)
    out = np.zeros(fm.dim, dtype=object)
    for i, poly in enumerate(rel):
        B = fm.caps_deg[i]
        if B == 0:
            continue
        red = xmajor_reduce(_x_major(poly), caps[i])
        for b in range(min(len(red), B)):
            coeff = red[b]
            for a in range(d):
                if coeff[a]:
                    out[fm.offsets[i] + a * B + b] += coeff[a]
    return out % fm.q


def reference_flatten(pres: Presentation, N: int) -> ReferenceFlatModule:
    """Build the capped ambient with its X / F matrices and the relation span
    (closed under the ring action; closure is certified by a no-growth check)."""
    d = pres.d
    p = pres.p
    q = p**N
    caps = _x_major_caps(pres)
    missing = [i for i in range(pres.gens) if i not in caps]
    if missing:
        raise NotZpFinite(f"generators {missing} carry no monic-in-X cap relation")
    caps_deg = [xmajor_deg(caps[i]) for i in range(pres.gens)]
    offsets = []
    dim = 0
    for i in range(pres.gens):
        offsets.append(dim)
        dim += d * caps_deg[i]
    X = np.zeros((dim, dim), dtype=object)
    F = np.zeros((dim, dim), dtype=object)
    for i in range(pres.gens):
        B = caps_deg[i]
        cap = caps[i]
        for a in range(d):
            base = offsets[i] + a * B
            F_target = offsets[i] + ((a + 1) % d) * B
            for b in range(B):
                F[F_target + b, base + b] = 1
                if b + 1 < B:
                    X[base + b + 1, base + b] = 1
                else:
                    # X * X^(B-1) g_i = -sum cap[k] X^k g_i (scalar cap coeffs)
                    for k in range(B):
                        c = cap[k][0]
                        if c:
                            X[base + k, base + B - 1] -= c
    X %= q
    F %= q
    fm = ReferenceFlatModule(pres=pres, N=N, offsets=offsets, caps_deg=caps_deg,
                             dim=dim, X=X, F=F, relmat=np.zeros((dim, 0), dtype=object))
    if dim == 0:
        return fm
    base_cols = [reference_flatten_vector(fm, rel) for rel in pres.rels]
    base_cols = [c for c in base_cols if c.any()]
    if not base_cols:
        return fm
    # X-translates up to the minimal-polynomial bound of the block-diagonal
    # X-action (sum of distinct cap degrees), F-translates over the full cycle
    b_max = sum({tuple(map(tuple, caps[i])): caps_deg[i]
                 for i in range(pres.gens) if caps_deg[i] > 0}.values()) + 1
    cols = []
    cur = [np.array(c, dtype=object) for c in base_cols]
    for _ in range(b_max):
        nxt = []
        for v in cur:
            w = v
            for a in range(d):
                cols.append(w)
                if a + 1 < d:
                    w = (F @ w) % q
            nxt.append((X @ v) % q)
        cur = nxt
    W = as_matrix(np.array(cols, dtype=object).T, q)
    # a small generating set of the same span: the columns of W V with a
    # divisor below N (U W V = diag(p^e), V unimodular); their divisors are
    # the finite divisors of W
    res = smith_normal_form(W, p, N)
    finite = [e for e in res.divisors if e < N]
    Wc = (W @ res.V[:, :len(finite)]) % q
    # closure certificate: one more X- and F-batch must not grow the span
    grown = stack_cols(Wc, (X @ Wc) % q, (F @ Wc) % q)
    if finite != [e for e in smith_divisors(grown, p, N).divisors if e < N]:
        raise ArithmeticError("relation span not closed within the translate bound")
    fm.relmat = Wc
    return fm


def _same_values(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a, b)


def _assert_flatten_matches_reference(pres: Presentation, N: int):
    try:
        want = reference_flatten(pres, N)
    except (NotZpFinite, ArithmeticError) as e:
        with pytest.raises(type(e)):
            flatten(pres, N)
        return
    got = flatten(pres, N)
    assert (got.dim, got.offsets, got.caps_deg) == (want.dim, want.offsets, want.caps_deg)
    assert _same_values(got.X, want.X)
    assert _same_values(got.relmat, want.relmat)
    # the dtype as_matrix gives: int64 under its dimension-aware bound, exact ints past it
    q = pres.p**N
    assert got.X.dtype == got.relmat.dtype == as_matrix(got.X, q).dtype
    assert got.relmat.dtype == as_matrix(got.relmat, q).dtype
    if got.X.dtype == object:
        assert all(type(x) is int for x in got.X.flat)
        assert all(type(x) is int for x in got.relmat.flat)


@st.composite
def capped_presentations(draw):
    """Random presentations with several generators, each capped by a monic
    scalar polynomial of degree 0, 1 or more (coefficients possibly past q),
    and relations with group-ring coefficients, some of them multiples of a
    cap, which vanish once reduced."""
    p = draw(st.sampled_from([3, 5]))
    d = draw(st.sampled_from([1, 2, 4]))
    gens = draw(st.integers(1, 3))
    coeff = st.integers(-p**3, p**3) | st.sampled_from([0, 0, p, -p**9])
    caps = []
    for _ in range(gens):
        B = draw(st.sampled_from([0, 1, 1, 2, 3]))
        caps.append(tuple(draw(st.lists(coeff, min_size=B, max_size=B)) + [1]))
    poly = st.lists(st.tuples(*[coeff] * d), min_size=1, max_size=4).map(_f_major)
    rels = []
    for _ in range(draw(st.integers(1, 4))):
        row = tuple(draw(poly) for _ in range(gens))
        if draw(st.sampled_from([False, False, True])):  # zero on the flat basis
            row = tuple(lam_mul(f, lift(d, caps[i])) for i, f in enumerate(row))
        rels.append(row)
    return Presentation(p=p, d=d, gens=gens, rels=tuple(rels),
                        caps=tuple(enumerate(caps))), draw(st.sampled_from([2, 5, 8, 20]))


@settings(deadline=None, max_examples=150)
@given(capped_presentations())
def test_flatten_matches_reference_on_random_presentations(case):
    _assert_flatten_matches_reference(*case)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (3, 4), (5, 1), (5, 2), (5, 4)])
def test_flatten_matches_reference_on_shipped_presentations(p, d):
    for n in (0, 1, 2):
        for trivial in (True, False):
            for present in (present_plus, present_minus):
                pres = present(p, d, n, trivial)
                for Nx in (3, N):
                    _assert_flatten_matches_reference(x_truncated(pres, n + 3), Nx)
                    _assert_flatten_matches_reference(coinvariants(pres, max(n - 1, 0)), Nx)
                    _assert_flatten_matches_reference(pres, Nx)


@pytest.mark.parametrize("Nx,dtype", [(10, np.int64), (14, object)])
def test_flatten_works_in_the_dtype_of_as_matrix(Nx, dtype):
    """At p = 5, N = 10 is under the int64 bound and N = 14 (the harness's second
    freeness rung) above it: X and the relation basis come out int64 and
    exact ints, with the values of the reference."""
    for n in (0, 1, 2):
        for present in (present_plus, present_minus):
            pres = present(5, 2, n, True)
            for model in (pres, x_truncated(pres, n + 3), coinvariants(pres, max(n - 1, 0))):
                assert flatten(model, Nx).X.dtype == dtype
                _assert_flatten_matches_reference(model, Nx)


def test_flatten_stops_at_the_precision_of_the_omega_families(monkeypatch):
    """The omega families are kept mod p^K, K = OMEGA_PRECISION. At N = K the
    coinvariant quotients of the n = 6 presentations, whose exact families
    have coefficients of about 725 bits, flatten as the exact families
    flatten; at K + 1 flatten raises rather than read data it does not have."""
    K = snf.OMEGA_PRECISION

    def models():
        return [coinvariants(present(3, 2, 6, trivial), n) for present in (present_plus, present_minus)
                for trivial in (True, False) for n in (1, 2)]

    got = [flatten(m, K) for m in models()]
    monkeypatch.setattr(lambda_modules, "omega_family", reference_omega_family)
    assert max(abs(c) for m in models() for rel in m.rels for f in rel for c in f[0]) > 3**K
    for fm, exact in zip(got, (flatten(m, K) for m in models())):
        assert fm.divisors == exact.divisors
        assert np.array_equal(fm.X, exact.X) and np.array_equal(fm.relmat, exact.relmat)
    with pytest.raises(ValueError, match="OMEGA_PRECISION"):
        flatten(models()[0], K + 1)


# ---------------------------------------------------------------------------
# differential test: the closure certificate read off flatten's one
# elimination, against the divisor comparison of a second elimination of
# [Wc | X Wc | F Wc] that it replaced, with the translate bound forced to 1
# so that many spans are not closed
# ---------------------------------------------------------------------------

def divisor_comparison_flatten(pres: Presentation, N: int) -> np.ndarray:
    """The relation basis of flatten as it was before the closure certificate
    rode its elimination: verbatim, comments aside, but that it reads the
    translate bound from `_translate_bound`, fills the module's `divisors`
    field with a placeholder and returns the relation basis alone."""
    d, p, q = pres.d, pres.p, pres.p**N
    caps = pres.cap_map()
    uncapped = [i for i in range(pres.gens) if caps.get(i, ())[-1:] != (1,)]
    if uncapped:
        raise NotZpFinite(f"generators {uncapped} carry no monic-in-X cap relation")
    caps_deg = [len(caps[i]) - 1 for i in range(pres.gens)]
    offsets = [d * sum(caps_deg[:i]) for i in range(pres.gens)]
    dim = d * sum(caps_deg)
    below, top, fold, perm = [], [], [], []
    for i, B in enumerate(caps_deg):
        for a in range(d):
            base, prev = offsets[i] + a * B, offsets[i] + (a - 1) % d * B
            below += [base + b - 1 if b else dim for b in range(B)]
            top += [base + B - 1] * B
            fold += [c % q for c in caps[i][:B]]
            perm += range(prev, prev + B)
    below, top, perm = (np.array(ix, dtype=np.intp) for ix in (below, top, perm))
    fold = np.array(fold, dtype=object).reshape(-1, 1)
    rot = [np.arange(dim)]
    for _ in range(d - 1):
        rot.append(rot[-1][perm])
    rot = np.stack(rot, axis=1)

    def x_map(M: np.ndarray) -> np.ndarray:
        M_ext = np.vstack((M, np.zeros((1, M.shape[1]), dtype=M.dtype)))
        return (M_ext[below] - fold * M[top]) % q

    fm = FlatModule(pres=pres, N=N, offsets=offsets, caps_deg=caps_deg, dim=dim,
                    X=x_map(np.eye(dim, dtype=object)),
                    relmat=np.zeros((dim, 0), dtype=object), divisors=[])
    if dim == 0:
        return fm.relmat
    base_cols = [c for c in (_flatten_vector(fm, rel) for rel in pres.rels) if c.any()]
    if not base_cols:
        return fm.relmat
    b_max = lambda_modules._translate_bound(caps, caps_deg)
    cur, blocks = np.array(base_cols, dtype=object).T, []
    for _ in range(b_max):
        blocks.append(cur[rot].transpose(0, 2, 1).reshape(dim, -1))
        cur = x_map(cur)
    W = as_matrix(np.hstack(blocks), q)
    res = smith_normal_form(W, p, N)
    finite = [e for e in res.divisors if e < N]
    Wc = (W @ res.V[:, :len(finite)]) % q
    # closure certificate: one more X- and F-batch must not grow the span
    grown = stack_cols(Wc, x_map(Wc), Wc[perm])
    if finite != [e for e in smith_divisors(grown, p, N).divisors if e < N]:
        raise ArithmeticError("relation span not closed within the translate bound")
    return Wc


def _closure_outcome(fn, pres: Presentation, N: int):
    """The relation basis fn builds at translate bound 1, or ArithmeticError."""
    with mock.patch.object(lambda_modules, "_translate_bound", lambda caps, caps_deg: 1):
        try:
            return fn(pres, N)
        except ArithmeticError:
            return ArithmeticError


def _assert_certificate_matches_the_divisor_comparison(pres: Presentation, N: int) -> bool:
    """Both raise, or neither does and the relation bases agree; True if
    both raised."""
    want = _closure_outcome(divisor_comparison_flatten, pres, N)
    got = _closure_outcome(lambda *args: flatten(*args).relmat, pres, N)
    if want is ArithmeticError or got is ArithmeticError:
        assert got is want
        return True
    assert _same_values(got, want)
    return False


@settings(deadline=None, max_examples=150)
@given(capped_presentations(), st.sampled_from([3, 6, 10, 14]))
def test_closure_certificate_matches_the_divisor_comparison(case, Nx):
    _assert_certificate_matches_the_divisor_comparison(case[0], Nx)


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 2), (5, 4)])
def test_closure_certificate_matches_on_shipped_presentations(p, d):
    raised = []
    for n in (0, 1, 2):
        for trivial in (True, False):
            for present in (present_plus, present_minus):
                pres = present(p, d, n, trivial)
                for model in (pres, x_truncated(pres, n + 3), coinvariants(pres, max(n - 1, 0))):
                    for Nx in (3, 6, 10, 14):
                        raised.append(
                            _assert_certificate_matches_the_divisor_comparison(model, Nx))
    assert any(raised) and not all(raised)  # both outcomes are exercised


@settings(deadline=None, max_examples=150)
@given(capped_presentations(), st.sampled_from([2, 3, 4, 8]))
def test_module_report_reads_the_divisors_of_the_relation_basis(case, Nx):
    """module_report's rank and torsion, read from flatten's divisors, are
    quotient_invariants of the relation basis, and it raises inside the
    margin exactly where they do."""
    pres = case[0]
    try:
        fm = flatten(pres, Nx)
    except ArithmeticError:  # a span not closed: module_report raises too
        with pytest.raises(ArithmeticError):
            module_report(pres, Nx)
        return
    rep = _outcome(module_report, pres, Nx)
    want = _outcome(quotient_invariants, fm.dim, fm.relmat, fm.p, Nx)
    if want is PrecisionExhausted:
        assert rep is PrecisionExhausted
    else:
        assert rep == {"rank": want[0], "torsion": want[1], "dim": fm.dim}


# ---------------------------------------------------------------------------
# differential test: the harness reads the image of its kernel K in the
# X-coinvariants through module_report, against the constant-term matrix it
# built by hand (the old _kernel_instance, verbatim but for its image block,
# which is reference_image_rank, verbatim)
# ---------------------------------------------------------------------------

def reference_kernel_instance(rng, p, d, N) -> dict:
    targetN, s = _random_safe_module(rng, p, d)
    gN = targetN.gens
    extra = rng.randrange(1, 3)
    r = gN + extra
    _, Uinv = _random_unimodular(rng, gN, d, p, ops=rng.randrange(2, 6),
                                 max_deg=max(1, _DEG_BOUND // 3))
    Q = tuple(tuple(_random_poly(rng, d, _DEG_BOUND // 2, p) for _ in range(extra))
              for _ in range(gN))
    z, one = lift(d, ()), lift(d, (1,))
    kgens = []
    for w in targetN.rels:  # vectors in R^gN
        v1 = _matvec(Uinv, w, d)
        kgens.append(tuple(v1) + (z,) * extra)
    for j in range(extra):
        qcol = tuple(Q[i][j] for i in range(gN))
        v1 = _matvec(Uinv, qcol, d)
        kgens.append(tuple(lam_add(z, c, -1) for c in v1)
                     + tuple(one if t == j else z for t in range(extra)))
    # the safe-module filter: verified submodule-free (ker X torsion-free)
    inv_rank, inv_tors = invariant_structure(targetN, N)
    filter_ok = not inv_tors
    rio = reference_image_rank(kgens, p, d, N)
    expected_rank = d * (r - s)
    ok = filter_ok and (inv_rank + rio == expected_rank)
    return {"kind": "kernel", "ok": ok,
            "got": (inv_rank, rio), "expected": expected_rank,
            "filter_ok": filter_ok, "r": r, "s": s,
            "kgens": kgens if not ok else None}


def reference_image_rank(kgens, p, d, N) -> int:
    # image of K in the X-coinvariants of the free module: constant coefficients
    q = p**N
    cols = []
    for k in kgens:
        const = [[c[0] if c else 0 for c in comp] for comp in k]
        for a in range(d):  # F^a k: F-power b moves to b + a
            rot = [e[(b - a) % d] for e in const for b in range(d)]
            cols.append(np.array(rot, dtype=object) % q)
    img = as_matrix(np.array(cols, dtype=object).T, q)
    return smith_divisors(img, p, N).rank()


def _drawn(instance, seed, p, d, Nx):
    """The instance drawn from the seed, or PrecisionExhausted, with the rng
    state it leaves."""
    rng = random.Random(seed)
    return _outcome(instance, rng, p, d, Nx), rng.getstate()


@pytest.mark.parametrize("p,d", [(3, 1), (3, 2), (5, 1), (5, 2)])
@pytest.mark.parametrize("Nx", [3, 10, 14])
def test_kernel_instances_match_the_constant_term_image(p, d, Nx):
    """Same result, same raise and same rng state as the hand-built image;
    at Nx = 3 about a third of the draws raise."""
    for seed in range(60):
        assert _drawn(_kernel_instance, seed, p, d, Nx) == \
            _drawn(reference_kernel_instance, seed, p, d, Nx)


@settings(deadline=None, max_examples=80)
@given(data=st.data())
def test_coinvariant_corank_is_the_constant_term_image_rank(data):
    """d r less the rank of the X-coinvariants of Lambda^r / K is the rank of
    the constant-term image of K, raising inside the margin alike; the
    coefficients carry p-powers up to past Nx, so both outcomes occur."""
    p, d, r = (data.draw(st.sampled_from(v)) for v in ([3, 5], [1, 2, 3], [1, 2, 3]))
    Nx = data.draw(st.integers(3, 8))
    coeff = st.builds(lambda u, k: u * p**k, st.integers(-p, p), st.integers(0, Nx + 1))
    elt = st.lists(st.tuples(*[coeff] * d), min_size=1, max_size=3).map(_f_major)
    kgens = data.draw(st.lists(st.tuples(*[elt] * r), min_size=1, max_size=4))
    pres = Presentation(p=p, d=d, gens=r, rels=tuple(kgens))
    got = _outcome(lambda: d * r - coinvariant_structure(pres, Nx)[0])
    assert got == _outcome(reference_image_rank, kgens, p, d, Nx)
