from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_snf import reference_span_intersection
from test_tower import (
    reference_apply_idempotent,
    reference_delta_exponent,
    reference_delta_generator,
    reference_galois,
    reference_gamma_exponent,
)

from normtower.lattice import (
    Lattice,
    _common_den,
    check_exact_sequence,
    curve_group_lattice,
    cyclicity_check,
    expected_norm_rank,
    expected_plusminus_rank,
    galois_span,
    lattice_from_elements,
    maximal_ideal_lattice,
    norm_subgroup_lattice,
    plusminus_lattice,
    uniformizer_generates_quotient,
    with_precision_retry,
)
from normtower.padic import PrecisionExhausted
from normtower.points import point_log
from normtower.snf import (
    PRECISION_BUMP,
    PRECISION_RUNGS,
    as_matrix,
    kernel_basis,
    smith_divisors,
    smith_normal_form,
    span_intersection,
    stack_cols,
)
from normtower.tower import TowerElt, build_tower


EPS3 = (0, 1)  # the trivial character of p = 3 and the other one


def test_base_level_lattice(tower_3_2):
    t = tower_3_2
    lat = galois_span(t, [point_log(t, -1)], -1, None)
    assert lat.rank() == t.d
    for chi, expect in ((EPS3[0], 2), (EPS3[1], 0)):
        assert galois_span(t, [point_log(t, -1)], -1, chi).rank() == expect


@pytest.mark.parametrize("d", [1, 2, 4])
def test_norm_rank_table(d):
    t = build_tower(3, d, 2, 6)
    for n in range(-1, 3):
        for chi, triv in ((None, None), (EPS3[0], True), (EPS3[1], False)):
            got = norm_subgroup_lattice(t, n, chi).rank()
            assert got == expected_norm_rank(3, d, n, triv), (d, n, triv)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_plusminus_rank_table(d):
    t = build_tower(3, d, 2, 6)
    for n in (0, 1, 2):
        for sign in "+-":
            for chi, triv in ((None, None), (EPS3[0], True), (EPS3[1], False)):
                got = plusminus_lattice(t, n, sign, chi).rank()
                assert got == expected_plusminus_rank(3, d, n, sign, triv), \
                    (d, n, sign, triv)


def test_plusminus_odd_level_collapse(tower_3_2):
    # the plus subgroup does not move from an even level to the next odd one
    t = tower_3_2
    a = plusminus_lattice(t, 0, "+", None)
    b = plusminus_lattice(t, 1, "+", None)
    b_cols = b.mat
    a_at_1 = a.embed(1)
    assert a_at_1.equals(b)


def test_exact_sequence_all_chi(tower_3_2, tower_3_4):
    for t in (tower_3_2, tower_3_4):
        for n in (0, 1, 2):
            for chi in (None, EPS3[0], EPS3[1]):
                rep = check_exact_sequence(t, n, chi)
                assert rep["ok"], rep
                expected_base = t.d if chi is None or chi == 0 else 0
                assert rep["rank_intersection"] == expected_base


def test_exact_sequence_degenerate_level0(tower_3_2):
    rep = check_exact_sequence(tower_3_2, 0, None)
    # at the bottom the norm lattice equals the full lattice
    a = norm_subgroup_lattice(tower_3_2, 0, None)
    b = curve_group_lattice(tower_3_2, 0, None)
    assert a.equals(b)
    assert rep["ok"]


@pytest.mark.parametrize("d,n,expect_cyclic", [
    (1, 0, True), (1, 1, True), (2, 2, True), (3, 2, True),
    (4, 0, False), (4, 1, True), (4, 2, False), (4, 3, True),
])
def test_cyclicity_dichotomy(d, n, expect_cyclic):
    rep = with_precision_retry(3, d, n, 6, lambda t: cyclicity_check(t, n))
    assert rep["cyclic"] == expect_cyclic
    assert rep["ok"]


def test_maximal_ideal_lattice(tower_3_2):
    t = tower_3_2
    lat = maximal_ideal_lattice(t, -1)
    assert smith_divisors(lat.mat, lat.p, lat.N).divisors == [1] * t.d  # p O_k
    lat0 = maximal_ideal_lattice(t, 0)
    divs = smith_divisors(lat0.mat, lat0.p, lat0.N).divisors
    assert sum(divs) == t.d  # index p^d in the full ring of integers
    assert lat0.rank() == t.ambient_dim(0)


def test_maximal_ideal_lattice_d1():
    t = build_tower(3, 1, 1, 6)
    lat = maximal_ideal_lattice(t, 0)
    assert lat.rank() == 2
    assert sum(smith_divisors(lat.mat, lat.p, lat.N).divisors) == 1


def test_uniformizer_generates_quotient(tower_3_2):
    for n in (0, 1, 2):
        assert uniformizer_generates_quotient(tower_3_2, n)


def test_p5_rank_table(tower_5_2):
    t = tower_5_2
    for n in (-1, 0, 1):
        for chi, triv in ((None, None), (0, True), (2, False)):
            got = norm_subgroup_lattice(t, n, chi).rank()
            assert got == expected_norm_rank(5, 2, n, triv)


@pytest.mark.parametrize("d", [1, 2, 4])
def test_divisors_only_rank_matches_transforms(d, monkeypatch):
    """On the lattices check_exact_sequence builds, the divisors-only rank and
    divisors equal those of the SNF with transforms."""
    seen = []
    rank = Lattice.rank

    def spy(self):
        seen.append(self)
        return rank(self)

    monkeypatch.setattr(Lattice, "rank", spy)
    t = build_tower(3, d, 2, 6)
    for n in (0, 1, 2):
        assert check_exact_sequence(t, n)["ok"]
    assert len(seen) == 12
    for lat in seen:
        res = smith_normal_form(lat.mat, lat.p, lat.N)
        assert rank(lat) == res.rank()
        assert smith_divisors(lat.mat, lat.p, lat.N).divisors == res.divisors


def test_lattice_rank_margin_raises():
    t = build_tower(3, 1, 0, 5)
    dim = t.level_dim(0) * t.d
    mat = np.zeros((dim, 2), dtype=np.int64)
    mat[0, 0], mat[1, 1] = 1, 3 ** (t.N - 1)  # divisor at N - 1
    lat = Lattice(t, 0, 0, mat)
    with pytest.raises(PrecisionExhausted):
        lat.rank()


def test_retry_climbs_the_ladder():
    """Two ambiguous rungs are passed over; the third rung's value is returned."""
    seen = []

    def fn(tw):
        seen.append(tw.N)
        if len(seen) < 3:
            raise PrecisionExhausted(f"ambiguous at N={tw.N}")
        return tw.N

    assert with_precision_retry(3, 1, 0, 5, fn) == 5 + 2 * PRECISION_BUMP
    assert seen == [5, 5 + PRECISION_BUMP, 5 + 2 * PRECISION_BUMP]


def test_a_character_rank_projects_at_the_precision_of_its_rung():
    """The chi = 1 rank of C(m_2) at p = 3, d = 1 is ambiguous at N = 4 and
    decided at N = 8, with the idempotent known to that rung's precision."""
    seen = []

    def rank(tw):
        seen.append(tw.N)
        return norm_subgroup_lattice(tw, 2, 1).rank()

    assert with_precision_retry(3, 1, 2, 4, rank) == expected_norm_rank(3, 1, 2, False) == 7
    assert seen == [4, 4 + PRECISION_BUMP]


def test_retry_gives_up_after_the_last_rung():
    seen = []

    def fn(tw):
        seen.append(tw.N)
        raise PrecisionExhausted(f"ambiguous at N={tw.N}")

    with pytest.raises(PrecisionExhausted, match=f"N={5 + (PRECISION_RUNGS - 1) * PRECISION_BUMP}"):
        with_precision_retry(3, 1, 0, 5, fn)
    assert len(seen) == PRECISION_RUNGS


# The Galois orbit and the lattice embedding that TowerDesc.galois_units and
# Lattice.embed replaced, kept verbatim (names prefixed; the TowerDesc methods
# they called, and the one-unit-at-a-time Galois action and character
# projection, are the reference functions of tests/test_tower.py).

def reference_galois_orbit(x: TowerElt, n: int, include_tame: bool) -> list[TowerElt]:
    """sigma(x) for sigma over Frobenius x wild (x tame, optionally) parts of
    the level-n Galois group."""
    t = x.tower
    if x.level < n:
        x = x.embed(n)
    gamma_u = reference_gamma_exponent(t, n)
    g = reference_delta_generator(t.p)
    tame_us = [reference_delta_exponent(t, n, pow(g, k, t.p)) for k in range(t.p - 1)] \
        if (include_tame and n >= 0) else [1]
    out = []
    wild_count = t.p**n if n >= 0 else 1
    for tu in tame_us:
        y = reference_galois(x, tu, 0) if n >= 0 else x
        for _ in range(wild_count):
            for a in range(t.d):
                out.append(reference_galois(y, 1, a) if a else y)
            y = reference_galois(y, gamma_u, 0)
    return out


def reference_embedded_columns(t, lat: Lattice, n: int) -> list[TowerElt]:
    out = []
    Lsrc = t.level_dim(lat.level)
    for j in range(lat.mat.shape[1]):
        col = lat.mat[:, j]
        coords = np.array(col, dtype=object).reshape(Lsrc, t.d)
        elem = TowerElt(t, lat.level, coords, lat.den, t.N)
        out.append(elem.embed(n))
    return out


def _same_matrix(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and (a == b).all()


ORBIT_GRID = [(3, 1, 6, 3), (3, 2, 6, 3), (3, 4, 6, 3), (5, 2, 4, 1)]


def reference_galois_span(t, gens: list[TowerElt], n: int, chi) -> Lattice:
    """The span galois_span builds, one TowerElt per group element: the orbit
    of each chi-projected generator, tame units included when chi is None."""
    elems = []
    for gen in gens:
        y = gen.embed(n) if chi is None else reference_apply_idempotent(gen.embed(n), chi)
        elems += reference_galois_orbit(y, n, chi is None)
    return lattice_from_elements(t, n, elems)


def _same_lattice(a: Lattice, b: Lattice) -> bool:
    """Same level, den, dtype and entries, and the same Python type for each entry."""
    return ((a.level, a.den) == (b.level, b.den) and _same_matrix(a.mat, b.mat)
            and [type(v) for v in a.mat.flat] == [type(v) for v in b.mat.flat])


@pytest.mark.parametrize("p,d,N,nmax", ORBIT_GRID)
def test_galois_orbit_matches_reference(p, d, N, nmax):
    """galois_span of the point logs, with the tame units (chi None) and
    without them (each chi), against the reference orbit."""
    t = build_tower(p, d, nmax, N)
    for n in range(-1, nmax + 1):
        for x in (point_log(t, n), point_log(t, -1)):
            for chi in (None, *range(p - 1)):
                assert _same_lattice(galois_span(t, [x], n, chi),
                                     reference_galois_span(t, [x], n, chi))


@cache
def _orbit_tower(p: int, d: int, N: int):
    return build_tower(p, d, 2 if p == 3 else 1, N)


@st.composite
def orbit_cases(draw):
    """A tower at N = 6 (int64 lattices) or N = 20 ((3^20 - 1)^2 > 2^63:
    object), a level n, chi None or a character index, and 1-3 generators at
    levels -1..n with den 0..3, prec N-2..N and coordinates in [0, p^prec)."""
    p, d = draw(st.sampled_from([(3, 1), (3, 2), (3, 4), (5, 2)]))
    N = draw(st.sampled_from([6, 20]))
    t = _orbit_tower(p, d, N)
    n = draw(st.integers(-1, t.n_max))
    chi = draw(st.sampled_from([None, *range(p - 1)]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.integers(-1, n))
        prec = draw(st.integers(N - 2, N))
        size = t.level_dim(level) * d
        flat = draw(st.lists(st.integers(0, p**prec - 1), min_size=size, max_size=size))
        coords = np.array(flat, dtype=object).reshape(t.level_dim(level), d)
        gens.append(TowerElt(t, level, coords, draw(st.integers(0, 3)), prec))
    return t, gens, n, chi


@settings(deadline=None, max_examples=150)
@given(orbit_cases())
def test_galois_span_matches_the_reference_path(case):
    t, gens, n, chi = case
    got = galois_span(t, gens, n, chi)
    assert _same_lattice(got, reference_galois_span(t, gens, n, chi))
    assert got.mat.dtype == (np.int64 if t.N == 6 else object)


@pytest.mark.parametrize("chi", [None, EPS3[1]], ids=["None", "chi1"])
def test_empty_lattice_has_the_ambient_shape(chi):
    t = build_tower(3, 2, 2, 6)
    for lat in (lattice_from_elements(t, 1, []), galois_span(t, [], 1, chi)):
        assert lat.mat.shape == (t.ambient_dim(1), 0)
        assert lat.rank() == 0
        up = lat.embed(2)
        assert up.mat.shape == (t.ambient_dim(2), 0) and up.rank() == 0


@pytest.mark.parametrize("p,d,N,nmax", ORBIT_GRID)
def test_lattice_embed_matches_round_trip(p, d, N, nmax):
    t = build_tower(p, d, nmax, N)
    for n in range(0, nmax + 1):
        for lat in (norm_subgroup_lattice(t, n - 1, None), maximal_ideal_lattice(t, n - 1)):
            for k in range(n, nmax + 1):
                got = lat.embed(k)
                want = lattice_from_elements(t, k, reference_embedded_columns(t, lat, k))
                assert (got.level, got.den) == (want.level, want.den)
                assert _same_matrix(got.mat, want.mat)


@pytest.mark.parametrize("N,dtype", [(6, np.int64), (20, object)])
def test_lattice_embed_keeps_the_dtype_rule(N, dtype):
    """A random level-0 lattice on either side of the int64 bound of p^N."""
    t = build_tower(3, 2, 2, N)
    rng = np.random.default_rng(N)
    lat = Lattice(t, 0, 1, as_matrix(rng.integers(0, 2**62, size=(4, 5)).tolist(), t.q))
    got = lat.embed(2)
    want = lattice_from_elements(t, 2, reference_embedded_columns(t, lat, 2))
    assert lat.mat.dtype == got.mat.dtype == dtype
    assert got.den == want.den and _same_matrix(got.mat, want.mat)
    assert {type(v) for v in got.mat.reshape(-1)} == {type(v) for v in want.mat.reshape(-1)}


# The exact-sequence check as it was before `snf.span_intersection`: the
# intersection came from a kernel basis of [A | -B] with both transforms built
# (kept verbatim, name prefixed).

def reference_check_exact_sequence(t, n: int, chi=None) -> dict:
    """0 -> (level -1 group) -> C_n (+) C_(n-1) -> (full level-n group) -> 0,
    verified as: intersection = the level -1 lattice, sum = the full lattice,
    and rank additivity."""
    assert n >= 0
    Cn = norm_subgroup_lattice(t, n, chi)
    Cn1_at_n = norm_subgroup_lattice(t, n - 1, chi).embed(n)
    base = galois_span(t, [point_log(t, -1)], n, chi)
    full = curve_group_lattice(t, n, chi)

    A, B = _common_den(Cn, Cn1_at_n)
    ker = kernel_basis(stack_cols(A.mat, (-B.mat) % t.q), t.p, t.N)
    na = A.mat.shape[1]
    inter_cols = (A.mat @ ker[:na]) % t.q
    inter = Lattice(t, n, A.den, as_matrix(inter_cols, t.q))

    summ = Lattice(t, n, A.den, stack_cols(A.mat, B.mat))
    rank_Cn, rank_Cn1 = Cn.rank(), Cn1_at_n.rank()
    rank_inter, rank_sum = inter.rank(), summ.rank()
    ok_inter = inter.equals(base) if inter.mat.shape[1] else base.rank() == 0
    ok_sum = summ.equals(full)
    ok_add = rank_Cn + rank_Cn1 == rank_inter + rank_sum
    return {
        "n": n,
        "rank_Cn": rank_Cn,
        "rank_Cn_lower": rank_Cn1,
        "rank_intersection": rank_inter,
        "rank_sum": rank_sum,
        "intersection_is_base": ok_inter,
        "sum_is_full": ok_sum,
        "rank_additivity": ok_add,
        "ok": ok_inter and ok_sum and ok_add,
    }


@pytest.mark.parametrize("p,d,N,nmax", ORBIT_GRID)
def test_exact_sequence_matches_reference(p, d, N, nmax):
    """The same report, and the same intersection matrix (values, dtype,
    shape, column order), for every level and character."""
    t = build_tower(p, d, nmax, N)
    for n in range(0, nmax + 1):
        for chi in (None, *range(p - 1)):
            assert check_exact_sequence(t, n, chi) == reference_check_exact_sequence(t, n, chi)
            A, B = _common_den(norm_subgroup_lattice(t, n, chi),
                               norm_subgroup_lattice(t, n - 1, chi).embed(n))
            got = as_matrix(span_intersection(A.mat, B.mat, p, N), t.q)
            want = as_matrix(reference_span_intersection(A.mat, B.mat, p, N), t.q)
            assert _same_matrix(got, want)
