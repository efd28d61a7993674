import numpy as np
import pytest

from normtower.groupring import idempotents
from normtower.lattice import (
    Lattice,
    check_exact_sequence,
    curve_group_lattice,
    cyclicity_check,
    expected_norm_rank,
    expected_plusminus_rank,
    galois_span,
    generation_check,
    lattice_from_elements,
    log_image_vs_maximal_ideal,
    maximal_ideal_lattice,
    norm_subgroup_lattice,
    plusminus_lattice,
    uniformizer_generates_quotient,
    with_precision_retry,
)
from normtower.padic import PrecisionExhausted
from normtower.points import point_log
from normtower.snf import PRECISION_BUMP, PRECISION_RUNGS, smith_normal_form
from normtower.tower import build_tower


EPS3 = idempotents(3, 6)


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
    from normtower.lattice import _embedded_columns

    a_at_1 = lattice_from_elements(t, 1, _embedded_columns(t, a, 1))
    assert a_at_1.equals(b)


def test_exact_sequence_all_chi(tower_3_2, tower_3_4):
    for t in (tower_3_2, tower_3_4):
        for n in (0, 1, 2):
            for chi in (None, EPS3[0], EPS3[1]):
                rep = check_exact_sequence(t, n, chi)
                assert rep["ok"], rep
                expected_base = t.d if chi is None or chi.trivial else 0
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
    assert lat.divisor_valuations() == [1] * t.d  # p O_k
    lat0 = maximal_ideal_lattice(t, 0)
    divs = lat0.divisor_valuations()
    assert sum(divs) == t.d  # index p^d in the full ring of integers
    assert lat0.rank() == t.ambient_dim(0)


def test_maximal_ideal_lattice_d1():
    t = build_tower(3, 1, 1, 6)
    lat = maximal_ideal_lattice(t, 0)
    assert lat.rank() == 2
    assert sum(lat.divisor_valuations()) == 1


def test_uniformizer_generates_quotient(tower_3_2):
    for n in (0, 1, 2):
        assert uniformizer_generates_quotient(tower_3_2, n)


def test_generation_property(tower_3_2, tower_3_4):
    for t in (tower_3_2, tower_3_4):
        for n in (0, 1, 2):
            assert generation_check(t, n)


def test_log_image_vs_maximal_ideal_reported(tower_3_2):
    rep0 = log_image_vs_maximal_ideal(tower_3_2, 0)
    rep2 = log_image_vs_maximal_ideal(tower_3_2, 2)
    # the comparison is recorded; equality genuinely fails once denominators
    # appear, and that is reported rather than assumed
    assert {"log_lattice_divisors", "max_ideal_divisors", "equal"} <= rep0.keys()
    assert rep2["den"] >= 1


def test_p5_rank_table(tower_5_2):
    t = tower_5_2
    eps5 = idempotents(5, 4)
    for n in (-1, 0, 1):
        for chi, triv in ((None, None), (eps5[0], True), (eps5[2], False)):
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
        assert lat.divisor_valuations() == res.divisors


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


def test_retry_gives_up_after_the_last_rung():
    seen = []

    def fn(tw):
        seen.append(tw.N)
        raise PrecisionExhausted(f"ambiguous at N={tw.N}")

    with pytest.raises(PrecisionExhausted, match=f"N={5 + (PRECISION_RUNGS - 1) * PRECISION_BUMP}"):
        with_precision_retry(3, 1, 0, 5, fn)
    assert len(seen) == PRECISION_RUNGS
