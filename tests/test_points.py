import pytest

from normtower.points import (
    epsilon_log,
    plusminus_point_log,
    point_log,
    point_log_congruent_to_uniformizer,
    verify_trace_relations,
)
from normtower.tower import build_tower, uniformizer


def test_epsilon_valuation_and_twist(tower_3_2):
    t = tower_3_2
    e0 = epsilon_log(t, 0)
    assert e0.residual_valuation() == 1
    # shifting the twist index is a Frobenius application
    assert (e0.galois(1, 1) - epsilon_log(t, -1)).is_zero()


def test_epsilon_geometric_series_d1():
    # all root-of-unity twists are trivial in the base field component:
    # eps = p - p^2 + p^3 - ... = p/(1+p) up to the unit generator factor
    t = build_tower(3, 1, 1, 6)
    e = epsilon_log(t, 0)
    zeta = t.field.zeta()[0]
    q = 3**6
    geom = sum((-1) ** (i - 1) * 3**i for i in range(1, 7)) % q
    assert int(e.coords[0][0]) == geom * zeta % q


def _verbatim_epsilon_log(t, n):
    """epsilon_log as it was when it summed one Frobenius twist per power of p."""
    fd = t.field
    acc = fd.zero()
    for i in range(1, t.N + 1):
        term = fd.frob(fd.zeta(), -(n + 1 + 2 * i))
        term = fd.scalar(pow(t.p, i), term)
        acc = fd.add(acc, term) if i % 2 == 1 else fd.sub(acc, term)
    return acc


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_epsilon_log_sums_one_twist_per_class(p, d):
    """One twist per class of the exponent mod d is bit-identical to the
    sum of N twists, at every level."""
    t = build_tower(p, d, 3, 7)
    for n in range(-1, 4):
        e = epsilon_log(t, n)
        assert (e.level, e.den, e.prec) == (-1, 0, t.N)
        assert e.coords.tolist() == [list(_verbatim_epsilon_log(t, n))]


def test_point_log_shapes(tower_3_2):
    t = tower_3_2
    assert point_log(t, -1).level == -1
    p0 = point_log(t, 0)
    assert p0.den == 0
    # n = 0: eps + pi_0 exactly
    diff = p0 - (epsilon_log(t, 0).embed(0) + uniformizer(t, 0))
    assert diff.is_zero()
    p2 = point_log(t, 2)
    assert p2.den == 1  # the pi_0 / p term


def test_point_log_congruent_to_uniformizer(tower_3_2):
    for n in (0, 1, 2):
        assert point_log_congruent_to_uniformizer(tower_3_2, n)


def test_signed_points(tower_3_2):
    t = tower_3_2
    # d_0^- = d_{-1}; d_2^+ = (-1)^2 d_2 = d_2; d_1^- = -d_1; d_1^+ = -d_0
    assert (plusminus_point_log(t, 0, "-") - point_log(t, -1)).is_zero()
    assert (plusminus_point_log(t, 2, "+") - point_log(t, 2)).is_zero()
    assert (plusminus_point_log(t, 1, "-") + point_log(t, 1)).is_zero()
    assert (plusminus_point_log(t, 1, "+") + point_log(t, 0)).is_zero()
    assert (plusminus_point_log(t, 0, "+") + point_log(t, 0)).is_zero()


@pytest.mark.parametrize("p,d,N,nmax", [
    (3, 1, 4, 2), (3, 2, 4, 2), (3, 4, 4, 2), (5, 1, 3, 1), (5, 2, 3, 1),
])
def test_trace_relations(p, d, N, nmax):
    t = build_tower(p, d, nmax, N)
    for rec in verify_trace_relations(t):
        assert rec.ok, rec
        assert rec.floor >= N - (rec.n + 1) // 2


def test_trace_relation_with_zero_divisor_factor(tower_3_4):
    # d = 4: phi + phi^-1 is a zero divisor, yet the level-0 relation holds
    recs = verify_trace_relations(tower_3_4, 0)
    assert recs[0].ok
