import pytest

from normtower.curve import curve_from_preset
from normtower.honda import series_bundle
from normtower.localpoints import (
    InsufficientDegree,
    eval_series_at_tower,
    local_point_direct,
)
from normtower.points import point_log
from normtower.tower import TowerDesc, build_tower


SS3 = curve_from_preset("ss3", 3)


@pytest.fixture(scope="module")
def bundle_n0():
    return series_bundle(SS3, 1, 0, 40, 4)


def test_direct_point_matches_closed_form(bundle_n0):
    lp = local_point_direct(bundle_n0, 0, 3)
    assert lp.param_value is not None
    assert lp.effective_prec >= 3
    assert lp.report["crosscheck_residual"] >= lp.report["crosscheck_floor"]
    # the parameter lies in the maximal ideal: eta = 1 in the residue field,
    # so the coordinate sum must vanish mod p
    coords = lp.param_value.coords
    residue_sum = sum(int(coords[j][0]) for j in range(coords.shape[0])) % 3
    assert residue_sum == 0
    assert not lp.param_value.is_zero()


def test_direct_point_level1():
    b = series_bundle(SS3, 1, 1, 60, 1)
    lp = local_point_direct(b, 1, 1)
    assert lp.effective_prec >= 1


def test_direct_point_rejects_deep_levels(bundle_n0):
    with pytest.raises(InsufficientDegree):
        local_point_direct(bundle_n0, 2, 1)


def test_insufficient_degree_reported():
    b = series_bundle(SS3, 1, 1, 4, 1)
    with pytest.raises(InsufficientDegree):
        local_point_direct(b, 1, 1)  # 5 coefficients give nothing at level 1


def test_torsion_probe(bundle_n0):
    from normtower.localpoints import torsion_probe

    rep = torsion_probe(bundle_n0, 0, trials=5, seed=20260810)
    assert rep["ok"], rep
    rep = torsion_probe(bundle_n0, -1, trials=5, seed=3)
    assert rep["ok"], rep


def test_eval_tail_floor(bundle_n0):
    from fractions import Fraction

    t = TowerDesc(bundle_n0.field, 0)
    x = point_log(t, 0)
    val, tail = eval_series_at_tower(bundle_n0.forward, x, Fraction(1, 2))
    assert tail == (bundle_n0.forward.deg + 1) // 2 - bundle_n0.forward.den


def test_torsion_probe_uses_the_bundle_precision(monkeypatch):
    """A start too tight for (n=0, D=40, target=4) makes series_bundle double
    its working precision once; [p] must come from the bundle's own log and
    exp at the doubled precision, not from a fresh start."""
    from normtower import honda
    from normtower.localpoints import torsion_probe

    start = 4 + 3 * 40 + 16
    # series_bundle reads the start through honda's own binding of the name
    monkeypatch.setattr(honda, "composition_work_precision",
                        lambda p, D, target: target + 3 * D + 16)
    b = series_bundle(SS3, 1, 0, 40, 4)
    assert b.field.N == 2 * start
    for n in (0, -1):
        rep = torsion_probe(b, n, trials=3, seed=7)
        assert rep["ok"], rep
