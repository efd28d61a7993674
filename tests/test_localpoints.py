from dataclasses import replace

import pytest

from normtower import localpoints
from normtower.curve import curve_from_preset
from normtower.honda import series_bundle
from normtower.localpoints import (
    InsufficientDegree,
    eval_series_at_tower,
    local_point_direct,
)
from normtower.padic import PrecisionExhausted
from normtower.points import epsilon_log, point_log
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


def test_torsion_probe_at_level_minus_one_evaluates_there(bundle_n0, monkeypatch):
    """The n = -1 probe tests p O_k: each point is one row at level -1, not a
    point of k_0."""
    seen = []
    real = localpoints.eval_series_at_tower
    monkeypatch.setattr(localpoints, "eval_series_at_tower",
                        lambda s, x, vmin: seen.append((x.level, x.coords.shape)) or real(s, x, vmin))
    rep = localpoints.torsion_probe(bundle_n0, -1, trials=5, seed=3)
    assert rep["ok"] and rep["level"] == -1
    assert seen and set(seen) == {(-1, (1, bundle_n0.field.d))}


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


# The O_k Newton solve for the log preimage of epsilon and the field-element
# evaluator it read, which the evaluation of the twisted exp at epsilon
# replaced, kept verbatim (names prefixed; the evaluator a function of the
# series) as references.

def reference_evaluate_field(self, x, x_val: int):
    """Evaluate at an O_k element x with v_p(x) >= x_val > 0.

    Returns (value coords, den, effective precision), where the truncation
    tail contributes valuation >= (deg+1) * v(x) - den.
    """
    q = self._q()
    acc = self.field.zero()
    for j in range(self.deg, -1, -1):
        acc = self.field.mul(acc, x, q)
        acc = self.field.add(acc, self.coeffs[j], q)
    tail = (self.deg + 1) * x_val - self.den
    eff = min(self.prec - self.den, tail)
    return acc, self.den, eff


def reference_solve_log_preimage(hl_series, field, target_elt, target_floor: int):
    """Newton solve log(t) = target for t in the maximal ideal of O_k
    (valuation >= 1, so the series converge comfortably)."""
    q = field.p**hl_series.prec
    t = tuple(target_elt)
    deriv = hl_series.derivative().canonical()
    assert deriv.den == 0
    for _ in range(hl_series.prec.bit_length() + 4):
        val, den, _ = reference_evaluate_field(hl_series, t, 1)
        # residual = log(t) - target, true value p^-den*(val) - target
        resid = field.sub(val, field.scalar(field.p**den, target_elt, q), q)
        if field.val(resid, cap=target_floor + den) >= target_floor + den:
            break
        dval, dden, _ = reference_evaluate_field(deriv, t, 1)
        assert dden == 0
        dinv = field.inv(dval, q)
        step = field.mul(resid, dinv, q)
        pd = field.p**den
        assert all(v % pd == 0 for v in step), "Newton step lost integrality"
        step = tuple(v // pd for v in step)
        t = field.sub(t, step, q)
    val, den, _ = reference_evaluate_field(hl_series, t, 1)
    resid = field.sub(val, field.scalar(field.p**den, target_elt, q), q)
    if field.val(resid, cap=target_floor + den) < target_floor + den:
        raise PrecisionExhausted("Newton solve for the log preimage did not converge")
    return t


@pytest.mark.parametrize("d,n,D,target", [(1, 0, 40, 4), (1, 1, 60, 1), (2, 0, 30, 4)])
def test_preimage_is_the_newton_solution(d, n, D, target, monkeypatch):
    """The preimage local_point_direct takes, exp(epsilon), agrees with the
    Newton solve of log(t) = epsilon mod p^(target + 4)."""
    b = series_bundle(SS3, d, n, D, target)
    seen = []

    def spy(s, x, vmin):
        out = eval_series_at_tower(s, x, vmin)
        if s is b.honda_exp_series and x.level == -1:
            seen.append(out[0].canonical())
        return out

    monkeypatch.setattr(localpoints, "eval_series_at_tower", spy)
    local_point_direct(b, n, target)
    [pre] = seen
    eps = epsilon_log(TowerDesc(b.field, max(n, 0)), n)
    want = reference_solve_log_preimage(b.honda.series, b.field,
                                        tuple(int(v) for v in eps.coords[0]), target + 4)
    q = 3 ** (target + 4)
    assert pre.den == 0
    assert [int(v) % q for v in pre.coords[0]] == [v % q for v in want]


def test_a_short_exp_gives_no_preimage(bundle_n0):
    """Cut to degree 1, the twisted exp of epsilon is too far from the log
    preimage (residual valuation 3 < target + 4), and the point is refused."""
    b = replace(bundle_n0, honda_exp_series=bundle_n0.honda_exp_series.truncate(1))
    with pytest.raises(PrecisionExhausted):
        local_point_direct(b, 0, 3)
