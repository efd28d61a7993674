"""Series-route construction of the canonical points: the group-law sum
epsilon [+] pi_n is evaluated through the twisted exponential and pushed along
the integral isomorphism to the curve's formal group, then cross-checked
against the closed-form logarithm.

Every series is evaluated at a tower point by the one series evaluator
`eval_series_at_tower`, by Paterson and Stockmeyer's method: the series'
coefficients are O_k scalars, so a degree-D evaluation takes about
2 sqrt(D + 1) tower products, the rest scalar operations, where Horner's
rule took D + 1 products. The preimage of epsilon under the twisted log is
exp(epsilon), evaluated at level -1; it must be integral, and the log must
take it back to epsilon to target + 4 digits, or the construction raises
PrecisionExhausted.

Convergence limits this route to n <= 1: the twisted exponential converges on
valuations above 1/(p^2-1), and v(pi_n) = 1/((p-1)p^n) clears that exactly for
p^n < p + 1. Effective precision is computed from measured denominator
profiles, never assumed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .curve import multiplication_by_p_series
from .honda import SeriesBundle
from .padic import PrecisionExhausted
from .points import epsilon_log, point_log
from .series import TruncSeries
from .tower import TowerDesc, TowerElt, tower_combination, tower_one, uniformizer


class InsufficientDegree(ValueError):
    """Truncation degree too small for any effective digits at this level."""


def eval_series_at_tower(s: TruncSeries, x: TowerElt, vmin: Fraction) -> tuple[TowerElt, int]:
    """Paterson-Stockmeyer evaluation (SIAM J. Comput. 2, 1973) of an
    O_k-coefficient series of degree D at a tower element with
    v_p(x) >= vmin > 0, every value mod p^prec, prec = min(s.prec, x.prec).
    With k = ceil(sqrt(D + 1)): the baby steps x^2, ..., x^k, each a product
    by x prepared once; the blocks B_i = sum_{j<k} c_(ik+j) x^j, by scalar
    operations only (`tower_combination`); and the giant steps
    acc <- acc x^k + B_i from the top block down, x^k prepared once. That is
    (k - 1) + (ceil((D + 1)/k) - 1) tower products in place of Horner's
    D + 1, and the same value mod p^prec, so the same coordinates.
    Returns (value, tail_floor): omitted degrees contribute valuation
    >= (deg+1) vmin - den."""
    assert x.den == 0, "evaluate at integral arguments"
    t, n = x.tower, x.level
    prec = min(s.prec, x.prec)
    x = replace(x, prec=prec)
    k = math.isqrt(s.deg) + 1  # ceil(sqrt(deg + 1))
    powers = [tower_one(t, n, prec=prec), x.prepared()]
    while len(powers) <= k:
        powers.append(powers[-1] * powers[1])
    blocks = [tower_combination(t, n, s.coeffs[i:i + k], powers, prec)
              for i in range(0, s.deg + 1, k)]
    acc = blocks.pop()
    if blocks:
        giant = powers[k].prepared()
        for b in reversed(blocks):
            acc = acc * giant + b
    tail_floor = math.floor((s.deg + 1) * vmin) - s.den
    return acc.div_p(s.den) if s.den else acc, tail_floor


@dataclass(frozen=True)
class LocalPoint:
    level: int
    log_value: TowerElt
    param_value: TowerElt | None
    effective_prec: int
    report: dict


def local_point_direct(bundle: SeriesBundle, n: int, target: int) -> LocalPoint:
    """Construct the point by series: preimage of epsilon under the twisted log,
    group-law sum with pi_n, then the integral isomorphism to the curve group.

    Cross-checks the series logarithm of the parameter against the closed form;
    a mismatch above the effective floor is a hard failure.
    """
    if n > 1:
        raise InsufficientDegree("series route diverges for n > 1 (valuation below radius)")
    assert n == bundle.n, "bundle was built for a different twist level"
    field = bundle.field
    p = field.p
    D = bundle.D
    e_ram = (p - 1) * p**n if n >= 0 else 1
    vmin = Fraction(1, e_ram)
    exp_den = bundle.honda_exp_series.den
    achievable = math.floor((D + 1) * vmin) - exp_den
    if achievable < 1:
        raise InsufficientDegree(
            f"degree {D} gives {achievable} effective digits at level {n}")

    tower = TowerDesc(field, max(n, 0))
    eps = epsilon_log(tower, n)

    # the preimage of epsilon under the twisted log is exp(epsilon), integral
    # and in the maximal ideal, and the log takes it back to epsilon
    pre = eval_series_at_tower(bundle.honda_exp_series, eps, 1)[0].canonical()
    if pre.den:
        raise PrecisionExhausted("the twisted exp of epsilon is not integral")
    back = eval_series_at_tower(bundle.honda.series, pre, 1)[0] - eps
    if min(back.residual_valuation(), back.effective_prec) < target + 4:
        raise PrecisionExhausted("the twisted log of exp(epsilon) misses epsilon")
    assert pre.residual_valuation() >= 1, "preimage not in the maximal ideal"

    # parameter of the group-law sum: exp_twisted at the sum of logarithms
    S = point_log(tower, n)
    assert S.den == 0, "closed-form log is integral for n <= 1"
    t_sum, tail1 = eval_series_at_tower(bundle.honda_exp_series, S, vmin)
    assert t_sum.den == bundle.honda_exp_series.den
    t_sum_int = t_sum.canonical()
    if t_sum_int.den:
        raise PrecisionExhausted("group-law parameter failed to strip to integral")

    # push through the integral isomorphism to the curve group
    param, tail2 = eval_series_at_tower(bundle.forward, t_sum_int, vmin)

    # independent logarithm of the parameter, against the closed form
    logv, tail3 = eval_series_at_tower(bundle.curve_log, param.canonical(), vmin)
    # the comparison accumulates the errors of three evaluations; their sum
    # can cost one digit (3 * p^-f <= p^-(f-1))
    floor = min(tail1, tail2, tail3,
                bundle.honda.tail_floor - exp_den,
                S.effective_prec, t_sum_int.effective_prec) - 1
    diff = (logv - S).canonical()
    resid = diff.residual_valuation()
    if resid < min(floor, target):
        raise ArithmeticError(
            f"series log disagrees with closed form: residual {resid} < floor {floor}")
    return LocalPoint(
        level=n,
        log_value=S,
        param_value=param.canonical(),
        effective_prec=min(floor, param.effective_prec),
        report={
            "route": "series",
            "D": D,
            "tail_floors": (tail1, tail2, tail3),
            "achievable": achievable,
            "crosscheck_residual": resid,
            "crosscheck_floor": min(floor, target),
        },
    )


def torsion_probe(bundle: SeriesBundle, n: int, trials: int, seed: int) -> dict:
    """No p-torsion at the probed level: [p](t) != 0 for random t != 0 in the
    maximal ideal (multiplication by p through the integral composites)."""
    field = bundle.field
    p = field.p
    mp = multiplication_by_p_series(bundle.curve_log, bundle.curve_exp, bundle.target)
    tower = TowerDesc(field, max(n, 0))
    e_ram = (p - 1) * p**n if n >= 0 else 1
    vmin = Fraction(1, e_ram)
    rng = random.Random(seed)
    pi = uniformizer(tower, n) if n >= 0 else None
    found_torsion = []
    for k in range(trials):
        c = np.array([[rng.randrange(p**2) for _ in range(field.d)]
                      for _ in range(tower.level_dim(n))], dtype=object)
        rand = TowerElt(tower, n, c, 0, field.N)
        x = (pi * rand) if pi is not None else rand.scale_int(p)
        if x.is_zero():
            continue
        y, tail = eval_series_at_tower(mp, x, vmin)
        yc = y.canonical()
        if yc.is_zero() or yc.residual_valuation() >= min(tail, yc.effective_prec):
            found_torsion.append(k)
    return {"level": n, "trials": trials, "torsion_found": found_torsion,
            "ok": not found_torsion}
