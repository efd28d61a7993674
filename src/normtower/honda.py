"""Honda-type logarithms for the twisted height-two formal groups.

log(X) = sum_m (-1)^m g^(2m)(X) / p^m with g(X) = (X + z)^p - z^p, where z is
the Frobenius twist zeta^(phi^-(n+1)) of the Teichmuller generator. The sum is
truncated after M terms; the omitted tail has coefficientwise valuation
>= M + 1 - floor(log_p D), tracked separately from the stored precision
(truncation error is invisible to residue bookkeeping, so every consumer
combines both floors).

The two Honda-type postconditions are checked on construction:
  (log^(phi^2))(X^(p^2)) + p log(X) = 0 (mod p),  and  log'(X) integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .curve import composition_work_precision, formal_exp, formal_log
from .padic import PrecisionExhausted, floor_log
from .series import TruncSeries
from .unramified import FieldDesc, build_unramified


@dataclass(frozen=True)
class HondaLog:
    series: TruncSeries
    twist: int            # coefficients twisted by phi^(-(twist))
    terms: int            # number of g-iterate terms summed
    tail_floor: int       # valuation floor of the omitted tail


@lru_cache(maxsize=None)
def honda_log(field: FieldDesc, n: int, D: int, tail_target: int) -> HondaLog:
    """log of the level-n twisted group, through degree D.

    tail_target: required valuation floor for the truncation tail; the number
    of summed terms is M = tail_target + floor(log_p D) + 1, which makes every
    omitted term vanish to that depth (the m-th term's X^j coefficient has
    valuation m - v_p(j)).
    """
    p, d = field.p, field.d
    lg = floor_log(max(D, 1), p)
    M = tail_target + lg + 1
    prec = field.N
    assert prec >= M + tail_target + 2, "field precision too small for the term count"
    q = p**prec
    order = p**d - 1
    twist_exp = pow(p, (-(n + 1)) % d, order) if d > 1 else 1  # z = zeta^(p^((-(n+1)) mod d))
    zpow = [field.one()]
    for _ in range(order - 1):
        zpow.append(field.mul(zpow[-1], field.zeta(), q))
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
            term = field.scalar(sign * scale * c, zpow[twist_exp * (e - j) % order], q)
            coeffs[j] = field.add(coeffs[j], term, q)
    series = TruncSeries(field, tuple(coeffs), M, prec).canonical()
    hl = HondaLog(series=series, twist=n + 1, terms=M, tail_floor=M + 1 - lg)
    rep = honda_type_report(hl)
    if not (rep["congruence_ok"] and rep["derivative_integral"]):
        raise ArithmeticError(f"Honda-type check failed: {rep}")
    return hl


def honda_type_report(hl: HondaLog) -> dict:
    """Check (log^(phi^2))(X^(p^2)) + p log(X) = 0 mod p and log' integral."""
    s = hl.series
    p = s.p
    lhs = (s.frob(2).substitute_power(p * p) + s.scale_int(p)).canonical()
    cong_ok = lhs.den == 0 and all(
        s.field.val(c, cap=min(lhs.prec, 2)) >= 1 for c in lhs.coeffs)
    deriv = s.derivative().canonical()
    return {
        "congruence_ok": bool(cong_ok),
        "congruence_den": lhs.den,
        "derivative_integral": deriv.den == 0,
        "tail_floor": hl.tail_floor,
    }


@lru_cache(maxsize=None)
def honda_exp(hl: HondaLog) -> TruncSeries:
    """Compositional inverse of the Honda log; height-two denominator profile
    (v(e_m) >= -(m-1)/(p^2-1) - 1) is asserted on the computed coefficients."""
    E = hl.series.reversion()
    p = hl.series.p
    for m in range(1, E.deg + 1):
        v = E.coeff_val(m)
        bound = -((m - 1) // (p * p - 1)) - 1
        assert v >= bound, f"exp coefficient {m} has valuation {v} < {bound}"
    return E


def composite_with_curve(curve_log: TruncSeries, curve_exp: TruncSeries,
                         hl: HondaLog) -> dict:
    """Integrality of exp_curve(log_twisted(X)) and exp_twisted(log_curve(X)):
    both directions of the isomorphism over O_k."""
    fwd = curve_exp.compose(hl.series).canonical()
    bwd = honda_exp(hl).compose(curve_log).canonical()
    rt = fwd.compose(bwd).canonical()
    ident = TruncSeries.identity(rt.field, rt.deg, rt.prec)
    rt_diff = rt - ident
    return {
        "forward_integral": fwd.den == 0,
        "backward_integral": bwd.den == 0,
        "forward_eff_prec": fwd.effective_prec,
        "backward_eff_prec": bwd.effective_prec,
        "roundtrip_identity": all(not any(c) for c in rt_diff.coeffs),
        "roundtrip_eff_prec": rt.effective_prec,
        "tail_floor": hl.tail_floor,
        "fwd": fwd,
        "bwd": bwd,
    }


@dataclass(frozen=True)
class SeriesBundle:
    """Curve log/exp, twisted Honda log/exp and both integral composites, all
    carried to at least `target` effective digits (adaptive working precision)."""

    curve: object
    n: int
    D: int
    target: int
    field: FieldDesc
    curve_log: TruncSeries
    curve_exp: TruncSeries
    honda: HondaLog
    honda_exp_series: TruncSeries
    forward: TruncSeries   # exp_curve o log_twisted, integral
    backward: TruncSeries  # exp_twisted o log_curve, integral
    report: dict


def series_bundle(curve, d: int, n: int, D: int, target: int) -> SeriesBundle:
    """Build the full series toolkit at a working precision found adaptively:
    honest interval tracking can be pessimistic, so retry with doubled stored
    digits until every piece clears `target` effective digits."""
    p = curve.p
    P = composition_work_precision(p, D, target)
    last = None
    for _ in range(5):
        field = build_unramified(p, d, P)
        hl = honda_log(field, n, D, tail_target=target + 12)
        clog = formal_log(curve, field, D, P)
        cexp = formal_exp(curve, field, D, P)
        rep = composite_with_curve(clog, cexp, hl)
        eG = honda_exp(hl)
        effs = [rep["forward_eff_prec"], rep["backward_eff_prec"],
                rep["roundtrip_eff_prec"], eG.effective_prec,
                clog.effective_prec, cexp.effective_prec]
        if min(effs) >= target:
            if not (rep["forward_integral"] and rep["backward_integral"]
                    and rep["roundtrip_identity"]):
                raise ArithmeticError(f"isomorphism composite failed integrality: {rep}")
            return SeriesBundle(curve=curve, n=n, D=D, target=target, field=field,
                                curve_log=clog, curve_exp=cexp, honda=hl,
                                honda_exp_series=eG, forward=rep["fwd"],
                                backward=rep["bwd"],
                                report={k: v for k, v in rep.items() if k not in ("fwd", "bwd")})
        last = min(effs)
        P *= 2
    raise PrecisionExhausted(
        f"series bundle for D={D}, target={target} stuck at {last} effective digits")
