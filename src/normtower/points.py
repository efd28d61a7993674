"""The canonical system of local points, in logarithm coordinates.

The point at level n has logarithm
    eps_n + sum_{m>=0} (-1)^m pi_{n-2m} / p^m            (finite: pi_j = 0, j < 0)
where eps_n = sum_{i>=1} (-1)^(i-1) zeta^(phi^-(n+1+2i)) p^i lies in the base
field. This closed form is exact at working precision (the series evaluation
collapses through the iterate identity checked in tower.check_g_iterate), so
the trace relations can be verified by pure tower arithmetic. The formal-group
side (that these really are logarithms of points on the curve) is exercised
separately by the series pipeline in honda.py / localpoints.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .tower import (
    TowerDesc,
    TowerElt,
    apply_phi_plus_phi_inv,
    tower_scalar,
    tower_zero,
    uniformizer,
)


def epsilon_log(t: TowerDesc, n: int) -> TowerElt:
    """eps_n as a base-field element: alternating sum of p^i Frobenius twists.

    Terms with i > N vanish mod p^N; valuation is exactly 1. Frobenius has
    order d, so the signed weights p^i are summed per class of the exponent
    mod d and zeta is twisted once per class.
    """
    assert n >= -1
    fd = t.field
    weights = [0] * fd.d
    for i in range(1, t.N + 1):
        weights[-(n + 1 + 2 * i) % fd.d] += (-1) ** (i - 1) * t.p**i
    acc = fd.zero()
    for k, c in enumerate(weights):
        acc = fd.add(acc, fd.scalar(c, fd.frob(fd.zeta(), k)))
    return tower_scalar(t, -1, acc)


def point_log(t: TowerDesc, n: int) -> TowerElt:
    """log of the canonical point at level n (closed form), den <= floor((n+1)/2)."""
    assert -1 <= n <= t.n_max
    eps = epsilon_log(t, n)
    if n == -1:
        return eps
    acc = eps.embed(n)
    for m in range(0, (n + 1) // 2 + 1):
        j = n - 2 * m
        pij = uniformizer(t, j)
        if pij.is_zero() and j < 0:
            continue
        term = pij.embed(n) if pij.level < n else pij
        term = term.div_p(m)
        acc = acc + term if m % 2 == 0 else acc - term
    return acc.canonical()


def plusminus_point_log(t: TowerDesc, n: int, sign: str) -> TowerElt:
    """log of the signed point: sign-adjusted copy of d_n or d_(n-1)."""
    assert sign in ("+", "-") and n >= 0
    base = n if (n % 2 == 0) == (sign == "+") else n - 1
    return point_log(t, base).scale_int((-1) ** ((base + 2) // 2))


@dataclass(frozen=True)
class RelationRecord:
    n: int
    relation: str
    residual_valuation: float
    floor: int
    ok: bool


def _relation_record(n: int, relation: str, diff: TowerElt) -> RelationRecord:
    """The record of LHS + RHS = diff: its residual valuation against N - den."""
    resid = diff.residual_valuation()
    return RelationRecord(n=n, relation=relation, residual_valuation=resid,
                          floor=diff.effective_prec, ok=resid >= diff.effective_prec)


def verify_trace_relations(t: TowerDesc, n_max: int | None = None) -> list[RelationRecord]:
    """Check Tr_{n/n-1} log d_n = -log d_{n-2} (n >= 1) and
    Tr_{0/-1} log d_0 = -(phi + phi^-1) log d_-1, in log coordinates.

    Each record carries the observed residual valuation of LHS + RHS and the
    precision floor N - den it must meet.
    """
    n_max = t.n_max if n_max is None else n_max
    lhs = point_log(t, 0).trace_to(-1)
    rhs = apply_phi_plus_phi_inv(point_log(t, -1))
    out = [_relation_record(0, "Tr_{0/-1} log d_0 + (phi+phi^-1) log d_-1", lhs + rhs)]

    for n in range(1, n_max + 1):
        dn = point_log(t, n)
        lower = point_log(t, n - 2) if n - 2 >= -1 else tower_zero(t, -1)
        lhs = dn.trace_to(n - 1)
        if lower.level < n - 1:
            lower = lower.embed(n - 1)
        out.append(_relation_record(n, "Tr_{n/n-1} log d_n + log d_{n-2}", lhs + lower))
    return out


def point_log_congruent_to_uniformizer(t: TowerDesc, n: int) -> bool:
    """log d_n = pi_n modulo k_(n-1): the difference is supported on the
    p-grid of eta-powers (coordinate inspection)."""
    assert n >= 0
    diff = point_log(t, n) - uniformizer(t, n)
    c = diff.coords
    for j in range(c.shape[0]):
        if n >= 1 and j % t.p != 0 and c[j].any():
            return False
        if n == 0 and j != 0 and c[j].any():
            return False
    return True
