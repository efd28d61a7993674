"""Z_p-lattices spanned by Galois orbits of point logarithms inside k_n, and
the norm-subgroup statements verified through them: rank tables, the exact
sequence, cyclicity, and the maximal-ideal generation lemma.

A Lattice is a coordinate matrix (ambient dimension x generators) at a common
denominator exponent; ranks come from Smith normal form with the precision
margin, and an ambiguous decision is rerun up the precision ladder of
`snf.at_rising_precision` before giving up. Row j*d + k of the matrix is the
k-th O_k coordinate of eta^j.

A character chi is an index into `TowerDesc.idempotents` (0 the trivial
one, None the whole module); `apply_idempotent` reads the weights from the
element's own tower, so they carry that tower's precision.

`galois_span` builds an orbit matrix from the generators' (L, d) coordinate
arrays, with no TowerElt per group element: each generator is scaled to the
common den and reduced mod p^min(prec, N), as `TowerElt.vector` does; one
product with the stacked `FieldDesc.frob_matrix` gives frob^a of every
generator, a < d; one `TowerDesc.act` applies every unit u of the group at
once; and the block is reduced again. Its columns run over
the generators, then the units u in `galois_units` order, then a, the order
in which a loop of `TowerElt.galois(u, a)` calls would list them. The
arithmetic is int64 when `snf.as_matrix` would give the matrix that dtype
(the products stay below 2^63 under its bound) and exact Python ints
otherwise, so the matrix has the dtype `as_matrix` would give it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .groupring import q_values
from .points import point_log, plusminus_point_log
from .snf import (
    _dtype_for,
    as_matrix,
    at_rising_precision,
    smith_divisors,
    smith_normal_form,  # noqa: F401  (perfbench's tracer test looks it up here)
    span_contains_all,
    span_intersection,
    spans_equal,
    stack_cols,
)
from .tower import TowerDesc, TowerElt, build_tower, tower_eta, tower_one, uniformizer


@dataclass(frozen=True)
class Lattice:
    tower: TowerDesc
    level: int
    den: int
    mat: np.ndarray  # ambient_dim x n_generators

    @property
    def p(self) -> int:
        return self.tower.p

    @property
    def N(self) -> int:
        return self.tower.N

    def rank(self) -> int:
        return smith_divisors(self.mat, self.p, self.N).rank()

    def equals(self, other: "Lattice") -> bool:
        a, b = _common_den(self, other)
        return spans_equal(a.mat, b.mat, self.p, self.N)

    def embed(self, n: int) -> "Lattice":
        """The same lattice inside k_n, through k_level -> k_n."""
        t = self.tower
        rows = (t.embed_index(self.level, n)[:, None] * t.d + np.arange(t.d)).reshape(-1)
        mat = np.zeros((t.ambient_dim(n), self.mat.shape[1]), dtype=object)
        mat[rows] = self.mat
        return Lattice(t, n, self.den, as_matrix(mat, t.q))


def _common_den(a: Lattice, b: Lattice) -> tuple[Lattice, Lattice]:
    assert a.level == b.level and a.tower is b.tower
    den = max(a.den, b.den)
    am = (a.mat.astype(object) * a.p ** (den - a.den)) % a.p**a.N
    bm = (b.mat.astype(object) * b.p ** (den - b.den)) % b.p**b.N
    return (Lattice(a.tower, a.level, den, as_matrix(am, a.p**a.N)),
            Lattice(b.tower, b.level, den, as_matrix(bm, b.p**b.N)))


def lattice_from_elements(t: TowerDesc, level: int, elems: list[TowerElt]) -> Lattice:
    den = max((e.den for e in elems), default=0)
    cols = np.array([e.vector(den) for e in elems], dtype=object)
    mat = as_matrix(cols.reshape(len(elems), t.ambient_dim(level)).T, t.q)
    return Lattice(t, level, den, mat)


# ---------------------------------------------------------------------------
# character projection and Galois orbits
# ---------------------------------------------------------------------------

def apply_idempotent(x: TowerElt, chi: int) -> TowerElt:
    """eps_chi * x for the chi-th idempotent of x's tower, at that tower's
    precision, entry k weighting the k-th tame unit."""
    t = x.tower
    ys = t.act(x.coords, x.level, t.tame_units(x.level))
    coords = (ys * np.array(t.idempotents()[chi], dtype=object)[:, None]).sum(axis=1)
    return TowerElt(t, x.level, coords, x.den, x.prec)


def galois_span(t: TowerDesc, gens: list[TowerElt], n: int,
                chi: int | None = None) -> Lattice:
    """Z_p-span of the G_n-orbit of the generators (projected to the chi-th
    character when chi is an index of `TowerDesc.idempotents`, 0 trivial):
    the column of (generator g, unit u, Frobenius power a) is sigma_u frob^a(g)."""
    ys = [gen.embed(n) for gen in gens]
    if chi is not None:
        ys = [apply_idempotent(y, chi) for y in ys]
    m = -1 if chi is None else min(n, 0)  # the tame units act only without chi
    units = t.galois_units(n, m)
    p, d, L, G, U = t.p, t.d, t.level_dim(n), len(ys), len(units)
    den = max((y.den for y in ys), default=0)
    dtype = _dtype_for(t.q, max(L * d, G * U * d))
    # each generator scaled to den and reduced mod p^min(prec, N), as TowerElt.vector
    qs = [p ** min(y.prec, t.N) for y in ys]
    c = np.zeros((G, 1, L, d), dtype=dtype)
    for g, (y, q) in enumerate(zip(ys, qs)):
        c[g, 0] = y.coords.astype(object) * p ** (den - y.den) % q
    q = np.array(qs, dtype=dtype)[:, None, None]  # over the trailing axes (g, k, a)
    frob = np.stack([t.field.frob_matrix(a).T for a in range(d)]).astype(dtype)
    rows = (c @ frob).transpose(2, 0, 3, 1) % q  # [j, g, k, a]: coord k of frob^a(g) at eta^j
    out = t.act(rows, n, units) % q  # [j, u, g, k, a]
    mat = out.transpose(0, 3, 2, 1, 4).reshape(L * d, -1)
    return Lattice(t, n, den, mat)


# ---------------------------------------------------------------------------
# the lattices of the theory
# ---------------------------------------------------------------------------

def _point_log_span(t: TowerDesc, n: int, lower: int, chi: int | None) -> Lattice:
    """The span of the level-n point log and, for n >= 0, the level-`lower` one."""
    gens = [point_log(t, n)] + ([point_log(t, lower)] if n >= 0 else [])
    return galois_span(t, gens, n, chi)


def norm_subgroup_lattice(t: TowerDesc, n: int, chi: int | None = None) -> Lattice:
    """C(m_n): the span of the level-n and level-(-1) point logs (log route)."""
    return _point_log_span(t, n, -1, chi)


def curve_group_lattice(t: TowerDesc, n: int, chi: int | None = None) -> Lattice:
    """The log image of the full group at level n: span of log d_n, log d_(n-1)."""
    return _point_log_span(t, n, n - 1, chi)


def plusminus_lattice(t: TowerDesc, n: int, sign: str, chi: int | None = None) -> Lattice:
    """The plus/minus subgroup at level n: span of the signed points."""
    assert n >= 0
    gens = [plusminus_point_log(t, n, sign), plusminus_point_log(t, 0, "-")]
    return galois_span(t, gens, n, chi)


def expected_norm_rank(p: int, d: int, n: int, trivial_chi: bool | None) -> int:
    """Closed-form Z_p-rank of C(m_n)^chi (None = full module, summed over chi)."""
    qn, _, _ = q_values(p, n)
    if n == -1:
        if trivial_chi is None:
            return d
        return d if trivial_chi else 0
    if trivial_chi is None:
        return (p - 1) * d * qn + (d if n % 2 == 1 else 0)
    return d * (qn + 1) if (n % 2 == 1 and trivial_chi) else d * qn


def expected_plusminus_rank(p: int, d: int, n: int, sign: str,
                            trivial_chi: bool | None) -> int:
    """Closed-form Z_p-rank of the plus/minus subgroup's chi-component."""
    _, qp, qm = q_values(p, n)
    if sign == "+":  # the same rank at every character
        return d * qp * (p - 1 if trivial_chi is None else 1)
    if trivial_chi is None:  # the trivial character and the p - 2 others
        return d * (qm + 1) + (p - 2) * d * qm
    return d * (qm + 1) if trivial_chi else d * qm


def maximal_ideal_lattice(t: TowerDesc, n: int) -> Lattice:
    """m_n as a Z_p-lattice: spanned by p*(basis) and (eta - 1)*(basis)."""
    elems = []
    L = t.level_dim(n)
    if n == -1:
        basis = [tower_one(t, -1)]
    else:
        eta = tower_eta(t, n)
        basis = []
        cur = tower_one(t, n)
        for _ in range(L):
            basis.append(cur)
            cur = cur * eta
    eta_minus_one = (tower_eta(t, n) - tower_one(t, n)) if n >= 0 else None
    for b in basis:
        for i in range(t.d):
            zb = b.scale_field(t.field.pow(t.field.zeta(), i))
            elems.append(zb.scale_int(t.p))
            if eta_minus_one is not None:
                elems.append(eta_minus_one * zb)
    return lattice_from_elements(t, n, elems)


def uniformizer_generates_quotient(t: TowerDesc, n: int) -> bool:
    """m_n / m_(n-1) is generated by the canonical uniformizer as a Galois
    module: span(orbit of pi_n) + m_(n-1) = m_n."""
    assert n >= 0
    orbit = galois_span(t, [uniformizer(t, n)], n, None)
    lower = maximal_ideal_lattice(t, n - 1).embed(n)
    return _stack(orbit, lower).equals(maximal_ideal_lattice(t, n))


def _stack(a: Lattice, b: Lattice) -> Lattice:
    a2, b2 = _common_den(a, b)
    return Lattice(a.tower, a.level, a2.den, stack_cols(a2.mat, b2.mat))


def check_exact_sequence(t: TowerDesc, n: int, chi: int | None = None) -> dict:
    """0 -> (level -1 group) -> C_n (+) C_(n-1) -> (full level-n group) -> 0,
    verified as: intersection = the level -1 lattice, sum = the full lattice,
    and rank additivity."""
    assert n >= 0
    Cn = norm_subgroup_lattice(t, n, chi)
    Cn1_at_n = norm_subgroup_lattice(t, n - 1, chi).embed(n)
    base = galois_span(t, [point_log(t, -1)], n, chi)
    full = curve_group_lattice(t, n, chi)

    A, B = _common_den(Cn, Cn1_at_n)
    inter = Lattice(t, n, A.den, as_matrix(span_intersection(A.mat, B.mat, t.p, t.N), t.q))

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


def cyclicity_check(t: TowerDesc, n: int) -> dict:
    """Is the level -1 point log inside the Galois span of the level-n one?
    The dichotomy: fails exactly when d = 0 (mod 4) and n is even."""
    assert n >= 0
    span = galois_span(t, [point_log(t, n)], n, None)
    target = point_log(t, -1).embed(n)
    a, b = _common_den(span, lattice_from_elements(t, n, [target]))
    member = span_contains_all(a.mat, b.mat, t.p, t.N)
    expected = not (t.d % 4 == 0 and n % 2 == 0)
    return {"n": n, "d": t.d, "cyclic": member, "expected_cyclic": expected,
            "ok": member == expected}


def generation_check(t: TowerDesc, n: int) -> bool:
    """span(orbit of log d_n) + (level n-1 lattice) = (level n lattice):
    the third requisition on the point system."""
    assert n >= 0
    top = galois_span(t, [point_log(t, n)], n, None)
    lower = curve_group_lattice(t, n - 1, None).embed(n)
    return _stack(top, lower).equals(curve_group_lattice(t, n, None))


# ---------------------------------------------------------------------------
# precision-stabilized execution
# ---------------------------------------------------------------------------

def with_precision_retry(p: int, d: int, n_max: int, N: int,
                         fn: Callable[[TowerDesc], object]):
    """fn on a tower at the first rung of the precision ladder from N whose
    decisions all fall outside the margin."""
    return at_rising_precision(lambda Nk: fn(build_tower(p, d, n_max, Nk)), N)
