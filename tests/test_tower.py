import math
from dataclasses import dataclass, replace
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_padic import coordinate_grids, precision_shapes

from normtower.groupring import GroupRing
from normtower.lattice import apply_idempotent
from normtower.padic import factorize, primitive_root
from normtower.polyarith import mul_vec, teichmuller, truncate
from normtower.tower import (
    TowerDesc,
    TowerElt,
    build_tower,
    check_g_iterate,
    tower_eta,
    tower_one,
    tower_scalar,
    tower_zero,
    uniformizer,
)
from normtower.unramified import FieldDesc, _element_order_is


def test_cyclotomic_relation_holds(tower_3_2):
    t = tower_3_2
    for n in (0, 1, 2):
        eta = tower_eta(t, n)
        L = t.level_dim(n)
        total = eta.power(L)
        for i in range(t.p - 1):
            total = total + eta.power(i * t.p**n)
        assert total.is_zero()


def test_root_system_compatibility(tower_3_2):
    # zeta_{p^(j+1)}^p = zeta_{p^j} holds exactly by exponent bookkeeping:
    # zeta_{p^j} at level n is eta^(p^(n+1-j))
    t = tower_3_2
    for n in (1, 2):
        for j in range(1, n + 1):
            hi = tower_eta(t, n).power(t.p ** (n - j))
            lo = tower_eta(t, n).power(t.p ** (n + 1 - j))
            assert (hi.power(t.p) - lo).is_zero()


def test_uniformizer_vanishing(tower_3_2):
    assert uniformizer(tower_3_2, -1).is_zero()
    assert uniformizer(tower_3_2, -5).is_zero()
    assert not uniformizer(tower_3_2, 0).is_zero()


def test_trace_of_root_of_unity(tower_3_2):
    t = tower_3_2
    tr = tower_eta(t, 0).trace_to(-1)
    assert (tr + tower_one(t, -1)).is_zero()  # sum of primitive p-th roots = -1


def test_trace_of_one_is_degree(tower_3_2):
    t = tower_3_2
    tr = tower_one(t, 2).trace_to(1)
    assert (tr - tower_one(t, 1).scale_int(3)).is_zero()


def test_trace_transitive(tower_3_2):
    t = tower_3_2
    x = uniformizer(t, 2) * uniformizer(t, 2) + tower_eta(t, 2)
    assert (x.trace_to(0) - x.trace_to(1).trace_to(0)).is_zero()


def test_trace_galois_equivariant(tower_3_2):
    t = tower_3_2
    x = uniformizer(t, 2) + tower_eta(t, 2).power(4)
    # an automorphism of the lower level commutes with the trace
    u = 1 + 3  # wild generator exponent at level 1... acts at level 2 as well
    lhs = x.galois(u, 1).trace_to(1)
    rhs = x.trace_to(1).galois(u, 1)
    assert (lhs - rhs).is_zero()


def test_galois_identity_and_powers(tower_3_2):
    t = tower_3_2
    x = uniformizer(t, 1) + tower_eta(t, 1)
    assert (x.galois(1, 0) - x).is_zero()
    eta = tower_eta(t, 1)
    assert (eta.galois(5, 0) - eta.power(5)).is_zero()


def test_galois_rejects_non_unit(tower_3_2):
    with pytest.raises(ValueError):
        tower_eta(tower_3_2, 1).galois(3, 0)


def test_galois_ring_homomorphism(tower_3_2):
    t = tower_3_2
    x = uniformizer(t, 2)
    y = tower_eta(t, 2) + tower_scalar(t, 2, t.field.zeta())
    assert ((x * y).galois(7, 1) - x.galois(7, 1) * y.galois(7, 1)).is_zero()


@pytest.mark.parametrize("p,d,nmax", [(3, 1, 2), (3, 2, 2), (5, 2, 1)])
def test_g_iterate_identity_grid(p, d, nmax):
    t = build_tower(p, d, nmax, 4)
    for n in range(-1, nmax + 1):
        for m in range(0, n + 3):
            rep = check_g_iterate(t, n, m)
            assert rep["ok"], rep


def test_g_iterate_m0_is_identity(tower_3_2):
    rep = check_g_iterate(tower_3_2, 2, 0)
    assert rep["ok"]


def test_denominator_tracking(tower_3_2):
    t = tower_3_2
    x = uniformizer(t, 1).div_p(2)
    assert x.den == 2 and x.effective_prec == t.N - 2
    y = x.canonical()
    assert y.den == 2  # the uniformizer has unit content, nothing strips
    z = uniformizer(t, 1).scale_int(9).div_p(2).canonical()
    assert z.den == 0


def test_canonical_zero_strips_only_the_digits_it_has(tower_3_2):
    """p^-2 times a zero known mod p^6 is a zero known to 4 digits."""
    z = tower_zero(tower_3_2, 1, prec=6).div_p(2).canonical()
    assert (z.den, z.prec, z.effective_prec) == (0, 4, 4)
    w = tower_zero(tower_3_2, 1, prec=3).div_p(5).canonical()
    assert (w.den, w.prec, w.effective_prec) == (2, 0, -2)


def reference_canonical(x: TowerElt) -> TowerElt:
    """TowerElt.canonical as it was, one factor of p per pass (verbatim)."""
    while x.den > 0:
        if not x.coords.any():
            # p^-den times a zero known mod p^prec is known mod p^(prec - den)
            k = min(x.den, x.prec)
            return replace(x, den=x.den - k, prec=x.prec - k)
        if (x.coords % x.p == 0).all():
            x = TowerElt(x.tower, x.level, x.coords // x.p, x.den - 1, x.prec - 1)
        else:
            break
    return x


def reference_residual_valuation(x: TowerElt) -> float:
    """TowerElt.residual_valuation as it was (verbatim)."""
    if not x.coords.any():
        return math.inf
    p = x.p
    v = 0
    c = x.coords
    while v < x.prec and (c % p == 0).all():
        c = c // p
        v += 1
    return v - x.den


@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_content_readers_match_the_stripping_loops(data):
    """canonical() and residual_valuation() against the loops they replaced,
    at level -1 and level 0 of towers over p in {3, 5, 7}, d in 1..4."""
    p, d, prec, den = data.draw(precision_shapes())
    t = _tower(p, d, 0)
    n = data.draw(st.sampled_from([-1, 0]))
    grid = data.draw(coordinate_grids(p, t.level_dim(n), d, prec))
    x = TowerElt(t, n, np.array(grid, dtype=object), den, prec)
    got, want = x.canonical(), reference_canonical(x)
    assert (got.coords.dtype, got.coords.tolist(), got.den, got.prec) == \
        (want.coords.dtype, want.coords.tolist(), want.den, want.prec)
    assert x.residual_valuation() == reference_residual_valuation(x)


# The enumerations of Gal(k_n/k_m), the tame lift and the two primitive-root
# searches that TowerDesc and padic.primitive_root replaced, kept verbatim
# (names prefixed) as references. tests/test_lattice.py uses them too.

def reference_delta_generator(p: int) -> int:
    """Smallest primitive root mod p (generator of the tame quotient)."""
    for g in range(2, p):
        ok = all(pow(g, (p - 1) // ell, p) != 1 for ell in factorize(p - 1))
        if ok:
            return g
    raise RuntimeError("no primitive root found")


def reference_unramified_generator(p: int) -> int:
    """The d = 1 generator search of build_unramified."""
    return next(a for a in range(2, p) if _element_order_is([(-a) % p, 1], p, p - 1))


def reference_gamma_exponent(t, n: int) -> int:
    """Action of the fixed topological generator of the wild quotient: eta -> eta^(1+p)."""
    return (1 + t.p) % t.p ** (n + 1) if n >= 0 else 1


def reference_delta_exponent(t, n: int, a: int) -> int:
    """Tame lift: the order-(p-1) unit congruent to a mod p, mod p^(n+1)."""
    mod = t.p ** (n + 1)
    x = a % mod
    for _ in range(n + 3):
        nx = pow(x, t.p, mod)
        if nx == x:
            break
        x = nx
    assert pow(x, t.p - 1, mod) == 1 % mod
    return x


def reference_trace_units(t, n: int, m: int) -> list[int]:
    """The unit lists that trace_to summed over."""
    pmod = t.p ** (n + 1)
    if m == -1:
        units = [u for u in range(1, pmod) if u % t.p != 0]
    else:
        units = [(1 + t.p ** (m + 1) * k) % pmod for k in range(t.p ** (n - m))]
    return units


# The character idempotents that TowerDesc.idempotents replaced, built in the
# group ring at a precision the caller passed, kept verbatim (names prefixed,
# the builder cached) as the reference. tests/test_lattice.py projects with
# them too.

@dataclass(frozen=True)
class ReferenceCharIdempotent:
    """eps_chi = (1/(p-1)) sum_sigma chi(sigma) sigma^{-1} in Z_p[Delta].

    Delta is enumerated as powers of a fixed generator; chi_j sends the
    generator to the j-th power of the Teichmuller lift of its residue.
    coeffs[k] is the coefficient of generator^k.
    """

    j: int
    p: int
    N: int
    coeffs: tuple[int, ...]

    @property
    def trivial(self) -> bool:
        return self.j == 0


@cache
def reference_idempotents(p: int, N: int) -> list[ReferenceCharIdempotent]:
    """All p-1 character idempotents; orthogonality and completeness verified."""
    q = p**N
    tg = teichmuller([primitive_root(p)], [0, 1], p, q)[0]  # chi_1(generator)
    inv_pm1 = pow(p - 1, -1, q)
    out = []
    for j in range(p - 1):
        coeffs = [0] * (p - 1)
        for k in range(p - 1):
            # chi_j(g^k) * (g^k)^{-1}: inverse of generator^k is generator^{p-1-k}
            chi_val = pow(tg, (j * k) % (p - 1), q)
            coeffs[(p - 1 - k) % (p - 1)] = (coeffs[(p - 1 - k) % (p - 1)] + chi_val) % q
        out.append(ReferenceCharIdempotent(j=j, p=p, N=N,
                                           coeffs=tuple(c * inv_pm1 % q for c in coeffs)))
    reference_check_idempotents(out, GroupRing(p - 1, p, N))
    return out


def reference_check_idempotents(eps: list[ReferenceCharIdempotent], ring: GroupRing) -> None:
    """Orthogonality and completeness in Z_p[Delta], Delta cyclic of order p - 1."""
    total = ring.zero()
    for e in eps:
        assert ring.mul(e.coeffs, e.coeffs) == e.coeffs, "idempotent not idempotent"
        total = ring.add(total, e.coeffs)
    assert total == ring.one(), "idempotents do not sum to 1"
    for a in eps:
        for b in eps:
            if a.j != b.j:
                assert ring.is_zero(ring.mul(a.coeffs, b.coeffs)), "idempotents not orthogonal"


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_idempotents(p):
    """The tower's idempotents at its own precision N are the group ring's at
    N, index 0 the trivial character (equal weights 1/(p - 1)); orthogonality
    and completeness are asserted on construction."""
    for N in (1, 2, 6, 30):
        eps = build_tower(p, 1, 0, N).idempotents()
        assert eps == tuple(e.coeffs for e in reference_idempotents(p, N))
        assert eps[0] == (pow(p - 1, -1, p**N),) * (p - 1)


GROUP_GRID = [(3, 1, 3), (3, 2, 3), (3, 4, 3), (5, 2, 1), (7, 1, 2)]


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23])
def test_primitive_root_matches_both_searches(p):
    assert primitive_root(p) == reference_delta_generator(p) == reference_unramified_generator(p)


@pytest.mark.parametrize("p,d,nmax", GROUP_GRID)
def test_tame_units_match_the_tame_lift(p, d, nmax):
    t = build_tower(p, d, nmax, 4)
    g = reference_delta_generator(p)
    assert t.tame_units(-1) == (1,) * (p - 1)
    for n in range(nmax + 1):
        assert t.tame_units(n) == tuple(
            reference_delta_exponent(t, n, pow(g, k, p)) for k in range(p - 1))


@pytest.mark.parametrize("p,d,nmax", GROUP_GRID)
def test_galois_units_enumerate_each_group_once(p, d, nmax):
    t = build_tower(p, d, nmax, 4)
    assert t.galois_units(-1, -1) == (1,)
    for n in range(nmax + 1):
        mod = p ** (n + 1)
        for m in range(-1, n + 1):
            units = t.galois_units(n, m)
            assert sorted(units) == sorted(reference_trace_units(t, n, m))
            order = (p - 1) * p**n if m == -1 else p ** (n - m)
            assert len(units) == len(set(units)) == order
            group = set(units)
            assert all(u * v % mod in group for u in units for v in units)


@pytest.mark.parametrize("p,d,nmax", GROUP_GRID)
def test_galois_units_order_is_the_orbit_order(p, d, nmax):
    """Tame outer, wild inner: the order of lattice.galois_span's orbit columns."""
    t = build_tower(p, d, nmax, 4)
    g = reference_delta_generator(p)
    for n in range(nmax + 1):
        mod = p ** (n + 1)
        gamma = reference_gamma_exponent(t, n)
        for tame in (True, False):
            expected = []
            tame_us = [reference_delta_exponent(t, n, pow(g, k, p)) for k in range(p - 1)] \
                if tame else [1]
            for tu in tame_us:
                u = tu
                for _ in range(p**n):
                    expected.append(u % mod)
                    u = u * gamma
            assert list(t.galois_units(n, -1 if tame else 0)) == expected


def test_embed_index_is_the_p_power_grid(tower_3_2):
    t = tower_3_2
    for n in range(-1, 4):
        for m in range(-1, n + 1):
            idx = t.embed_index(m, n)
            assert idx.tolist() == [j * t.p ** (n - m) for j in range(t.level_dim(m))]
            assert not idx.flags.writeable


def _unit_tuples(t, n: int) -> list[tuple[int, ...]]:
    """Every tuple of units the program hands TowerDesc.act at level n: one
    unit reduced mod p^(n+1) (TowerElt.galois), Gal(k_n/k_m) for each m
    (trace_to, galois_span) and the tame units (apply_idempotent)."""
    singles = [(u % t.p ** (n + 1),) for u in t.galois_units(n, -1)]
    return singles + [t.galois_units(n, m) for m in range(-1, n + 1)] + [t.tame_units(n)]


def _cached_calls(t):
    """Arguments for each lru-cached TowerDesc method, over levels -1..2."""
    levels = range(-1, 3)
    pairs = [(m, n) for n in levels for m in range(-1, n + 1)]
    return {
        "modulus": [(n,) for n in levels],
        "galois_scatter": [(n, units) for n in levels for units in _unit_tuples(t, n)],
        "tame_units": [(n,) for n in levels],
        "idempotents": [()],
        "galois_units": [(n, m) for m, n in pairs],
        "embed_index": pairs,
    }


def _cached_methods(cls) -> set[str]:
    return {name for name, f in vars(cls).items() if hasattr(f, "cache_info")}


def test_cached_tower_arrays_are_read_only(tower_3_2):
    """The caches share each array between every value-equal tower (and every
    reader of one field), so every array a cached method of TowerDesc or
    FieldDesc returns, alone or in a tuple, is read-only."""
    t = tower_3_2
    calls = _cached_calls(t)
    assert _cached_methods(TowerDesc) == set(calls)
    with_arrays = set()
    for name, args in calls.items():
        for a in args:
            out = getattr(t, name)(*a)
            for arr in (out,) if isinstance(out, np.ndarray) else out:
                if isinstance(arr, np.ndarray):
                    with_arrays.add(name)
                    assert not arr.flags.writeable, (name, a)
    assert with_arrays == {"galois_scatter", "embed_index"}
    assert _cached_methods(FieldDesc) == {"frob_matrix"}
    for k in range(-1, t.d + 2):
        assert not t.field.frob_matrix(k).flags.writeable, k


# The rewrite table and the fold that reduced tower products before
# TowerDesc.modulus and polyarith.rem_monic, kept verbatim (names prefixed,
# the table a function of the tower) as references.

@cache
def reference_reduce_exp(t, n: int, e: int) -> tuple[tuple[int, int], ...]:
    """eta^e as a signed sum of basis powers, via Phi_{p^(n+1)}(eta) = 0."""
    L = t.level_dim(n)
    if e < L:
        return ((e, 1),)
    # eta^(L + r) = - sum_{i=0..p-2} eta^(i p^n + r)
    r = e - L
    pn = t.p**n
    acc: dict[int, int] = {}
    for i in range(t.p - 1):
        for idx, sgn in reference_reduce_exp(t, n, i * pn + r):
            acc[idx] = acc.get(idx, 0) - sgn
    return tuple(sorted((k, v) for k, v in acc.items() if v))


def reference_fold(a, n: int, rewrite) -> list[int]:
    """a reduced below degree n, where rewrite(e) = ((i, c), ...) with i < n
    expresses x^e = sum c x^i for every e >= n."""
    out = truncate(a, n)
    for e in range(n, len(a)):
        c = a[e]
        if c:
            for i, s in rewrite(e):
                out[i] += s * c
    return out


def reference_galois_table(t, n: int, u: int):
    """Index scatter (dst, src, coeff) for eta^j -> eta^(j u mod p^(n+1))."""
    L = t.level_dim(n)
    mod = t.p ** (n + 1) if n >= 0 else 1
    dst, src, cf = [], [], []
    for j in range(L):
        e = (j * u) % mod if n >= 0 else 0
        for idx, sgn in reference_reduce_exp(t, n, e):
            dst.append(idx)
            src.append(j)
            cf.append(sgn)
    return dst, src, cf


def reference_act(t, c: np.ndarray, n: int, units) -> np.ndarray:
    """TowerDesc.act one unit at a time through the rewrite table."""
    out = np.zeros((t.level_dim(n), len(units)) + c.shape[1:], dtype=c.dtype)
    for s, u in enumerate(units):
        for dst, src, cf in zip(*reference_galois_table(t, n, u)):
            out[dst, s] += cf * c[src]
    return out


# Frobenius as FieldDesc.frob and TowerDesc.frob_matrix computed it, and the
# Galois action, trace and character projection that walked one unit at a
# time, kept verbatim (names prefixed, the unit table the rewrite table above)
# as references. tests/test_lattice.py uses them too.

def reference_frob(fd, a, k: int, q: int | None = None):
    """Frobenius^k, k any integer (reduced mod d)."""
    q = q or fd.q
    k %= fd.d
    if k == 0:
        return tuple(x % q for x in a)
    cols = fd.frob_cols[k]
    out = [0] * fd.d
    for i, ai in enumerate(a):
        if ai:
            col = cols[i]
            for j in range(fd.d):
                out[j] = (out[j] + ai * col[j]) % q
    return tuple(out)


def reference_frob_matrix(t, k: int) -> np.ndarray:
    k %= t.d
    cols = t.field.frob_cols[k]
    return np.array([[cols[i][j] for i in range(t.d)] for j in range(t.d)], dtype=object)


def reference_galois(x: TowerElt, u: int, f: int = 0) -> TowerElt:
    """eta -> eta^u on the cyclotomic part, Frobenius^f on coefficients."""
    t = x.tower
    n = x.level
    c = x.coords
    if f % t.d:
        c = c @ reference_frob_matrix(t, f).T
    if n == -1:
        return replace(x, coords=c)
    dst, src, cf = (np.array(a, dtype=np.int64)
                    for a in reference_galois_table(t, n, u % t.p ** (n + 1)))
    out = np.zeros_like(c, dtype=object)
    np.add.at(out, dst, cf[:, None] * c[src])
    return replace(x, coords=out)


def reference_trace_to(x: TowerElt, m: int) -> TowerElt:
    """Sum over Gal(k_level / k_m); lands exactly in k_m."""
    t = x.tower
    n = x.level
    if m == n:
        return x
    q = x.p**x.prec
    acc = np.zeros_like(x.coords, dtype=object)
    for u in reference_trace_units(t, n, m):
        acc = (acc + reference_galois(x, u).coords) % q
    # the support must sit on the rows that k_m lands on
    idx = t.embed_index(m, n)
    off_grid = np.ones(acc.shape[0], dtype=bool)
    off_grid[idx] = False
    assert not (acc[off_grid] % q).any(), "trace image has off-grid coordinates"
    return TowerElt(t, m, acc[idx], x.den, x.prec)


def reference_apply_idempotent(x: TowerElt, chi: int) -> TowerElt:
    """eps_chi * x, eps.coeffs[k] weighting the k-th tame unit of the tower."""
    eps = reference_idempotents(x.p, x.tower.N)[chi]
    out = None
    for u, coeff in zip(x.tower.tame_units(x.level), eps.coeffs):
        term = reference_galois(x, u, 0).scale_int(coeff)
        out = term if out is None else out + term
    return out


def reference_mul(x, y):
    """TowerElt.__mul__ through the rewrite table."""
    assert x.level == y.level
    n = x.level
    t = x.tower
    prec = min(x.prec, y.prec)
    conv = mul_vec(x.coords.tolist(), y.coords.tolist(), t.d)
    # eta-powers past the basis via Phi_{p^(n+1)}, one zeta-power at a time,
    # then zeta-powers past the basis via zeta's modulus, one eta-power at a time
    L = t.level_dim(n)
    cols = [reference_fold(c, L, lambda e: reference_reduce_exp(t, n, e)) for c in zip(*conv)]
    out = np.array([t.field.reduce(row, x.p**prec) for row in zip(*cols)], dtype=object)
    return TowerElt(t, n, out, x.den + y.den, prec)


def _elements(t, n: int, rng):
    """Dense, all-(q - 1), p-grid-sparse and zero elements of level n, at
    several den and prec."""
    L, q = t.level_dim(n), t.q
    dense = rng.integers(0, 1 << 62, size=(L, t.d)).astype(object) % q
    top = np.full((L, t.d), q - 1, dtype=object)
    grid = dense.copy()
    grid[np.arange(L) % t.p != 0] = 0
    zero = np.zeros((L, t.d), dtype=object)
    return [TowerElt(t, n, dense), TowerElt(t, n, top, 1, t.N - 1),
            TowerElt(t, n, grid, 2), TowerElt(t, n, zero)]


@cache
def _tower(p: int, d: int, n_max: int):
    return build_tower(p, d, n_max, 6 if p == 3 else 4)


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("d", [1, 2, 4])
def test_mul_matches_the_rewrite_table(p, d):
    t = _tower(p, d, 3)
    rng = np.random.default_rng(10 * p + d)
    for n in range(-1, 4):
        xs = _elements(t, n, rng)
        for x in xs:
            for y in xs:
                got, expect = x * y, reference_mul(x, y)
                assert (got.den, got.prec) == (expect.den, expect.prec)
                assert got.coords.tolist() == expect.coords.tolist()


@pytest.mark.parametrize("p", [3, 5, 7])
def test_galois_table_matches_the_rewrite_table(p):
    t = _tower(p, 1, 2)
    for n in range(-1, 3):
        for u in t.galois_units(n, -1):
            table = [a.tolist() for a in t.galois_scatter(n, (u,))]
            assert table == list(reference_galois_table(t, n, u))


TOWERS = [(3, 1, 2), (3, 2, 2), (5, 2, 1)]


def _draw_elt(data, t, n: int) -> TowerElt:
    den = data.draw(st.integers(0, 3))
    prec = data.draw(st.integers(1, t.N))
    big = st.integers(-(t.p ** (2 * t.N)), t.p ** (2 * t.N))
    coords = [[data.draw(st.one_of(big, st.just(0))) for _ in range(t.d)]
              for _ in range(t.level_dim(n))]
    return TowerElt(t, n, np.array(coords, dtype=object), den, prec)


def _assert_reduced(x: TowerElt):
    assert x.coords.dtype == object
    assert all(type(c) is int and 0 <= c < x.p**x.prec for c in x.coords.ravel())


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_every_operation_returns_reduced_object_coordinates(data):
    p, d, n_max = data.draw(st.sampled_from(TOWERS))
    t = _tower(p, d, n_max)
    n = data.draw(st.integers(-1, n_max))
    x, y = _draw_elt(data, t, n), _draw_elt(data, t, n)
    c = data.draw(st.integers(-(p**10), p**10))
    a = tuple(data.draw(st.integers(0, t.q - 1)) for _ in range(d))
    u = data.draw(st.sampled_from(t.galois_units(n, -1)))
    f = data.draw(st.integers(1, 2 * d)) * data.draw(st.sampled_from([1, -1]))
    m_up = data.draw(st.integers(n, n_max))
    m_down = data.draw(st.integers(-1, n))
    for z in (x, x + y, x - y, -x, x * y, x.scale_int(c), x.scale_field(a),
              x.galois(u, f), x.embed(m_up), x.trace_to(m_down), x.canonical()):
        _assert_reduced(z)


def _same_array(a: np.ndarray, b: np.ndarray) -> bool:
    """Same dtype, shape and entries, and the same Python type for each entry."""
    return (a.dtype == b.dtype and a.shape == b.shape and a.tolist() == b.tolist()
            and [type(v) for v in a.flat] == [type(v) for v in b.flat])


def _same_elt(x: TowerElt, y: TowerElt) -> bool:
    return (x.level, x.den, x.prec) == (y.level, y.den, y.prec) and _same_array(x.coords, y.coords)


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_act_matches_the_per_unit_tables(data):
    """act on object and int64 arrays of trailing shape (d,) or (G, d, d), for
    every tuple of units the program passes, against one unit at a time."""
    p, d, n_max = data.draw(st.sampled_from(TOWERS))
    t = _tower(p, d, n_max)
    n = data.draw(st.integers(-1, n_max))
    units = data.draw(st.sampled_from(_unit_tuples(t, n)))
    trailing = data.draw(st.sampled_from([(d,), (data.draw(st.integers(1, 3)), d, d)]))
    dtype = data.draw(st.sampled_from([object, np.int64]))
    shape = (t.level_dim(n),) + trailing
    flat = data.draw(st.lists(st.integers(-t.q, t.q), min_size=math.prod(shape),
                              max_size=math.prod(shape)))
    c = np.array(flat, dtype=dtype).reshape(shape)
    got = t.act(c, n, units)
    assert got.dtype == c.dtype
    assert _same_array(got, reference_act(t, c, n, units))


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_trace_to_matches_the_sum_over_units(data):
    p, d, n_max = data.draw(st.sampled_from(TOWERS))
    t = _tower(p, d, n_max)
    n = data.draw(st.integers(-1, n_max))
    m = data.draw(st.integers(-1, n))
    x = _draw_elt(data, t, n)
    assert _same_elt(x.trace_to(m), reference_trace_to(x, m))


@pytest.mark.parametrize("p,d,n_max", [(3, 1, 2), (3, 2, 2), (5, 2, 2)])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_apply_idempotent_matches_the_sum_over_tame_units(p, d, n_max, data):
    """Every character at levels -1..2; at level -1 every tame unit is 1, so
    the projection is (sum of the weights) * x."""
    t = _tower(p, d, n_max)
    for n in range(-1, 3):
        x = _draw_elt(data, t, n)
        for chi in range(p - 1):
            got = apply_idempotent(x, chi)
            assert _same_elt(got, reference_apply_idempotent(x, chi))
            if n == -1:
                assert _same_elt(got, x.scale_int(sum(t.idempotents()[chi])))


@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_frob_matches_the_loop_over_frob_cols(data):
    """FieldDesc.frob for k in -1..d+1, with and without an explicit modulus,
    against the loop over frob_cols it replaced."""
    p, d, prec, _ = data.draw(precision_shapes())
    fd = _tower(p, d, 0).field
    a = tuple(data.draw(st.integers(-(fd.q**2), fd.q**2)) for _ in range(d))
    q = data.draw(st.sampled_from([None, p ** min(prec, fd.N)]))
    for k in range(-1, d + 2):
        got = fd.frob(a, k, q)
        assert got == reference_frob(fd, a, k, q)
        assert all(type(v) is int for v in got)
