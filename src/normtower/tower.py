"""Arithmetic in the tower k_n = k(mu_{p^(n+1)}) over the unramified field k.

Level n is represented as O_k[eta]/Phi_{p^(n+1)}(eta) in the power basis
1, eta, ..., eta^(L-1) with L = (p-1)p^n (L = 1 at level -1, where k_{-1} = k).
The modulus of level n, `TowerDesc.modulus(n)`, is Phi_{p^(n+1)} =
sum_{i<p} x^(i p^n), and x - 1 at level -1; a product is reduced by it with
`polyarith.rem_monic`. The compatible root system is implicit: zeta_{p^j} at
level n is eta^(p^(n+1-j)), so zeta_{p^(j+1)}^p = zeta_{p^j} holds exactly by
exponent bookkeeping. The Galois action eta -> eta^u permutes the powers
eta^e, e < p^(n+1), and rewrites those with e >= L in closed form:
eta^e = -sum_{i<p-1} eta^(i p^n + e - L).

The action is written once: `TowerDesc.act` applies the cached scatter
`galois_scatter(n, units)` of any tuple of units to a level-n coordinate
array in one np.add.at. Automorphisms, traces, character projections and
orbit lattices all call it; Frobenius is the one `FieldDesc.frob_matrix`.

Delta = Gal(k_0/k) is enumerated once, as the powers of g = primitive_root(p)
in `tame_units`, and its characters are the tower's: `idempotents()` holds
the weights of the p - 1 character idempotents on that enumeration at the
tower's precision N. A character is an index into it, so a lattice rebuilt
on a higher rung of the precision ladder projects at that rung's N.

A TowerElt carries a denominator exponent: it represents p^(-den) * (integral
coords), with coords stored mod p^prec, so its effective precision is
prec - den. Division by p is total; equality checks report the residual
valuation against that floor.

`canonical` and `residual_valuation` read the p-adic content of the coords in
one pass (`padic.content_val`, capped at den and at prec). The zero branch
lives in each: a zero canonical strips min(den, prec) digits, since p^-den
times a zero known mod p^prec is known mod p^(prec - den), and a zero has
residual valuation +inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .padic import content_val, primitive_root
from .polyarith import Operand, mul_mod, mul_vec, rem_monic, residue_modulus, teichmuller
from .unramified import FieldDesc, build_unramified


@dataclass(frozen=True)
class TowerDesc:
    field: FieldDesc
    n_max: int

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def d(self) -> int:
        return self.field.d

    @property
    def N(self) -> int:
        return self.field.N

    @property
    def q(self) -> int:
        return self.field.q

    def level_dim(self, n: int) -> int:
        """Number of eta-power basis elements at level n."""
        if n == -1:
            return 1
        return (self.p - 1) * self.p**n

    def ambient_dim(self, n: int) -> int:
        """Z_p-dimension of k_n."""
        return self.level_dim(n) * self.d

    # -- basis reduction -----------------------------------------------------

    @lru_cache(maxsize=None)
    def modulus(self, n: int) -> tuple[int, ...]:
        """The monic modulus of level n over O_k: Phi_{p^(n+1)} =
        sum_{i<p} x^(i p^n), and x - 1 at level -1."""
        if n == -1:
            return (-1, 1)
        pn = self.p**n
        return tuple(int(e % pn == 0) for e in range(self.level_dim(n) + 1))

    @lru_cache(maxsize=None)
    def galois_scatter(self, n: int, units: tuple[int, ...]):
        """Index scatter (dst, src, coeff) of eta^j -> eta^(j u mod p^(n+1)) for
        the s-th unit u of `units`, landing on row e * U + s for U = len(units).
        For L <= e < p^(n+1), eta^e = -sum_{i<p-1} eta^(i p^n + e - L), each
        exponent below L since e - L < p^n. At level -1 the modulus is 1 and
        every unit acts as the identity."""
        L, U = self.level_dim(n), len(units)
        mod, pn = self.p ** (n + 1), self.p ** max(n, 0)
        entries = []
        for s, u in enumerate(units):
            for j in range(L):
                e = j * u % mod
                terms = [(e, 1)] if e < L else [(i * pn + e - L, -1) for i in range(self.p - 1)]
                entries += [(idx * U + s, j, sgn) for idx, sgn in terms]
        return tuple(_read_only(np.array(a, dtype=np.int64)) for a in zip(*entries))

    def act(self, c: np.ndarray, n: int, units: tuple[int, ...]) -> np.ndarray:
        """sigma_u(c) for each u of `units`, c a level-n coordinate array of
        shape (L, ...), stacked (L, U, ...) in the order of `units`: one
        np.add.at through `galois_scatter`, in c's dtype and unreduced."""
        dst, src, cf = self.galois_scatter(n, units)
        L, U = self.level_dim(n), len(units)
        out = np.zeros((L * U,) + c.shape[1:], dtype=c.dtype)
        np.add.at(out, dst, c[src] * cf.reshape((-1,) + (1,) * (c.ndim - 1)))
        return out.reshape((L, U) + c.shape[1:])

    @lru_cache(maxsize=None)
    def tame_units(self, n: int) -> tuple[int, ...]:
        """The tame exponents at level n: the Teichmuller lifts mod p^(n+1) of
        g^k, k < p - 1, for g the smallest primitive root mod p. Delta acts
        trivially on k_(-1), so there every one of them is 1."""
        if n == -1:
            return (1,) * (self.p - 1)
        g, q = primitive_root(self.p), self.p ** (n + 1)
        return tuple(teichmuller([pow(g, k, self.p)], [0, 1], self.p, q)[0]
                     for k in range(self.p - 1))

    @lru_cache(maxsize=None)
    def idempotents(self) -> tuple[tuple[int, ...], ...]:
        """The weights of the p - 1 character idempotents of Z_p[Delta] mod
        p^N, N the tower's precision: eps_j = (1/(p-1)) sum_k chi_j(g^k) (g^k)^-1
        with chi_j(g) the j-th power of the Teichmuller lift of g, so entry k,
        which weights `tame_units(n)[k]`, is chi_j(g^-k) / (p - 1). Idempotence,
        orthogonality and completeness are asserted in (Z/p^N)[x]/(x^(p-1) - 1),
        x standing for g."""
        p, q, r = self.p, self.q, self.p - 1
        tg = teichmuller([primitive_root(p)], [0, 1], p, q)[0]
        inv = pow(r, -1, q)
        eps = tuple(tuple(pow(tg, -j * k % r, q) * inv % q for k in range(r))
                    for j in range(r))
        m = (-1,) + (0,) * (r - 1) + (1,)
        for i, a in enumerate(eps):
            for j, b in enumerate(eps):
                assert tuple(mul_mod(a, b, m, q)) == (a if i == j else (0,) * r), \
                    "idempotents not idempotent or not orthogonal"
        assert [sum(c) % q for c in zip(*eps)] == [1] + [0] * (r - 1), \
            "idempotents do not sum to 1"
        return eps

    @lru_cache(maxsize=None)
    def galois_units(self, n: int, m: int) -> tuple[int, ...]:
        """The exponents u (eta -> eta^u) of Gal(k_n/k_m), -1 <= m <= n: each
        tame unit (only when m = -1) times the powers of the wild generator
        (1+p)^(p^max(m,0)), tame outer and wild inner."""
        assert -1 <= m <= n
        if n == -1:
            return (1,)
        mod = self.p ** (n + 1)
        tame = self.tame_units(n) if m == -1 else (1,)
        gamma = pow(1 + self.p, self.p ** max(m, 0), mod)
        wild = [pow(gamma, i, mod) for i in range(self.p ** (n - max(m, 0)))]
        return tuple(tu * w % mod for tu in tame for w in wild)

    @lru_cache(maxsize=None)
    def embed_index(self, m: int, n: int) -> np.ndarray:
        """The rows of k_n that k_m lands on: eta_m^j = eta_n^(j p^(n-m))."""
        assert -1 <= m <= n
        return _read_only(np.arange(self.level_dim(m)) * self.p ** (n - m))


def _read_only(a: np.ndarray) -> np.ndarray:
    """The array, made read-only: the caches above share it between every
    value-equal tower, so one write would corrupt each later reader."""
    a.setflags(write=False)
    return a


def build_tower(p: int, d: int, n_max: int, N: int) -> TowerDesc:
    return TowerDesc(field=build_unramified(p, d, N), n_max=n_max)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TowerElt:
    """p^(-den) times the integral element with the given (L, d) coords."""

    tower: TowerDesc
    level: int
    coords: np.ndarray  # shape (L, d), reduced mod p^prec, read-only
    den: int = 0
    prec: int = -1  # stored modulus exponent; -1 means tower.N
    _operand = None  # set on the copy that `prepared` makes, for the products of one loop

    def __post_init__(self):
        if self.prec == -1:
            object.__setattr__(self, "prec", self.tower.N)
        c = np.asarray(self.coords) % self.p**self.prec
        c.setflags(write=False)
        object.__setattr__(self, "coords", c)

    @property
    def p(self) -> int:
        return self.tower.p

    @property
    def effective_prec(self) -> int:
        return self.prec - self.den

    def _qq(self) -> int:
        return self.p**self.prec

    # -- ring ops -------------------------------------------------------------

    def _aligned(self, other: "TowerElt") -> tuple[np.ndarray, np.ndarray, int, int]:
        assert self.level == other.level, "level mismatch"
        den = max(self.den, other.den)
        prec = min(self.prec + den - self.den, other.prec + den - other.den)
        a = self.coords.astype(object) * self.p ** (den - self.den)
        b = other.coords.astype(object) * self.p ** (den - other.den)
        return a, b, den, prec

    def __add__(self, other: "TowerElt") -> "TowerElt":
        a, b, den, prec = self._aligned(other)
        return TowerElt(self.tower, self.level, a + b, den, prec)

    def __sub__(self, other: "TowerElt") -> "TowerElt":
        a, b, den, prec = self._aligned(other)
        return TowerElt(self.tower, self.level, a - b, den, prec)

    def __neg__(self) -> "TowerElt":
        return replace(self, coords=-self.coords)

    def prepared(self) -> "TowerElt":
        """A copy whose products as the right factor share one
        `polyarith.Operand` of its coords, which lives as long as the copy."""
        x = replace(self)
        object.__setattr__(x, "_operand", Operand(self.coords.tolist(), self.tower.d))
        return x

    def __mul__(self, other: "TowerElt") -> "TowerElt":
        assert self.level == other.level
        n = self.level
        t = self.tower
        prec = min(self.prec, other.prec)
        b = other.coords.tolist() if other._operand is None else other._operand
        # mod a power of p that p^prec divides, as the reductions below are
        # Z-linear, where the product can take residues; else exactly, so
        # that each coordinate is reduced once, after the remainders
        mod = residue_modulus(self.coords.size, max(self.p**prec, t.q))
        conv = mul_vec(self.coords.tolist(), b, t.d, None, mod)
        # eta-powers past the basis by Phi_{p^(n+1)}, one zeta-power at a time,
        # then zeta-powers past the basis by zeta's modulus, one eta-power at a time
        cols = [rem_monic(c, t.modulus(n)) for c in zip(*conv)]
        out = np.array([t.field.reduce(row, self.p**prec) for row in zip(*cols)], dtype=object)
        return TowerElt(t, n, out, self.den + other.den, prec)

    def scale_int(self, c: int) -> "TowerElt":
        return replace(self, coords=self.coords.astype(object) * c)

    def scale_field(self, a) -> "TowerElt":
        """Multiply by an O_k scalar (coefficientwise field multiplication)."""
        t = self.tower
        q = self._qq()
        out = np.zeros_like(self.coords, dtype=object)
        for i in range(self.coords.shape[0]):
            row = tuple(int(x) for x in self.coords[i])
            if any(row):
                out[i] = t.field.mul(a, row, q)
        return replace(self, coords=out)

    def div_p(self, k: int = 1) -> "TowerElt":
        return replace(self, den=self.den + k)

    def canonical(self) -> "TowerElt":
        """Strip common p factors into the denominator (minimal den form)."""
        # coords below p^prec have content below prec unless they are all zero,
        # and p^-den times a zero known mod p^prec is known mod p^(prec - den)
        k = content_val(self.coords.flat, self.p, min(self.den, self.prec))
        if not k:
            return self
        return TowerElt(self.tower, self.level, self.coords // self.p**k,
                        self.den - k, self.prec - k)

    def power(self, e: int) -> "TowerElt":
        t = self.tower
        out = tower_one(t, self.level, prec=self.prec)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    # -- Galois ---------------------------------------------------------------

    def galois(self, u: int, f: int = 0) -> "TowerElt":
        """eta -> eta^u on the cyclotomic part, Frobenius^f on coefficients."""
        t = self.tower
        n = self.level
        if n >= 0 and math.gcd(u, t.p) != 1:
            raise ValueError("Galois exponent must be a unit mod p")
        c = self.coords
        if f % t.d:
            c = c @ t.field.frob_matrix(f).T
        return replace(self, coords=t.act(c, n, (u % t.p ** (n + 1),))[:, 0])

    # -- level moves ------------------------------------------------------------

    def embed(self, n: int) -> "TowerElt":
        """Inclusion k_level -> k_n."""
        t = self.tower
        if n == self.level:
            return self
        out = np.zeros((t.level_dim(n), t.d), dtype=object)
        out[t.embed_index(self.level, n)] = self.coords
        return TowerElt(t, n, out, self.den, self.prec)

    def trace_to(self, m: int) -> "TowerElt":
        """Sum over Gal(k_level / k_m); lands exactly in k_m."""
        t = self.tower
        n = self.level
        if m == n:
            return self
        acc = t.act(self.coords, n, t.galois_units(n, m)).sum(axis=1) % self._qq()
        # the support must sit on the rows that k_m lands on
        idx = t.embed_index(m, n)
        assert not np.delete(acc, idx, axis=0).any(), "trace image has off-grid coordinates"
        return TowerElt(t, m, acc[idx], self.den, self.prec)

    # -- diagnostics ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coords.any()

    def residual_valuation(self) -> float:
        """min coordinate valuation minus den; +inf when zero at precision."""
        if not self.coords.any():
            return math.inf
        return content_val(self.coords.flat, self.p, self.prec) - self.den

    def vector(self, den: int | None = None) -> np.ndarray:
        """Flatten to an ambient Z_p-vector, scaled to the requested den."""
        den = self.den if den is None else den
        assert den >= self.den
        q = self.p ** min(self.prec, self.tower.N)
        flat = (self.coords.astype(object) * self.p ** (den - self.den)) % q
        return flat.reshape(-1)


def tower_zero(t: TowerDesc, n: int, prec: int | None = None) -> TowerElt:
    return tower_scalar(t, n, t.field.zero(), prec)


def tower_one(t: TowerDesc, n: int, prec: int | None = None) -> TowerElt:
    return tower_scalar(t, n, t.field.one(), prec)


def tower_eta(t: TowerDesc, n: int) -> TowerElt:
    """zeta_{p^(n+1)} at level n."""
    assert n >= 0
    c = np.zeros((t.level_dim(n), t.d), dtype=object)
    c[1] = t.field.one()
    return TowerElt(t, n, c, 0, t.N)


def tower_scalar(t: TowerDesc, n: int, a, prec: int | None = None) -> TowerElt:
    """An O_k scalar viewed at level n."""
    c = np.zeros((t.level_dim(n), t.d), dtype=object)
    c[0] = tuple(a)
    return TowerElt(t, n, c, 0, prec if prec is not None else t.N)


def tower_combination(t: TowerDesc, n: int, scalars, elts, prec: int) -> TowerElt:
    """sum_j a_j y_j mod p^prec for O_k scalars a_j and level-n elements y_j
    with den 0, by scalar operations only: at d = 1 one integer times each
    coordinate, else `scale_field`, `FieldDesc.mul` on each nonzero row.
    Zero scalars are skipped, and the sum is reduced once."""
    out = np.zeros((t.level_dim(n), t.d), dtype=object)
    for a, y in zip(scalars, elts):
        if any(a):
            assert y.den == 0
            out += a[0] * y.coords if t.d == 1 else y.scale_field(a).coords
    return TowerElt(t, n, out, 0, prec)


# ---------------------------------------------------------------------------
# the canonical uniformizers and their iterate identity
# ---------------------------------------------------------------------------

def uniformizer(t: TowerDesc, n: int) -> TowerElt:
    """pi_n = zeta^(phi^-(n+1)) (zeta_{p^(n+1)} - 1) for n >= -1; 0 below."""
    if n <= -1:
        return tower_zero(t, max(n, -1))
    zt = t.field.frob(t.field.zeta(), -(n + 1))
    eta = tower_eta(t, n)
    one = tower_one(t, n)
    return (eta - one).scale_field(zt)


def check_g_iterate(t: TowerDesc, n: int, m: int) -> dict:
    """Verify (pi_n + z)^(p^m) - z^(p^m) = pi_(n-m), z = zeta^(phi^-(n+1)).

    Returns a report with the residual valuation; disagreement is reported,
    not raised.
    """
    assert n >= -1 and m >= 0
    zt = t.field.frob(t.field.zeta(), -(n + 1))
    pin = uniformizer(t, n)
    z_elt = tower_scalar(t, max(n, -1), zt)
    lhs = (pin + z_elt).power(t.p**m) - tower_scalar(t, max(n, -1), t.field.pow(zt, t.p**m))
    target_level = max(n, -1)
    rhs = uniformizer(t, n - m).embed(target_level)
    diff = lhs - rhs
    resid = diff.residual_valuation()
    floor = diff.effective_prec
    return {
        "n": n, "m": m,
        "residual_valuation": resid,
        "floor": floor,
        "ok": resid >= floor,
    }


# ---------------------------------------------------------------------------
# group-ring action helpers
# ---------------------------------------------------------------------------

def apply_phi_plus_phi_inv(x: TowerElt) -> TowerElt:
    """(phi + phi^-1) acting coefficientwise (x at any level)."""
    return x.galois(1, 1) + x.galois(1, -1)
