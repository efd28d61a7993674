"""Truncated power series over O_k with explicit denominator bookkeeping.

A TruncSeries represents p^(-den) * sum c_j X^j with integral coefficient
tuples c_j stored mod p^prec, truncated at degree deg. Its effective precision
is prec - den; operations propagate both conservatively and canonical() strips
common p-powers (lowering den and prec together, effective precision
unchanged). Nothing ever silently divides: division by p is a den bump, and
exact coefficient division only happens in canonical().

A product's coefficient rows come back from `polyarith.mul_vec` already
reduced mod max(p^prec, the field's q), a power of p that p^prec divides
and the same for every product of a field, so that the CRT tables of its
explicit-CRT lift are built once per field; each row is then reduced by the
minimal polynomial and p^prec.

`compose` is Horner's rule, acc <- canonical(canonical(acc g) + f_j) from
j = deg down, so every product is by the one inner series g: the loop
prepares it once (`prepared`, a copy carrying a `polyarith.Operand` of its
coefficients for as long as the loop holds it), and each Newton step of
`reversion` prepares its iterate E_k once for both of its compositions,
l'(E_k) and l(E_k). Stored coefficients lie in [0, p^prec), so the
alignment of a sum keeps a side's coefficients as they are when its scale
factor is 1 and the modulus is its own, and skips zero coefficients and
zero addends: the constant f_j of a Horner step touches coefficient 0 only.

A series is evaluated at a point of the tower, O_k included as level -1,
by `localpoints.eval_series_at_tower` only.

canonical() reads the p-adic content of every coordinate at once
(`padic.content_val`, capped at den) and divides by that power of p once.
Its zero branch, for a series whose stored coordinates are all 0, sets den
to 0 at the same prec; that claims den more digits than the series has, and
the fix (strip min(den, prec), as `TowerElt.canonical` does) waits on the
full_grid series cells that depend on it (ROADMAP item 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import chain

from .padic import content_val
from .polyarith import Operand, mul_vec
from .unramified import FieldDesc


@dataclass(frozen=True)
class TruncSeries:
    field: FieldDesc
    coeffs: tuple[tuple[int, ...], ...]  # degree 0..deg
    den: int
    prec: int
    _operand = None  # set on the copy that `prepared` makes, for the products of one loop

    @property
    def deg(self) -> int:
        return len(self.coeffs) - 1

    @property
    def p(self) -> int:
        return self.field.p

    @property
    def effective_prec(self) -> int:
        return self.prec - self.den

    def _q(self) -> int:
        return self.p**self.prec

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero(field: FieldDesc, deg: int, prec: int) -> "TruncSeries":
        return TruncSeries(field, tuple(field.zero() for _ in range(deg + 1)), 0, prec)

    @staticmethod
    def identity(field: FieldDesc, deg: int, prec: int) -> "TruncSeries":
        q = field.p**prec
        co = [field.zero() for _ in range(deg + 1)]
        if deg >= 1:
            co[1] = field.one(q)
        return TruncSeries(field, tuple(co), 0, prec)

    # -- precision / denominator plumbing --------------------------------------

    def _align(self, other: "TruncSeries"):
        den = max(self.den, other.den)
        prec = min(self.prec + den - self.den, other.prec + den - other.den)
        q = self.field.p**prec
        return self._scaled(den, prec, q), other._scaled(den, prec, q), den, prec, q

    def _scaled(self, den: int, prec: int, q: int):
        """The coefficients times p^(den - self.den) mod q = p^prec: as they
        are when that factor is 1 and prec is the series' own, since they lie
        in [0, p^prec) already, and the zero ones as they are."""
        sc = self.p ** (den - self.den)
        if sc == 1 and prec == self.prec:
            return self.coeffs
        return [tuple(x * sc % q for x in c) if any(c) else c for c in self.coeffs]

    def prepared(self) -> "TruncSeries":
        """A copy whose products as the right factor share one
        `polyarith.Operand` of its coefficients, which lives as long as the
        copy: a Horner loop prepares its fixed factor once."""
        s = replace(self)
        object.__setattr__(s, "_operand", Operand(self.coeffs, self.field.d))
        return s

    def truncate(self, deg: int) -> "TruncSeries":
        if deg >= self.deg:
            return self
        return replace(self, coeffs=self.coeffs[: deg + 1])

    def pad(self, deg: int) -> "TruncSeries":
        if deg <= self.deg:
            return self
        extra = tuple(self.field.zero() for _ in range(deg - self.deg))
        return replace(self, coeffs=self.coeffs + extra)

    def canonical(self) -> "TruncSeries":
        """Strip the common p-power of the coordinates, at most den of them."""
        k = content_val(chain.from_iterable(self.coeffs), self.p, self.den)
        if not k:
            return self
        if not any(map(any, self.coeffs)):
            return replace(self, den=0)  # keeps prec; item 2b of ROADMAP fixes it
        pk = self.p**k
        co = tuple(tuple(v // pk for v in c) for c in self.coeffs)
        return TruncSeries(self.field, co, self.den - k, self.prec - k)

    def coeff_val(self, j: int) -> float:
        """p-valuation of the j-th (true, de-denominated) coefficient."""
        if j > self.deg:
            return math.inf
        v = self.field.val(self.coeffs[j], cap=self.prec)
        if v >= self.prec:
            return math.inf
        return v - self.den

    # -- arithmetic -------------------------------------------------------------

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        deg = min(self.deg, other.deg)
        a, b, den, prec, q = self.truncate(deg)._align(other.truncate(deg))
        # both lie in [0, q): a zero addend leaves the other as it is
        co = tuple(self.field.add(x, y, q) if any(y) else x for x, y in zip(a, b))
        return TruncSeries(self.field, co, den, prec)

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        deg = min(self.deg, other.deg)
        a, b, den, prec, q = self.truncate(deg)._align(other.truncate(deg))
        co = tuple(self.field.sub(x, y, q) for x, y in zip(a, b))
        return TruncSeries(self.field, co, den, prec)

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        deg = min(self.deg, other.deg)
        prec = min(self.prec, other.prec)
        q = self.field.p**prec
        b = other.coeffs[: deg + 1] if other._operand is None else other._operand  # mul_vec keeps deg + 1 rows
        # mod a power of p that q divides, the same for every product of the field
        conv = mul_vec(self.coeffs[: deg + 1], b, self.field.d, deg + 1, max(q, self.field.q))
        zero = self.field.zero()  # the rows off a strided product's stride are zero
        out = tuple(self.field.reduce(c, q) if any(c) else zero for c in conv)
        return TruncSeries(self.field, out, self.den + other.den, prec)

    def scale_int(self, c: int) -> "TruncSeries":
        q = self._q()
        return replace(self, coeffs=tuple(self.field.scalar(c, x, q) for x in self.coeffs))

    def scale_field(self, a) -> "TruncSeries":
        q = self._q()
        return replace(self, coeffs=tuple(self.field.mul(a, x, q) for x in self.coeffs))

    def derivative(self) -> "TruncSeries":
        q = self._q()
        co = tuple(self.field.scalar(j, self.coeffs[j], q) for j in range(1, self.deg + 1))
        return TruncSeries(self.field, co or (self.field.zero(),), self.den, self.prec)

    def frob(self, k: int) -> "TruncSeries":
        q = self._q()
        return replace(self, coeffs=tuple(self.field.frob(c, k, q) for c in self.coeffs))

    def substitute_power(self, e: int) -> "TruncSeries":
        """X -> X^e, same truncation degree."""
        co = [self.field.zero() for _ in range(self.deg + 1)]
        for j, c in enumerate(self.coeffs):
            if j * e <= self.deg:
                co[j * e] = c
            elif any(c):
                break
        return replace(self, coeffs=tuple(co))

    def compose(self, inner: "TruncSeries") -> "TruncSeries":
        """self(inner) by Horner's rule; inner must have zero constant term and
        is prepared once for the loop, unless the caller prepared it."""
        assert not any(inner.coeffs[0]), "inner series must vanish at 0"
        deg = min(self.deg, inner.deg)
        f = self.truncate(deg)
        g = inner.truncate(deg)
        if g._operand is None:
            g = g.prepared()
        acc = TruncSeries.zero(self.field, deg, max(f.prec, g.prec))
        zeros = (self.field.zero(),) * deg
        for j in range(deg, -1, -1):
            acc = (acc * g).canonical()
            acc = (acc + TruncSeries(self.field, (f.coeffs[j],) + zeros, f.den, f.prec)).canonical()
        return acc

    def reversion(self) -> "TruncSeries":
        """Compositional inverse of a series c1 X + O(X^2) with c1 a unit.

        Newton iteration with degree doubling: E <- E - (l(E) - X) * Q where Q
        tracks (l'(E))^-1 by its own multiplicative Newton steps. Division-free,
        so the denominator bookkeeping stays honest throughout.
        """
        p = self.p
        assert not any(self.coeffs[0]), "reversion needs zero constant term"
        lead = self.field.divp_exact(self.coeffs[1], self.den)
        c1inv = self.field.inv(lead, p ** (self.prec - self.den))
        deg = self.deg
        wprec = self.prec - self.den
        E = TruncSeries.identity(self.field, deg, wprec).scale_field(c1inv)
        Q = TruncSeries(self.field,
                        (c1inv,) + tuple(self.field.zero() for _ in range(deg)),
                        0, wprec)
        lprime = self.derivative()
        two = TruncSeries(self.field,
                          (self.field.from_int(2, p**wprec),)
                          + tuple(self.field.zero() for _ in range(deg)),
                          0, wprec)
        good = 1
        while good < deg:
            good2 = min(2 * good + 1, deg)
            lk = self.truncate(good2).pad(good2)
            Ek = E.truncate(good2).pad(good2).prepared()  # for both compositions by it
            dT = lprime.truncate(good2).pad(good2).compose(Ek)
            Q = Q.truncate(good2).pad(good2)
            two_k = two.truncate(good2).pad(good2)
            for _ in range(2):
                Q = (Q * (two_k - dT * Q)).canonical().pad(good2)
            T = lk.compose(Ek)
            delta = (T - TruncSeries.identity(self.field, good2, T.prec)).canonical().pad(good2)
            E = (Ek - delta * Q).canonical().pad(deg)
            good = good2
        return E.truncate(deg)
