"""Finitely presented modules over Z_p[G][X] (G the unramified Galois group,
X = gamma - 1), their Z_p-structure at finite level, and the freeness /
finite-submodule predicates.

Presentations carry integer data, exact except for the omega families,
which come mod p^K (K = `snf.OMEGA_PRECISION`); precision enters when a
computation is flattened to a Z_p-matrix mod p^N, N <= K, and run through
Smith normal form.
A polynomial over the group ring Z[F]/(F^d - 1) is stored F-major, as the
d-tuple of its F-components, each an integer polynomial in X: the order of
the flat basis (generator, F-power, X-degree). A cap is a monic integer
polynomial. Flattening requires such a cap per generator (natively,
through an omega-coinvariant quotient, or an internal X^W truncation); the
X-action on the capped ambient is then exact and relation submodules are
closed off under it. X and the Frobenius F act on the flat basis as index
maps, O(dim) per column: X shifts each (generator, F-power) block up one
X-degree and folds its top coordinate back by the cap, and F rotates blocks.

Invariants of the X-kernel use X-power truncations: the image of
ker(X on M/X^(W+1) M) inside M/X^W M equals the image of ker(X on M) once W
passes the X-torsion exponent, and the map from ker(X on M) is injective
there; agreement across two consecutive W certifies the answer.

Precision follows the policy stated in `snf`: every decision raises inside
the margin, and the X-kernel invariants decide at the precision their kernel
vectors carry, which `kernel_image` returns. The freeness predicates are
certified by agreement at two consecutive rungs of the precision ladder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import zip_longest

import numpy as np

from .groupring import delta_of, omega_family, q_values
from .padic import PrecisionExhausted
from .polyarith import mul, rem_monic
from .snf import (
    MARGIN,
    OMEGA_PRECISION,
    SnfResult,
    _dtype_for,
    _eliminate,
    as_matrix,
    at_rising_precision,
    kernel_image,
    precision_ladder,
    quotient_invariants,
    smith_normal_form,  # noqa: F401  (perfbench's tracer test looks it up here)
    stack_cols,
)


class NotZpFinite(ValueError):
    """A generator has no monic-in-X annihilating relation within the bound."""


# ---------------------------------------------------------------------------
# polynomials over the group ring, exact integer coefficients
# ---------------------------------------------------------------------------
# An element of Z[F]/(F^d - 1)[X] is the d-tuple of its F-components: entry a
# is the integer polynomial in X multiplying F^a, a tuple lowest degree first
# with no trailing zeros (the zero polynomial is ()).

def _trim(c) -> tuple:
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return tuple(c)

def lift(d: int, f) -> tuple:
    """The integer polynomial f as a scalar of Z[F]/(F^d - 1)[X]."""
    return (_trim(f),) + ((),) * (d - 1)

def lam_deg(f) -> int:
    return max(map(len, f)) - 1  # -1 for the zero polynomial

def lam_add(f, g, sign: int = 1) -> tuple:
    """f + sign * g."""
    return tuple(_trim(x + sign * y for x, y in zip_longest(u, v, fillvalue=0))
                 for u, v in zip(f, g))

def lam_mul(f, g) -> tuple:
    """f * g: the components at F^a and F^b multiply into F^((a + b) mod d)."""
    d = len(f)
    out = [()] * d
    for a, u in enumerate(f):
        for b, v in enumerate(g):
            c = (a + b) % d
            out[c] = tuple(x + y for x, y in zip_longest(out[c], mul(u, v), fillvalue=0))
    return tuple(map(_trim, out))


# ---------------------------------------------------------------------------
# presentations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Presentation:
    """Cokernel of the relation vectors inside a free module over Z_p[G][X]."""

    p: int
    d: int
    gens: int
    rels: tuple[tuple, ...]        # each relation: one group-ring polynomial per generator
    caps: tuple = ()               # dict-like ((gen_index, monic int tuple), ...)

    def cap_map(self) -> dict:
        return dict(self.caps)

    def with_relations(self, extra) -> "Presentation":
        return replace(self, rels=self.rels + tuple(extra))


def free_presentation(p: int, d: int, rank: int) -> Presentation:
    return Presentation(p=p, d=d, gens=rank, rels=())


def quotient_presentation(p: int, d: int, polys) -> Presentation:
    """R/(f) (+) R/(g) (+) ... for scalar integer polynomials; monic ones cap."""
    rels = []
    caps = []
    z = lift(d, ())
    for i, f in enumerate(polys):
        f = _trim(f)
        rels.append(tuple(lift(d, f) if j == i else z for j in range(len(polys))))
        if f[-1:] == (1,):
            caps.append((i, f))
    return Presentation(p=p, d=d, gens=len(polys), rels=tuple(rels), caps=tuple(caps))


def direct_sum(a: Presentation, b: Presentation) -> Presentation:
    assert a.p == b.p and a.d == b.d
    d = a.d
    z = lift(d, ())
    rels = [row + (z,) * b.gens for row in a.rels]
    rels += [(z,) * a.gens + row for row in b.rels]
    caps = list(a.caps) + [(i + a.gens, c) for i, c in b.caps]
    return Presentation(p=a.p, d=d, gens=a.gens + b.gens,
                        rels=tuple(rels), caps=tuple(caps))


def present_plus(p: int, d: int, n: int, trivial_chi: bool) -> Presentation:
    """The plus subgroup's Galois-module presentation at level n.

    For the trivial character: two generators, the twisted-trace relation
    tying them through phi + phi^-1, the X-kill on the base generator, and the
    derived monic cap (omega_n^+, 0) = X*r1 + (phi+phi^-1)*r2 (redundant but
    it makes the flattening exact).
    """
    fam = omega_family(p, n)
    if not trivial_chi:
        return quotient_presentation(p, d, [list(fam.omega_plus)])
    z, x = lift(d, ()), (0, 1)
    F = [tuple((1,) if b == a % d else () for b in range(d)) for a in (1, -1)]
    minus_phi2 = lam_add(lam_add(z, F[0], -1), F[1], -1)  # -(phi + phi^-1)
    r1 = (lift(d, fam.omega_tilde_plus), minus_phi2)
    r2 = (z, lift(d, x))
    r_cap = (lift(d, fam.omega_plus), z)
    return Presentation(p=p, d=d, gens=2, rels=(r1, r2, r_cap),
                        caps=((0, fam.omega_plus), (1, x)))


def present_minus(p: int, d: int, n: int, trivial_chi: bool) -> Presentation:
    fam = omega_family(p, n)
    poly = fam.omega_minus if trivial_chi else fam.omega_tilde_minus
    return quotient_presentation(p, d, [list(poly)])


def coinvariants(pres: Presentation, n: int) -> Presentation:
    """Quotient by omega_n: append omega_n * e_i (monic caps for everything)."""
    return _quotient_by(pres, omega_family(pres.p, n).omega)


def x_truncated(pres: Presentation, W: int) -> Presentation:
    """Quotient by X^W: the finite-level model used for X-kernel invariants."""
    return _quotient_by(pres, (0,) * W + (1,))


def _quotient_by(pres: Presentation, f: tuple) -> Presentation:
    """M / f M for a monic integer polynomial f: the relation f * e_i for each
    generator, and f caps every generator whose cap is missing or longer."""
    z, rel = lift(pres.d, ()), lift(pres.d, f)
    extra = []
    caps = pres.cap_map()
    for i in range(pres.gens):
        extra.append(tuple(rel if j == i else z for j in range(pres.gens)))
        if i not in caps or len(caps[i]) > len(f):
            caps[i] = f
    return Presentation(p=pres.p, d=pres.d, gens=pres.gens,
                        rels=pres.rels + tuple(extra), caps=tuple(caps.items()))


# ---------------------------------------------------------------------------
# flattening to Z_p-matrices
# ---------------------------------------------------------------------------

@dataclass
class FlatModule:
    pres: Presentation
    N: int
    offsets: list[int]       # per generator; basis (i, a, b) -> offsets[i] + a*B_i + b
    caps_deg: list[int]
    dim: int
    X: np.ndarray
    relmat: np.ndarray       # canonical generating set of the relation span
    divisors: list[int]      # the finite divisor valuations of relmat and of the span

    @property
    def p(self) -> int:
        return self.pres.p

    @property
    def q(self) -> int:
        return self.p**self.N


def _flatten_vector(fm: FlatModule, rel) -> np.ndarray:
    """One relation vector reduced mod caps and laid out on the flat basis,
    in the dtype of fm.X."""
    caps = fm.pres.cap_map()
    out = np.zeros(fm.dim, dtype=object)
    for i, poly in enumerate(rel):
        o, B = fm.offsets[i], fm.caps_deg[i]
        if B:  # the remainder mod the cap has exactly B coefficients
            for a, c in enumerate(poly):
                out[o + a * B:o + (a + 1) * B] = rem_monic(c, caps[i])
    return (out % fm.q).astype(fm.X.dtype)


def _translate_bound(caps: dict, caps_deg: list[int]) -> int:
    """The number of X-translates flatten takes of each relation vector: the
    minimal-polynomial bound of the block-diagonal X-action (the sum of the
    distinct cap degrees), plus one."""
    return sum({caps[i]: B for i, B in enumerate(caps_deg) if B > 0}.values()) + 1


def flatten(pres: Presentation, N: int) -> FlatModule:
    """Build the capped ambient with its X matrix and the relation span,
    certified closed under the ring action.

    X and F act on the flat basis (i, a, b) as index maps, each O(dim) per
    column, in the dtype `as_matrix` gives a dim-square matrix: X sends
    (i, a, b) to (i, a, b + 1) below the cap degree B_i and folds
    (i, a, B_i - 1) back by the cap, and F rotates the F-powers a.

    W, the translates X^k F^a v of the relation vectors v for k below the
    translate bound b and a < d, is eliminated once. W rides as V and ends
    as W C, C the column operations; its first r columns, r the number of
    finite divisors, are the relation basis. F permutes W's columns and X
    maps each translate block onto the next, so the span is closed iff every
    X^b v lies in it: the X^b v ride as U and end as R X^b v, R the row
    operations, whose row i must be divisible by p^e_i (zero past the finite
    divisors). This is exact mod p^N, with no margin; a span that is not
    closed raises ArithmeticError. An N above OMEGA_PRECISION raises
    ValueError: the omega families are known only mod p^OMEGA_PRECISION."""
    if N > OMEGA_PRECISION:
        raise ValueError(f"flatten at N = {N} > OMEGA_PRECISION = {OMEGA_PRECISION}")
    d, p, q = pres.d, pres.p, pres.p**N
    caps = pres.cap_map()
    uncapped = [i for i in range(pres.gens) if caps.get(i, ())[-1:] != (1,)]
    if uncapped:
        raise NotZpFinite(f"generators {uncapped} carry no monic-in-X cap relation")
    caps_deg = [len(caps[i]) - 1 for i in range(pres.gens)]
    offsets = [d * sum(caps_deg[:i]) for i in range(pres.gens)]
    dim = d * sum(caps_deg)
    dtype = _dtype_for(q, dim)
    # row k of X M is row below[k] of M (the zero row dim at degree 0) minus
    # fold[k] times row top[k], the block's degree B - 1 row; row k of F M is
    # row perm[k] of M, the same (i, b) at F-power a - 1, and F^e M is M[rot[:, e]]
    below, top, fold, perm = [], [], [], []
    for i, B in enumerate(caps_deg):
        for a in range(d):
            base, prev = offsets[i] + a * B, offsets[i] + (a - 1) % d * B
            below += [base + b - 1 if b else dim for b in range(B)]
            top += [base + B - 1] * B
            fold += [c % q for c in caps[i][:B]]
            perm += range(prev, prev + B)
    below, top, perm = (np.array(ix, dtype=np.intp) for ix in (below, top, perm))
    fold = np.array(fold, dtype=dtype).reshape(-1, 1)
    rot = [np.arange(dim)]
    for _ in range(d - 1):
        rot.append(rot[-1][perm])
    rot = np.stack(rot, axis=1)

    def x_map(M: np.ndarray) -> np.ndarray:
        M_ext = np.vstack((M, np.zeros((1, M.shape[1]), dtype=M.dtype)))
        return (M_ext[below] - fold * M[top]) % q

    fm = FlatModule(pres=pres, N=N, offsets=offsets, caps_deg=caps_deg, dim=dim,
                    X=x_map(np.eye(dim, dtype=dtype)),
                    relmat=np.zeros((dim, 0), dtype=dtype), divisors=[])
    if dim == 0:
        return fm
    base_cols = [c for c in (_flatten_vector(fm, rel) for rel in pres.rels) if c.any()]
    if not base_cols:
        return fm
    # the columns run over the X-powers, then the vectors, then their F-powers
    cur, blocks = np.array(base_cols).T, []
    for _ in range(_translate_bound(caps, caps_deg)):
        blocks.append(cur[rot].transpose(0, 2, 1).reshape(dim, -1))
        cur = x_map(cur)
    W = as_matrix(np.hstack(blocks), q)
    basis, nxt = W.copy(), cur.astype(W.dtype, copy=False)
    divisors = _eliminate(W, p, N, U=nxt, V=basis)
    finite = [e for e in divisors if e < N]
    pe = [p**e for e in finite] + [q] * (dim - len(finite))
    if (nxt % np.array(pe, dtype=W.dtype).reshape(-1, 1)).any():
        raise ArithmeticError("relation span not closed within the translate bound")
    fm.relmat, fm.divisors = basis[:, :len(finite)].astype(dtype), finite
    return fm


def module_report(pres: Presentation, N: int) -> dict:
    """Z_p-rank and torsion divisors of the capped quotient, margin-checked:
    read from the divisors flatten found, with no second elimination."""
    fm = flatten(pres, N)
    res = SnfResult(p=fm.p, N=N, divisors=fm.divisors, U=None, V=None,
                    shape=fm.relmat.shape)
    return {"rank": fm.dim - res.rank(), "torsion": res.torsion(), "dim": fm.dim}


# ---------------------------------------------------------------------------
# X-kernel invariants and the freeness / finite-submodule predicates
# ---------------------------------------------------------------------------

def _drop_null_columns(M: np.ndarray, p: int, N: int) -> np.ndarray:
    """Drop columns that are zero at precision (content >= N - MARGIN): they
    generate or impose nothing resolvable at the margin."""
    if M.size == 0:
        return M
    cut = p ** (N - MARGIN)
    keep = [j for j in range(M.shape[1]) if (M[:, j] % cut).any()]
    return M[:, keep] if keep else M[:, :0]


def _subquotient_structure(K: np.ndarray, R: np.ndarray, p: int,
                           N: int) -> tuple[int, list[int]]:
    """Structure of the Z_p-module generated by K's columns inside Z^D / span(R),
    for K and R known mod p^N; it is decided at the precision of the kernel."""
    K = _drop_null_columns(as_matrix(K, p**N), p, N)
    R = _drop_null_columns(as_matrix(R, p**N), p, N)
    t = K.shape[1]
    if t == 0:
        return 0, []
    stacked = stack_cols(K, R)
    # the K-coordinates of the kernel vectors: the top t rows of a kernel basis
    C, Nc = kernel_image(stacked, np.eye(t, stacked.shape[1], dtype=np.int64), p, N)
    return quotient_invariants(t, C, p, Nc)


_WINDOWS = 4  # truncation windows W0, ..., W0 + 3 tried for agreement


def invariant_structure(pres: Presentation, N: int) -> tuple[int, list[int]]:
    """(rank, torsion) of ker(X on M), via stabilized X-power truncations:
    the answer from windows (W, W + 1) must agree with the one from
    (W - 1, W). Each window is flattened once and carried to the next pair."""
    caps = pres.cap_map()
    native = [len(c) - 1 for c in caps.values()]
    reldeg = max((lam_deg(c) for r in pres.rels for c in r), default=0)
    # keep W small and independent of N: the truncation-window torsion has
    # divisors bounded in terms of W and the relation data alone, so a margin
    # collision is escaped by raising N (the caller's retry), never by W
    W = max(native + [reldeg, 2]) + 2
    lo = flatten(x_truncated(pres, W), N)
    prev = None
    for _ in range(_WINDOWS):
        W += 1
        hi = flatten(x_truncated(pres, W), N)
        cur = _invariant_structure_at(lo, hi)
        if cur == prev:
            return cur
        prev, lo = cur, hi
    raise PrecisionExhausted(f"X-kernel invariants did not stabilize by W={W}")


def _invariant_structure_at(lo: FlatModule, hi: FlatModule) -> tuple[int, list[int]]:
    """(rank, torsion) of the image of ker(X on M/X^(W+1) M) in M/X^W M, for
    the flat models hi of M/X^(W+1) M and lo of M/X^W M, decided at the
    precision the kernel vectors carry."""
    p, N = hi.p, hi.N
    if hi.dim == 0:
        return 0, []
    # M/X^(W+1) M -> M/X^W M drops the top X-layer of each generator: the
    # basis vector (i, a, b) of lo is (i, a, b) of hi, as B_lo <= B_hi
    rows = [hi.offsets[i] + a * hi.caps_deg[i] + b for i in range(hi.pres.gens)
            for a in range(hi.pres.d) for b in range(lo.caps_deg[i])]
    # preimage of the relation span under X, inside the high model, taken to lo
    stacked = stack_cols(hi.X, hi.relmat)
    top = np.eye(hi.dim, stacked.shape[1], dtype=np.int64)[rows]
    K_lo, Nk = kernel_image(stacked, top, p, N)
    K_lo = stack_cols(K_lo, hi.relmat[rows])  # the span of relations always maps in
    return _subquotient_structure(K_lo, lo.relmat, p, Nk)


def coinvariant_structure(pres: Presentation, N: int) -> tuple[int, list[int]]:
    """(rank, torsion) of M/XM."""
    rep = module_report(x_truncated(pres, 1), N)
    return rep["rank"], rep["torsion"]


def freeness_test(pres: Presentation, N: int) -> dict:
    """The two equivalent-conditions predicates: M free iff ker(X) = 0 and
    M/XM is Z_p-free; M has no nontrivial finite submodule iff ker(X) is
    Z_p-free.

    The ladder from N is walked one rung at a time. A rung with a decision
    inside the margin raises and is passed over, and the answer is certified
    at the first two consecutive rungs that agree, as `certified_at`."""
    last = PrecisionExhausted("freeness ladder exhausted")
    prev = None
    for Nk in precision_ladder(N):
        try:
            cur = _freeness_once(pres, Nk)
        except PrecisionExhausted as e:
            last, prev = e, None
            continue
        if prev is not None:
            if cur == prev[1]:
                return {**cur, "certified_at": (prev[0], Nk)}
            last = PrecisionExhausted(
                f"freeness predicates unstable at N={prev[0]}: {prev[1]} vs {cur}")
        prev = (Nk, cur)
    raise last


def _freeness_once(pres: Presentation, N: int) -> dict:
    inv_rank, inv_tors = invariant_structure(pres, N)
    coin_rank, coin_tors = coinvariant_structure(pres, N)
    return {
        "invariants": (inv_rank, inv_tors),
        "coinvariants": (coin_rank, coin_tors),
        "is_free": inv_rank == 0 and not inv_tors and not coin_tors,
        "no_finite_submodule": not inv_tors,
    }


def rank_lambda(pres: Presentation, N: int) -> int:
    """Lambda-rank from the coinvariant rank slope between levels 1 and 2."""
    p = pres.p
    r0 = module_report(coinvariants(pres, 1), N)["rank"]
    r1 = module_report(coinvariants(pres, 2), N)["rank"]
    num = r1 - r0
    den = p**2 - p
    if num % den:
        raise ArithmeticError(f"coinvariant ranks {r0}, {r1} have non-integral slope")
    return num // den


# ---------------------------------------------------------------------------
# closed forms and the assembled rank law
# ---------------------------------------------------------------------------

def closed_form_coinvariant_torsion(p: int, d: int, m: int, n: int, sign: str,
                                    trivial_chi: bool) -> list[int]:
    """Elementary-divisor valuations of the p-primary torsion of
    present_{sign}(m, chi)/omega_n, from the congruence bookkeeping:
    each cyclotomic factor above level n collapses to p modulo omega_n."""
    assert m >= n
    if sign == "+":
        c = sum(1 for j in range(n + 1, m + 1) if j % 2 == 0)
        _, _, qm_n = q_values(p, n)
        mult = d * qm_n + (delta_of(d, True) if trivial_chi else 0)
    else:
        c = sum(1 for j in range(n + 1, m + 1) if j % 2 == 1)
        _, qp_n, _ = q_values(p, n)
        mult = d * (qp_n - 1) if trivial_chi else d * qp_n
    if c == 0:
        return []
    return [c] * mult


_PRESENT = {"+": present_plus, "-": present_minus}


def coinvariant_torsion(p: int, d: int, m: int, n: int, sign: str, trivial_chi: bool,
                        N: int) -> list[int]:
    """The torsion of present_{sign}(m, chi)/omega_n, as `module_report` reads it."""
    return module_report(coinvariants(_PRESENT[sign](p, d, m, trivial_chi), n), N)["torsion"]


def coinvariant_rank_law(p: int, d: int, n: int, trivial_chi: bool, sign: str,
                         N: int) -> dict:
    """Assemble the level-n coinvariant rank of the dual tower module:
    rank of the level-n subgroup plus the stabilized torsion corank, checked
    against d p^n + delta (plus side) or d p^n (minus side)."""
    rank_n = module_report(_PRESENT[sign](p, d, n, trivial_chi), N)["rank"]
    tors = [coinvariant_torsion(p, d, m, n, sign, trivial_chi, N) for m in (n + 2, n + 4)]
    counts_stable = len(tors[0]) == len(tors[1])
    growth_ok = tors[1] == [e + 1 for e in tors[0]]
    corank = len(tors[0])
    delta = delta_of(d, trivial_chi) if sign == "+" else 0
    total = rank_n + corank
    expected = d * p**n + delta
    return {
        "p": p, "d": d, "n": n, "sign": sign, "trivial_chi": trivial_chi,
        "rank_level": rank_n,
        "torsion_corank": corank,
        "torsion_counts_stable": counts_stable,
        "torsion_growth_ok": growth_ok,
        "total": total,
        "expected": expected,
        "delta": delta,
        "ok": counts_stable and growth_ok and total == expected,
    }


def supplementary_structure_check(d: int, trivial_chi: bool, p: int, N: int,
                                  sign: str = "+") -> dict:
    """The candidate dual module (free of rank d, plus delta copies of the
    X-killed line on the plus side) reproduces the finite-level observables:
    coinvariant ranks d p^n + delta at n = 0,1,2, X-torsion of rank delta,
    and free X-coinvariants. Explicitly a finite-level consistency check,
    not a proof at the infinite level."""
    delta = delta_of(d, trivial_chi) if sign == "+" else 0
    cand = free_presentation(p, 1, d)
    for _ in range(delta):
        cand = direct_sum(cand, quotient_presentation(p, 1, [[0, 1]]))  # X-killed line
    results = {}
    ok = True
    for n in (0, 1, 2):
        r = module_report(coinvariants(cand, n), N)["rank"]
        results[f"coinv_rank_n{n}"] = r
        ok &= r == d * p**n + delta
    inv_rank, inv_tors = invariant_structure(cand, N)
    _, coin_tors = coinvariant_structure(cand, N)
    results.update({
        "x_torsion_rank": inv_rank,
        "x_torsion_torsion": inv_tors,
        "coinv_free": not coin_tors,
        "delta": delta,
    })
    ok &= inv_rank == delta and not inv_tors and not coin_tors
    # the n = 0 level separates (X-line)^2 from a quadratic-cyclotomic hybrid:
    # d + 2 here, d + 1 for the hybrid
    results["level0_discriminates"] = results["coinv_rank_n0"] == d + delta
    ok &= results["level0_discriminates"]
    results["ok"] = bool(ok)
    return results


# ---------------------------------------------------------------------------
# randomized instance harness for the kernel / cokernel lemmas
# ---------------------------------------------------------------------------

def _matvec(T, v, d):
    """Matrix of group-ring polynomials times a vector of them."""
    out = []
    for row in T:
        acc = lift(d, ())
        for a, b in zip(row, v):
            acc = lam_add(acc, lam_mul(a, b))
        out.append(acc)
    return tuple(out)


def _identity(n, d):
    one, z = lift(d, (1,)), lift(d, ())
    return tuple(tuple(one if i == j else z for j in range(n)) for i in range(n))


def _random_poly(rng, d, max_deg, p):
    rows = [[rng.randrange(-p, p + 1) for _ in range(d)]
            for _ in range(rng.randrange(max_deg + 1) + 1)]  # X-degree by X-degree
    return tuple(map(_trim, zip(*rows)))


def _random_unimodular(rng, n, d, p, ops: int, max_deg: int):
    """U and U^{-1} as group-ring polynomial matrices: product of
    transvections and sign flips."""
    z = lift(d, ())
    U = [list(r) for r in _identity(n, d)]
    Uinv = [list(r) for r in _identity(n, d)]
    for _ in range(ops):
        if n >= 2 and rng.random() < 0.8:
            i, j = rng.sample(range(n), 2)
            f = _random_poly(rng, d, max_deg, p)
            # U <- E U (row_i += f row_j); Uinv <- Uinv E^{-1} (col_j -= f col_i)
            U[i] = [lam_add(U[i][k], lam_mul(f, U[j][k])) for k in range(n)]
            for k in range(n):
                Uinv[k][j] = lam_add(Uinv[k][j], lam_mul(f, Uinv[k][i]), -1)
        else:
            i = rng.randrange(n)
            U[i] = [lam_add(z, c, -1) for c in U[i]]
            for k in range(n):
                Uinv[k][i] = lam_add(z, Uinv[k][i], -1)
    # the columns of U U^{-1} are those of the (symmetric) identity
    assert [_matvec(U, col, d) for col in zip(*Uinv)] == list(_identity(n, d)), \
        "unimodular bookkeeping broke"
    return tuple(map(tuple, U)), tuple(map(tuple, Uinv))


_MAX_FREE = 2     # free rank of a random safe module: 1 or 2
_D_MAX = 2        # group-ring degree d of a harness instance: 1 or 2
_DEG_BOUND = 6    # X-degree budget of the random maps


def _safe_torsion_polys(p: int) -> list[list[int]]:
    """Distinguished f, so that Lambda/(f) is Z_p-free with no finite submodule:
    X, X^2 and X - p at every odd p, and X^2 + 3X + 3 at p = 3."""
    return [[0, 1], [0, 0, 1], [-p, 1]] + ([[3, 3, 1]] if p == 3 else [])


def _random_safe_module(rng, p, d):
    """A presentation with no nontrivial finite submodule (filtered by
    freeness_test), with known free rank: free part (+) Z_p-free torsion blocks."""
    s = rng.randrange(1, _MAX_FREE + 1)
    pres = free_presentation(p, d, s)
    for _ in range(rng.randrange(3)):
        f = rng.choice(_safe_torsion_polys(p))
        pres = direct_sum(pres, quotient_presentation(p, d, [f]))
    return pres, s


def _kernel_instance(rng, p, d, N) -> dict:
    """One surjection from a free module Lambda^r onto a safe module, with
    closed-form kernel generators.

    The kernel K sits in 0 -> ker(X on N) -> K/XK -> image(K in Z_p[G]^r) -> 0
    (snake sequence for X acting on 0 -> K -> free -> N -> 0, and the image is
    a submodule of a free Z_p-module, so the sequence splits). K has no
    X-torsion a priori inside the free module, so the freeness conclusion
    reduces to: ker(X on N) torsion-free and ranks summing to d(r - s).
    The image's rank is d r less the Z_p-rank of the X-coinvariants of
    Lambda^r / K, which `coinvariant_structure` reads through `module_report`.
    """
    targetN, s = _random_safe_module(rng, p, d)
    gN = targetN.gens
    extra = rng.randrange(1, 3)
    r = gN + extra
    _, Uinv = _random_unimodular(rng, gN, d, p, ops=rng.randrange(2, 6),
                                 max_deg=max(1, _DEG_BOUND // 3))
    Q = tuple(tuple(_random_poly(rng, d, _DEG_BOUND // 2, p) for _ in range(extra))
              for _ in range(gN))
    z, one = lift(d, ()), lift(d, (1,))
    kgens = []
    for w in targetN.rels:  # vectors in R^gN
        v1 = _matvec(Uinv, w, d)
        kgens.append(tuple(v1) + (z,) * extra)
    for j in range(extra):
        qcol = tuple(Q[i][j] for i in range(gN))
        v1 = _matvec(Uinv, qcol, d)
        kgens.append(tuple(lam_add(z, c, -1) for c in v1)
                     + tuple(one if t == j else z for t in range(extra)))
    # the safe-module filter: verified submodule-free (ker X torsion-free)
    inv_rank, inv_tors = invariant_structure(targetN, N)
    filter_ok = not inv_tors
    rio = d * r - coinvariant_structure(Presentation(p, d, r, tuple(kgens)), N)[0]
    expected_rank = d * (r - s)
    ok = filter_ok and (inv_rank + rio == expected_rank)
    return {"kind": "kernel", "ok": ok,
            "got": (inv_rank, rio), "expected": expected_rank,
            "filter_ok": filter_ok, "r": r, "s": s,
            "kgens": kgens if not ok else None}


def _cokernel_instance(rng, p, d, N) -> dict:
    """One injection of a free module into a safe module; the cokernel must
    have no nontrivial finite submodule. Injectivity is certified by the
    Lambda-rank ledger; non-injective draws are resampled by the caller."""
    targetN, s = _random_safe_module(rng, p, d)
    if s < 2:
        targetN = direct_sum(targetN, free_presentation(p, d, 1))
        s += 1
    r = rng.randrange(1, s)
    G = tuple(tuple(_random_poly(rng, d, _DEG_BOUND // 2, p) for _ in range(r))
              for _ in range(targetN.gens))
    extra_rels = []
    for j in range(r):
        extra_rels.append(tuple(G[i][j] for i in range(targetN.gens)))
    coker = targetN.with_relations(extra_rels)
    try:
        got_rank = rank_lambda(coker, N)
    except ArithmeticError:
        return {"kind": "cokernel", "ok": None}  # resample
    if got_rank != (s - r) * d:
        return {"kind": "cokernel", "ok": None}  # not injective; resample
    rep = freeness_test(coker, N)
    return {"kind": "cokernel", "ok": rep["no_finite_submodule"],
            "rank": got_rank, "pres": None if rep["no_finite_submodule"] else coker}


def kernel_freeness_property(trials: int, seed: int, N: int, p: int = 3) -> dict:
    """Randomized harness: kernels of surjections onto safe modules come out
    free of the predicted rank, and cokernels of injections of free modules
    into safe modules carry no finite submodule. Counterexamples are returned
    with their full data (none are expected).

    Window torsion and random coefficient content have N-independent
    divisors, so a margin collision is cleared by rerunning the instance up
    the precision ladder."""
    rng = random.Random(seed)
    counterexamples = []
    ran = 0
    for stop, instance in ((trials // 2, _kernel_instance), (trials, _cokernel_instance)):
        while ran < stop:
            d = rng.randrange(1, _D_MAX + 1)
            state = rng.getstate()

            def mk(Nx):
                rng.setstate(state)
                return instance(rng, p, d, Nx)

            inst = at_rising_precision(mk, N)
            if inst["ok"] is None:
                continue  # a cokernel draw that is not injective: resample
            ran += 1
            if not inst["ok"]:
                counterexamples.append(inst)
    return {"trials": ran, "counterexamples": counterexamples,
            "ok": not counterexamples}
