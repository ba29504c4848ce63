"""Kernel spaces of the twisted power-operation congruence.

A `HomProblem` fixes an odd prime p, a homogeneous polynomial f monic
in x of x-degree d, a degree delta and a twist h in F_p[t] with nonzero
constant term.  The associated linear map sends a homogeneous
polynomial m of degree delta to the remainder of P(m) - h*m under
division by f; `hom_space` computes the kernel of that map on the
domain basis

    { t^i * x^j : i + j = delta, 0 <= j <= min(delta, d - 1) },

listed with the highest x-power first.  The kernel basis is returned in
reduced echelon form with respect to that monomial order, so it is
unique and deterministic.

The divisor must split over F_p: f = prod_w (x - w t)^(e_w), which
every divisor the engine builds does (`HomProblem` recovers the e_w
from f(1, x) and rejects any other f).  The factors are pairwise
coprime, so f divides F = P(m) - h*m exactly when each (x - w t)^(e_w)
does, and the map is never built as a matrix.  Instead, at each weight:

* Put y = x - w t.  Since w^p = w, P(y) = y + y^p, and P(t) = t (1 + tau)
  with tau = t^(p-1).  Write m in the Taylor-shifted coordinates
  c^w_k = sum_j C(j, k) w^(j-k) c_j, so m = sum_k c^w_k t^(delta-k) y^k
  (c^0 = c, the coordinates on the domain basis).
* y^(e_w) divides F exactly when, for every n < e_w, the coefficient of
  y^n vanishes; divided by t^(delta-n) that is the identity in t

      sum over s >= 0, k = n - s(p-1) with 0 <= k <= x_bound of
          C(k, s) c^w_k tau^s (1 + tau)^(delta-k)  ==  c^w_n h(t)

  (c^w_n = 0 for n > x_bound).  Each identity gives one scalar equation
  per power of t, and (1 + tau)^N is expanded from the base-p digits of
  N (Lucas), once per N and level.
* The identity for n involves only the c^w_k with k = n mod p - 1, so each
  (w, residue class) system is row-reduced on its own, stopping once it
  has a pivot for every unknown.  Nothing in it depends on w beyond e_w,
  so weights of equal multiplicity share one reduced system.  Its
  reduced rows are mapped back to the domain coordinates through each
  weight's Taylor shift; stacked, they number at most
  min(e_w, x_bound + 1) per weight, so at most d.

For a < p every identity has only its s = 0 term, and delta - epsilon =
a - 2 makes (1 + tau)^(delta-n) == h exactly at n = a - 2.  So the level
space is {m : D^n m(1, x) vanishes at x = w for each weight w and each
n < e_w with n != a - 2}, D^n the n-th Hasse derivative: a Birkhoff
interpolation problem.

`hom_space` row-reduces the stacked rows (the packed `rref` in
`powker._pykernel`; the kernel of a matrix is the kernel of its RREF,
which is unique, so the equations do not depend on how they were
derived), reads the kernel basis off the RREF, and certifies it: dim + rank == ncols, and every
stacked row vanishes on every basis vector.  It keeps the RREF rows as
the space's `equations`.  Membership (`contains` and the shift checks)
evaluates those equations at m's coordinates and never reads the basis.

The level-a kernel space ma_space(p, a) uses the half-flag divisor

    f = r^(a-1) * x * (x - t) * ... * (x - ((p-1)/2) t),

that is, a - 1 regular blocks (r = x^p - t^(p-1) x) together with the
lower half of the weights, at degree delta(a) and twist h(a).  This is
the half-step of the flag filtration walked by the bounds module; its
dimension is the quantity the rank reports consume.  Multiplying by r
maps level a into level a + 1 (the divisors differ by exactly one
regular block), and for a >= 3 every kernel element is divisible by r;
`mul_r_shift` and `div_r_shift` apply these moves and verify the
membership guarantees as they go.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from operator import mul

from ._pykernel import annihilates, nullspace_rows, rref
from .errors import ConsistencyError
from .ffpoly import BiPoly, FpScalar, PrimeModulus, TriPoly, binom_mod
from .reps import f_of, filtration_rep, r_poly
from .steenrod import SplitPoly, h_poly, parameters, q_of_split

__all__ = [
    "HomProblem",
    "HomSpace",
    "FpMatrix",
    "hom_space",
    "ma_space",
    "family_element",
    "contains",
    "mul_r_shift",
    "div_r_shift",
    "verify_qr_identity",
    "verify_substitution_identity",
    "verify_k_lemma",
]


@dataclass(frozen=True)
class HomProblem:
    """Input data for one kernel computation.

    f must split into linear forms over F_p; `roots` holds (w, e_w) for
    each root w of f(1, x), ascending, so that f = prod (x - w t)^e_w.
    """

    p: PrimeModulus
    f: BiPoly
    delta: int
    h: BiPoly
    roots: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.f.modulus != self.p or self.h.modulus != self.p:
            raise ValueError("modulus mismatch")
        if not self.f.is_monic_in_x():
            raise ValueError("f must be monic in x")
        if not self.f.is_homogeneous():
            raise ValueError("f must be homogeneous")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")
        if self.h.x_degree() > 0:
            raise ValueError("h must be a polynomial in t alone")
        if not self.h.coefficient(0, 0):
            raise ValueError("h must have nonzero constant term")
        object.__setattr__(self, "roots", _roots(self.f))

    def x_bound(self) -> int:
        """Largest x-exponent in the domain basis, min(delta, deg_x f - 1)."""
        return min(self.delta, self.f.x_degree() - 1)

    def domain_monomials(self) -> tuple[tuple[int, int], ...]:
        """(t-exp, x-exp) pairs of the domain basis, highest x-power first."""
        return tuple((self.delta - j, j) for j in range(self.x_bound(), -1, -1))

    def coordinates(self, m: BiPoly) -> list[int]:
        """m's coefficients on the domain basis, in `domain_monomials` order.

        m must be zero or homogeneous of degree delta with x-degree at
        most `x_bound()`; anything else raises ValueError.
        """
        if m.modulus != self.p:
            raise ValueError("modulus mismatch")
        top = self.x_bound()
        vec = [0] * (top + 1)
        if m.is_zero():
            return vec
        if not m.is_homogeneous() or m.degree() != self.delta:
            raise ValueError(f"m must be homogeneous of degree {self.delta}")
        if m.x_degree() > top:
            raise ValueError("m lies outside the domain basis (x-degree too high)")
        for _i, j, c in m.iterterms():
            vec[top - j] = c  # the domain lists x-exponents top, top - 1, ..., 0
        return vec


def _roots(f: BiPoly) -> tuple[tuple[int, int], ...]:
    """(w, e_w) for each root w of f(1, x) in F_p, ascending, by synthetic division.

    f is homogeneous and monic in x, so f = prod (x - w t)^e_w exactly
    when these multiplicities add up to deg_x f; otherwise ValueError.
    """
    p = f.modulus.p
    coeffs = [0] * (f.x_degree() + 1)  # f(1, x), highest power first
    for _i, j, c in f.iterterms():
        coeffs[-1 - j] = c
    roots = []
    for w in range(p):
        e = 0
        while len(coeffs) > 1:
            acc, quotient = 0, []
            for c in coeffs:
                acc = (acc * w + c) % p
                quotient.append(acc)
            if quotient.pop():
                break
            coeffs, e = quotient, e + 1
        if e:
            roots.append((w, e))
        if len(coeffs) == 1:
            return tuple(roots)
    raise ValueError("f must split into linear factors x - w*t over F_p")


@dataclass(frozen=True)
class HomSpace:
    """A computed kernel: the problem, a reduced echelon basis, and the
    operator's RREF rows, which decide membership (unique, so not compared)."""

    problem: HomProblem
    basis: tuple[BiPoly, ...]
    equations: tuple[tuple[int, ...], ...] = field(compare=False, repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def to_json(self, a: int | None = None, include_basis: bool = True) -> dict:
        out: dict = {"p": self.problem.p.p}
        if a is not None:
            out["a"] = a
        out["f"] = self.problem.f.text()
        out["delta"] = self.problem.delta
        out["dim"] = self.dim
        if include_basis:
            out["basis"] = [b.text() for b in self.basis]
        return out


def _nullspace(reduced: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Kernel basis of a matrix given by its RREF rows, in reduced echelon form (unique)."""
    return rref(nullspace_rows(reduced, ncols, p), ncols, p)


class FpMatrix:
    """A matrix over F_p with exact row reduction."""

    __slots__ = ("modulus", "ncols", "_rows")

    def __init__(self, modulus: PrimeModulus, rows, ncols: int | None = None):
        p = modulus.p
        clean = []
        for row in rows:
            r = [v.value if isinstance(v, FpScalar) else v % p for v in row]
            clean.append(r)
        if ncols is None:
            if not clean:
                raise ValueError("ncols is required for a matrix with no rows")
            ncols = len(clean[0])
        for r in clean:
            if len(r) != ncols:
                raise ValueError("ragged rows")
        self.modulus = modulus
        self.ncols = ncols
        self._rows = clean

    def rank(self) -> int:
        return len(rref(self._rows, self.ncols, self.modulus.p))


def _tau_powers(n: int, p: int) -> list[tuple[int, int]]:
    """The terms (i, C(n, i) mod p) of (1 + tau)^n, all nonzero.

    By Lucas' theorem (1 + tau)^n is the product over the base-p digits
    n_l of n of (1 + tau^(p^l))^(n_l), and no C(n_l, i_l) vanishes mod p.
    """
    terms = [(0, 1)]
    place = 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            terms = [
                (i + k * place, c * binom_mod(digit, k, p) % p)
                for i, c in terms
                for k in range(digit + 1)
            ]
        place *= p
    return terms


def _level_rows(problem: HomProblem) -> list[list[int]]:
    """Rows over the domain basis whose common kernel is the kernel of the level map.

    One reduced local system per weight w and residue class rho mod p - 1,
    mapped back through the Taylor shift: at most min(e_w, x_bound + 1)
    rows per weight, so at most deg_x f rows in all.  In the Taylor
    coordinates a local system does not depend on w, only on e_w and rho,
    so each one is reduced once per level.
    """
    p = problem.p.p
    q = p - 1
    top = problem.x_bound()
    # binom[j][k] = C(j, k) mod p for j, k <= top, zero for k > j
    binom = [[1] + [0] * top]
    for _ in range(top):
        prev = binom[-1]
        binom.append([1] + [(a + b) % p for a, b in zip(prev[1:], prev)])
    twist = [(g, c) for g, _j, c in problem.h.iterterms()]
    expansions: dict[int, list[tuple[int, int]]] = {}  # N -> terms of (1 + tau)^N
    systems: dict[tuple[int, int], list[list[int]]] = {}  # (e_w, rho) -> reduced local rows
    rows = []
    for w, e in problem.roots:
        wpow = [pow(w, i, p) for i in range(top + 1)]
        for rho in range(min(e, q)):
            # the unknowns c^w_k, k = rho + idx * q <= min(e - 1, top)
            size = len(range(rho, min(e - 1, top) + 1, q))
            if not size:
                continue
            local = systems.get((e, rho))
            if local is None:
                local = []
                for n in range(rho, e, q):
                    fresh = _identity_rows(problem, n, rho, size, binom, twist, expansions)
                    local = rref(local + fresh, size, p)
                    if len(local) == size:
                        break
                systems[e, rho] = local
            # c^w_k = sum_j C(j, k) w^(j - k) c_j, and domain column top - j holds c_j
            for r in local:
                out = [0] * (top + 1)
                for idx, v in enumerate(r):
                    if v:
                        k = rho + idx * q
                        for j in range(k, top + 1):
                            out[j] += v * binom[j][k] * wpow[j - k]
                rows.append([v % p for v in reversed(out)])
    return rows


def _identity_rows(problem, n, rho, size, binom, twist, expansions) -> list[tuple[int, ...]]:
    """The identity for the coefficient of y^n at one weight, one row per power of t.

    Entry idx of a row belongs to c^w_k, k = rho + idx * (p - 1); entries
    are reduced mod p, and zero and repeated rows are dropped.
    """
    p = problem.p.p
    q = p - 1
    delta = problem.delta
    eqs: defaultdict[int, list[int]] = defaultdict(lambda: [0] * size)  # t-exponent -> row
    for idx in range(min((n - rho) // q + 1, size)):
        k = rho + idx * q
        s = (n - k) // q
        ck = binom[k][s] if s <= k else 0
        if not ck:
            continue
        terms = expansions.get(delta - k)
        if terms is None:
            terms = expansions[delta - k] = _tau_powers(delta - k, p)
        for i, c in terms:
            eqs[(s + i) * q][idx] += ck * c
    if n <= problem.x_bound():
        for g, c in twist:
            eqs[g][(n - rho) // q] -= c
    fresh = {tuple(v % p for v in eq) for eq in eqs.values()}
    fresh.discard((0,) * size)
    return list(fresh)


def hom_space(problem: HomProblem) -> HomSpace:
    """Compute the kernel of m -> (P(m) - h*m) mod f on the domain basis.

    The result is certified: the dimension and the rank add up to the
    number of columns, and every row of the local systems, mapped back to
    the domain, vanishes on every basis vector.
    """
    p = problem.p.p
    domain = problem.domain_monomials()
    ncols = len(domain)
    rows = _level_rows(problem)
    equations = rref(rows, ncols, p)
    vectors = _nullspace(equations, ncols, p)
    if len(vectors) + len(equations) != ncols:
        raise ConsistencyError(
            f"kernel certificate failed: dim {len(vectors)} + rank {len(equations)} != {ncols}"
        )
    if not annihilates(rows, vectors, ncols, p):
        raise ConsistencyError("kernel certificate failed: the operator does not vanish on the basis")
    basis = []
    for vec in vectors:
        coeffs = {domain[idx]: v for idx, v in enumerate(vec) if v}
        basis.append(BiPoly(problem.p, coeffs))
    return HomSpace(problem, tuple(basis), tuple(map(tuple, equations)))


def _ma_problem(p: PrimeModulus, a: int) -> HomProblem:
    pars = parameters(p, a)
    f = f_of(filtration_rep(p, a, (p.p + 1) // 2))
    return HomProblem(p, f, pars.delta, h_poly(p, a))


def ma_space(p: PrimeModulus, a: int) -> HomSpace:
    """The level-a kernel space at the half-flag divisor.

    f = r^(a-1) * prod over w = 0 .. (p-1)/2 of (x - w*t), with degree
    delta(a) and twist h(a).  Requiring the full r^a instead cuts the
    space down to the linear span of the family elements; the half-flag
    space is the one whose dimension (p - 1) the rank reports use.
    """
    return _level(p, a)


@lru_cache(maxsize=8)
def _level(p: PrimeModulus, a: int) -> HomSpace:
    # `verify` walks consecutive levels; eight entries also cover every
    # pair of levels up to p = 7.
    return hom_space(_ma_problem(p, a))


def family_element(p: PrimeModulus, k: int) -> BiPoly:
    """t^((p-1)/2-k) x^k (k x^(p-1) + (1-k) t^(p-1)) for 0 <= k <= (p-1)/2.

    These lie in the level-2 kernel space and are linearly independent,
    so they witness dim >= (p+1)/2 there.
    """
    pp = p.p
    half = (pp - 1) // 2
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= half:
        raise ValueError(f"k must satisfy 0 <= k <= (p-1)/2, got {k}")
    lead = BiPoly.monomial(p, half - k, k)
    inner = BiPoly(p, {(0, pp - 1): k, (pp - 1, 0): 1 - k})
    return lead * inner


def _in_level(p: PrimeModulus, a: int, m: BiPoly) -> bool:
    return contains(ma_space(p, a), m)


def contains(space: HomSpace, m: BiPoly) -> bool:
    """Membership test: does f divide P(m) - h*m?

    Evaluates the space's equations at m's coordinates on the domain
    basis; the stored basis is never read.
    """
    vec = space.problem.coordinates(m)
    p = space.problem.p.p
    return not any(sum(map(mul, row, vec)) % p for row in space.equations)


def mul_r_shift(p: PrimeModulus, a: int, b: int, m: BiPoly) -> BiPoly:
    """Map a level-a kernel element to level b >= a via m * r^(b-a)."""
    pp = p.p
    if not 2 <= a <= pp - 1:
        raise ValueError(f"a must satisfy 2 <= a <= p-1, got {a}")
    if b < a:
        raise ValueError(f"b must be at least a, got {b} < {a}")
    if not _in_level(p, a, m):
        raise ValueError("m is not in the level-a kernel space")
    out = m * r_poly(p) ** (b - a)
    if not _in_level(p, b, out):
        raise ConsistencyError(
            f"r-multiple of a level-{a} kernel element fell outside level {b}"
        )
    return out


def div_r_shift(p: PrimeModulus, a: int, m: BiPoly) -> BiPoly:
    """Map a level-a kernel element (a >= 3) down to level a-1 via m / r."""
    if not 3 <= a <= p.p:
        raise ValueError(f"a must satisfy 3 <= a <= p, got {a}")
    if not _in_level(p, a, m):
        raise ValueError("m is not in the level-a kernel space")
    quotient, rem = m.divmod_x(r_poly(p))
    if not rem.is_zero():
        raise ConsistencyError(f"level-{a} kernel element is not divisible by r")
    if not _in_level(p, a - 1, quotient):
        raise ConsistencyError(
            f"quotient by r of a level-{a} kernel element fell outside level {a - 1}"
        )
    return quotient


def verify_qr_identity(p: PrimeModulus) -> bool:
    """Check Q(r) == r^(p-1) + (1 + t^(p-1))^(p-1)."""
    pp = p.p
    split_r = SplitPoly(p, FpScalar(1, p), tuple(FpScalar(k, p) for k in range(pp)))
    lhs = q_of_split(split_r)
    one_plus_tau = BiPoly(p, {(0, 0): 1, (pp - 1, 0): 1})
    rhs = r_poly(p) ** (pp - 1) + one_plus_tau ** (pp - 1)
    return lhs == rhs


def verify_substitution_identity(p: PrimeModulus) -> bool:
    """Check (x - k*t)^p - t^(p-1)(x - k*t) == x^p - t^(p-1)x for all k."""
    pp = p.p
    r = r_poly(p)
    tau_pow = BiPoly.monomial(p, pp - 1, 0)
    for k in range(pp):
        linear = BiPoly(p, {(0, 1): 1, (1, 0): -k})
        if linear ** pp - tau_pow * linear != r:
            return False
    return True


def verify_k_lemma(p: PrimeModulus) -> bool:
    """Check prod_k (K + (x - k*t)^(p-1)) == r^(p-1) + K (K + t^(p-1))^(p-1)."""
    pp = p.p
    one = BiPoly.one(p)
    zero = BiPoly.zero(p)
    lhs = TriPoly(p, [one])
    for k in range(pp):
        linear = BiPoly(p, {(0, 1): 1, (1, 0): -k})
        lhs = lhs * TriPoly(p, [linear ** (pp - 1), one])
    tau_pow = BiPoly.monomial(p, pp - 1, 0)
    k_shift = TriPoly(p, [tau_pow, one]) ** (pp - 1)
    rhs = TriPoly(p, [r_poly(p) ** (pp - 1)]) + TriPoly(p, [zero, one]) * k_shift
    return lhs == rhs
