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

`LevelOperator` holds that map as a matrix over F_p.  Since f is
homogeneous, each homogeneous slice of P(m) - h*m reduces like a
polynomial in x modulo f(x, 1), so each column is a sum of rows of the
remainder table R[e] = x^e mod f(x, 1), built once per divisor.  Row
reduction runs on the kernel backend.  Membership (`contains` and the
shift checks) applies the operator to m and never reads the basis.

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

from dataclasses import dataclass
from functools import lru_cache
from operator import mul

from . import _kernel
from .errors import ConsistencyError
from .ffpoly import BiPoly, FpScalar, PrimeModulus, TriPoly, binom_mod
from .reps import f_of, filtration_rep, r_poly
from .steenrod import SplitPoly, h_poly, parameters, q_of_split

__all__ = [
    "HomProblem",
    "HomSpace",
    "LevelOperator",
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
    """Input data for one kernel computation."""

    p: PrimeModulus
    f: BiPoly
    delta: int
    h: BiPoly

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

    def x_bound(self) -> int:
        """Largest x-exponent in the domain basis, min(delta, deg_x f - 1)."""
        return min(self.delta, self.f.x_degree() - 1)

    def domain_monomials(self) -> tuple[tuple[int, int], ...]:
        """(t-exp, x-exp) pairs of the domain basis, highest x-power first."""
        return tuple((self.delta - j, j) for j in range(self.x_bound(), -1, -1))


class LevelOperator:
    """The map m -> (P(m) - h*m) mod f of a `HomProblem`, as a matrix over F_p.

    Column c belongs to the domain monomial `domain[c]`.  Row k belongs
    to the remainder monomial `keys[k]` (a (t-exp, x-exp) pair); rows
    are the monomials with a nonzero entry in some column, highest
    x-power first, then highest t-power.  Entries lie in [0, p).
    """

    __slots__ = ("problem", "domain", "keys", "rows")

    def __init__(self, problem: HomProblem):
        self.problem = problem
        self.domain = problem.domain_monomials()
        self.keys, self.rows = _graded_rows(problem, self.domain)

    def image(self, m: BiPoly) -> BiPoly:
        """(P(m) - h*m) mod f, summed from the columns at m's monomials.

        m must be zero or homogeneous of degree delta with x-degree at
        most `problem.x_bound()`; anything else raises ValueError.
        """
        problem = self.problem
        if m.modulus != problem.p:
            raise ValueError("modulus mismatch")
        if m.is_zero():
            return m
        if not m.is_homogeneous() or m.degree() != problem.delta:
            raise ValueError(f"m must be homogeneous of degree {problem.delta}")
        top = problem.x_bound()
        if m.x_degree() > top:
            raise ValueError("m lies outside the domain basis (x-degree too high)")
        p = problem.p.p
        vec = [0] * len(self.domain)
        for _i, j, c in m.iterterms():
            vec[top - j] = c  # the domain lists x-exponents top, top - 1, ..., 0
        out = {}
        for key, row in zip(self.keys, self.rows):
            v = sum(map(mul, row, vec)) % p
            if v:
                out[key] = v
        return BiPoly(problem.p, out)


@dataclass(frozen=True)
class HomSpace:
    """A computed kernel: the problem plus a reduced echelon basis."""

    problem: HomProblem
    basis: tuple[BiPoly, ...]

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


def _nullspace(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Kernel basis of the matrix with these rows, in reduced echelon form (unique)."""
    reduced = _kernel.rref(rows, ncols, p)
    pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for prow, pc in zip(reduced, pivots):
            if prow[free]:
                vec[pc] = (-prow[free]) % p
        basis.append(vec)
    return _kernel.rref(basis, ncols, p)


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
        return len(_kernel.rref(self._rows, self.ncols, self.modulus.p))


def _remainder_table(f: BiPoly, top: int) -> list[list[int]]:
    """Rows R[e] = x^e mod f(x, 1) for e = 0 .. top, as coefficient lists of length deg_x f.

    f must be homogeneous and monic in x.
    """
    p = f.modulus.p
    d = f.x_degree()
    # x^d == low(x) mod f(x, 1), where low is minus the lower part of f
    low = [0] * d
    for _i, j, c in f.iterterms():
        if j < d:
            low[j] = p - c
    table = [[int(k == e) for k in range(d)] for e in range(min(d, top + 1))]
    row = low
    for _e in range(d, top + 1):
        table.append(row)
        lead = row[-1]
        row = [0] + row[:-1]
        if lead:
            row = [(a + lead * b) % p for a, b in zip(row, low)]
    return table


def _graded_rows(problem: HomProblem, domain: tuple) -> tuple[list, list]:
    # The slice of degree delta + g of each column is a sum of
    # remainder-table rows, accumulated in plain ints and reduced mod p
    # once.  Rows come out in the operator's key order directly.
    p = problem.p.p
    shift = p - 1
    d = problem.f.x_degree()
    ncols = len(domain)
    table = _remainder_table(problem.f, problem.x_bound() * p)
    twist = [(g, c) for g, _j, c in problem.h.iterterms()]
    zero = [0] * d
    slices: dict[int, list[list[int]]] = {}  # g -> reduced vector per column
    for col, (i, j) in enumerate(domain):
        bin_i = [(s * shift, c) for s in range(i + 1) if (c := binom_mod(i, s, p))]
        acc: dict[int, list[int]] = {}
        for t in range(j + 1):
            ct = binom_mod(j, t, p)
            if not ct:
                continue
            rem = table[j + t * shift]
            for gs, cs in bin_i:
                g = gs + t * shift
                c = cs * ct
                w = acc.get(g)
                if w is None:
                    acc[g] = [c * r for r in rem]
                else:
                    acc[g] = [a + c * r for a, r in zip(w, rem)]
        for g, c in twist:
            # R[j] is x^j itself, since j < d
            acc.setdefault(g, [0] * d)[j] -= c
        for g, w in acc.items():
            if g not in slices:
                slices[g] = [zero] * ncols
            slices[g][col] = [v % p for v in w]
    del table
    order = sorted(slices, reverse=True)
    # by_x[g][e] is the row of remainder monomial (delta + g - e, e), or
    # None when it is zero; each slice is freed once transposed
    by_x = {g: [list(r) if any(r) else None for r in zip(*slices.pop(g))] for g in order}
    keys, rows = [], []
    for e in range(d - 1, -1, -1):
        for g in order:
            row = by_x[g][e]
            if row is not None:
                keys.append((problem.delta + g - e, e))
                rows.append(row)
    return keys, rows


def hom_space(problem: HomProblem) -> HomSpace:
    """Compute the kernel of m -> (P(m) - h*m) mod f on the domain basis."""
    op = LevelOperator(problem)
    domain = op.domain
    basis = []
    for vec in _nullspace(op.rows, len(domain), problem.p.p):
        coeffs = {domain[idx]: v for idx, v in enumerate(vec) if v}
        basis.append(BiPoly(problem.p, coeffs))
    return HomSpace(problem, tuple(basis))


@lru_cache(maxsize=128)
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


@lru_cache(maxsize=2)
def _operator(problem: HomProblem) -> LevelOperator:
    # Only membership tests use this cache; hom_space keeps no operator.
    # The shifts check levels a and a + 1 in turn, so two entries cover
    # a walk over consecutive levels.
    return LevelOperator(problem)


def _in_level(p: PrimeModulus, a: int, m: BiPoly) -> bool:
    return _operator(_ma_problem(p, a)).image(m).is_zero()


def contains(space: HomSpace, m: BiPoly) -> bool:
    """Membership test: does f divide P(m) - h*m?

    Applies the operator of the space's problem to m; the stored basis
    is never read.
    """
    return _operator(space.problem).image(m).is_zero()


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
