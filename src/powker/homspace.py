"""Kernel spaces of the twisted power-operation congruence.

A `HomProblem` (defined in `powker.crt`, beside the dimension count)
fixes an odd prime p, a representation V of dimension d (a multiset of
weights mod p), a degree delta and a twist h in F_p[t] with nonzero
constant term.  Its divisor is the split polynomial
f = f(V) = prod over the weights w of (x - w t), homogeneous and monic
in x of x-degree d.  The associated linear map sends a homogeneous
polynomial m of degree delta to the remainder of P(m) - h*m under
division by f; `hom_space` computes the kernel of that map on the
domain basis

    { t^i * x^j : i + j = delta, 0 <= j <= min(delta, d - 1) },

listed with the highest x-power first.  The kernel basis is returned in
reduced echelon form with respect to that monomial order, so it is
unique and deterministic.

So the divisor splits over F_p, f = prod_w (x - w t)^(e_w), and the
problem carries the weights, each w with its multiplicity e_w in V.
f itself is multiplied out only for output.  The factors are pairwise
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

  (c^w_n = 0 for n > x_bound).  Each identity holds coefficient by
  coefficient in t, and (1 + tau)^N is `steenrod.binomial_terms(N, p)`.
* The identity for n involves only the c^w_k with k = n mod p - 1, so each
  (w, residue class) system is solved on its own.  It is triangular:
  identity n brings in one new unknown c^w_n (for n <= x_bound), whose
  coefficient, the diagonal, is (1 + tau)^(delta-n) - h; its other terms
  hold earlier unknowns only.  So the solver walks the identities in
  order and tracks the kernel of those seen so far.  While that is {0},
  identity n only sets c^w_n = 0, unless its diagonal vanishes and frees
  c^w_n.  (1 + tau)^N has t-degree (p-1) N, so that happens for at most
  one n per level, found by one comparison with h.  Once the kernel is
  not {0}, each identity cuts it by one elimination with dim + 1
  columns.  The result is the local kernel K_w (`powker.crt`, which
  also counts the level's dimension from the K_w alone by CRT), as
  jets on c^w_0 .. c^w_(E-1), E = min(e_w, x_bound + 1).  A system
  depends on w only through e_w, so weights of equal multiplicity share
  one.  For `hom_space`, the annihilator of K_w, read off one RREF of
  its jets by `nullspace_rows` (one unit row per unknown when K_w is
  {0}; any basis serves, since the level's RREF below is unique), is
  mapped back to the domain coordinates through the Taylor functionals
  c^w_k, k < E, the rows of `crt._taylor_rows` (which `kernel_dim`
  reads its cut through too): a unit row is a functional itself.
  Stacked, the rows number at most E per weight, so at most d.

For a < p every identity has only its s = 0 term, and delta - epsilon =
a - 2 makes (1 + tau)^(delta-n) == h exactly at n = a - 2.  So the level
space is {m : D^n m(1, x) vanishes at x = w for each weight w and each
n < e_w with n != a - 2}, D^n the n-th Hasse derivative: a Birkhoff
interpolation problem.

`hom_space` makes one elimination per level: the packed `rref` in
`powker._pykernel` reduces the stacked rows, whose column j holds c_j,
the lowest x-power first.  The RREF is unique and has the rows' kernel,
so the result does not depend on how the rows were derived.
`nullspace_rows` of it gives, for each free column f, the vector with 1
at f, 0 at the other free columns and its other entries at pivot columns
below f: f is its highest x-power.  Read in reverse, these vectors are
the reduced echelon basis in the domain order, with no second
elimination.  The basis is certified, dim + rank == ncols and every
stacked row vanishes on every basis vector, and it is all the space
keeps.  Those two checks see the basis through the stacked rows, so a
third does not: one combination m of the basis, every coefficient
nonzero, has its Taylor coordinates c^w_k = D^k m(w) evaluated at all
the weights by `crt._hasse_values`, and at each weight they must
satisfy the annihilator of K_w.  Membership (`contains` and the shift
checks) reduces m's coordinates by that basis: at most dim passes over
a basis vector's terms, where evaluating equations would take
ncols - dim dot products of length ncols.

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

The identities read one table of the (x - k t)^(p-1), `_linear_powers`, and one
product, `_k_product`: the K-lemma's K-coefficients of prod_k (K + (x - k t)^(p-1)),
whose sum (K = 1) is Q(r).  The substitution check multiplies each power by x - k t.
Both are cached for the last prime, so `verify --suite all` builds each once.

`_verify_checks` runs `verify`'s suites: the family elements in level 2,
the three identities, and the shift walk, which holds levels a and a + 1.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from ._pykernel import annihilates, nullspace_rows, pack, rref, slot_width, unpack
from .crt import (
    HomProblem,
    _check_ma_dim,
    _hasse_values,
    _local_kernels,
    _ma_problem,
    _taylor_rows,
    kernel_dim,
)
from .errors import ConsistencyError
from .ffpoly import BiPoly, Frozen, PrimeModulus, binom_mod
from .reps import r_poly
from .steenrod import one_plus_tau

__all__ = [
    "HomProblem",
    "HomSpace",
    "FpMatrix",
    "hom_space",
    "kernel_dim",
    "ma_space",
    "family_element",
    "contains",
    "mul_r_shift",
    "div_r_shift",
    "verify_qr_identity",
    "verify_substitution_identity",
    "verify_k_lemma",
]


class HomSpace(Frozen):
    """A computed kernel: the problem and its reduced echelon basis."""

    __slots__ = ("problem", "basis")

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


class FpMatrix:
    """A matrix over F_p with exact row reduction."""

    __slots__ = ("modulus", "ncols", "_rows")

    def __init__(self, modulus: PrimeModulus, rows, ncols: int | None = None):
        p = modulus.p
        clean = [[v % p for v in row] for row in rows]
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


def _level_rows(problem: HomProblem) -> tuple[list[list[int]], int, list]:
    """Rows over the domain basis, lowest x-power first (column j holds c_j),
    whose common kernel is the kernel of the level map; D0, the sum of the
    local kernels' dimensions over the weights; and, per weight w, (w, e_w,
    the annihilator of K_w as rows of (k, entry) terms on the c^w_k).

    The annihilator of each local kernel, mapped back through the Taylor
    shift: at most min(e_w, x_bound + 1) rows per weight, so at most
    deg_x f rows in all.
    """
    p = problem.p.p
    top = problem.x_bound()
    rows, annihilators = [], []
    d0 = 0
    local: dict[int, list[list[tuple[int, int]]]] = {}  # e_w -> rows as (k, entry) terms
    for w, e, jets in _local_kernels(problem):
        d0 += len(jets)
        taylor = _taylor_rows(w, min(e, top + 1), top + 1, p)  # c^w_k in the c_j, k < len(jet)
        if e not in local:
            annihilator = nullspace_rows(rref(jets, len(taylor), p), len(taylor), p)
            local[e] = [[(k, v) for k, v in enumerate(row) if v] for row in annihilator]
        annihilators.append((w, e, local[e]))
        for terms in local[e]:
            if len(terms) == 1:  # a unit row, c^w_k = 0
                rows.append(taylor[terms[0][0]])
            else:
                coeffs = [v for _k, v in terms]
                functionals = [taylor[k] for k, _v in terms]
                rows.append([sum(map(mul, coeffs, col)) % p for col in zip(*functionals)])
    return rows, d0, annihilators


def hom_space(problem: HomProblem) -> HomSpace:
    """Compute the kernel of m -> (P(m) - h*m) mod f on the domain basis.

    One `rref` of the stacked local rows, lowest x-power first; the basis
    is its `nullspace_rows` in reverse order (see the module docstring).
    The result is certified: the dimension and the rank add up to the
    number of columns, every row of the local systems, mapped back to the
    domain, vanishes on every basis vector, D0 - c <= dim <= D0, and one
    combination of the basis has its Taylor coordinates at each weight,
    evaluated apart from the mapped rows, in the local kernel.
    """
    p = problem.p.p
    delta = problem.delta
    ncols = problem.x_bound() + 1
    rows, d0, annihilators = _level_rows(problem)
    reduced = rref(rows, ncols, p)
    # free columns descending: highest x-power first, the domain order
    vectors = nullspace_rows(reduced, ncols, p)[::-1]
    if len(vectors) + len(reduced) != ncols:
        raise ConsistencyError(
            f"kernel certificate failed: dim {len(vectors)} + rank {len(reduced)} != {ncols}"
        )
    if not annihilates(rows, vectors, ncols, p):
        raise ConsistencyError("kernel certificate failed: the operator does not vanish on the basis")
    # the kernel is the cut's kernel in the local kernels' sum (see `kernel_dim`)
    if not d0 - (problem.rep.dim - ncols) <= len(vectors) <= d0:
        raise ConsistencyError(f"kernel certificate failed: dim {len(vectors)} against D0 = {d0}")
    # the Taylor coordinates c^w_k = D^k m(w) of m = sum_i (i mod (p - 1) + 1) basis_i,
    # every coefficient nonzero, by multipoint evaluation, not through `_taylor_rows`
    width = slot_width(len(vectors) * (p - 1) ** 2 + 1)
    packed = sum((i % (p - 1) + 1) * pack(vec, width) for i, vec in enumerate(vectors))
    combination = unpack(packed, ncols, width, p)
    count = max((e for _w, e, _rows in annihilators), default=0)
    jets = zip(*_hasse_values(combination, [w for w, _e, _rows in annihilators], count, p))
    for jet, (w, _e, local) in zip(jets, annihilators):
        if any(sum(jet[k] * v for k, v in terms) % p for terms in local):
            raise ConsistencyError(f"kernel certificate failed: the basis leaves K_w at weight {w}")
    basis = (BiPoly(problem.p, {(delta - j, j): v for j, v in enumerate(vec) if v}) for vec in vectors)
    return HomSpace(problem, tuple(basis))


def ma_space(p: PrimeModulus, a: int) -> HomSpace:
    """The level-a kernel space at the half-flag divisor.

    f = r^(a-1) * prod over w = 0 .. (p-1)/2 of (x - w*t), with degree
    delta(a) and twist h(a).  Requiring the full r^a instead cuts the
    space down to the linear span of the family elements; the half-flag
    space is the one whose dimension (p - 1) the rank reports use.  A
    dimension outside the proven window (p+1)/2 .. p - 1 raises
    ConsistencyError, as in `bounds.rank_report`.  Each call builds the
    level: a caller that reuses it holds the `HomSpace`.
    """
    space = hom_space(_ma_problem(p, a))
    _check_ma_dim(p.p, space.dim)
    return space


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


def contains(space: HomSpace, m: BiPoly) -> bool:
    """Membership test: does f divide P(m) - h*m?

    Reduces m's coordinates on the domain basis by the reduced echelon
    basis: at each basis vector's pivot, its highest x-power, subtract
    that multiple of it.  m is a member exactly when nothing is left.
    No basis vector touches another's pivot, so each multiple is read
    off m's own coordinates.
    """
    problem = space.problem
    vec = problem.coordinates(m)
    top = problem.x_bound()
    for b in space.basis:
        c = vec[top - b.x_degree()]
        if c:
            for _i, j, v in b.iterterms():
                vec[top - j] -= c * v
    p = problem.p.p
    return not any(v % p for v in vec)


def mul_r_shift(p: PrimeModulus, a: int, b: int, m: BiPoly) -> BiPoly:
    """Map a level-a kernel element to level b >= a via m * r^(b-a).

    Builds levels a and b (one level when b == a) to check m and its image."""
    if not 2 <= a <= p.p - 1:
        raise ValueError(f"a must satisfy 2 <= a <= p-1, got {a}")
    if b < a:
        raise ValueError(f"b must be at least a, got {b} < {a}")
    lower = ma_space(p, a)
    if not contains(lower, m):
        raise ValueError("m is not in the level-a kernel space")
    return _times_r(lower if b == a else ma_space(p, b), a, b, m)


def _times_r(upper: HomSpace, a: int, b: int, m: BiPoly) -> BiPoly:
    """m * r^(b-a) for m in level a, checked to lie in `upper`, level b."""
    out = m * r_poly(upper.problem.p) ** (b - a)
    if not contains(upper, out):
        raise ConsistencyError(
            f"r-multiple of a level-{a} kernel element fell outside level {b}"
        )
    return out


def div_r_shift(p: PrimeModulus, a: int, m: BiPoly) -> BiPoly:
    """Map a level-a kernel element (a >= 3) down to level a-1 via m / r.

    Builds levels a and a - 1 to check m and its quotient."""
    if not 3 <= a <= p.p:
        raise ValueError(f"a must satisfy 3 <= a <= p, got {a}")
    if not contains(ma_space(p, a), m):
        raise ValueError("m is not in the level-a kernel space")
    return _over_r(ma_space(p, a - 1), a, m)


def _over_r(lower: HomSpace, a: int, m: BiPoly) -> BiPoly:
    """m / r for m in level a, checked to be exact and to lie in `lower`, level a - 1."""
    quotient, rem = m.divmod_x(r_poly(lower.problem.p))
    if not rem.is_zero():
        raise ConsistencyError(f"level-{a} kernel element is not divisible by r")
    if not contains(lower, quotient):
        raise ConsistencyError(
            f"quotient by r of a level-{a} kernel element fell outside level {a - 1}"
        )
    return quotient


@lru_cache(maxsize=1)
def _linear_powers(p: PrimeModulus) -> tuple[BiPoly, ...]:
    """(x - k t)^(p-1) for k = 0 .. p - 1: the one table of powers the identities read."""
    return tuple(BiPoly(p, {(0, 1): 1, (1, 0): -k}) ** (p.p - 1) for k in range(p.p))


@lru_cache(maxsize=1)
def _k_product(p: PrimeModulus) -> tuple[BiPoly, ...]:
    """prod_k (K + (x - k t)^(p-1)) as its coefficients of K^0, ..., K^p."""
    out, zero = [BiPoly.one(p)], BiPoly.zero(p)
    for power in _linear_powers(p):
        out = [a * power + b for a, b in zip(out + [zero], [zero] + out)]
    return tuple(out)


def verify_qr_identity(p: PrimeModulus) -> bool:
    """Check Q(r) == r^(p-1) + (1 + t^(p-1))^(p-1), where Q(r) = P(r) / r =
    prod_k (1 + (x - k t)^(p-1)) is the sum of the K-lemma's coefficients."""
    return sum(_k_product(p), BiPoly.zero(p)) == r_poly(p) ** (p.p - 1) + one_plus_tau(p, p.p - 1)


def verify_substitution_identity(p: PrimeModulus) -> bool:
    """Check (x - k*t) (x - k*t)^(p-1) - t^(p-1)(x - k*t) == x^p - t^(p-1)x for all k."""
    r, tau_pow = r_poly(p), BiPoly.monomial(p, p.p - 1, 0)
    linears = (BiPoly(p, {(0, 1): 1, (1, 0): -k}) for k in range(p.p))
    return all(lin * power - tau_pow * lin == r for lin, power in zip(linears, _linear_powers(p)))


def verify_k_lemma(p: PrimeModulus) -> bool:
    """Check prod_k (K + (x - k*t)^(p-1)) == r^(p-1) + K (K + t^(p-1))^(p-1).

    Both sides are lists of coefficients of K^0, ..., K^p, the left one `_k_product`'s.
    On the right, K^n for n >= 1 has C(p-1, p-n) t^((p-1)(p-n)).
    """
    pp = p.p
    rhs = [r_poly(p) ** (pp - 1)] + [
        BiPoly.monomial(p, (pp - 1) * (pp - n), 0, binom_mod(pp - 1, pp - n, pp))
        for n in range(1, pp + 1)
    ]
    return list(_k_product(p)) == rhs


def _verify_checks(p: PrimeModulus, suite: str) -> list[dict]:
    """The checks of one `verify` suite, in order: each a dict of `name`,
    `ok` and, for the family rank and the shift dimensions, `detail`."""
    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str | None = None):
        entry: dict = {"name": name, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    if suite in ("family", "shift", "all"):
        lower = ma_space(p, 2)  # the family suite's level and the shift walk's first
    if suite in ("family", "all"):
        count = (p.p + 1) // 2
        vectors = []
        for k in range(count):
            elem = family_element(p, k)
            add(f"family_member_k{k}", contains(lower, elem))
            vectors.append(lower.problem.coordinates(elem))
        rank = len(rref(vectors, lower.problem.x_bound() + 1, p.p))
        add("family_independence", rank == count, f"rank {rank} of {count} vectors")
    if suite in ("qr", "all"):
        add("qr_identity", verify_qr_identity(p))
    if suite in ("subst", "all"):
        add("substitution_identity", verify_substitution_identity(p))
    if suite in ("klemma", "all"):
        add("k_polynomial_identity", verify_k_lemma(p))
    if suite in ("shift", "all"):
        # one pass holding levels a and a + 1 only, each built once; the
        # checks are reported dimensions first
        dims = {2: lower.dim}
        trips = []
        for a in range(2, p.p):
            upper = ma_space(p, a + 1)
            dims[a + 1] = upper.dim
            try:
                # each basis vector m of level a has m r in level a + 1, and
                # each basis vector n of level a + 1 has n / r in level a
                for m in lower.basis:
                    _times_r(upper, a, a + 1, m)
                for n in upper.basis:
                    _over_r(lower, a + 1, n)
                trips.append((f"shift_roundtrip_a{a}", True))
            except ConsistencyError as exc:
                trips.append((f"shift_roundtrip_a{a}", False, str(exc)))
            lower = upper
        for a in range(3, p.p + 1):
            add(f"shift_dim_a{a}", dims[a] == dims[2], f"dim {dims[a]} vs {dims[2]}")
        for trip in trips:
            add(*trip)
    return checks
