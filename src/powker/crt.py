"""The kernel of a `HomProblem` at the weights: the local kernels, the
certified basis and the dimension count by CRT.

The problem, its map m -> (P(m) - h*m) mod f and the domain basis are
stated in the `homspace` module docstring.  The divisor splits over F_p,
f = prod_w (x - w t)^(e_w), and the problem carries the weights, each w
with its multiplicity e_w; f is multiplied out only for output.  The
factors are pairwise coprime, so f divides F = P(m) - h*m exactly when
each (x - w t)^(e_w) does, and the map is never built as a matrix.
Instead, at each weight:

* Put y = x - w t.  Since w^p = w, P(y) = y + y^p, and P(t) = t (1 + tau)
  with tau = t^(p-1).  Write m in the Taylor-shifted coordinates
  c^w_k = sum_j C(j, k) w^(j-k) c_j, so m = sum_k c^w_k t^(delta-k) y^k
  (c^0 = c, the coordinates on the domain basis).  Row k of
  `_taylor_rows` holds c^w_k as a functional of the c_j.  The jet of m
  at w is (c^w_0, c^w_1, ...); at t = 1, c^w_k = D^k m(w), the k-th Hasse
  derivative.
* y^(e_w) divides F exactly when, for every n < e_w, the coefficient of
  y^n vanishes; divided by t^(delta-n) that is the identity in t

      sum over s >= 0, k = n - s(p-1) with 0 <= k <= x_bound of
          C(k, s) c^w_k tau^s (1 + tau)^(delta-k)  ==  c^w_n h(t)

  (c^w_n = 0 for n > x_bound).  Each identity holds coefficient by
  coefficient in t, and (1 + tau)^N is `steenrod.binomial_terms(N, p)`.
* The identity for n involves only the c^w_k with k = n mod p - 1 and
  k <= n.  Its one new unknown is c^w_n (for n <= x_bound), whose
  coefficient, the diagonal, is (1 + tau)^(delta-n) - h.  (1 + tau)^N has
  t-degree (p-1) N, so the diagonal vanishes for at most one n, n0,
  found by one comparison with h (`_vanishing_identity`).
* The local kernel K_w, as jets on c^w_0 .. c^w_(E-1), E = min(e_w,
  x_bound + 1), is then known in closed form.  Every unknown below n0,
  and every unknown outside n0's residue class (every unknown, if there
  is no n0), is pinned to 0 by its nonzero diagonal.  Identity n0 frees
  c^w_n0.  In n0's class, with the unknowns between 0 by induction,
  identity n = n0 + s(p-1) reads

      C(n0, s) c^w_n0 tau^s h + B_n c^w_n  ==  0,

  h = (1 + tau)^(delta-n0), B_n = (1 + tau)^(delta-n) - h (no B_n term
  past x_bound).  The first term has tau-degree delta - n0 + s, and B_n
  has tau-degree delta - n0.  So if C(n0, s) is nonzero mod p, then
  c^w_n0 = 0; otherwise c^w_n = 0.  Hence K_w is the line of the unit
  jet at n0 when n0 < e_w and C(n0, s) = 0 mod p for 1 <= s <= (e_w - 1
  - n0) / (p - 1), and {0} otherwise.  By Lucas' theorem the least s >= 1
  with C(n0, s) nonzero is p^v, v = v_p(n0), so the line is free exactly
  when n0 < e_w and either n0 = 0 or e_w <= n0 + (p - 1) p^v.

K_w depends on w only through e_w, so `_local_kernels` decides each
multiplicity once, into the level's local table: each weight's e_w, and
per multiplicity e a basis of K, the unit jet at n0 or none.  The basis
and the count below read that one table.  Since c^w_k = D^k m(w) at
t = 1, every kernel is {m of x-degree <= x_bound : D^k m(1, x) vanishes
at x = w for each weight w and each k < E_w, except k = n0 where K_w is
the line}: a Birkhoff interpolation problem.  On every level and flag
step, n0 = a - 2 (if a - 2 <= x_bound, since delta - epsilon = a - 2)
and e_w <= a, so the line is free wherever e_w > a - 2.

The count.  `kernel_dim` counts the dimension with no basis.  Put G(x) =
f(1, x), of degree d, and c = d - 1 - x_bound.  Each m of degree < d is
its jets J_w at the weights, and m / G is the sum of S_w(y) / y^e_w,
y = x - w, S_w = J_w / G_w(w + y) mod y^e_w, G_w = G / (x - w)^e_w.  The
kernel takes each J_w in K_w, and m / G vanishing to order c + 1 at
infinity (the cut: c conditions on the top c coefficients of the S_w)
keeps deg m <= x_bound.  So the kernel is the cut's kernel in the sum of
the K_w, and D0 - c <= dim <= D0, D0 the sum of dim K_w.  S_w(y) / y^e_w
is sum_i lam_i x^-(i+1), lam_i = sum_k C(i, k) w^(i-k) S_w[e_w - 1 - k]:
a sum of Taylor rows again.  Each lift gives one cut row (lam_0, ...,
lam_(c-1)), and dim = D0 - rank(cut); on `ma_space` levels c = 1, and
the cut reads S_w[e_w - 1].  Two known m check the count: the jets of
m = 1 (1 at every weight) and of m = x^p - x (y^p - y at every weight,
since w^p = w) take the same steps as the local solutions, and each
one's rows sum over the weights to the first c coefficients of m / G at
infinity.  Those are zero when deg m <= x_bound = d - 1 - c, so for m = 1
always (the first is the sum of the residues) and for x^p - x when p <=
x_bound; a nonzero sum raises ConsistencyError.  m = 1 alone misses
faults that leave its lift alone: 1 / (y^2 - 1)^2 is even in y.

With b the least multiplicity over F_p, G = (x^p - x)^b G' and x^p - x =
y^p - y, so G_w(w + y) = (y^(p-1) - 1)^b T_w, T_w = G'(w + y) /
y^(e_w - b).  The Taylor coefficients of G' at w are its Hasse
derivatives D^k G'(w), which `_hasse_values` evaluates at all the
weights at once, one packed sum per k (multipoint evaluation).  Of
1 / G_w, the factor 1 / (y^(p-1) - 1)^b is the same at every weight and
goes into each local solution once per level; 1 / T_w comes by
recurrence on the deg G' - e_w + b + 1 terms of T_w.

The basis.  `_level_rows` stacks, at each weight, the Taylor rows of its
constrained orders, k < E_w but for n0 where K_w is the line: at most
deg_x f rows in all.  `_level_basis` makes one elimination per level:
the packed `rref` reduces the stacked rows, whose column j holds c_j,
the lowest x-power first.  The RREF is unique and has the rows' kernel,
so the result does not depend on how the rows were derived.
`nullspace_rows` of it gives, for each free column f, the vector with 1
at f, 0 at the other free columns and its other entries at pivot columns
below f: f is its highest x-power.  Read in reverse, these vectors are
the reduced echelon basis in the domain order, with no second
elimination.  The basis is certified: dim + rank == ncols, every stacked
row vanishes on every basis vector, and D0 - c <= dim <= D0.  The first
two see the basis through the stacked rows, so a fourth does not: one
combination m of the basis, every coefficient nonzero, has its jets
evaluated at all the weights by `_hasse_values`, and at each weight they
must vanish at the constrained orders.

`_ma_problem` is the level-a problem at the half-flag divisor, and
`_check_ma_dim` the proven window of its dimension: the count needs
only this module, and `homspace` imports both from it.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from operator import mul

from ._pykernel import annihilates, nullspace_rows, pack, rref, slot_width, unpack
from .errors import ConsistencyError, _integer
from .ffpoly import BiPoly, Frozen, PrimeModulus, binom_mod
from .reps import Representation, _linear_product, f_of, filtration_rep
from .steenrod import binomial_terms, h_poly, parameters

__all__ = ["HomProblem", "kernel_dim"]


class HomProblem(Frozen):
    """Input data for one kernel computation: the divisor is f(rep), the
    product of x - w t over the weights w of `rep`, repeats included."""

    __slots__ = ("p", "rep", "delta", "h")

    def __init__(self, p: PrimeModulus, rep: Representation, delta: int, h: BiPoly):
        if not isinstance(rep, Representation):
            raise TypeError("the divisor is given by a Representation")
        if rep.modulus != p or h.modulus != p:
            raise ValueError("modulus mismatch")
        if h.x_degree() > 0:
            raise ValueError("h must be a polynomial in t alone")
        if not h.coefficient(0, 0):
            raise ValueError("h must have nonzero constant term")
        self._set(p, rep, _integer("delta", delta, 0), h)

    @property
    def f(self) -> BiPoly:
        """The divisor f(rep), multiplied out."""
        return f_of(self.rep)

    def x_bound(self) -> int:
        """Largest x-exponent in the domain basis, min(delta, deg_x f - 1)."""
        return min(self.delta, self.rep.dim - 1)

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


def _ma_problem(p: PrimeModulus, a: int) -> HomProblem:
    rep = filtration_rep(p, a, (p.p + 1) // 2)
    return HomProblem(p, rep, parameters(p, a).delta, h_poly(p, a))


def _check_ma_dim(p: int, dim: int) -> None:
    """Raise ConsistencyError unless dim, the dimension of a level-a
    problem `_ma_problem`, lies in the proven window (p+1)/2 <= dim <= p - 1,
    that is ext11 = p - dim in [1, (p-1)/2]."""
    if dim < (p + 1) // 2:
        raise ConsistencyError(
            f"kernel dimension {dim} is below the proven lower bound {(p + 1) // 2}"
        )
    if dim > p - 1:
        raise ConsistencyError(
            f"ext11 = {p - dim} violates the proven window 1 <= rank <= {(p + 1) // 2}"
        )


def _vanishing_identity(problem: HomProblem) -> int | None:
    """n0, the one n <= x_bound whose diagonal (1 + tau)^(delta-n) - h vanishes, if any.

    (1 + tau)^N has t-degree (p - 1) N, so h can equal it for one N only.
    """
    p = problem.p.p
    twist = {g: c for g, _j, c in problem.h.iterterms()}
    power, rest = divmod(max(twist), p - 1)
    n = problem.delta - power
    if rest or not 0 <= n <= problem.x_bound():
        return None
    return n if twist == {i * (p - 1): c for i, c in binomial_terms(power, p)} else None


def _local_kernels(problem: HomProblem) -> tuple[Counter, dict[int, list[list[int]]]]:
    """The level's local table (mult, kernels): mult maps each weight w,
    ascending, to e_w, and kernels each multiplicity e to a basis of K, as
    jets on c^w_0 .. c^w_(E-1), E = min(e, x_bound + 1): the unit jet at n0
    if the line is free (see the module docstring), else none."""
    p = problem.p.p
    n0 = _vanishing_identity(problem)
    mult = Counter(problem.rep.weights)  # ascending w: the weights are sorted
    length = problem.x_bound() + 1
    kernels = {}
    for e in dict.fromkeys(mult.values()):
        # identity n0 + s (p - 1) < e cuts the line if C(n0, s) is nonzero mod p
        free = n0 is not None and n0 < e
        free = free and not any(binom_mod(n0, s, p) for s in range(1, (e - 1 - n0) // (p - 1) + 1))
        kernels[e] = [[int(k == n0) for k in range(min(e, length))]] if free else []
    return mult, kernels


def _hasse_values(coeffs: list[int], weights: list[int], count: int, p: int) -> list[list[int]]:
    """[D^k G(w) for w in weights] for k < count, where G = sum_j coeffs[j] x^j
    and D^k G(w) = sum_j C(j, k) coeffs[j] w^(j - k): one packed sum per k
    over the rows that pack w^i across the weights (multipoint evaluation).
    Since w^p = w, x^i is folded onto x^(i - (p - 1)) for i >= p, so there
    are at most p such rows."""
    n = len(coeffs)
    width = slot_width(n * (p - 1) ** 2 + 1)  # a slot sums n products of two residues
    powers, row = [], [1] * len(weights)
    for _ in range(min(n, p)):
        powers.append(pack(row, width))
        row = [v * w % p for v, w in zip(row, weights)]
    values, pascal = [], [1] * n  # pascal[i] = C(k + i, k)
    for k in range(min(count, n)):
        scalars = [c * g % p for c, g in zip(pascal, coeffs[k:])]
        if len(scalars) > p:  # D^k G mod x^p - x, the first p terms
            scalars[1:p] = [sum(scalars[i :: p - 1]) for i in range(1, p)]
        values.append(unpack(sum(map(mul, scalars, powers)), len(weights), width, p))
        pascal = [c % p for c in accumulate(pascal[: n - k - 1])]  # C(k + 1 + i, k + 1)
    return values + [[0] * len(weights)] * (count - n)  # D^k G = 0 above deg G


def _taylor_rows(w: int, count: int, length: int, p: int) -> list[list[int]]:
    """[[C(j, k) w^(j - k) for j < length] for k < count], 1 <= count <= length:
    row k holds the coefficient of c_j in the Taylor coordinate c^w_k, by
    C(j, k) w^(j-k) = w C(j-1, k) w^(j-1-k) + C(j-1, k-1) w^(j-k)."""
    rows = [list(accumulate(range(length - 1), lambda acc, _: w * acc % p, initial=1))]
    for k in range(1, count):
        prev = rows[-1][k - 1 : length - 1]
        rows.append([0] * k + list(accumulate(prev, lambda acc, v: (w * acc + v) % p)))
    return rows


def kernel_dim(problem: HomProblem) -> int:
    """The dimension of `hom_space(problem)`, counted by CRT without a basis:
    D0 less the rank of the cut (see the module docstring).  Each step is
    certified; a failed check raises ConsistencyError.
    """
    p = problem.p.p
    q = p - 1
    d = problem.rep.dim
    c = d - 1 - problem.x_bound()
    mult, kernels = _local_kernels(problem)
    if not c:  # every sum of lifts has degree <= x_bound: D0
        return sum(len(kernels[e]) for e in mult.values())
    b = min(mult.values()) if len(mult) == p else 0  # the least multiplicity over F_p
    # G' = G / (x^p - x)^b, lowest power first
    g_prime = _linear_product([u for u, e in mult.items() for _ in range(e - b)], p)[::-1]
    top_e = max(mult.values())
    width = slot_width(top_e * q * q + 1)
    # a slot of a cut row sums min(c, e) products; of a residue sum, that over the weights
    row_width = slot_width(len(mult) * min(c, top_e) * q * q + 1)

    def times(f, g, e):  # f g mod y^e, len(g) >= e, f cut or zero-padded to e: plain below 8, else packed
        if e < 8:
            return [sum(map(mul, f, g[n::-1])) % p for n in range(e)]
        product = pack(f[:e], width) * pack(g[:e], width) & ((1 << 8 * width * e) - 1)
        return unpack(product, e, width, p)

    # (y^q - 1)^b and its inverse (-1)^b sum_j C(b - 1 + j, j) y^(jq), the same at every weight
    sparse, sparse_inv = [0] * top_e, [0] * top_e
    steps = range(len(sparse[::q]))
    sparse[::q] = [(-1) ** (b + j) * binom_mod(b, j, p) % p for j in steps]
    sparse_inv[::q] = [(-1) ** b * (binom_mod(b - 1 + j, j, p) if j else 1) % p for j in steps]
    if times(sparse, sparse_inv, top_e) != [1] + [0] * (top_e - 1):
        raise ConsistencyError(f"count certificate failed: the series inverse of (y^{q} - 1)^{b}")
    # per weight, ascending: D^k G'(w) for k < 2 top_e - b, the coefficients of G'(w + y)
    taylor = zip(*_hasse_values(g_prime, list(mult), 2 * top_e - b, p))
    # e -> J / (y^q - 1)^b mod y^e for the jets of m = 1 and m = x^p - x = y^p - y, then K's
    ypy = [q if n == 1 else int(n == p) for n in range(top_e)]  # `times` cuts and pads the jets to e
    lifts = {e: [times(jet, sparse_inv, e) for jet in ([1], ypy, *local)] for e, local in kernels.items()}
    # the first c coefficients at infinity of the partial fractions: packed
    # and summed over the weights for m = 1 and x^p - x, one cut row per lift
    unit, xpx, cut = 0, 0, []
    for t, (w, e) in zip(taylor, mult.items()):
        if any(t[: e - b]) or not t[e - b]:
            raise ConsistencyError(f"count certificate failed: G' order at {w} is not {e - b}")
        # 1 / T_w mod y^e, T_w = t[e - b:], by the recurrence on its terms up to deg G'
        tail = t[e - b + 1 : len(g_prime)]
        inv = [pow(t[e - b], p - 2, p)]
        for _ in range(1, e):
            inv.append(-inv[0] * sum(map(mul, tail, reversed(inv))) % p)
        if times(t[e - b :], inv, e) != [1] + [0] * (e - 1):
            raise ConsistencyError(f"count certificate failed: the series inverse at weight {w}")
        # S = J / G_w(w + y) mod y^e has S(y) / y^e = sum_i lam_i x^-(i + 1), y = x - w, where
        # lam_i = sum_k C(i, k) w^(i - k) S[e - 1 - k], k < min(c, e): a sum of Taylor rows
        taylor_rows = [pack(row, row_width) for row in _taylor_rows(w, min(c, e), c, p)]
        # S[e - 1 - k] = lift . revs[k] for k < min(c, e); the rest are 0
        revs = [inv[n::-1] for n in range(e - 1, max(e - c, 0) - 1, -1)]
        unit_row, xpx_row, *rows = (
            sum(map(mul, [sum(map(mul, lift, rev)) % p for rev in revs], taylor_rows)) for lift in lifts[e]
        )
        unit += unit_row
        xpx += xpx_row
        cut += [unpack(row, c, row_width, p) for row in rows]
    # m lifts to m / G, which vanishes to order d - deg m > c at infinity when deg m <= x_bound
    if any(unpack(unit, c, row_width, p)):
        raise ConsistencyError("count certificate failed: the residues of 1 / G do not sum to 0")
    if p <= problem.x_bound() and any(unpack(xpx, c, row_width, p)):
        raise ConsistencyError("count certificate failed: the residues of (x^p - x) / G are not 0")
    return len(cut) - len(rref(cut, c, p))


def _level_rows(problem: HomProblem) -> tuple[list[list[int]], int, dict[int, int], dict]:
    """Rows over the domain basis, lowest x-power first (column j holds c_j),
    whose common kernel is the kernel of the level map; D0, the sum of the
    local kernels' dimensions over the weights; the local table's w -> e_w;
    and e -> the constrained orders k, those with c^w_k = 0 on K.

    The rows are the Taylor rows of the constrained orders at each weight:
    at most min(e_w, x_bound + 1) per weight, so at most deg_x f in all.
    """
    p = problem.p.p
    length = problem.x_bound() + 1
    mult, kernels = _local_kernels(problem)
    local = {
        e: [k for k in range(min(e, length)) if not any(jet[k] for jet in jets)] for e, jets in kernels.items()
    }
    rows = []
    for w, e in mult.items():
        taylor = _taylor_rows(w, min(e, length), length, p)  # c^w_k in the c_j, k < min(e, length)
        rows += [taylor[k] for k in local[e]]
    return rows, sum(len(kernels[e]) for e in mult.values()), mult, local


def _level_basis(problem: HomProblem) -> list[list[int]]:
    """The level's reduced echelon kernel basis in the domain order, each
    vector on the columns c_0 .. c_x_bound (lowest x-power first): the free
    columns of one `rref` of `_level_rows`, read in reverse, and certified
    (see the module docstring).  A failed check raises ConsistencyError.
    """
    p = problem.p.p
    ncols = problem.x_bound() + 1
    rows, d0, mult, local = _level_rows(problem)
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
    jets = zip(*_hasse_values(combination, list(mult), max(mult.values(), default=0), p))
    for jet, (w, e) in zip(jets, mult.items()):
        if any(jet[k] for k in local[e]):
            raise ConsistencyError(f"kernel certificate failed: the basis leaves K_w at weight {w}")
    return vectors
