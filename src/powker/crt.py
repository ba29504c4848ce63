"""Local kernels at the weights, and the kernel dimension counted by CRT.

`_local_kernels` solves the triangular local systems of the `homspace`
module docstring: at each weight w, the local kernel K_w on the Taylor
coordinates c^w_k, k < min(e_w, x_bound + 1), one residue class mod
p - 1 at a time.  `hom_space` maps their annihilators back to the
domain and eliminates.

`kernel_dim` counts the dimension with no basis.  Put G(x) = f(1, x), of
degree d, and c = d - 1 - x_bound.  Each m of degree < d is its jets J_w
at the weights, and m / G is the sum of S_w(y) / y^e_w, y = x - w,
S_w = J_w / G_w(w + y) mod y^e_w, G_w = G / (x - w)^e_w.  The kernel
takes each J_w in K_w, and m / G vanishing to order c + 1 at infinity
(the cut: c conditions on the top c coefficients of the S_w) keeps
deg m <= x_bound.  S_w(y) / y^e_w is sum_i lam_i x^-(i+1), lam_i = sum_k
C(i, k) w^(i-k) S_w[e_w - 1 - k]: a sum of the Taylor rows of
`_taylor_rows`, which `homspace` maps the local annihilators back with.
Each lift gives one cut row (lam_0, ..., lam_(c-1)), and dim = D0 -
rank(cut), D0 the sum of dim K_w; on `ma_space` levels c = 1, and the
cut reads S_w[e_w - 1].  The jet of m = 1 (1 at every weight) takes the
same steps as the local solutions, and its rows sum over the weights to
the first c coefficients of 1 / G = x^-d + ... at infinity: zero, since
c < d (the first is the sum of the residues), or ConsistencyError.

With b the least multiplicity over F_p, G = (x^p - x)^b G' and x^p - x =
y^p - y, so G_w(w + y) = (y^(p-1) - 1)^b T_w, T_w = G'(w + y) /
y^(e_w - b).  The Taylor coefficients of G' at w are its Hasse
derivatives D^k G'(w), which `_hasse_values` evaluates at all the
weights at once, one packed sum per k (multipoint evaluation).  Of
1 / G_w, the factor 1 / (y^(p-1) - 1)^b is the same at every weight and
goes into each local solution once per level; 1 / T_w comes by
recurrence on the deg G' - e_w + b + 1 terms of T_w.

The problem itself, `HomProblem`, lives here too, with `_ma_problem`,
the level-a problem at the half-flag divisor, and `_check_ma_dim`, the
proven window of its dimension: the dimension count needs only this
module, and `homspace` imports all three from it.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import accumulate
from operator import mul

from ._pykernel import nullspace_rows, pack, rref, slot_width, unpack
from .errors import ConsistencyError
from .ffpoly import BiPoly, Frozen, PrimeModulus, binom_mod
from .reps import Representation, _linear_product, f_of, filtration_rep
from .steenrod import binomial_terms, h_poly, one_plus_tau, parameters

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
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if h.x_degree() > 0:
            raise ValueError("h must be a polynomial in t alone")
        if not h.coefficient(0, 0):
            raise ValueError("h must have nonzero constant term")
        self._set(p, rep, delta, h)

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
    that is ext11 = p - dim in [1, (p+1)/2]."""
    if dim < (p + 1) // 2:
        raise ConsistencyError(
            f"kernel dimension {dim} is below the proven lower bound {(p + 1) // 2}"
        )
    if dim > p - 1:
        raise ConsistencyError(
            f"ext11 = {p - dim} violates the proven window 1 <= rank <= {(p + 1) // 2}"
        )


def _vanishing_identity(problem: HomProblem) -> int | None:
    """The one n <= x_bound whose diagonal (1 + tau)^(delta-n) - h vanishes, if any.

    (1 + tau)^N has t-degree (p - 1) N, so h can equal it for one N only.
    """
    power, rest = divmod(problem.h.t_degree(), problem.p.p - 1)
    n = problem.delta - power
    if rest or not 0 <= n <= problem.x_bound():
        return None
    return n if problem.h == one_plus_tau(problem.p, power) else None


def _local_kernels(problem: HomProblem):
    """Yield (w, e_w, kernels) for each weight w, ascending, where kernels[rho]
    is the local kernel of residue class rho.  A local system depends on w
    only through e_w, so each one is solved once per level.
    """
    twist = {g: c for g, _j, c in problem.h.iterterms()}
    vanishing = _vanishing_identity(problem)
    systems: dict[int, list[list[list[int]]]] = {}
    for w, e in Counter(problem.rep.weights).items():  # ascending w: the weights are sorted
        if e not in systems:
            rhos = range(min(e, problem.p.p - 1))
            systems[e] = [_local_system(problem, e, rho, twist, vanishing) for rho in rhos]
        yield w, e, systems[e]


def _local_system(problem, e, rho, twist, vanishing) -> list[list[int]]:
    """A basis of the solutions of the identities n = rho, rho + q, ... < e
    (q = p - 1) on the unknowns c^w_k, k = rho + idx * q <= min(e - 1,
    x_bound), tracked through the triangular identities (see the `homspace`
    module docstring); each step is certified, dim + rank == its width.
    """
    p = problem.p.p
    q = p - 1
    delta = problem.delta
    size = len(range(rho, min(e - 1, problem.x_bound()) + 1, q))
    kernel: list[list[int]] = []  # a basis of the solutions on the unknowns so far
    for idx, n in enumerate(range(rho, e, q)):
        if not kernel:
            if idx >= size:
                break
            if n == vanishing:
                kernel = [[0] * idx + [1]]
            continue
        # t-exponent -> coefficient, one column per kernel vector, then c^w_n's
        columns: list[defaultdict[int, int]] = []
        for vec in kernel:
            col: defaultdict[int, int] = defaultdict(int)
            for i, v in enumerate(vec):
                k, s = rho + i * q, idx - i
                ck = binom_mod(k, s, p) if v else 0
                if ck:
                    for g, c in binomial_terms(delta - k, p):
                        col[(s + g) * q] += v * ck * c
            columns.append(col)
        if idx < size:
            col = defaultdict(int)
            for g, c in binomial_terms(delta - n, p):
                col[g * q] += c
            for g, c in twist.items():
                col[g] -= c
            columns.append(col)
        width = len(columns)
        powers = set().union(*columns)
        matrix = [[col.get(g, 0) for col in columns] for g in powers]
        reduced = rref(matrix, width, p)
        kernel = [
            [sum(map(mul, sol, coords)) % p for coords in zip(*kernel)] + sol[len(kernel) :]
            for sol in nullspace_rows(reduced, width, p)
        ]
        if len(kernel) + len(reduced) != width:
            raise ConsistencyError(
                f"local certificate failed: dim {len(kernel)} + rank {len(reduced)} != {width}"
            )
    return kernel


def _hasse_values(coeffs: list[int], weights: list[int], count: int, p: int) -> list[list[int]]:
    """[D^k G(w) for w in weights] for k < count, where G = sum_j coeffs[j] x^j
    and D^k G(w) = sum_j C(j, k) coeffs[j] w^(j - k): one packed sum per k
    over the rows that pack w^i across the weights (multipoint evaluation)."""
    n = len(coeffs)
    width = slot_width(n * (p - 1) ** 2 + 1)  # a slot sums n products of two residues
    powers, row = [], [1] * len(weights)
    for _ in range(n):
        powers.append(pack(row, width))
        row = [v * w % p for v, w in zip(row, weights)]
    values, pascal = [], [1] * n  # pascal[i] = C(k + i, k)
    for k in range(min(count, n)):
        scalars = [c * g % p for c, g in zip(pascal, coeffs[k:])]
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


def _local_dim(problem: HomProblem) -> int:
    """D0: the sum of the local kernels' dimensions over the weights."""
    return sum(len(kernel) for _w, _e, kernels in _local_kernels(problem) for kernel in kernels)


def kernel_dim(problem: HomProblem) -> int:
    """The dimension of `hom_space(problem)`, counted by CRT without a basis:
    D0 less the rank of the cut (see the module docstring).  Each step is
    certified; a failed check raises ConsistencyError.
    """
    p = problem.p.p
    q = p - 1
    d = problem.rep.dim
    c = d - 1 - problem.x_bound()
    if not c:  # every sum of lifts has degree <= x_bound
        return _local_dim(problem)
    mult = Counter(problem.rep.weights)
    b = min(mult.values()) if len(mult) == p else 0  # the least multiplicity over F_p
    # G' = G / (x^p - x)^b, lowest power first
    g_prime = _linear_product([u for u, e in mult.items() for _ in range(e - b)], p)[::-1]
    if b * p + len(g_prime) - 1 != d:
        raise ConsistencyError(f"count certificate failed: {b} * {p} + deg G' != {d}")
    top_e = max(mult.values())
    width = slot_width(top_e * q * q + 1)
    # a slot of a cut row sums min(c, e) products; of the unit's sum, that over the weights
    row_width = slot_width(len(mult) * min(c, top_e) * q * q + 1)

    def times(f, g, e):  # f g mod y^e, len(g) >= e: plain sums below 8 terms, else packed ints
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
    lifts: dict[int, list[list[int]]] = {}  # e -> J / (y^q - 1)^b mod y^e, m = 1's jet first
    # the first c coefficients at infinity of the partial fractions: packed
    # and summed over the weights for m = 1, one cut row per lift
    unit, cut = 0, []
    for t, (w, e, kernels) in zip(taylor, _local_kernels(problem)):
        if any(t[: e - b]) or not t[e - b]:
            raise ConsistencyError(f"count certificate failed: G' order at {w} is not {e - b}")
        # 1 / T_w mod y^e, T_w = t[e - b:], by the recurrence on its terms up to deg G'
        tail = t[e - b + 1 : len(g_prime)]
        inv = [pow(t[e - b], p - 2, p)]
        for _ in range(1, e):
            inv.append(-inv[0] * sum(map(mul, tail, reversed(inv))) % p)
        if times(t[e - b :], inv, e) != [1] + [0] * (e - 1):
            raise ConsistencyError(f"count certificate failed: the series inverse at weight {w}")
        if e not in lifts:  # the unit jet, then J_k = vec[idx] at k = rho + idx * q
            jets = [[1] + [0] * (e - 1)]
            for rho, kernel in enumerate(kernels):
                for vec in kernel:
                    jet = [0] * e
                    jet[rho : rho + q * len(vec) : q] = vec
                    jets.append(jet)
            lifts[e] = [times(jet, sparse_inv, e) for jet in jets]
        # S = J / G_w(w + y) mod y^e has S(y) / y^e = sum_i lam_i x^-(i + 1), y = x - w, where
        # lam_i = sum_k C(i, k) w^(i - k) S[e - 1 - k], k < min(c, e): a sum of Taylor rows
        taylor_rows = [pack(row, row_width) for row in _taylor_rows(w, min(c, e), c, p)]
        # S[e - 1 - k] = lift . revs[k] for k < min(c, e); the rest are 0
        revs = [inv[n::-1] for n in range(e - 1, max(e - c, 0) - 1, -1)]
        unit_row, *rows = (
            sum(map(mul, [sum(map(mul, lift, rev)) % p for rev in revs], taylor_rows)) for lift in lifts[e]
        )
        unit += unit_row
        cut += [unpack(row, c, row_width, p) for row in rows]
    # m = 1 lifts to 1 / G, which vanishes to order d > c at infinity
    if any(unpack(unit, c, row_width, p)):
        raise ConsistencyError("count certificate failed: the residues of 1 / G do not sum to 0")
    return len(cut) - len(rref(cut, c, p))
