"""Weight lists of cyclic-group representations and their split polynomials.

A representation is a multiset of weights mod p; the associated split
polynomial f(V) is the product of x - w*t over the weights, so f of a
direct sum is the product of the factors.  The regular representation
uses every residue once and gives r = x^p - t^(p-1) x.  The flag
filtration at level a and step k uses a - 1 copies of the regular
representation plus the first k weights 0, ..., k-1.  `linear_factors`
goes back from a homogeneous f, monic in x, to its weights and their
multiplicities, or rejects an f that does not split over F_p.
"""

from __future__ import annotations

from .ffpoly import BiPoly, FpScalar, Frozen, PrimeModulus

__all__ = [
    "Representation",
    "f_of",
    "r_poly",
    "chern_classes",
    "filtration_rep",
    "linear_factors",
]


class Representation(Frozen):
    """A finite multiset of weights mod p, stored sorted ascending."""

    __slots__ = ("modulus", "weights")

    def __init__(self, modulus: PrimeModulus, weights: tuple[int, ...]):
        p = modulus.p
        self._set(modulus, tuple(sorted(w % p for w in weights)))

    @classmethod
    def regular(cls, modulus: PrimeModulus) -> "Representation":
        return cls(modulus, tuple(range(modulus.p)))

    @property
    def dim(self) -> int:
        return len(self.weights)

    def __add__(self, other):
        if not isinstance(other, Representation):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        return Representation(self.modulus, self.weights + other.weights)

    def to_json(self) -> dict:
        return {"p": self.modulus.p, "weights": list(self.weights)}

    @classmethod
    def from_json(cls, data: dict) -> "Representation":
        return cls(PrimeModulus(data["p"]), tuple(data["weights"]))


def f_of(v: Representation) -> BiPoly:
    """The split polynomial prod_w (x - w*t), monic in x of degree dim."""
    p = v.modulus.p
    # coeffs[j] is the scalar of t^j x^(n-j) in the product of the first n factors
    coeffs = [1]
    for w in v.weights:
        coeffs = [(a - w * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]
    n = len(coeffs) - 1
    return BiPoly(v.modulus, {(j, n - j): c for j, c in enumerate(coeffs)})


def r_poly(p: PrimeModulus) -> BiPoly:
    """x^p - t^(p-1) x, the split polynomial of the regular representation."""
    pp = p.p
    return BiPoly(p, {(0, pp): 1, (pp - 1, 1): -1})


def chern_classes(v: Representation) -> tuple[FpScalar, ...]:
    """Elementary symmetric functions e_0, ..., e_n of the weights mod p.

    f_of(v) has (-1)^j e_j as its coefficient of t^j x^(n-j).
    """
    f, n = f_of(v), v.dim
    return tuple((-1) ** j * f.coefficient(j, n - j) for j in range(n + 1))


def filtration_rep(p: PrimeModulus, a: int, k: int) -> Representation:
    """a - 1 copies of the regular representation plus weights 0 .. k-1."""
    if not isinstance(a, int) or isinstance(a, bool) or a < 2:
        raise ValueError(f"a must be an integer >= 2, got {a}")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= p.p:
        raise ValueError(f"k must satisfy 0 <= k <= p, got {k}")
    weights = tuple(range(p.p)) * (a - 1) + tuple(range(k))
    return Representation(p, weights)


def linear_factors(f: BiPoly) -> tuple[tuple[int, int], ...]:
    """The weights of f with their multiplicities: (w, e_w) for each root w
    of f(1, x) in F_p, ascending, so that f = f_of(V) for the weights V.

    Each candidate w is tried by synthetic division as often as it
    divides.  For p <= deg_x f the candidates are all of F_p, which costs
    no more than those divisions.  For larger p they are the roots of
    g = gcd(f(1, x), x^p - x), with x^p taken mod f(1, x) by repeated
    squaring, and g is split by gcds with (x + c)^((p-1)/2) - 1 for
    c = 0, 1, 2, ... in turn; so the cost grows with log p, not with p.
    f is homogeneous and monic in x, so f = prod (x - w t)^e_w exactly
    when these multiplicities add up to deg_x f; otherwise ValueError.
    """
    p = f.modulus.p
    coeffs = [0] * (f.x_degree() + 1)  # f(1, x), highest power first
    for _i, j, c in f.iterterms():
        coeffs[-1 - j] = c
    if p < len(coeffs):
        candidates = range(p)
    else:
        g = BiPoly(f.modulus, {(0, j): c for _i, j, c in f.iterterms()})  # f(1, x)
        x = BiPoly.x(f.modulus)
        candidates = _split(_gcd(g, _pow_mod(x, p, g) - x))
    roots = []
    for w in candidates:
        if len(coeffs) == 1:
            break
        e = 0
        while not w and not coeffs[-1]:  # division by x drops a zero constant term
            coeffs.pop()
            e += 1
        while w and len(coeffs) > 1:
            acc, quotient = 0, []
            for c in coeffs:
                acc = (acc * w + c) % p
                quotient.append(acc)
            if quotient.pop():
                break
            coeffs, e = quotient, e + 1
        if e:
            roots.append((w, e))
    if len(coeffs) > 1:
        raise ValueError("f must split into linear factors x - w*t over F_p")
    return tuple(roots)


# Root finding works on polynomials in x alone, as BiPolys with no t.


def _monic(a: BiPoly) -> BiPoly:
    return a * BiPoly.const(a.modulus, a.coefficient(0, a.x_degree()).inverse().value)


def _pow_mod(base: BiPoly, n: int, m: BiPoly) -> BiPoly:
    """base^n mod m (monic), by repeated squaring from the top bit of n."""
    out = BiPoly.one(m.modulus)
    for bit in bin(n)[2:]:
        out = (out * out).divmod_x(m)[1]
        if bit == "1":
            out = (out * base).divmod_x(m)[1]
    return out


def _gcd(a: BiPoly, b: BiPoly) -> BiPoly:
    """The monic gcd of a and b, not both zero."""
    while not b.is_zero():
        b = _monic(b)
        a, b = b, a.divmod_x(b)[1]
    return _monic(a)


def _split(g: BiPoly) -> list[int]:
    """The roots, ascending, of a monic g that divides x^p - x."""
    mod = g.modulus
    roots, pending = [], [g]
    while pending:
        g = pending.pop()
        if g.x_degree() == 1:
            roots.append(-g.coefficient(0, 0).value % mod.p)
        elif g.x_degree() > 1:
            # (x + c)^((p-1)/2) is 1, -1 or 0 at each root w, as w + c is a
            # nonzero square, a non-square or 0; two roots differ at some c
            for c in range(mod.p):
                u = _pow_mod(BiPoly(mod, {(0, 1): 1, (0, 0): c}), (mod.p - 1) // 2, g)
                h = _gcd(g, u - BiPoly.one(mod))
                if 0 < h.x_degree() < g.x_degree():
                    pending += [h, g.divmod_x(h)[0]]
                    break
    return sorted(roots)
