"""Weight lists of cyclic-group representations and their split polynomials.

A representation is a multiset of weights mod p; the associated split
polynomial f(V) is the product of x - w*t over the weights, so f of a
direct sum is the product of the factors.  The regular representation
uses every residue once and gives r = x^p - t^(p-1) x.  The flag
filtration at level a and step k uses a - 1 copies of the regular
representation plus the first k weights 0, ..., k-1.  A kernel problem
takes the representation itself, so the weights are the divisor's only
encoding; f(V) is multiplied out only for output.
"""

from __future__ import annotations

from .ffpoly import BiPoly, Frozen, PrimeModulus

__all__ = [
    "Representation",
    "f_of",
    "r_poly",
    "filtration_rep",
]


class Representation(Frozen):
    """A finite multiset of integer weights mod p, stored sorted ascending."""

    __slots__ = ("modulus", "weights")

    def __init__(self, modulus: PrimeModulus, weights: tuple[int, ...]):
        types = set(map(type, weights))
        if bool in types or not all(issubclass(t, int) for t in types):
            raise ValueError("weights must be integers")
        self._set(modulus, tuple(sorted(map(modulus.p.__rmod__, weights))))

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


def _linear_product(weights, p: int) -> list[int]:
    """The coefficients of prod_w (x - w) over F_p, highest power first:
    entry j is the scalar of t^j x^(n-j) in the homogeneous prod_w (x - w*t)."""
    coeffs = [1]
    for w in weights:
        coeffs = [(a - w * b) % p for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def f_of(v: Representation) -> BiPoly:
    """The split polynomial prod_w (x - w*t), monic in x of degree dim."""
    coeffs = _linear_product(v.weights, v.modulus.p)
    n = len(coeffs) - 1
    return BiPoly(v.modulus, {(j, n - j): c for j, c in enumerate(coeffs)})


def r_poly(p: PrimeModulus) -> BiPoly:
    """x^p - t^(p-1) x, the split polynomial of the regular representation."""
    pp = p.p
    return BiPoly(p, {(0, pp): 1, (pp - 1, 1): -1})


def filtration_rep(p: PrimeModulus, a: int, k: int) -> Representation:
    """a - 1 copies of the regular representation plus weights 0 .. k-1."""
    if not isinstance(a, int) or isinstance(a, bool) or a < 2:
        raise ValueError(f"a must be an integer >= 2, got {a}")
    if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= p.p:
        raise ValueError(f"k must satisfy 0 <= k <= p, got {k}")
    weights = tuple(range(p.p)) * (a - 1) + tuple(range(k))
    return Representation(p, weights)
