"""The total power operation on F_p[t, x] and the level data built from it.

The total power operation P is the ring endomorphism determined by
t -> t + t^p and x -> x + x^p.  On a monomial it expands through the
binomial theorem,

    P(t^i * x^j) = sum_{s<=i, t<=j} C(i,s) C(j,t) t^(i+s(p-1)) x^(j+t(p-1)),

which is what `total_power` implements; the generator-substitution
definition is kept in the test suite as an independent oracle.

For a level a >= 2 the derived quantities are

    epsilon = (2a - 1)(p - 1) / 2        twist exponent
    delta   = p*a - (p + 3) / 2          working degree
    h       = (1 + t^(p-1))^epsilon      twist polynomial

so that delta - epsilon = a - 2.

`SplitPoly` records a product of distinct-root linear forms
unit * t^e * prod_j (x - k_j t); for such a polynomial m the quotient
Q(m) = P(m) / m is again polynomial and `q_of_split` computes it as
(1 + t^(p-1))^e * prod_j (1 + (x - k_j t)^(p-1)).
"""

from __future__ import annotations

from typing import NamedTuple

from .ffpoly import BiPoly, FpScalar, Frozen, PrimeModulus, binom_mod

__all__ = [
    "total_power",
    "Parameters",
    "parameters",
    "h_poly",
    "SplitPoly",
    "q_of_split",
]


def total_power(m: BiPoly) -> BiPoly:
    """Apply the total power operation to m."""
    p = m.modulus.p
    shift = p - 1
    acc: dict[tuple[int, int], int] = {}
    for i, j, c in m.iterterms():
        bin_i = [binom_mod(i, s, p) for s in range(i + 1)]
        bin_j = [binom_mod(j, t, p) for t in range(j + 1)]
        for s, cs in enumerate(bin_i):
            if not cs:
                continue
            cis = c * cs
            ti = i + s * shift
            for t, ct in enumerate(bin_j):
                if not ct:
                    continue
                key = (ti, j + t * shift)
                acc[key] = (acc.get(key, 0) + cis * ct) % p
    return BiPoly(m.modulus, acc)


class Parameters(NamedTuple):
    """Derived level data: twist exponent epsilon and working degree delta."""

    p: PrimeModulus
    a: int
    epsilon: int
    delta: int


def parameters(p: PrimeModulus, a: int) -> Parameters:
    if not isinstance(a, int) or isinstance(a, bool) or a < 2:
        raise ValueError(f"a must be an integer >= 2, got {a}")
    pp = p.p
    epsilon = (2 * a - 1) * (pp - 1) // 2
    delta = pp * a - (pp + 3) // 2
    return Parameters(p, a, epsilon, delta)


def h_poly(p: PrimeModulus, a: int) -> BiPoly:
    """The twist polynomial (1 + t^(p-1))^epsilon, expanded mod p."""
    pars = parameters(p, a)
    pp = p.p
    coeffs = {}
    for u in range(pars.epsilon + 1):
        c = binom_mod(pars.epsilon, u, pp)
        if c:
            coeffs[(u * (pp - 1), 0)] = c
    return BiPoly(p, coeffs)


class SplitPoly(Frozen):
    """A split polynomial unit * t^tau_power * prod_j (x - factors[j] * t)."""

    __slots__ = ("modulus", "unit", "factors", "tau_power")

    def __init__(self, modulus: PrimeModulus, unit: FpScalar, factors: tuple[FpScalar, ...],
                 tau_power: int = 0):
        if isinstance(unit, int):
            unit = FpScalar(unit, modulus)
        if unit.modulus != modulus:
            raise ValueError("modulus mismatch")
        if not unit:
            raise ValueError("unit must be nonzero")
        factors = tuple(f if isinstance(f, FpScalar) else FpScalar(f, modulus) for f in factors)
        for f in factors:
            if f.modulus != modulus:
                raise ValueError("modulus mismatch")
        if tau_power < 0:
            raise ValueError("tau_power must be non-negative")
        self._set(modulus, unit, factors, tau_power)

    def expand(self) -> BiPoly:
        out = BiPoly.monomial(self.modulus, self.tau_power, 0, self.unit.value)
        for k in self.factors:
            out = out * BiPoly(self.modulus, {(0, 1): 1, (1, 0): -k.value})
        return out


def q_of_split(m: SplitPoly) -> BiPoly:
    """The polynomial quotient P(expand(m)) / expand(m)."""
    mod = m.modulus
    p = mod.p
    one_plus_tau = BiPoly(mod, {(0, 0): 1, (p - 1, 0): 1})
    out = one_plus_tau ** m.tau_power
    for k in m.factors:
        linear = BiPoly(mod, {(0, 1): 1, (1, 0): -k.value})
        out = out * (BiPoly.one(mod) + linear ** (p - 1))
    return out
