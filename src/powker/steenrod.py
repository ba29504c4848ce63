"""The total power operation on F_p[t, x] and the level data built from it.

Every binomial power the engine needs, (1 + X)^n mod p, comes from
`binomial_terms`, which reads its nonzero terms off the base-p digits
of n (Lucas); `one_plus_tau` is (1 + tau)^n for tau = t^(p-1) as a
`BiPoly`, built on each call.  The local systems compare h with
(1 + tau)^N term by term from `binomial_terms`, with no `BiPoly`.

The total power operation P is the ring endomorphism determined by
t -> t + t^p and x -> x + x^p, that is t -> t (1 + tau) and
x -> x (1 + x^(p-1)).  On a monomial

    P(t^i * x^j) = t^i x^j (1 + tau)^i (1 + x^(p-1))^j,

which is what `total_power` expands; the generator-substitution
definition is kept in the test suite as an independent oracle.

For a level a >= 2 the derived quantities are

    epsilon = (2a - 1)(p - 1) / 2        twist exponent
    delta   = p*a - (p + 3) / 2          working degree
    h       = (1 + tau)^epsilon          twist polynomial

so that delta - epsilon = a - 2.
"""

from __future__ import annotations

from .ffpoly import BiPoly, Frozen, PrimeModulus, binom_mod

__all__ = [
    "binomial_terms",
    "one_plus_tau",
    "total_power",
    "Parameters",
    "parameters",
    "h_poly",
]


def binomial_terms(n: int, p: int) -> list[tuple[int, int]]:
    """The terms (i, C(n, i) mod p) of (1 + X)^n, all nonzero, not in ascending order.

    By Lucas' theorem (1 + X)^n is the product over the base-p digits
    n_l of n of (1 + X^(p^l))^(n_l), and no C(n_l, i_l) vanishes mod p.
    """
    terms = [(0, 1)]
    place = 1
    while n:
        n, digit = divmod(n, p)
        if digit:
            row = [binom_mod(digit, k, p) for k in range(digit + 1)]
            terms = [(i + k * place, c * r % p) for i, c in terms for k, r in enumerate(row)]
        place *= p
    return terms


def one_plus_tau(p: PrimeModulus, n: int) -> BiPoly:
    """(1 + tau)^n, tau = t^(p-1), expanded mod p."""
    return BiPoly(p, {(i * (p.p - 1), 0): c for i, c in binomial_terms(n, p.p)})


def total_power(m: BiPoly) -> BiPoly:
    """Apply the total power operation to m."""
    p = m.modulus.p
    shift = p - 1
    acc: dict[tuple[int, int], int] = {}
    for i, j, c in m.iterterms():
        bin_j = binomial_terms(j, p)
        for s, cs in binomial_terms(i, p):
            cis = c * cs
            ti = i + s * shift
            for u, cu in bin_j:
                key = (ti, j + u * shift)
                acc[key] = (acc.get(key, 0) + cis * cu) % p
    return BiPoly(m.modulus, acc)


class Parameters(Frozen):
    """Derived level data: twist exponent epsilon and working degree delta."""

    __slots__ = ("p", "a", "epsilon", "delta")


def parameters(p: PrimeModulus, a: int) -> Parameters:
    if not isinstance(a, int) or isinstance(a, bool) or a < 2:
        raise ValueError(f"a must be an integer >= 2, got {a}")
    pp = p.p
    epsilon = (2 * a - 1) * (pp - 1) // 2
    delta = pp * a - (pp + 3) // 2
    return Parameters(p, a, epsilon, delta)


def h_poly(p: PrimeModulus, a: int) -> BiPoly:
    """The twist polynomial (1 + t^(p-1))^epsilon, expanded mod p."""
    return one_plus_tau(p, parameters(p, a).epsilon)
