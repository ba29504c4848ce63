"""Exact arithmetic in F_p[t, x] for an odd prime p.

Polynomials are stored sparsely as a map (i, j) -> c where i is the
t-exponent, j is the x-exponent and c is a scalar in [1, p).  Zero
coefficients are never stored, so equality of the coefficient maps is
equality of polynomials.  Both variables count degree 1, i.e. the
algebraic degree of t^i*x^j is i + j.

The canonical monomial order sorts by x-exponent descending, then by
t-exponent descending; the highest x-power comes first.  The canonical
text form writes terms in that order as ``c*t^i*x^j`` joined by `` + ``,
omitting unit coefficients, zero exponents and exponent 1, e.g.
``x^3 + 2*t^2*x``.

Division lives in `BiPoly.divmod_x`: dividends are viewed as
polynomials in x with coefficients in F_p[t], and the divisor must be
monic in x (its leading x-coefficient is the constant 1), so quotient
and remainder are exact and unique with deg_x(remainder) < deg_x(divisor).

Scalars of F_p are plain ints, canonical in [0, p).  The package's
value classes derive from `Frozen`: their fields live in `__slots__`
and are set once, by `Frozen._set` alone; equality (same class only),
hash and the `Name(field=value, ...)` repr use every field; assignment
raises AttributeError; and a pickle restores the fields as stored,
without validating them again.  Plain records (`Parameters`,
`HomSpace`, the reports of `bounds`) take the fields by position or
keyword, in `__slots__` order; the validated classes (`PrimeModulus`,
`BiPoly`, `Representation`, `HomProblem`) check their input in their
own `__init__`, a `BiPoly` int exponent pairs (>= 0) and int coefficients.
`BiPoly` keeps its own hash and repr: its coefficient dict is unhashable.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping
from functools import lru_cache
from itertools import chain
from operator import attrgetter

from .errors import _integer

__all__ = [
    "Frozen",
    "PrimeModulus",
    "BiPoly",
    "binom_mod",
]


# Miller-Rabin with the first 12 primes as bases decides primality
# exactly below PRIME_LIMIT (psi_12; Sorenson and Webster, Math. Comp.
# 2017), which is itself a strong pseudoprime to all 12 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


@lru_cache(maxsize=None)
def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for an int n; n >= PRIME_LIMIT raises ValueError."""
    if n >= PRIME_LIMIT:
        raise ValueError(f"primality is decided only below {PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    # n - 1 = d * 2^s with d odd
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for base in _MR_BASES:
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime(p: int) -> int:
    """p if it is an int prime below PRIME_LIMIT, else a ValueError naming p."""
    if not _is_prime(_integer("p", p, 2)):
        raise ValueError(f"p must be a prime, got {p}")
    return p


class Frozen:
    """Base of the immutable value classes (see the module docstring)."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *args, **kwargs):
        """Set every field, by position or keyword in `__slots__` order."""
        names = self.__slots__
        values = dict(zip(names, args), **kwargs)
        if len(args) + len(kwargs) != len(names) or values.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes the fields {', '.join(names)}")
        self._set(*map(values.__getitem__, names))

    def _set(self, *values) -> "Frozen":
        for setter, value in zip(self._setters, values):
            setter(self, value)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return object.__new__, (type(self),), tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, values):
        self._set(*values)


class PrimeModulus(Frozen):
    """An odd prime 3 <= p < PRIME_LIMIT, validated by deterministic Miller-Rabin."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        self._set(_prime(_integer("p", p, 3)))


@lru_cache(maxsize=None)
def _binom_digit(n: int, k: int, p: int) -> int:
    """C(n, k) mod p for base-p digits 0 <= k <= n < p, where k! is invertible mod p."""
    k = min(k, n - k)
    num = den = 1
    for j in range(1, k + 1):
        num = num * (n - k + j) % p
        den = den * j % p
    return num * pow(den, -1, p) % p


def binom_mod(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem for ints n, k >= 0 (0 if k > n); ValueError unless p is prime."""
    _integer("n", n, 0)
    _integer("k", k, 0)
    _prime(p)
    if k > n:
        return 0
    out = 1
    while k:  # the digits of n above those of k contribute C(n_l, 0) = 1
        nd, kd = n % p, k % p
        if kd > nd:
            return 0
        out = out * _binom_digit(nd, kd, p) % p
        n //= p
        k //= p
    return out


class BiPoly(Frozen):
    """A polynomial in F_p[t, x], immutable after construction."""

    __slots__ = ("modulus", "_coeffs")

    def __init__(self, modulus: PrimeModulus, coeffs: Mapping[tuple[int, int], int] | None = None):
        coeffs = coeffs or {}
        for key in coeffs:
            if type(key) is not tuple or len(key) != 2:
                raise ValueError(f"exponents must be pairs (i, j), got {key!r}")
        if not set(map(type, chain(*coeffs, coeffs.values()))) <= {int}:
            raise ValueError("exponents and coefficients must be integers")
        if min(chain(*coeffs), default=0) < 0:
            raise ValueError("exponents must be non-negative")
        self._set(modulus, {(i, j): r for (i, j), c in coeffs.items() if (r := c % modulus.p)})

    @staticmethod
    def _raw(modulus: PrimeModulus, coeffs: dict[tuple[int, int], int]) -> "BiPoly":
        """A BiPoly on coeffs as given: the arithmetic's results, already in [1, p)."""
        return object.__new__(BiPoly)._set(modulus, coeffs)

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus)

    @classmethod
    def one(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus, {(0, 0): 1})

    @classmethod
    def monomial(cls, modulus: PrimeModulus, i: int, j: int, c: int = 1) -> "BiPoly":
        return cls(modulus, {(i, j): c})

    @classmethod
    def t(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus, {(1, 0): 1})

    @classmethod
    def x(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus, {(0, 1): 1})

    # -- inspection --------------------------------------------------

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int:
        """Algebraic degree (deg t = deg x = 1); -1 for the zero polynomial."""
        if not self._coeffs:
            return -1
        return max(i + j for i, j in self._coeffs)

    def x_degree(self) -> int:
        if not self._coeffs:
            return -1
        return max(j for _i, j in self._coeffs)

    def t_degree(self) -> int:
        if not self._coeffs:
            return -1
        return max(i for i, _j in self._coeffs)

    def iterterms(self) -> Iterator[tuple[int, int, int]]:
        """Unordered (i, j, c) triples with integer c in [1, p)."""
        for (i, j), c in self._coeffs.items():
            yield i, j, c

    def terms(self) -> list[tuple[int, int, int]]:
        """(i, j, c) triples in the canonical monomial order."""
        return sorted(self.iterterms(), key=lambda t: (-t[1], -t[0]))

    def coefficient(self, i: int, j: int) -> int:
        return self._coeffs.get((i, j), 0)

    def is_homogeneous(self) -> bool:
        degs = {i + j for i, j in self._coeffs}
        return len(degs) <= 1

    def is_monic_in_x(self) -> bool:
        """True when the leading x-coefficient is the constant 1."""
        d = self.x_degree()
        if d < 0:
            return False
        lead = [(i, c) for (i, j), c in self._coeffs.items() if j == d]
        return lead == [(0, 1)]

    # -- arithmetic --------------------------------------------------

    def _check(self, other: "BiPoly"):
        if not isinstance(other, BiPoly):
            raise TypeError("expected a BiPoly")
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")

    def __add__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        p = self.modulus.p
        out = dict(self._coeffs)
        for key, c in other._coeffs.items():
            v = (out.get(key, 0) + c) % p
            if v:
                out[key] = v
            elif key in out:
                del out[key]
        return BiPoly._raw(self.modulus, out)

    def __neg__(self):
        p = self.modulus.p
        return BiPoly._raw(self.modulus, {key: p - c for key, c in self._coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            return BiPoly(self.modulus, {key: v * other for key, v in self._coeffs.items()})
        if not isinstance(other, BiPoly):
            return NotImplemented
        self._check(other)
        p = self.modulus.p
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in self._coeffs.items():
            for (i2, j2), c2 in other._coeffs.items():
                key = (i1 + i2, j1 + j2)
                v = (out.get(key, 0) + c1 * c2) % p
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return BiPoly._raw(self.modulus, out)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        _integer("exponent", e, 0)
        result = BiPoly.one(self.modulus)
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e > 1
            if base_needed:
                base = base * base
            e >>= 1
        return result

    def divmod_x(self, divisor: "BiPoly") -> tuple["BiPoly", "BiPoly"]:
        """Exact division in x by a divisor that is monic in x.

        Returns (quotient, remainder) with self == quotient * divisor +
        remainder and deg_x(remainder) < deg_x(divisor).
        """
        self._check(divisor)
        if not divisor.is_monic_in_x():
            raise ValueError("divisor must be monic in x")
        p = self.modulus.p
        d = divisor.x_degree()
        # bucket both polynomials by x-exponent
        cols: dict[int, dict[int, int]] = {}
        for (i, j), c in self._coeffs.items():
            cols.setdefault(j, {})[i] = c
        div_by_j: dict[int, list[tuple[int, int]]] = {}
        for (i, j), c in divisor._coeffs.items():
            if j == d:
                continue  # the monic leading term is handled implicitly
            div_by_j.setdefault(j, []).append((i, c))
        div_cols = list(div_by_j.items())
        quo: dict[tuple[int, int], int] = {}
        for j in range(self.x_degree(), d - 1, -1):
            lead = cols.pop(j, None)
            if not lead:
                continue
            jq = j - d
            for i, c in lead.items():
                quo[(i, jq)] = c
            for fj, items in div_cols:
                target = cols.setdefault(jq + fj, {})
                for fi, fc in items:
                    for i, c in lead.items():
                        ii = i + fi
                        v = (target.get(ii, 0) - c * fc) % p
                        if v:
                            target[ii] = v
                        elif ii in target:
                            del target[ii]
        rem = {(i, j): c for j, col in cols.items() for i, c in col.items()}
        return BiPoly._raw(self.modulus, quo), BiPoly._raw(self.modulus, rem)

    # -- comparison and text -----------------------------------------

    def __hash__(self):  # the coefficient dict is unhashable
        return hash((self.modulus, frozenset(self._coeffs.items())))

    def text(self) -> str:
        """Canonical text form, e.g. ``x^3 + 2*t^2*x``."""
        if not self._coeffs:
            return "0"
        parts = []
        for i, j, c in self.terms():
            factors = []
            if c != 1 or (i == 0 and j == 0):
                factors.append(str(c))
            if i:
                factors.append("t" if i == 1 else f"t^{i}")
            if j:
                factors.append("x" if j == 1 else f"x^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"BiPoly(p={self.modulus.p}, {self.text()!r})"

