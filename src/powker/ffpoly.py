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
``x^3 + 2*t^2*x``.  `BiPoly.parse` reads the same grammar back.

Division lives in `BiPoly.divmod_x`: dividends are viewed as
polynomials in x with coefficients in F_p[t], and the divisor must be
monic in x (its leading x-coefficient is the constant 1), so quotient
and remainder are exact and unique with deg_x(remainder) < deg_x(divisor).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

__all__ = [
    "PrimeModulus",
    "FpScalar",
    "BiPoly",
    "TriPoly",
    "is_divisible",
    "binom_mod",
]


# Miller-Rabin with the first 12 primes as bases decides primality
# exactly below PRIME_LIMIT (psi_12; Sorenson and Webster, Math. Comp.
# 2017), which is itself a strong pseudoprime to all 12 bases.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PRIME_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n >= PRIME_LIMIT raises ValueError."""
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


@dataclass(frozen=True)
class PrimeModulus:
    """An odd prime 3 <= p < PRIME_LIMIT, validated by deterministic Miller-Rabin."""

    p: int

    def __post_init__(self):
        p = self.p
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError("p must be an integer")
        if p < 3 or not _is_prime(p):
            raise ValueError(f"p must be an odd prime >= 3, got {p}")


@dataclass(frozen=True)
class FpScalar:
    """A scalar in F_p, kept as the canonical residue in [0, p)."""

    value: int
    modulus: PrimeModulus

    def __post_init__(self):
        if not isinstance(self.value, int) or isinstance(self.value, bool):
            raise ValueError("scalar value must be an integer")
        object.__setattr__(self, "value", self.value % self.modulus.p)

    def _coerce(self, other) -> "FpScalar":
        if isinstance(other, int) and not isinstance(other, bool):
            return FpScalar(other, self.modulus)
        if isinstance(other, FpScalar):
            if other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return other
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.value + other.value, self.modulus)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.value - other.value, self.modulus)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FpScalar(self.value * other.value, self.modulus)

    __rmul__ = __mul__

    def __neg__(self):
        return FpScalar(-self.value, self.modulus)

    def __bool__(self):
        return self.value != 0

    def inverse(self) -> "FpScalar":
        if self.value == 0:
            raise ZeroDivisionError("0 is not invertible in F_p")
        return FpScalar(pow(self.value, self.modulus.p - 2, self.modulus.p), self.modulus)

    def __repr__(self):
        return f"FpScalar({self.value} mod {self.modulus.p})"


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
    """Binomial coefficient C(n, k) mod p via base-p digits (Lucas)."""
    if k < 0 or k > n:
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


class BiPoly:
    """A polynomial in F_p[t, x], immutable after construction."""

    __slots__ = ("modulus", "_coeffs")

    def __init__(self, modulus: PrimeModulus, coeffs: Mapping[tuple[int, int], int] | None = None):
        p = modulus.p
        clean: dict[tuple[int, int], int] = {}
        if coeffs:
            for key, c in coeffs.items():
                i, j = key
                if i < 0 or j < 0:
                    raise ValueError("exponents must be non-negative")
                if isinstance(c, FpScalar):
                    if c.modulus != modulus:
                        raise ValueError("modulus mismatch")
                    c = c.value
                c %= p
                if c:
                    clean[(i, j)] = c
        self.modulus = modulus
        self._coeffs = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus)

    @classmethod
    def one(cls, modulus: PrimeModulus) -> "BiPoly":
        return cls(modulus, {(0, 0): 1})

    @classmethod
    def const(cls, modulus: PrimeModulus, c: int) -> "BiPoly":
        return cls(modulus, {(0, 0): c})

    @classmethod
    def monomial(cls, modulus: PrimeModulus, i: int, j: int, c: int = 1) -> "BiPoly":
        return cls(modulus, {(i, j): c})

    @classmethod
    def tau(cls, modulus: PrimeModulus) -> "BiPoly":
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

    def tau_degree(self) -> int:
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

    @property
    def coefficients(self) -> dict[tuple[int, int], FpScalar]:
        return {key: FpScalar(c, self.modulus) for key, c in self._coeffs.items()}

    def coefficient(self, i: int, j: int) -> FpScalar:
        return FpScalar(self._coeffs.get((i, j), 0), self.modulus)

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
        res = BiPoly.__new__(BiPoly)
        res.modulus = self.modulus
        res._coeffs = out
        return res

    def __neg__(self):
        p = self.modulus.p
        res = BiPoly.__new__(BiPoly)
        res.modulus = self.modulus
        res._coeffs = {key: p - c for key, c in self._coeffs.items()}
        return res

    def __sub__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, FpScalar)) and not isinstance(other, bool):
            c = other.value if isinstance(other, FpScalar) else other % self.modulus.p
            if isinstance(other, FpScalar) and other.modulus != self.modulus:
                raise ValueError("modulus mismatch")
            return BiPoly(self.modulus, {key: v * c for key, v in self._coeffs.items()})
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
        res = BiPoly.__new__(BiPoly)
        res.modulus = self.modulus
        res._coeffs = out
        return res

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
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

    def homogeneous_component(self, d: int) -> "BiPoly":
        """The sum of the terms of algebraic degree exactly d."""
        res = BiPoly.__new__(BiPoly)
        res.modulus = self.modulus
        res._coeffs = {key: c for key, c in self._coeffs.items() if key[0] + key[1] == d}
        return res

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
        rem: dict[tuple[int, int], int] = {}
        for j, col in cols.items():
            for i, c in col.items():
                if c:
                    rem[(i, j)] = c
        return BiPoly(self.modulus, quo), BiPoly(self.modulus, rem)

    # -- comparison and text -----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.modulus == other.modulus and self._coeffs == other._coeffs

    def __hash__(self):
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

    @classmethod
    def parse(cls, modulus: PrimeModulus, text: str) -> "BiPoly":
        """Parse the canonical text form produced by `text`."""
        s = text.strip()
        if not s:
            raise ValueError("empty polynomial text")
        if s == "0":
            return cls.zero(modulus)
        coeffs: dict[tuple[int, int], int] = {}
        for chunk in s.split("+"):
            term = chunk.strip()
            if not term:
                raise ValueError(f"malformed polynomial text: {text!r}")
            c, i, j = 1, 0, 0
            for factor in term.split("*"):
                f = factor.strip()
                if f.isdigit():
                    c *= int(f)
                elif f == "t":
                    i += 1
                elif f == "x":
                    j += 1
                elif f.startswith("t^") and f[2:].isdigit():
                    i += int(f[2:])
                elif f.startswith("x^") and f[2:].isdigit():
                    j += int(f[2:])
                else:
                    raise ValueError(f"malformed term {term!r} in {text!r}")
            coeffs[(i, j)] = (coeffs.get((i, j), 0) + c) % modulus.p
        return cls(modulus, coeffs)

    def __repr__(self):
        return f"BiPoly(p={self.modulus.p}, {self.text()!r})"


class TriPoly:
    """A polynomial in an extra variable K with BiPoly coefficients.

    entries[k] is the coefficient of K^k; the leading entry is nonzero.
    """

    __slots__ = ("modulus", "entries")

    def __init__(self, modulus: PrimeModulus, entries: Iterable[BiPoly] = ()):
        lst = list(entries)
        for e in lst:
            if e.modulus != modulus:
                raise ValueError("modulus mismatch")
        while lst and lst[-1].is_zero():
            lst.pop()
        self.modulus = modulus
        self.entries = tuple(lst)

    def k_degree(self) -> int:
        return len(self.entries) - 1

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        n = max(len(self.entries), len(other.entries))
        zero = BiPoly.zero(self.modulus)
        out = []
        for k in range(n):
            a = self.entries[k] if k < len(self.entries) else zero
            b = other.entries[k] if k < len(other.entries) else zero
            out.append(a + b)
        return TriPoly(self.modulus, out)

    def __mul__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        if other.modulus != self.modulus:
            raise ValueError("modulus mismatch")
        if self.is_zero() or other.is_zero():
            return TriPoly(self.modulus)
        zero = BiPoly.zero(self.modulus)
        out = [zero] * (len(self.entries) + len(other.entries) - 1)
        for k1, a in enumerate(self.entries):
            if a.is_zero():
                continue
            for k2, b in enumerate(other.entries):
                if b.is_zero():
                    continue
                out[k1 + k2] = out[k1 + k2] + a * b
        return TriPoly(self.modulus, out)

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = TriPoly(self.modulus, [BiPoly.one(self.modulus)])
        for _ in range(e):
            result = result * self
        return result

    def __eq__(self, other):
        if not isinstance(other, TriPoly):
            return NotImplemented
        return self.modulus == other.modulus and self.entries == other.entries

    def __hash__(self):
        return hash((self.modulus, self.entries))

    def __repr__(self):
        inner = ", ".join(e.text() for e in self.entries)
        return f"TriPoly(p={self.modulus.p}, [{inner}])"


def is_divisible(numerator: BiPoly, divisor: BiPoly) -> bool:
    """True iff divisor divides numerator exactly (zero remainder)."""
    return numerator.divmod_x(divisor)[1].is_zero()

