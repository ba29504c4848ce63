"""Unit and property tests for the polynomial layer."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powker.ffpoly import PRIME_LIMIT, BiPoly, PrimeModulus, _is_prime, binom_mod

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)

odd_primes = st.sampled_from([3, 5, 7, 11, 13])


def sparse_polys(modulus, max_exp=6, max_terms=5):
    term = st.tuples(
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=modulus.p - 1),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: BiPoly(modulus, {(i, j): c for i, j, c in ts})
    )


class TestPrimeModulus:
    def test_accepts_odd_primes(self):
        for q in (3, 5, 7, 11, 97):
            assert PrimeModulus(q).p == q

    @pytest.mark.parametrize("bad", [2, 1, 0, -3, 9, 15, 21])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(ValueError):
            PrimeModulus(bad)

    def test_is_prime_matches_a_sieve(self):
        n = 20000
        sieve = [False, False] + [True] * (n - 2)
        for q in range(2, math.isqrt(n) + 1):
            if sieve[q]:
                sieve[q * q :: q] = [False] * len(range(q * q, n, q))
        assert [_is_prime(k) for k in range(n)] == sieve

    # Carmichael numbers, and the least strong pseudoprime to the bases 2 .. 23
    @pytest.mark.parametrize("bad", [561, 41041, 3825123056546413051])
    def test_rejects_pseudoprimes(self, bad):
        assert not _is_prime(bad)
        with pytest.raises(ValueError):
            PrimeModulus(bad)

    @pytest.mark.parametrize("q", [2**61 - 1, 2**64 - 59])
    def test_accepts_large_primes(self, q):
        assert PrimeModulus(q).p == q

    def test_rejects_from_the_limit_on(self):
        # the limit is a strong pseudoprime to all 12 bases: only the bound rejects it
        assert PRIME_LIMIT == 318665857834031151167461
        with pytest.raises(ValueError, match="below"):
            PrimeModulus(PRIME_LIMIT)
        with pytest.raises(ValueError):
            _is_prime(PRIME_LIMIT)


@given(n=st.integers(min_value=0, max_value=200), k=st.integers(min_value=0, max_value=200), q=odd_primes)
def test_binom_mod_matches_math_comb(n, k, q):
    assert binom_mod(n, k, q) == math.comb(n, k) % q


@pytest.mark.parametrize("q", [1000003, 2**61 - 1])
def test_binom_mod_at_large_primes(q):
    # digits close to a large p, from both ends of their rows
    cases = [(0, 0), (5, 2), (60, 30), (200, 7), (q - 1, 3), (q - 1, q - 3), (q + 4, q), (2 * q + 3, 3)]
    for n, k in cases:
        assert binom_mod(n, k, q) == math.comb(n, k) % q, (n, k)


class TestBiPoly:
    def test_construction_normalizes(self):
        m = BiPoly(P5, {(0, 0): 7, (1, 2): 10, (3, 3): -1})
        assert m.coefficient(0, 0) == 2
        assert m.coefficient(1, 2) == 0
        assert m.coefficient(3, 3) == 4
        assert type(m.coefficient(0, 0)) is int

    def test_scalar_multiples(self):
        # an int scalar is reduced mod p, from either side
        x = BiPoly.x(P5)
        assert x * 7 == BiPoly(P5, {(0, 1): 2}) == 7 * x
        assert x * -1 == BiPoly(P5, {(0, 1): 4})
        assert (x * 5).is_zero()

    def test_degrees(self):
        m = BiPoly(P3, {(2, 1): 1, (0, 2): 2})
        assert m.degree() == 3
        assert m.x_degree() == 2
        assert m.t_degree() == 2
        assert BiPoly.zero(P3).is_zero()

    def test_named_constructors(self):
        assert BiPoly.t(P3) == BiPoly.monomial(P3, 1, 0)
        assert BiPoly.x(P3) == BiPoly.monomial(P3, 0, 1)
        assert BiPoly.one(P3) == BiPoly(P3, {(0, 0): 1}) == BiPoly.monomial(P3, 0, 0)

    def test_homogeneity(self):
        assert BiPoly(P5, {(2, 1): 1, (0, 3): 4}).is_homogeneous()
        assert not BiPoly(P5, {(2, 1): 1, (0, 2): 4}).is_homogeneous()

    @given(a=sparse_polys(P5), b=sparse_polys(P5), c=sparse_polys(P5))
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == BiPoly.zero(P5)
        assert a * BiPoly.one(P5) == a

    @given(a=sparse_polys(P7), e=st.integers(min_value=0, max_value=4))
    @settings(deadline=None)
    def test_pow_matches_repeated_mul(self, a, e):
        expected = BiPoly.one(P7)
        for _ in range(e):
            expected = expected * a
        assert a**e == expected

    def test_pow_rejects_negative(self):
        with pytest.raises(ValueError):
            BiPoly.x(P3) ** (-1)

    def test_modulus_mismatch(self):
        with pytest.raises(ValueError):
            BiPoly.x(P3) + BiPoly.x(P5)

    def test_freshman_dream(self):
        # (t + x)^p == t^p + x^p mod p
        s = BiPoly.t(P5) + BiPoly.x(P5)
        assert s**5 == BiPoly(P5, {(5, 0): 1, (0, 5): 1})


def monic_divisors(modulus):
    # x^d + lower x-degree noise
    return st.tuples(
        st.integers(min_value=1, max_value=3),
        sparse_polys(modulus, max_exp=3, max_terms=3),
    ).map(
        lambda t: BiPoly.monomial(modulus, 0, t[0])
        + BiPoly(modulus, {(i, j): c for i, j, c in t[1].iterterms() if j < t[0]})
    )


class TestDivmodX:
    @given(num=sparse_polys(P5), den=monic_divisors(P5))
    @settings(deadline=None)
    def test_division_identity(self, num, den):
        q, r = num.divmod_x(den)
        assert q * den + r == num
        assert r.is_zero() or r.x_degree() < den.x_degree()

    def test_requires_monic(self):
        with pytest.raises(ValueError):
            BiPoly.x(P3).divmod_x(BiPoly(P3, {(0, 1): 2}))
        with pytest.raises(ValueError):
            BiPoly.x(P3).divmod_x(BiPoly.zero(P3))

    def test_exact_divisibility(self):
        r = BiPoly(P5, {(0, 5): 1, (4, 1): -1})
        m = BiPoly(P5, {(1, 2): 3}) * r
        assert m.divmod_x(r) == (BiPoly(P5, {(1, 2): 3}), BiPoly.zero(P5))
        assert m.divmod_x(r)[1].is_zero()
        assert (m + BiPoly.one(P5)).divmod_x(r)[1] == BiPoly.one(P5)


class TestTextRoundTrip:
    def test_known_forms(self):
        r5 = BiPoly(P5, {(0, 5): 1, (4, 1): -1})
        assert r5.text() == "x^5 + 4*t^4*x"
        assert BiPoly.zero(P3).text() == "0"
        assert BiPoly.one(P3).text() == "1"
        assert BiPoly(P7, {(0, 0): 3, (1, 0): 1, (2, 1): 2, (0, 1): 1}).text() == "2*t^2*x + x + t + 3"
