"""Tests for the total power operation and the level data."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import sub_power
from powker.ffpoly import BiPoly, PrimeModulus
from powker.steenrod import binomial_terms, h_poly, one_plus_tau, parameters, total_power

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def sparse_polys(modulus, max_exp=5, max_terms=4):
    term = st.tuples(
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=max_exp),
        st.integers(min_value=0, max_value=modulus.p - 1),
    )
    return st.lists(term, max_size=max_terms).map(
        lambda ts: BiPoly(modulus, {(i, j): c for i, j, c in ts})
    )


class TestBinomialTerms:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_matches_math_comb(self, q):
        for n in range(q**3):
            expect = [(i, math.comb(n, i) % q) for i in range(n + 1) if math.comb(n, i) % q]
            assert sorted(binomial_terms(n, q)) == expect, n

    @pytest.mark.parametrize("q", [3, 5])
    def test_one_plus_tau_is_a_power(self, q):
        mod = PrimeModulus(q)
        base = BiPoly(mod, {(0, 0): 1, (q - 1, 0): 1})
        for n in range(q * q):
            assert one_plus_tau(mod, n) == base**n, n


class TestTotalPower:
    def test_generators(self):
        assert total_power(BiPoly.t(P5)) == BiPoly(P5, {(1, 0): 1, (5, 0): 1})
        assert total_power(BiPoly.x(P5)) == BiPoly(P5, {(0, 1): 1, (0, 5): 1})
        assert total_power(BiPoly.one(P5)) == BiPoly.one(P5)
        assert total_power(BiPoly.zero(P5)).is_zero()

    @given(a=sparse_polys(P5), b=sparse_polys(P5))
    @settings(deadline=None)
    def test_ring_endomorphism(self, a, b):
        assert total_power(a + b) == total_power(a) + total_power(b)
        assert total_power(a * b) == total_power(a) * total_power(b)

    @given(
        i=st.integers(min_value=0, max_value=7),
        j=st.integers(min_value=0, max_value=7),
        q=st.sampled_from([3, 5, 7]),
    )
    @settings(deadline=None)
    def test_matches_substitution_oracle(self, i, j, q):
        mod = PrimeModulus(q)
        ours = total_power(BiPoly.monomial(mod, i, j))
        naive = sub_power({(i, j): 1}, q)
        assert ours == BiPoly(mod, naive)


class TestParameters:
    @pytest.mark.parametrize(
        "q,a,epsilon,delta",
        [(3, 2, 3, 3), (5, 2, 6, 6), (7, 2, 9, 9), (5, 3, 10, 11), (3, 4, 7, 9)],
    )
    def test_values(self, q, a, epsilon, delta):
        pars = parameters(PrimeModulus(q), a)
        assert (pars.epsilon, pars.delta) == (epsilon, delta)

    @given(q=st.sampled_from([3, 5, 7, 11]), a=st.integers(min_value=2, max_value=9))
    def test_delta_epsilon_gap(self, q, a):
        # the working degree exceeds the twist exponent by a - 2
        pars = parameters(PrimeModulus(q), a)
        assert pars.delta - pars.epsilon == a - 2

    @pytest.mark.parametrize("bad", [1, 0, -1, True])
    def test_rejects_bad_level(self, bad):
        with pytest.raises(ValueError):
            parameters(P3, bad)


class TestHPoly:
    @given(q=st.sampled_from([3, 5, 7]), a=st.integers(min_value=2, max_value=5))
    @settings(deadline=None)
    def test_is_binomial_power(self, q, a):
        mod = PrimeModulus(q)
        base = BiPoly(mod, {(0, 0): 1, (q - 1, 0): 1})
        assert h_poly(mod, a) == base ** parameters(mod, a).epsilon

    def test_level_step_ratio(self):
        # h(a+1) = h(a) * (1+t^(p-1))^(p-1)
        base = BiPoly(P5, {(0, 0): 1, (4, 0): 1})
        for a in (2, 3, 4):
            assert h_poly(P5, a + 1) == h_poly(P5, a) * base**4


class TestSplitPoly:
    # a split m = unit * t^e * prod_j (x - k_j t) has the polynomial quotient
    # Q(m) = P(m) / m = (1 + tau)^e * prod_j (1 + (x - k_j t)^(p-1)), which
    # the Q(r) identity of `verify_qr_identity` multiplies out at m = r
    @given(
        unit=st.integers(1, P5.p - 1),
        factors=st.lists(st.integers(0, P5.p - 1), max_size=4),
        e=st.integers(0, 3),
    )
    @settings(deadline=None, max_examples=40)
    def test_q_of_split_is_exact_quotient(self, unit, factors, e):
        m = BiPoly.monomial(P5, e, 0, unit)
        q = one_plus_tau(P5, e)
        for k in factors:
            linear = BiPoly(P5, {(0, 1): 1, (1, 0): -k})
            m = m * linear
            q = q * (BiPoly.one(P5) + linear ** (P5.p - 1))
        assert q * m == total_power(m)
