"""Tests for weight lists, split polynomials of representations, flags."""

from itertools import combinations
from math import prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from powker.ffpoly import BiPoly, PrimeModulus
from powker.reps import Representation, f_of, filtration_rep, r_poly

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)


def weight_lists(q, max_dim=5):
    return st.lists(st.integers(min_value=-q, max_value=2 * q), max_size=max_dim)


class TestRepresentation:
    def test_normalization(self):
        v = Representation(P5, (7, -1, 3, 3))
        assert v.weights == (2, 3, 3, 4)
        assert v.dim == 4

    def test_regular(self):
        assert Representation.regular(P5).weights == (0, 1, 2, 3, 4)

    def test_sum(self):
        v = Representation(P3, (0,)) + Representation(P3, (2, 1))
        assert v.weights == (0, 1, 2)
        with pytest.raises(ValueError):
            Representation(P3, ()) + Representation(P5, ())

    def test_json_round_trip(self):
        v = Representation(P5, (1, 1, 4))
        assert Representation.from_json(v.to_json()) == v

    @pytest.mark.parametrize("weights", [(1.5, 2), (True,), (2.0,), ("2",)])
    def test_weights_must_be_integers(self, weights):
        with pytest.raises(ValueError, match="integers"):
            Representation(P5, weights)
        with pytest.raises(ValueError, match="integers"):
            Representation.from_json({"p": 5, "weights": list(weights)})


class TestSplitPolynomials:
    def test_regular_gives_r(self):
        assert f_of(Representation.regular(P5)) == r_poly(P5)
        assert r_poly(P5).text() == "x^5 + 4*t^4*x"

    @given(ws1=weight_lists(5), ws2=weight_lists(5))
    def test_multiplicative(self, ws1, ws2):
        v1 = Representation(P5, tuple(ws1))
        v2 = Representation(P5, tuple(ws2))
        assert f_of(v1 + v2) == f_of(v1) * f_of(v2)

    @given(ws=weight_lists(7))
    def test_monic_of_the_right_degree(self, ws):
        v = Representation(PrimeModulus(7), tuple(ws))
        f = f_of(v)
        assert f.is_monic_in_x()
        assert f.x_degree() == v.dim

    @given(ws=weight_lists(5))
    def test_chern_classes_expand_f(self, ws):
        # f(V) = sum_k (-1)^k e_k(weights) t^k x^(n-k), with the Chern
        # classes e_k summed over k-subsets of the weights
        v = Representation(P5, tuple(ws))
        n = v.dim
        e = [sum(prod(c) for c in combinations(v.weights, k)) for k in range(n + 1)]
        expected = BiPoly(P5, {(k, n - k): (-1) ** k * e[k] for k in range(n + 1)})
        assert f_of(v) == expected

    @given(
        q=st.sampled_from([3, 5, 7, 13]),
        ws=st.lists(st.integers(min_value=-20, max_value=40), max_size=12),
    )
    def test_product_of_linear_forms(self, q, ws):
        # repeated weights included: the lists draw from a narrow range
        mod = PrimeModulus(q)
        product = BiPoly.one(mod)
        for w in ws:
            product = product * BiPoly(mod, {(0, 1): 1, (1, 0): -w})
        assert f_of(Representation(mod, tuple(ws))) == product

    def test_chern_values(self):
        # e = (1, 1 + 2, 1 * 2): f = x^2 - 3 t x + 2 t^2
        f = f_of(Representation(P5, (1, 2)))
        assert tuple((-1) ** k * f.coefficient(k, 2 - k) % 5 for k in range(3)) == (1, 3, 2)
        assert f.text() == "x^2 + 2*t*x + 2*t^2"


class TestFiltrationRep:
    def test_steps(self):
        rep = filtration_rep(P3, 2, 0)
        assert rep.weights == (0, 1, 2)
        rep = filtration_rep(P3, 2, 2)
        assert rep.weights == (0, 0, 1, 1, 2)
        rep = filtration_rep(P3, 2, 3)
        assert rep == Representation.regular(P3) + Representation.regular(P3)

    def test_dim_bookkeeping(self):
        for a in (2, 3, 4):
            for k in range(6):
                assert filtration_rep(P5, a, k).dim == (a - 1) * 5 + k

    def test_validation(self):
        with pytest.raises(ValueError):
            filtration_rep(P3, 1, 0)
        with pytest.raises(ValueError):
            filtration_rep(P3, 2, 4)
        with pytest.raises(ValueError):
            filtration_rep(P3, 2, -1)
