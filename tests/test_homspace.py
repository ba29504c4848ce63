"""Tests for kernel spaces: goldens, invariants, shifts, identity suite."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import kernel_nullity, m_nullity, row_space
from powker import homspace
from powker.errors import ConsistencyError
from powker.ffpoly import BiPoly, PrimeModulus, is_divisible
from powker.homspace import (
    FpMatrix,
    HomProblem,
    HomSpace,
    contains,
    div_r_shift,
    family_element,
    hom_space,
    ma_space,
    mul_r_shift,
    verify_k_lemma,
    verify_qr_identity,
    verify_substitution_identity,
)
from powker.reps import Representation, f_of, filtration_rep, r_poly
from powker.steenrod import h_poly, parameters, total_power

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


class TestHomProblem:
    def test_validation(self):
        r = r_poly(P3)
        h = h_poly(P3, 2)
        with pytest.raises(ValueError):
            HomProblem(P3, BiPoly(P3, {(0, 2): 2}), 3, h)  # not monic
        with pytest.raises(ValueError):
            HomProblem(P3, r, -1, h)
        with pytest.raises(ValueError):
            HomProblem(P3, r, 3, BiPoly.x(P3))  # twist must be in t alone
        with pytest.raises(ValueError):
            HomProblem(P3, r, 3, BiPoly.tau(P3))  # twist needs a constant term
        with pytest.raises(ValueError):
            HomProblem(P3, r_poly(P5), 3, h)

    def test_rejects_divisor_that_does_not_split(self):
        # 2 is not a square mod 5, so x^2 - 2t^2 has no linear factor over F_5
        with pytest.raises(ValueError, match="split"):
            HomProblem(P5, BiPoly(P5, {(0, 2): 1, (2, 0): -2}), 3, h_poly(P5, 2))
        # x^2 - 4t^2 = (x - 2t)(x - 3t) splits
        prob = HomProblem(P5, BiPoly(P5, {(0, 2): 1, (2, 0): -4}), 3, h_poly(P5, 2))
        assert prob.roots == ((2, 1), (3, 1))

    def test_roots_carry_multiplicities(self):
        prob = HomProblem(P3, f_of(filtration_rep(P3, 3, 2)), 4, h_poly(P3, 3))
        assert prob.roots == ((0, 3), (1, 3), (2, 2))
        assert HomProblem(P3, BiPoly.one(P3), 3, h_poly(P3, 2)).roots == ()

    def test_domain_order_and_truncation(self):
        # delta below the divisor degree: no truncation
        prob = HomProblem(P3, r_poly(P3) ** 2, 3, h_poly(P3, 2))
        assert prob.domain_monomials() == ((0, 3), (1, 2), (2, 1), (3, 0))
        # delta above: x-exponent capped at deg_x f - 1
        prob = HomProblem(P3, r_poly(P3), 3, h_poly(P3, 2))
        assert prob.domain_monomials() == ((1, 2), (2, 1), (3, 0))


class TestGoldenSpaces:
    def test_level_space_p3(self):
        space = ma_space(P3, 2)
        assert [b.text() for b in space.basis] == ["x^3", "t^3"]

    def test_level_space_p5(self):
        space = ma_space(P5, 2)
        assert [b.text() for b in space.basis] == [
            "x^6 + 2*t^4*x^2",
            "t*x^5",
            "t^2*x^4 + t^3*x^3 + 4*t^4*x^2",
            "t^6",
        ]

    def test_level_space_dims(self):
        for q in (3, 5, 7, 11):
            assert ma_space(PrimeModulus(q), 2).dim == q - 1

    def test_level_divisor_shape(self):
        # r^(a-1) times the lower half of the weights, level data attached
        for q, a in ((3, 2), (5, 2), (5, 3)):
            mod = PrimeModulus(q)
            space = ma_space(mod, a)
            expected = r_poly(mod) ** (a - 1)
            for w in range((q - 1) // 2 + 1):
                expected = expected * BiPoly(mod, {(0, 1): 1, (1, 0): -w})
            assert space.problem.f == expected
            assert space.problem.delta == parameters(mod, a).delta
            assert space.problem.h == h_poly(mod, a)

    def test_full_regular_divisor_cuts_to_family_span(self):
        # demanding divisibility by r^a instead keeps only the family span
        prob = HomProblem(P5, r_poly(P5) ** 2, 6, h_poly(P5, 2))
        space = hom_space(prob)
        assert space.dim == 3
        for k in range(3):
            assert contains(space, family_element(P5, k))

    def test_single_regular_block_p3(self):
        prob = HomProblem(P3, r_poly(P3), 3, h_poly(P3, 2))
        assert hom_space(prob).dim == 3

    def test_shifted_level_is_r_times_lower(self):
        lower = ma_space(P3, 2)
        upper = ma_space(P3, 3)
        r = r_poly(P3)
        assert [b.text() for b in upper.basis] == [(m * r).text() for m in lower.basis]

    def test_to_json(self):
        data = ma_space(P3, 2).to_json(a=2)
        assert data == {
            "p": 3,
            "a": 2,
            "f": "x^5 + 2*t*x^4 + 2*t^2*x^3 + t^3*x^2",
            "delta": 3,
            "dim": 2,
            "basis": ["x^3", "t^3"],
        }
        assert "basis" not in ma_space(P3, 2).to_json(include_basis=False)


def _in_span(space: HomSpace, m: BiPoly) -> bool:
    domain = space.problem.domain_monomials()
    index = {key: i for i, key in enumerate(domain)}
    rows = []
    for b in space.basis:
        vec = [0] * len(domain)
        for i, j, c in b.iterterms():
            vec[index[(i, j)]] = c
        rows.append(vec)
    vec = [0] * len(domain)
    for i, j, c in m.iterterms():
        if (i, j) not in index:
            return False
        vec[index[(i, j)]] = c
    with_m = FpMatrix(space.problem.p, rows + [vec], len(domain))
    return with_m.rank() == len(rows)


def _non_members(space: HomSpace, rng: random.Random, count: int):
    """Seeded random domain elements outside the span of the basis."""
    q = space.problem.p.p
    domain = space.problem.domain_monomials()
    found = 0
    while found < count:
        m = BiPoly(space.problem.p, {key: rng.randrange(q) for key in domain})
        if m.is_zero() or _in_span(space, m):
            continue
        found += 1
        yield m


class TestKernelCorrectness:
    # dual route: membership is decided by divisibility, never via the basis

    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2), (5, 3), (7, 2)])
    def test_every_basis_element_divides(self, q, a):
        space = ma_space(PrimeModulus(q), a)
        for b in space.basis:
            assert contains(space, b)

    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2)])
    def test_non_members_fail(self, q, a):
        rng = random.Random(20260816)
        space = ma_space(PrimeModulus(q), a)
        outside = len(space.problem.domain_monomials()) - space.dim
        for m in _non_members(space, rng, outside):
            assert not contains(space, m)

    def test_membership_is_linear(self):
        space = ma_space(P5, 2)
        a, b = space.basis[0], space.basis[1]
        assert contains(space, a + b)
        assert contains(space, a * 3 - b)

    def test_contains_rejects_wrong_degree(self):
        space = ma_space(P3, 2)
        with pytest.raises(ValueError):
            contains(space, BiPoly.x(P3))
        with pytest.raises(ValueError):
            contains(space, BiPoly(P3, {(0, 3): 1, (0, 1): 1}))
        assert contains(space, BiPoly.zero(P3))


class TestFamily:
    def test_explicit_form(self):
        # t^((p-1)/2-k) x^k (k x^(p-1) + (1-k) t^(p-1))
        assert family_element(P5, 0) == BiPoly.parse(P5, "t^6")
        assert family_element(P5, 1) == BiPoly.parse(P5, "t*x^5")
        assert family_element(P5, 2) == BiPoly.parse(P5, "2*x^6 + 4*t^4*x^2")

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_membership_and_independence(self, q):
        mod = PrimeModulus(q)
        space = ma_space(mod, 2)
        count = (q + 1) // 2
        elems = [family_element(mod, k) for k in range(count)]
        for m in elems:
            assert contains(space, m)
        domain = space.problem.domain_monomials()
        index = {key: i for i, key in enumerate(domain)}
        rows = []
        for m in elems:
            vec = [0] * len(domain)
            for i, j, c in m.iterterms():
                vec[index[(i, j)]] = c
            rows.append(vec)
        assert FpMatrix(mod, rows, len(domain)).rank() == count

    def test_range_checks(self):
        for bad in (-1, 3, True):
            with pytest.raises(ValueError):
                family_element(P5, bad)


class TestShifts:
    @pytest.mark.parametrize("q", [3, 5])
    def test_round_trips(self, q):
        mod = PrimeModulus(q)
        for a in range(2, q):
            for m in ma_space(mod, a).basis:
                lifted = mul_r_shift(mod, a, a + 1, m)
                assert div_r_shift(mod, a + 1, lifted) == m

    def test_multi_step(self):
        m = ma_space(P3, 2).basis[0]
        lifted = mul_r_shift(P3, 2, 3, m)
        assert lifted == m * r_poly(P3)
        again = mul_r_shift(P3, 2, 2, m)
        assert again == m

    def test_rejects_non_members(self):
        outside = BiPoly.monomial(P3, 2, 1)  # t^2 x, not in the level-2 space
        with pytest.raises(ValueError):
            mul_r_shift(P3, 2, 3, outside)
        with pytest.raises(ValueError):
            div_r_shift(P3, 3, BiPoly.monomial(P3, 3, 3))

    def test_failed_image_check_raises_consistency_error(self, monkeypatch):
        real = homspace._level

        def patched(good: int):
            # every level but `good` gets identity equations: only 0 is a member there
            def level(p, a):
                space = real(p, a)
                if a == good:
                    return space
                n = len(space.problem.domain_monomials())
                identity = tuple(tuple(int(r == c) for c in range(n)) for r in range(n))
                return HomSpace(space.problem, space.basis, identity)

            return level

        m = ma_space(P3, 2).basis[0]
        lifted = mul_r_shift(P3, 2, 3, m)
        monkeypatch.setattr(homspace, "_level", patched(2))
        with pytest.raises(ConsistencyError):
            mul_r_shift(P3, 2, 3, m)
        monkeypatch.setattr(homspace, "_level", patched(3))
        with pytest.raises(ConsistencyError):
            div_r_shift(P3, 3, lifted)

    def test_level_range_checks(self):
        m = ma_space(P3, 2).basis[0]
        with pytest.raises(ValueError):
            mul_r_shift(P3, 1, 2, m)
        with pytest.raises(ValueError):
            mul_r_shift(P3, 2, 1, m)
        with pytest.raises(ValueError):
            div_r_shift(P3, 2, m)


class TestIdentitySuite:
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_qr_identity(self, q):
        assert verify_qr_identity(PrimeModulus(q))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_substitution_identity(self, q):
        assert verify_substitution_identity(PrimeModulus(q))

    @pytest.mark.parametrize("q", [3, 5])
    def test_k_lemma(self, q):
        assert verify_k_lemma(PrimeModulus(q))


class TestEchelonForm:
    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2), (7, 2), (5, 3)])
    def test_reduced_echelon_basis(self, q, a):
        space = ma_space(PrimeModulus(q), a)
        leads = []
        for b in space.basis:
            lead = b.terms()[0]
            assert lead[2] == 1  # leading coefficient normalized
            leads.append((lead[0], lead[1]))
        assert len(set(leads)) == len(leads)
        # no basis element mentions another one's leading monomial
        for b in space.basis:
            own = b.terms()[0][:2]
            for i, j in leads:
                if (i, j) != own:
                    assert not b.coefficient(i, j)


def _as_dict(m: BiPoly) -> dict:
    return {(i, j): c for i, j, c in m.iterterms()}


def _oracle_equations(prob: HomProblem) -> tuple:
    """The RREF of the oracle's operator matrix, for comparison with `HomSpace.equations`."""
    return row_space(prob.p.p, _as_dict(prob.f), prob.delta, _as_dict(prob.h))


class TestColumnAssembly:
    @pytest.mark.parametrize(
        "q,a,k", [(3, 2, 2), (5, 2, 3), (5, 2, 5), (5, 3, 1), (7, 2, 4), (3, 3, 3)]
    )
    def test_operator_matches_generic(self, q, a, k):
        mod = PrimeModulus(q)
        prob = HomProblem(mod, f_of(filtration_rep(mod, a, k)), parameters(mod, a).delta, h_poly(mod, a))
        assert hom_space(prob).equations == _oracle_equations(prob)

    def test_inhomogeneous_divisor_uses_generic_path(self):
        # there is no generic division path: an inhomogeneous divisor is refused
        h = h_poly(P3, 2)
        with pytest.raises(ValueError, match="homogeneous"):
            HomProblem(P3, BiPoly(P3, {(0, 3): 1, (1, 0): -1}), 3, h)  # x^3 - t
        # its homogenisation (x - t)^3 goes through the local systems and agrees with the oracle
        prob = HomProblem(P3, BiPoly(P3, {(0, 3): 1, (3, 0): -1}), 3, h)  # x^3 - t^3
        space = hom_space(prob)
        assert space.equations == _oracle_equations(prob)
        for b in space.basis:
            assert contains(space, b)
        # one more domain monomial on top of a basis element leaves the kernel
        perturbed = [b + BiPoly.monomial(P3, i, j) for b in space.basis for i, j in prob.domain_monomials()]
        outside = [m for m in perturbed if not _in_span(space, m)]
        assert outside
        for m in outside:
            assert not contains(space, m)

    def test_large_prime_cubic_divisor(self):
        # at p = 257 a residue needs more than one byte, and so do the
        # slots of the certificate's packed products
        mod = PrimeModulus(257)
        f = BiPoly.one(mod)
        for w in (1, 2, 5):
            f = f * BiPoly(mod, {(0, 1): 1, (1, 0): -w})
        prob = HomProblem(mod, f, 4, BiPoly(mod, {(0, 0): 1, (256, 0): 3}))
        assert prob.roots == ((1, 1), (2, 1), (5, 1))
        assert hom_space(prob).equations == _oracle_equations(prob)

    def test_million_prime_linear_divisor(self):
        # one column at p = 1000003, where a table of all p binomial rows
        # does not fit in memory; x - t, so that the root search stops at w = 1
        mod = PrimeModulus(1000003)
        prob = HomProblem(mod, BiPoly(mod, {(0, 1): 1, (1, 0): -1}), 2, BiPoly.one(mod))
        assert prob.roots == ((1, 1),)
        assert hom_space(prob).dim == 0

    def test_empty_domain_contains_only_zero(self):
        prob = HomProblem(P3, BiPoly.one(P3), 3, h_poly(P3, 2))  # deg_x f = 0
        space = hom_space(prob)
        assert prob.domain_monomials() == () and space.dim == 0
        assert contains(space, BiPoly.zero(P3))
        with pytest.raises(ValueError):
            contains(space, BiPoly.monomial(P3, 3, 0))


class TestKernelCertificate:
    def _dropping(self, monkeypatch, call):
        """Make the given global elimination in `hom_space` (0: the stacked
        local rows', 1: the basis's) lose its last row.  The local systems'
        eliminations, which have fewer columns than the domain, are left alone."""
        real = homspace.rref
        domain = len(homspace._ma_problem(P5, 2).domain_monomials())
        seen = []

        def rref(rows, ncols, p):
            out = real(rows, ncols, p)
            if ncols < domain:
                return out
            seen.append(out)
            return out[:-1] if len(seen) == call + 1 else out

        monkeypatch.setattr(homspace, "rref", rref)

    def test_dropped_equation_is_caught(self, monkeypatch):
        # the basis gains a vector outside the kernel; dim + rank still adds up
        self._dropping(monkeypatch, 0)
        with pytest.raises(ConsistencyError, match="does not vanish"):
            hom_space(homspace._ma_problem(P5, 2))

    def test_dropped_basis_vector_is_caught(self, monkeypatch):
        self._dropping(monkeypatch, 1)
        with pytest.raises(ConsistencyError, match="dim 3 \\+ rank"):
            hom_space(homspace._ma_problem(P5, 2))


@st.composite
def _divisor_problems(draw):
    """Random homogeneous monic divisors: products of x - w*t and of r."""
    q = draw(st.sampled_from([3, 5, 7]))
    mod = PrimeModulus(q)
    weights = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6))
    blocks = draw(st.integers(0, 2 if q < 7 else 1))
    f = r_poly(mod) ** blocks
    for w in weights:
        f = f * BiPoly(mod, {(0, 1): 1, (1, 0): -w})
    a = draw(st.integers(2, 3))
    delta = draw(st.integers(0, parameters(mod, a).delta))
    return HomProblem(mod, f, delta, h_poly(mod, a))


class TestOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(prob=_divisor_problems(), seed=st.integers(0, 2**32 - 1))
    def test_random_divisors(self, prob, seed):
        q = prob.p.p
        space = hom_space(prob)
        assert space.equations == _oracle_equations(prob)
        assert space.dim == kernel_nullity(q, _as_dict(prob.f), prob.delta, _as_dict(prob.h))

        def divides(m):
            return is_divisible(total_power(m) - prob.h * m, prob.f)

        for b in space.basis:
            assert contains(space, b) and divides(b)
        rng = random.Random(seed)
        outside = min(3, len(prob.domain_monomials()) - space.dim)
        for m in _non_members(space, rng, outside):
            assert not contains(space, m) and not divides(m)


@st.composite
def _split_problems(draw):
    """Random split divisors prod (x - w t)^e_w with e_w up to p + 1, so that
    the identities couple c^w_k across k (the s >= 1 terms); delta from 0, so
    that the domain is often cut below deg_x f; and random twists, some with
    t-exponents that p - 1 does not divide."""
    q = draw(st.sampled_from([3, 5, 7]))
    mod = PrimeModulus(q)
    weights = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3, unique=True))
    mults = [draw(st.integers(1, q + 1)) for _ in weights]
    f = f_of(Representation(mod, tuple(w for w, e in zip(weights, mults) for _ in range(e))))
    delta = draw(st.integers(0, f.x_degree() + q))
    terms = draw(st.dictionaries(st.integers(1, 3 * q), st.integers(0, q - 1), max_size=3))
    terms[0] = draw(st.integers(1, q - 1))
    h = BiPoly(mod, {(g, 0): c for g, c in terms.items()})
    return HomProblem(mod, f, delta, h)


class TestWeightLocalSystems:
    # (x - t)^4 at p = 3 and x^6 at p = 5: the identity for n = p couples
    # c^w_p with c^w_1 through its s = 1 term
    @example(prob=HomProblem(P3, BiPoly(P3, {(0, 1): 1, (1, 0): -1}) ** 4, 1, BiPoly.one(P3)))
    @example(prob=HomProblem(P5, BiPoly.x(P5) ** 6, 2, BiPoly(P5, {(0, 0): 1, (4, 0): 1})))
    @settings(max_examples=60, deadline=None)
    @given(prob=_split_problems())
    def test_equations_match_oracle(self, prob):
        f, h = _as_dict(prob.f), _as_dict(prob.h)
        space = hom_space(prob)
        assert space.equations == _oracle_equations(prob)
        assert space.dim == kernel_nullity(prob.p.p, f, prob.delta, h)


class TestOracleAgreement:
    # every level with p*a <= 21 is acceptance criterion 7; these go on to 30
    @pytest.mark.parametrize(
        "q,a",
        [(3, 2), (5, 2), (3, 3), (11, 2), (3, 8), (5, 5), (13, 2), (3, 9), (7, 4), (5, 6), (3, 10)],
    )
    def test_level_dims(self, q, a):
        assert ma_space(PrimeModulus(q), a).dim == m_nullity(q, a)

    # (3, 3, 2) and (5, 5, 3) have a >= p, where the local systems couple
    @pytest.mark.parametrize("q,a,k", [(3, 2, 0), (3, 2, 3), (5, 2, 4), (3, 3, 2), (5, 5, 3)])
    def test_flag_dims(self, q, a, k):
        mod = PrimeModulus(q)
        pars = parameters(mod, a)
        prob = HomProblem(mod, f_of(filtration_rep(mod, a, k)), pars.delta, h_poly(mod, a))
        assert hom_space(prob).dim == kernel_nullity(q, _as_dict(prob.f), pars.delta, _as_dict(prob.h))
