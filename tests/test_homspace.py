"""Tests for kernel spaces: goldens, invariants, shifts, identity suite."""

import builtins
import inspect
import json
import random
import re
import types
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import (
    crt_lift,
    echelon,
    kernel_basis,
    kernel_nullity,
    level_problem,
    m_nullity,
    taylor_coefficients,
)
from powker import crt, homspace
from powker.bounds import _sweep_pairs
from powker.cli import main
from powker.errors import ConsistencyError
from powker.ffpoly import BiPoly, PrimeModulus, binom_mod
from powker.homspace import (
    FpMatrix,
    HomProblem,
    HomSpace,
    contains,
    div_r_shift,
    family_element,
    hom_space,
    kernel_dim,
    ma_space,
    mul_r_shift,
    verify_k_lemma,
    verify_qr_identity,
    verify_substitution_identity,
)
from powker.reps import Representation, _linear_product, filtration_rep, r_poly
from powker.steenrod import h_poly, one_plus_tau, parameters, total_power

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


class TestHomProblem:
    def test_validation(self):
        r = Representation.regular(P3)
        h = h_poly(P3, 2)
        with pytest.raises(ValueError):
            HomProblem(P3, r, -1, h)
        with pytest.raises(ValueError):
            HomProblem(P3, r, 3, BiPoly.x(P3))  # twist must be in t alone
        with pytest.raises(ValueError):
            HomProblem(P3, r, 3, BiPoly.t(P3))  # twist needs a constant term
        with pytest.raises(ValueError):
            HomProblem(P3, Representation.regular(P5), 3, h)
        with pytest.raises(TypeError):
            HomProblem(P3, r_poly(P3), 3, h)  # the divisor is its weights, not f

    @pytest.mark.parametrize("delta", [2.5, 2.0, True, "3"])
    def test_delta_must_be_an_integer(self, delta):
        # a float or bool delta used to be accepted, and the count and the
        # basis then read 0, the float 2.0 or a TypeError
        with pytest.raises(ValueError, match=f"^delta must be an integer >= 0, got {re.escape(repr(delta))}$"):
            HomProblem(P5, Representation(P5, (0, 1, 2)), delta, h_poly(P5, 2))

    @pytest.mark.parametrize("q", [1000003, 2**61 - 1])
    def test_weights_at_large_primes(self, q):
        # weights near p and residues of more than one byte, in the Taylor
        # functionals and the packed rows
        mod = PrimeModulus(q)

        def linear(w):
            return BiPoly(mod, {(0, 1): 1, (1, 0): -w})

        rep = Representation(mod, (2, 2, 5, q - 1, q - 1, q - 1))
        f = linear(2) ** 2 * linear(5) * linear(-1) ** 3
        assert HomProblem(mod, rep, 2, BiPoly.one(mod)).f == f
        # six conditions on the values and derivatives at the weights cut
        # the quintics in x to 0
        assert hom_space(HomProblem(mod, rep, 5, BiPoly.one(mod))).dim == 0
        # h = (1 + tau)^3 frees D^2 at w = -1: the kernel is spanned by f / (x + t)
        space = hom_space(HomProblem(mod, rep, 5, one_plus_tau(mod, 3)))
        assert space.basis == (linear(2) ** 2 * linear(5) * linear(-1) ** 2,)
        # the count, with cuts of 0 to 5 rows, never walks F_p
        for h in (BiPoly.one(mod), one_plus_tau(mod, 3)):
            for delta in range(6):
                prob = HomProblem(mod, rep, delta, h)
                assert kernel_dim(prob) == hom_space(prob).dim

    def test_domain_order_and_truncation(self):
        # delta below the divisor degree: no truncation
        prob = HomProblem(P3, Representation(P3, tuple(range(3)) * 2), 3, h_poly(P3, 2))
        assert prob.domain_monomials() == ((0, 3), (1, 2), (2, 1), (3, 0))
        # delta above: x-exponent capped at deg_x f - 1
        prob = HomProblem(P3, Representation.regular(P3), 3, h_poly(P3, 2))
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
        prob = HomProblem(P5, Representation(P5, tuple(range(5)) * 2), 6, h_poly(P5, 2))
        space = hom_space(prob)
        assert space.dim == 3
        for k in range(3):
            assert contains(space, family_element(P5, k))

    def test_single_regular_block_p3(self):
        prob = HomProblem(P3, Representation.regular(P3), 3, h_poly(P3, 2))
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

    def test_each_call_builds_the_level(self, monkeypatch):
        # a local table that loses every multiplicity's line after the level
        # was built once: the next call rebuilds it and sees the fault
        ma_space(P5, 2)
        real = crt._local_kernels

        def lineless(problem):
            mult, kernels = real(problem)
            return mult, {e: [] for e in kernels}

        monkeypatch.setattr(crt, "_local_kernels", lineless)
        with pytest.raises(ConsistencyError, match="kernel dimension 0 is below the proven lower bound 3"):
            ma_space(P5, 2)


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


def _divides(prob: HomProblem, m: BiPoly) -> bool:
    """Membership by its definition: f divides P(m) - h*m."""
    return (total_power(m) - prob.h * m).divmod_x(prob.f)[1].is_zero()


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
    # dual route: `contains` reduces by the basis, `_divides` divides by f

    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2), (5, 3), (7, 2)])
    def test_every_basis_element_divides(self, q, a):
        space = ma_space(PrimeModulus(q), a)
        for b in space.basis:
            assert contains(space, b) and _divides(space.problem, b)

    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2)])
    def test_non_members_fail(self, q, a):
        rng = random.Random(20260816)
        space = ma_space(PrimeModulus(q), a)
        outside = len(space.problem.domain_monomials()) - space.dim
        for m in _non_members(space, rng, outside):
            assert not contains(space, m) and not _divides(space.problem, m)

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
        assert family_element(P5, 0) == BiPoly(P5, {(6, 0): 1})
        assert family_element(P5, 1) == BiPoly(P5, {(1, 5): 1})
        assert family_element(P5, 2) == BiPoly(P5, {(0, 6): 2, (4, 2): 4})
        assert [family_element(P5, k).text() for k in range(3)] == ["t^6", "t*x^5", "2*x^6 + 4*t^4*x^2"]

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
        real = homspace.ma_space

        def patched(good: int):
            # every level but `good` gets an empty basis: only 0 is a member there
            def level(p, a):
                space = real(p, a)
                if a == good:
                    return space
                return HomSpace(space.problem, ())

            return level

        lower, upper = ma_space(P3, 2), ma_space(P3, 3)
        m = lower.basis[0]
        lifted = mul_r_shift(P3, 2, 3, m)
        monkeypatch.setattr(homspace, "ma_space", patched(2))
        with pytest.raises(ConsistencyError):
            mul_r_shift(P3, 2, 3, m)
        monkeypatch.setattr(homspace, "ma_space", patched(3))
        with pytest.raises(ConsistencyError):
            div_r_shift(P3, 3, lifted)
        # the helpers check against the space they are handed
        assert homspace._times_r(upper, 2, 3, m) == lifted
        assert homspace._over_r(lower, 3, lifted) == m
        with pytest.raises(ConsistencyError):
            homspace._times_r(HomSpace(upper.problem, ()), 2, 3, m)
        with pytest.raises(ConsistencyError):
            homspace._over_r(HomSpace(lower.problem, ()), 3, lifted)

    def test_shifts_build_the_levels_they_check(self, monkeypatch):
        # level a alone when b == a, else levels a and b; div_r_shift levels a and a - 1
        m = ma_space(P5, 2).basis[0]
        built = []
        real = homspace.hom_space
        monkeypatch.setattr(homspace, "hom_space", lambda problem: built.append(problem) or real(problem))
        assert mul_r_shift(P5, 2, 2, m) == m
        assert len(built) == 1
        lifted = mul_r_shift(P5, 2, 4, m)
        assert div_r_shift(P5, 4, lifted) == m * r_poly(P5)
        assert built == [crt._ma_problem(P5, a) for a in (2, 2, 4, 4, 3)]

    def test_level_range_checks(self):
        m = ma_space(P3, 2).basis[0]
        with pytest.raises(ValueError):
            mul_r_shift(P3, 1, 2, m)
        with pytest.raises(ValueError):
            mul_r_shift(P3, 2, 1, m)
        with pytest.raises(ValueError):
            div_r_shift(P3, 2, m)


class TestIdentitySuite:
    @pytest.fixture(autouse=True)
    def fresh_tables(self):
        # the tables are cached per prime: a patched table of powers must
        # neither meet a product cached before it nor outlive its test
        tables = (homspace._linear_powers, homspace._k_product)
        for table in tables:
            table.cache_clear()
        yield
        for table in tables:
            table.cache_clear()

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_qr_identity(self, q):
        assert verify_qr_identity(PrimeModulus(q))

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_substitution_identity(self, q):
        assert verify_substitution_identity(PrimeModulus(q))

    @pytest.mark.parametrize("q", [3, 5])
    def test_k_lemma(self, q):
        assert verify_k_lemma(PrimeModulus(q))

    # a wrong r (r + t^p) must make every identity that reads it fail,
    # and a failed identity must make `verify` exit 1
    @pytest.fixture
    def wrong_r(self, monkeypatch):
        monkeypatch.setattr(homspace, "r_poly", lambda p: r_poly(p) + BiPoly.monomial(p, p.p, 0))

    @pytest.mark.parametrize("check", [verify_qr_identity, verify_substitution_identity, verify_k_lemma])
    def test_wrong_r_fails(self, wrong_r, check):
        assert not check(P5)

    def test_wrong_r_exits_1(self, wrong_r, capsys):
        assert main(["verify", "--p", "5", "--suite", "klemma"]) == 1
        assert "k_polynomial_identity" in capsys.readouterr().out

    def test_wrong_r_fails_the_shift_round_trips(self, wrong_r, capsys):
        # the suite checks only the images: m r' must fall outside level a + 1
        assert main(["verify", "--p", "5", "--suite", "shift", "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        trips = [c for c in checks if c["name"].startswith("shift_roundtrip")]
        assert [c["name"] for c in trips] == [f"shift_roundtrip_a{a}" for a in (2, 3, 4)]
        assert not any(c["ok"] for c in trips)
        assert all("fell outside level" in c["detail"] for c in trips)

    # a fault in the one table of powers (x - k t)^(p-1) must fail all three
    # identities, which read it, and make `verify` exit 1
    @pytest.mark.parametrize(
        "power",
        [
            lambda p, k: BiPoly(p, {(0, 1): 1, (1, 0): -k * k}) ** (p.p - 1),
            lambda p, k: BiPoly(p, {(0, 1): 1, (1, 0): -k}) ** (p.p - 2),
        ],
        ids=["squared-weights", "exponent-p-2"],
    )
    def test_wrong_powers_fail_every_identity(self, power, monkeypatch, capsys):
        monkeypatch.setattr(homspace, "_linear_powers", lambda p: [power(p, k) for k in range(p.p)])
        for check in (verify_qr_identity, verify_substitution_identity, verify_k_lemma):
            assert not check(P5), check.__name__
        assert main(["verify", "--p", "5", "--suite", "all"]) == 1
        out = capsys.readouterr().out
        for name in ("qr_identity", "substitution_identity", "k_polynomial_identity"):
            assert f"{name}: FAIL" in out

    def test_powers_of_shifted_forms_fail_the_substitution_only(self, monkeypatch):
        # x - (k + 1) t runs over the same p forms, so both products are unchanged
        def shifted(p):
            return [BiPoly(p, {(0, 1): 1, (1, 0): -k - 1}) ** (p.p - 1) for k in range(p.p)]

        monkeypatch.setattr(homspace, "_linear_powers", shifted)
        assert not verify_substitution_identity(P5)
        assert verify_qr_identity(P5) and verify_k_lemma(P5)

    def test_shift_suite_divides_each_upper_basis_vector(self, monkeypatch):
        # the quotient leg takes level a + 1's own basis, not the products m r,
        # whose quotients are m by construction
        seen = []
        real = homspace._over_r
        monkeypatch.setattr(
            homspace, "_over_r", lambda lower, a, n: seen.append((a, n)) or real(lower, a, n)
        )
        assert main(["verify", "--p", "5", "--suite", "shift"]) == 0
        assert seen == [(a, n) for a in (3, 4, 5) for n in ma_space(P5, a).basis]

    def test_shift_suite_checks_each_image_once(self, monkeypatch, capsys):
        # p = 7, levels 2 .. 7: m r for the 30 basis vectors m of levels 2 .. 6
        # and n / r for the 30 of levels 3 .. 7, each checked once
        calls = []
        real = homspace.contains
        monkeypatch.setattr(homspace, "contains", lambda space, m: calls.append(1) or real(space, m))
        assert main(["verify", "--p", "7", "--suite", "shift"]) == 0
        assert len(calls) == 60


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


def _basis_coordinates(space: HomSpace) -> tuple:
    """The basis as coordinate tuples, for comparison with `_oracle_basis`."""
    return tuple(tuple(space.problem.coordinates(b)) for b in space.basis)


def _oracle_basis(prob: HomProblem) -> tuple:
    """The RREF of the oracle's kernel.  A kernel and its annihilator fix each
    other, so equal bases also mean equal RREFs of the operator's rows."""
    return kernel_basis(prob.p.p, _as_dict(prob.f), prob.delta, _as_dict(prob.h))


class TestColumnAssembly:
    @pytest.mark.parametrize(
        "q,a,k", [(3, 2, 2), (5, 2, 3), (5, 2, 5), (5, 3, 1), (7, 2, 4), (3, 3, 3)]
    )
    def test_operator_matches_generic(self, q, a, k):
        mod = PrimeModulus(q)
        prob = HomProblem(mod, filtration_rep(mod, a, k), parameters(mod, a).delta, h_poly(mod, a))
        assert _basis_coordinates(hom_space(prob)) == _oracle_basis(prob)

    def test_triple_weight_divisor(self):
        # (x - t)^3 = x^3 - t^3 mod 3 goes through the local systems and agrees with the oracle
        prob = HomProblem(P3, Representation(P3, (1, 1, 1)), 3, h_poly(P3, 2))
        assert prob.f == BiPoly(P3, {(0, 3): 1, (3, 0): -1})
        space = hom_space(prob)
        assert _basis_coordinates(space) == _oracle_basis(prob)
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
        prob = HomProblem(mod, Representation(mod, (1, 2, 5)), 4, BiPoly(mod, {(0, 0): 1, (256, 0): 3}))
        assert prob.f == f
        assert _basis_coordinates(hom_space(prob)) == _oracle_basis(prob)

    def test_million_prime_linear_divisor(self):
        # one column at p = 1000003, where a table of all p binomial rows
        # does not fit in memory
        mod = PrimeModulus(1000003)
        prob = HomProblem(mod, Representation(mod, (1,)), 2, BiPoly.one(mod))
        assert hom_space(prob).dim == 0

    def test_empty_domain_contains_only_zero(self):
        prob = HomProblem(P3, Representation(P3, ()), 3, h_poly(P3, 2))  # deg_x f = 0
        space = hom_space(prob)
        assert prob.domain_monomials() == () and space.dim == 0
        assert contains(space, BiPoly.zero(P3))
        with pytest.raises(ValueError):
            contains(space, BiPoly.monomial(P3, 3, 0))


class TestKernelCertificate:
    DOMAIN = len(homspace._ma_problem(P5, 2).domain_monomials())

    def _wrapping(self, monkeypatch, name, change):
        """Pass the output of `hom_space`'s domain-width calls of `name` through
        `change`; return the list of those outputs, unchanged.  The local
        systems' calls, which have fewer columns than the domain, are left alone."""
        real = getattr(crt, name)
        seen = []

        def wrapped(rows, ncols, p):
            out = real(rows, ncols, p)
            if ncols < self.DOMAIN:
                return out
            seen.append(out)
            return change(out)

        monkeypatch.setattr(crt, name, wrapped)
        return seen

    def test_dropped_equation_is_caught(self, monkeypatch):
        # the basis gains a vector outside the kernel; dim + rank still adds up
        self._wrapping(monkeypatch, "rref", lambda out: out[:-1])
        with pytest.raises(ConsistencyError, match="does not vanish"):
            hom_space(homspace._ma_problem(P5, 2))

    def test_dropped_basis_vector_is_caught(self, monkeypatch):
        self._wrapping(monkeypatch, "nullspace_rows", lambda out: out[:-1])
        with pytest.raises(ConsistencyError, match="dim 3 \\+ rank"):
            hom_space(homspace._ma_problem(P5, 2))

    def test_one_elimination_at_domain_width(self, monkeypatch):
        seen = self._wrapping(monkeypatch, "rref", lambda out: out)
        assert hom_space(homspace._ma_problem(P5, 2)).dim == 4
        assert len(seen) == 1

    @pytest.mark.parametrize("q,a", [(5, 2), (7, 3), (11, 4), (13, 3), (7, 6)])
    def test_reversed_taylor_functionals_are_caught(self, monkeypatch, q, a):
        # each functional's columns in the wrong order: the level keeps its
        # dimension, the mapped rows vanish on the wrong basis, and only the
        # Taylor coordinates of the basis, evaluated without `_taylor_rows`,
        # leave a local kernel
        real = crt._taylor_rows
        monkeypatch.setattr(crt, "_taylor_rows", lambda *args: [row[::-1] for row in real(*args)])
        with pytest.raises(ConsistencyError, match="the basis leaves K_w at weight 0"):
            hom_space(homspace._ma_problem(PrimeModulus(q), a))


class TestCount:
    """`kernel_dim` counts by CRT the dimension that `hom_space` builds a basis for."""

    def test_sweep_levels(self):
        for q, a in _sweep_pairs(200):
            prob = homspace._ma_problem(PrimeModulus(q), a)
            assert kernel_dim(prob) == hom_space(prob).dim == q - 1, (q, a)

    @pytest.mark.parametrize("q,a", [(13, 3), (7, 4)])
    def test_filtration_steps(self, q, a):
        mod = PrimeModulus(q)
        pars = parameters(mod, a)
        for blocks in (a - 1, a - 2):  # the filtration and the pre-filtration
            for k in range(q + 1):
                prob = HomProblem(mod, filtration_rep(mod, blocks + 1, k), pars.delta, h_poly(mod, a))
                assert kernel_dim(prob) == hom_space(prob).dim, (blocks, k)

    @staticmethod
    def _check_hasse_values(q, weights):
        # G' and the number of Taylor coefficients as `kernel_dim` takes them
        mult = Counter(weights)
        b = min(mult.values()) if len(mult) == q else 0
        g_prime = _linear_product([u for u, e in mult.items() for _ in range(e - b)], q)
        count = 2 * max(mult.values()) - b
        values = crt._hasse_values(g_prime[::-1], list(mult), count, q)
        for i, w in enumerate(mult):
            assert [row[i] for row in values] == taylor_coefficients(g_prime, w, count, q), (w, b)

    def test_hasse_values_match_synthetic_division(self):
        # the packed multipoint evaluation against the Taylor shift, on random
        # weight multisets with a residue missing (b = 0) and with all (b > 0)
        rng = random.Random(20)
        for _ in range(300):
            q = rng.choice([3, 5, 7, 11, 13])
            weights = list(range(q)) * rng.randint(0, 2)
            weights += [rng.randrange(q) for _ in range(rng.randint(1, 3 * q))]
            self._check_hasse_values(q, weights)

    @pytest.mark.parametrize("q", [1000003, 2**61 - 1])
    def test_hasse_values_at_large_primes(self, q):
        # residues of more than one slot byte, and only the weights present evaluated
        rng = random.Random(q)
        for _ in range(20):
            weights = [rng.choice([0, 1, 2, q - 1, rng.randrange(q)]) for _ in range(rng.randint(1, 6))]
            self._check_hasse_values(q, weights * rng.randint(1, 3))

    def test_wrong_series_inverse_is_caught(self, monkeypatch):
        monkeypatch.setattr(crt, "pow", lambda x, y, m: (builtins.pow(x, y, m) + 1) % m, raising=False)
        with pytest.raises(ConsistencyError, match="the series inverse at weight 0"):
            kernel_dim(homspace._ma_problem(P5, 2))

    def test_taylor_values_at_the_wrong_weight_are_caught(self, monkeypatch):
        real = crt._hasse_values

        def shifted(coeffs, weights, count, p):
            return real(coeffs, [(w + 1) % p for w in weights], count, p)

        monkeypatch.setattr(crt, "_hasse_values", shifted)
        # G' has the roots 0, 1, 2 at p = 5, so G'(3) at the weight 2 is not 0
        with pytest.raises(ConsistencyError, match="G' order at 2 is not 1"):
            kernel_dim(homspace._ma_problem(P5, 2))

    def test_basis_outside_the_crt_bounds_is_caught(self, monkeypatch):
        # with no rows (D0 kept) the whole 7-column domain passes the
        # elimination's own checks, but the level kernel lies in a sum of
        # local kernels of dim 5
        real = crt._level_rows
        monkeypatch.setattr(crt, "_level_rows", lambda problem: ([], *real(problem)[1:]))
        with pytest.raises(ConsistencyError, match="dim 7 against D0 = 5"):
            hom_space(homspace._ma_problem(P5, 2))

    def test_regular_block_with_a_weight_above_p_minus_1(self):
        # b = 1 and e_0 = 4 > q = 2, so the lifts' division by y^2 - 1 is
        # more than a sign; counted without it, this level reads 0
        rep = Representation(P3, (0, 1, 2) + (0, 0, 0, 1))
        prob = HomProblem(P3, rep, 3, h_poly(P3, 2))
        assert kernel_dim(prob) == hom_space(prob).dim == 1

    @pytest.mark.parametrize("q", [1000003, 2**61 - 1])
    def test_taylor_rows_at_large_primes(self, q):
        rng = random.Random(q)
        for w in (0, 1, q - 1, rng.randrange(q)):
            for count, length in ((1, 1), (1, 6), (3, 3), (4, 9)):
                rows = crt._taylor_rows(w, count, length, q)
                expected = [
                    [binom_mod(j, k, q) * pow(w, j - k, q) % q if j >= k else 0 for j in range(length)]
                    for k in range(count)
                ]
                assert rows == expected, (w, count, length)

    @pytest.mark.parametrize(
        "old,new,weights,delta,dim",
        [
            # q = 2, b = 2: the unit's lift 1 / (y^2 - 1)^2 mod y^6 = 1 + 2 y^2 is
            # even in y, so without the division the residues of 1 / G still
            # sum to 0 and the count reads 1
            (
                "lifts = {e: [times(jet, sparse_inv, e) for jet in ([1], ypy, *local)] for e, local in kernels.items()}",
                "lifts = {e: [jet for jet in ([1], ypy, *local)] for e, local in kernels.items()}",
                (0,) * 6 + (1, 1, 2, 2),
                8,
                0,
            ),
            # every Pascal entry past k = 0 plus 1: the count reads 2
            (
                "scalars = [c * g % p for c, g in zip(pascal, coeffs[k:])]",
                "scalars = [(c + (k > 0)) * g % p for c, g in zip(pascal, coeffs[k:])]",
                (0,) * 4 + (1, 1, 2, 2),
                5,
                1,
            ),
        ],
        ids=["undivided-lifts", "pascal-plus-one"],
    )
    def test_faults_the_unit_misses_are_caught_by_x_to_the_p_minus_x(self, old, new, weights, delta, dim):
        prob = HomProblem(P3, Representation(P3, weights), delta, h_poly(P3, 3))
        assert kernel_dim(prob) == hom_space(prob).dim == dim
        with pytest.raises(ConsistencyError, match=r"the residues of \(x\^p - x\) / G are not 0"):
            _crt_mutant(old, new).kernel_dim(prob)

    def test_wrong_taylor_coefficients_are_caught_by_the_residues(self, monkeypatch):
        real = crt._hasse_values

        def perturbed(coeffs, weights, count, p):
            # D^k G'(w) + 1 from k = 2 on: the order checks (k <= 1 at
            # (5, 2)) and every series inverse still pass
            values = real(coeffs, weights, count, p)
            return values[:2] + [[(v + 1) % p for v in row] for row in values[2:]]

        monkeypatch.setattr(crt, "_hasse_values", perturbed)
        with pytest.raises(ConsistencyError, match="the residues of 1 / G do not sum to 0"):
            kernel_dim(homspace._ma_problem(P5, 2))


def _crt_mutant(old: str, new: str) -> types.ModuleType:
    """A copy of `powker.crt` with its one line `old` replaced by `new`."""
    source = inspect.getsource(crt)
    assert source.count(old) == 1, old
    module = types.ModuleType("powker._crt_mutant")
    module.__package__ = "powker"
    exec(compile(source.replace(old, new), crt.__file__, "exec"), module.__dict__)
    return module


@st.composite
def _divisor_problems(draw):
    """Random homogeneous monic divisors: products of x - w*t and of r."""
    q = draw(st.sampled_from([3, 5, 7]))
    mod = PrimeModulus(q)
    weights = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=6))
    blocks = draw(st.integers(0, 2 if q < 7 else 1))
    rep = Representation(mod, tuple(range(q)) * blocks + tuple(weights))
    a = draw(st.integers(2, 3))
    delta = draw(st.integers(0, parameters(mod, a).delta))
    return HomProblem(mod, rep, delta, h_poly(mod, a))


class TestOperatorProperties:
    @settings(max_examples=40, deadline=None)
    @given(prob=_divisor_problems(), seed=st.integers(0, 2**32 - 1))
    def test_random_divisors(self, prob, seed):
        q = prob.p.p
        space = hom_space(prob)
        assert _basis_coordinates(space) == _oracle_basis(prob)
        assert space.dim == kernel_nullity(q, _as_dict(prob.f), prob.delta, _as_dict(prob.h))
        # the D0 that `hom_space` certifies against is the local table's sum
        mult, kernels = crt._local_kernels(prob)
        assert crt._level_rows(prob)[1] == sum(len(kernels[e]) for e in mult.values())

        for b in space.basis:
            assert contains(space, b) and _divides(prob, b)
        rng = random.Random(seed)
        outside = min(3, len(prob.domain_monomials()) - space.dim)
        for m in _non_members(space, rng, outside):
            assert not contains(space, m) and not _divides(prob, m)


@st.composite
def _split_problems(draw):
    """Random split divisors prod (x - w t)^e_w with e_w up to 2p + 2, so that
    the identities couple c^w_k across k (the s >= 1 terms) and some residue
    classes have more identities than unknowns; deg_x f stays at most
    3(p + 1), which bounds the oracle's cost.  delta starts from 0, so that
    the domain is often cut below deg_x f.  Half the twists are (1 + tau)^N
    with N = delta - n for an n near the domain, so that the diagonal of
    identity n vanishes and a local kernel is carried; the others are
    random, some with t-exponents that p - 1 does not divide."""
    q = draw(st.sampled_from([3, 5, 7]))
    mod = PrimeModulus(q)
    weights = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=3, unique=True))
    mults: list[int] = []
    for later in range(len(weights) - 1, -1, -1):  # leave at least 1 for each later weight
        mults.append(draw(st.integers(1, min(2 * q + 2, 3 * (q + 1) - sum(mults) - later))))
    rep = Representation(mod, tuple(w for w, e in zip(weights, mults) for _ in range(e)))
    delta = draw(st.integers(0, rep.dim + q))
    if draw(st.booleans()):
        n = draw(st.integers(-1, min(delta, rep.dim - 1) + 1))
        return HomProblem(mod, rep, delta, _tau_power(mod, max(delta - n, 0)))
    terms = draw(st.dictionaries(st.integers(1, 3 * q), st.integers(0, q - 1), max_size=3))
    terms[0] = draw(st.integers(1, q - 1))
    h = BiPoly(mod, {(g, 0): c for g, c in terms.items()})
    return HomProblem(mod, rep, delta, h)


def _tau_power(mod: PrimeModulus, n: int) -> BiPoly:
    """(1 + tau)^n, tau = t^(p-1)."""
    return BiPoly(mod, {(0, 0): 1, (mod.p - 1, 0): 1}) ** n


class TestWeightLocalSystems:
    # (x - t)^4 at p = 3 and x^6 at p = 5: the identity for n = p couples
    # c^w_p with c^w_1 through its s = 1 term
    @example(prob=HomProblem(P3, Representation(P3, (1,) * 4), 1, BiPoly.one(P3)))
    @example(prob=HomProblem(P5, Representation(P5, (0,) * 6), 2, BiPoly(P5, {(0, 0): 1, (4, 0): 1})))
    @settings(max_examples=60, deadline=None)
    @given(prob=_split_problems())
    def test_equations_match_oracle(self, prob):
        f, h = _as_dict(prob.f), _as_dict(prob.h)
        space = hom_space(prob)
        assert kernel_dim(prob) == space.dim == kernel_nullity(prob.p.p, f, prob.delta, h)
        assert _basis_coordinates(space) == kernel_basis(prob.p.p, f, prob.delta, h)

    @settings(max_examples=60, deadline=None)
    @given(prob=_split_problems())
    def test_each_jet_lies_in_one_residue_class(self, prob):
        q = prob.p.p - 1
        mult, kernels = crt._local_kernels(prob)
        # every weight, ascending, with its multiplicity; one basis per multiplicity
        assert list(mult.items()) == sorted(Counter(prob.rep.weights).items())
        assert list(kernels) == list(dict.fromkeys(mult.values()))
        for e, jets in kernels.items():
            assert len(jets) <= 1  # the line of c^w_n0, or {0}
            for jet in jets:
                assert len(jet) == min(e, prob.x_bound() + 1)
                assert len({k % q for k, v in enumerate(jet) if v}) == 1
                assert sorted(jet) == [0] * (len(jet) - 1) + [1]

    @pytest.mark.parametrize("q,a", [(5, 2), (7, 8)])
    def test_each_system_is_solved_once(self, monkeypatch, q, a):
        # the multiplicities are 2 and 1 at (5, 2), and 8 and 7 at (7, 8): the
        # count and the basis each build the level's local table once
        seen = []
        real = crt._local_kernels

        def counting(problem):
            seen.append(problem)
            return real(problem)

        monkeypatch.setattr(crt, "_local_kernels", counting)
        prob = homspace._ma_problem(PrimeModulus(q), a)
        for build in (kernel_dim, hom_space):
            seen.clear()
            build(prob)
            assert seen == [prob], build

    # h = (1 + tau)^(delta - n) makes the diagonal of identity n vanish, so
    # c^w_n is free after it; the identities n + s(p-1) that follow cut it
    # exactly when some C(n, s) is nonzero mod p
    @pytest.mark.parametrize(
        "q,e,delta,n",
        [
            (3, 4, 4, 1),  # freed by the first identity of its class, cut by the next
            (3, 4, 1, 1),  # cut by n = 3 > x_bound, an identity with no unknown of its own
            (5, 7, 6, 1),  # freed at n = 1, cut at n = 5 = 1 + (p - 1)
            (3, 8, 7, 3),  # C(3, 1) = C(3, 2) = 0 mod 3: c_3 stays free to the end
            (3, 10, 9, 3),  # ... and is cut at n = 9 by C(3, 3) = 1
            (3, 9, 9, 0),  # C(0, s) = 0: c_0 stays free
            (5, 25, 24, 5),  # C(5, s) = 0 mod 5 for s = 1..4: c_5 survives four identities
            (5, 26, 25, 5),  # ... and is cut at n = 25 by C(5, 5) = 1
            (3, 27, 26, 9),  # n0 = 100 in base 3: free through s = 8
            (3, 28, 27, 9),  # ... and cut at s = 9 by C(9, 9) = 1
        ],
    )
    def test_carried_kernel(self, q, e, delta, n):
        mod = PrimeModulus(q)
        for w in (0, 1):
            prob = HomProblem(mod, Representation(mod, (w,) * e), delta, _tau_power(mod, delta - n))
            space = hom_space(prob)
            assert _basis_coordinates(space) == _oracle_basis(prob)
            assert kernel_dim(prob) == space.dim == kernel_nullity(q, _as_dict(prob.f), delta, _as_dict(prob.h))


def _lift_dim(prob: HomProblem) -> int:
    """The count by a second route: D0 less the rank of the coefficients of
    x^(x_bound + 1) .. x^(d - 1) of the oracle's CRT lifts of the local solutions."""
    q = prob.p.p
    mult = Counter(prob.rep.weights)
    kernels = crt._local_kernels(prob)[1]
    top = prob.x_bound()
    rows = [
        crt_lift(mult, w, jet + [0] * (e - len(jet)), q)[top + 1 :]
        for w, e in mult.items()
        for jet in kernels[e]
    ]
    return len(rows) - len(echelon(rows, prob.rep.dim - 1 - top, q))


class TestCutSecondRoute:
    """`kernel_dim` reads the cut through Taylor rows of the lifts' series; the
    oracle builds each lift m = G_w(x) S(x - w) and ranks its top coefficients."""

    # e_1 = 3 = p: the solution at weight 1 of class 0 has two entries, c^1_0 and c^1_2
    @example(prob=HomProblem(P3, Representation(P3, (0, 0, 1, 1, 1)), 2, _tau_power(P3, 2)))
    @settings(max_examples=60, deadline=None)
    @given(prob=_split_problems())
    def test_lifts_count_the_level(self, prob):
        assert _lift_dim(prob) == kernel_dim(prob)

    def test_a_dropped_cut_row_passes_the_residues_but_not_the_lifts(self):
        # the residue sums never read the cut, so this mutant raises nothing;
        # at (5, 2) the last local solution's row is in the span of the others
        mutant = _crt_mutant(
            "return len(cut) - len(rref(cut, c, p))",
            "return len(cut) - 1 - len(rref(cut[:-1], c, p))",
        )
        prob = homspace._ma_problem(P5, 2)
        assert mutant.kernel_dim(prob) == 3
        assert _lift_dim(prob) == kernel_dim(prob) == 4


class TestOracleAgreement:
    # every level with p*a <= 21 is acceptance criterion 7; these go on to
    # 30.  The basis itself is the RREF of the oracle's kernel.
    @pytest.mark.parametrize(
        "q,a",
        [(3, 2), (5, 2), (3, 3), (11, 2), (3, 8), (5, 5), (13, 2), (3, 9), (7, 4), (5, 6), (3, 10)]
        + [(3, 4), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 2), (7, 3)],
    )
    def test_level_dims(self, q, a):
        space = ma_space(PrimeModulus(q), a)
        assert space.dim == m_nullity(q, a)
        assert _basis_coordinates(space) == kernel_basis(q, *level_problem(q, a))

    # (3, 3, 2) and (5, 5, 3) have a >= p, where the local systems couple
    @pytest.mark.parametrize("q,a,k", [(3, 2, 0), (3, 2, 3), (5, 2, 4), (3, 3, 2), (5, 5, 3)])
    def test_flag_dims(self, q, a, k):
        mod = PrimeModulus(q)
        pars = parameters(mod, a)
        prob = HomProblem(mod, filtration_rep(mod, a, k), pars.delta, h_poly(mod, a))
        assert hom_space(prob).dim == kernel_nullity(q, _as_dict(prob.f), pars.delta, _as_dict(prob.h))
