"""Value semantics of the package's immutable classes and records.

For each class: equal values compare and hash equal, a different field
value compares unequal, the repr has the `Name(field=value, ...)` form,
assigning or deleting a field raises AttributeError, and a pickle round
trip gives an equal object.  A plain record takes its fields by position or
keyword, refuses a missing, extra or unknown one, and is not equal to
the tuple of its fields.

Every public integer argument refuses a bool, a float, a string and a
value out of its range with a ValueError that names the argument, and a
`BiPoly` key that is not a pair of exponents is refused by name too.
"""

import pickle
import re

import pytest

from powker import cli
from powker.bounds import (
    FiltrationRow, FiltrationTable, RankReport, SweepReport, SweepRow, pre_filtration_dims, rank_report, sweep,
)
from powker.ffpoly import BiPoly, PrimeModulus, binom_mod
from powker.homspace import HomProblem, div_r_shift, family_element, hom_space, mul_r_shift
from powker.reps import Representation, filtration_rep
from powker.steenrod import binomial_terms, parameters

P3 = PrimeModulus(3)


def _problem(delta: int = 0) -> HomProblem:
    return HomProblem(P3, Representation(P3, (0, 1)), delta, BiPoly.one(P3))


def _report(a: int = 2) -> RankReport:
    return rank_report(P3, a)


# name -> (make(variant), a field to assign, the repr of make(0))
CASES = {
    "BiPoly": (lambda v: BiPoly(P3, {(1, 0): 1 + v}), "modulus", "BiPoly(p=3, 't')"),
    "PrimeModulus": (lambda v: PrimeModulus((3, 5)[v]), "p", "PrimeModulus(p=3)"),
    "Parameters": (
        lambda v: parameters(P3, 2 + v),
        "a",
        "Parameters(p=PrimeModulus(p=3), a=2, epsilon=3, delta=3)",
    ),
    "Representation": (
        lambda v: Representation(P3, (4, v)),
        "weights",
        "Representation(modulus=PrimeModulus(p=3), weights=(0, 1))",
    ),
    "HomProblem": (
        _problem,
        "delta",
        "HomProblem(p=PrimeModulus(p=3), rep=Representation(modulus=PrimeModulus(p=3), "
        "weights=(0, 1)), delta=0, h=BiPoly(p=3, '1'))",
    ),
    "HomSpace": (
        lambda v: hom_space(_problem(v)),
        "basis",
        "HomSpace(problem=HomProblem(p=PrimeModulus(p=3), rep=Representation("
        "modulus=PrimeModulus(p=3), weights=(0, 1)), delta=0, h=BiPoly(p=3, '1')), "
        "basis=(BiPoly(p=3, '1'),))",
    ),
    "FiltrationRow": (
        lambda v: FiltrationRow(v, 3, 3, None),
        "k",
        "FiltrationRow(k=0, dim_v=3, hom_dim=3, ext11=None)",
    ),
    "FiltrationTable": (
        lambda v: FiltrationTable(P3, 2 + v, (FiltrationRow(0, 3, 3, None),)),
        "rows",
        "FiltrationTable(p=PrimeModulus(p=3), a=2, "
        "rows=(FiltrationRow(k=0, dim_v=3, hom_dim=3, ext11=None),))",
    ),
    "RankReport": (
        lambda v: _report(2 + v),
        "dim_ma",
        "RankReport(p=PrimeModulus(p=3), a=2, dim_ma=2, ext11=1, rank_lower=1, "
        "rank_upper=2, rank_e2=1, conjecture_zp=True, "
        "order_statement='all p-power torsion has order p')",
    ),
    "SweepRow": (
        lambda v: SweepRow(_report(), 1.5 + v),
        "ms",
        "SweepRow(report=RankReport(p=PrimeModulus(p=3), a=2, dim_ma=2, ext11=1, "
        "rank_lower=1, rank_upper=2, rank_e2=1, conjecture_zp=True, "
        "order_statement='all p-power torsion has order p'), ms=1.5)",
    ),
    "SweepReport": (
        lambda v: SweepReport(6 + v, "e", ()),
        "engine",
        "SweepReport(max_pa=6, engine='e', rows=())",
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueSemantics:
    def test_equality_and_hash(self, name):
        make = CASES[name][0]
        a, b, other = make(0), make(0), make(1)
        assert type(a).__name__ == name
        assert a == b and not a != b and hash(a) == hash(b)
        assert a != other and not a == other
        assert len({a, b, other}) == 2

    def test_repr(self, name):
        make, _field, text = CASES[name]
        assert repr(make(0)) == text

    def test_fields_cannot_be_assigned(self, name):
        make, field, _text = CASES[name]
        obj = make(0)
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, make(1))
        assert getattr(obj, field) == before

    def test_fields_cannot_be_deleted(self, name):
        make, field, _text = CASES[name]
        obj = make(0)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert obj == make(0)

    def test_pickle_round_trip(self, name):
        obj = CASES[name][0](0)
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj)
        assert back == obj and hash(back) == hash(obj) and repr(back) == repr(obj)



RECORDS = (
    "Parameters", "HomSpace", "FiltrationRow", "FiltrationTable", "RankReport", "SweepRow", "SweepReport",
)


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj.__slots__)


@pytest.mark.parametrize("name", RECORDS)
class TestRecords:
    def test_fields_by_position_or_keyword(self, name):
        obj = CASES[name][0](0)
        cls, names, values = type(obj), obj.__slots__, _fields(obj)
        assert cls(*values) == obj
        assert cls(**dict(zip(names, values))) == obj
        assert cls(values[0], **dict(zip(names[1:], values[1:]))) == obj

    def test_wrong_or_unknown_field_raises(self, name):
        obj = CASES[name][0](0)
        cls, names, values = type(obj), obj.__slots__, _fields(obj)
        for args, kwargs in [
            (values[:-1], {}),  # missing
            (values + values[:1], {}),  # extra
            (values, {"nope": 1}),  # unknown
            (values[:-1], {"nope": values[-1]}),  # unknown in place of the last
            (values, {names[0]: values[0]}),  # the first field twice
        ]:
            with pytest.raises(TypeError):
                cls(*args, **kwargs)

    def test_not_equal_to_its_tuple(self, name):
        obj = CASES[name][0](0)
        values = _fields(obj)
        assert obj != values and values != obj
        assert not obj == values and len({obj, values}) == 2


P5 = PrimeModulus(5)
ZERO = BiPoly.zero(P5)

# (argument, call with the value, values out of range); the call is valid at
# an in-range integer, and every value below is refused before any work starts
INTEGER_ARGUMENTS = {
    "PrimeModulus": ("p", PrimeModulus, (1, 2, 4)),
    "binom_mod": ("p", lambda v: binom_mod(5, 2, v), (1, 4, 9, [3])),  # p = 1 looped forever
    "binom_mod.n": ("n", lambda v: binom_mod(v, 2, 5), (-1,)),
    "binom_mod.k": ("k", lambda v: binom_mod(5, v, 5), (-1,)),  # k = -1 returned 0
    "binomial_terms.n": ("n", lambda v: binomial_terms(v, 5), (-1,)),  # n = -1 looped forever
    "binomial_terms.p": ("p", lambda v: binomial_terms(3, v), (1, 4, [3])),  # [3] met the cache unchecked
    "BiPoly.t_exponent": ("exponent", lambda v: BiPoly(P5, {(v, 0): 1}), (-1,)),
    "BiPoly.x_exponent": ("exponent", lambda v: BiPoly(P5, {(1, 1): 1, (0, v): 1}), (-1,)),
    "BiPoly.coefficient": ("coefficient", lambda v: BiPoly(P5, {(0, 0): 1, (1, 0): v}), ()),
    "BiPoly.__pow__": ("exponent", lambda v: BiPoly.x(P5) ** v, (-1,)),
    "parameters": ("a", lambda v: parameters(P5, v), (1,)),
    "filtration_rep.a": ("a", lambda v: filtration_rep(P5, v, 0), (1,)),
    "filtration_rep.k": ("k", lambda v: filtration_rep(P5, 2, v), (-1, 6)),
    "HomProblem": ("delta", lambda v: HomProblem(P5, Representation(P5, (0, 1)), v, BiPoly.one(P5)), (-1,)),
    "family_element": ("k", lambda v: family_element(P5, v), (-1, 3)),
    "mul_r_shift.a": ("a", lambda v: mul_r_shift(P5, v, 4, ZERO), (1, 5)),
    "mul_r_shift.b": ("b", lambda v: mul_r_shift(P5, 3, v, ZERO), (2,)),
    "div_r_shift": ("a", lambda v: div_r_shift(P5, v, ZERO), (2, 6)),
    "pre_filtration_dims": ("a", lambda v: pre_filtration_dims(P5, v), (2,)),
    "sweep": ("max_pa", sweep, (5,)),
    "cli._check_level": ("a", lambda v: cli._check_level(5, v), (1,)),
}


@pytest.mark.parametrize(
    "entry,value",
    [(entry, value) for entry, (_name, _call, out) in INTEGER_ARGUMENTS.items()
     for value in (True, 2.0, "3") + out],
    ids=lambda x: x if isinstance(x, str) and x in INTEGER_ARGUMENTS else repr(x),
)
def test_integer_arguments_are_checked(entry, value):
    name, call, _out = INTEGER_ARGUMENTS[entry]
    with pytest.raises(ValueError, match=rf"\b{re.escape(name)}s?\b.*must be"):
        call(value)


@pytest.mark.parametrize("key", [(1, 0, 2), (1,), 1], ids=repr)
def test_bipoly_keys_are_exponent_pairs(key):
    with pytest.raises(ValueError, match=rf"^exponents must be pairs \(i, j\), got {re.escape(repr(key))}$"):
        BiPoly(P5, {key: 1})
