"""Value semantics of the package's immutable classes and records.

For each class: equal values compare and hash equal, a different field
value compares unequal, the repr has the `Name(field=value, ...)` form,
assigning a field raises AttributeError, and a pickle round trip gives
an equal object.  A plain record takes its fields by position or
keyword, refuses a missing, extra or unknown one, and is not equal to
the tuple of its fields.
"""

import pickle

import pytest

from powker.bounds import FiltrationRow, FiltrationTable, RankReport, SweepReport, SweepRow, rank_report
from powker.ffpoly import BiPoly, PrimeModulus
from powker.homspace import HomProblem, hom_space
from powker.reps import Representation
from powker.steenrod import parameters

P3 = PrimeModulus(3)


def _problem(delta: int = 0) -> HomProblem:
    return HomProblem(P3, Representation(P3, (0, 1)), delta, BiPoly.one(P3))


def _report(a: int = 2) -> RankReport:
    return rank_report(P3, a)


# name -> (make(variant), a field to assign, the repr of make(0))
CASES = {
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
