"""The `powker` namespace resolves each public name lazily, from its defining module."""

import importlib
import pickle

import pytest

import powker
from powker import crt, homspace
from powker.ffpoly import PrimeModulus


@pytest.mark.parametrize("name", powker.__all__)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(powker, name)
    home = importlib.import_module(f"powker.{powker._HOME[name]}")
    assert getattr(home, name) is value
    assert getattr(value, "__module__", home.__name__) == home.__name__


def test_star_import_and_dir():
    namespace: dict = {}
    exec("from powker import *", namespace)
    assert set(powker.__all__) <= set(namespace)
    assert set(powker.__all__) | {"__all__"} <= set(dir(powker))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        powker.no_such_name
    assert not hasattr(powker, "homspace_") and powker.crt is crt


def test_problem_moved_to_crt():
    assert homspace.HomProblem is crt.HomProblem is powker.HomProblem
    assert homspace._ma_problem is crt._ma_problem
    assert crt.HomProblem.__module__ == "powker.crt"


def test_problem_and_space_pickle():
    space = homspace.ma_space(PrimeModulus(5), 3)
    for obj in (space.problem, space):
        back = pickle.loads(pickle.dumps(obj))
        assert type(back) is type(obj) and back == obj
