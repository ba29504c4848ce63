"""The workload checkers accept real CLI output and reject altered output.

    python3 -m pytest -q perfbench

Each case runs the CLI in-process on a small instance of the workload's
command, checks that the real output passes, then alters one number (or
one name) and checks that the checker reports it.  A checker that never
fails would prove nothing.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from powker import cli  # noqa: E402


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _set(path, value):
    def alter(data):
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value(target[path[-1]]) if callable(value) else value

    return alter


def _drop_check(data):
    data["checks"].pop()


def _rename_check(data):
    data["checks"][0]["name"] = "family_member_k99"


def _swap_rows(data):
    data["rows"][0], data["rows"][1] = data["rows"][1], data["rows"][0]


SMALL = {
    "sweep": (
        ["sweep", "--max-pa", "21", "--jobs", "1", "--format", "json"],
        lambda: workloads.sweep_expect(21),
        [
            _set(("rows", 0, "dim_ma"), lambda v: v + 1),
            _set(("rows", 5, "ext11"), 2),
            _set(("rows", 3, "rank_upper"), lambda v: v + 1),
            _set(("rows", 2, "conjecture_zp"), False),
            _set(("rows", -1, "a"), 9),
            _swap_rows,
            _set(("rows", 0, "extra"), 1),
        ],
    ),
    "filtration": (
        ["filtration", "--p", "5", "--a", "3", "--format", "json"],
        lambda: workloads.filtration_expect(5, 3),
        [
            _set(("rows", 1, "hom_dim"), lambda v: v - 1),
            _set(("rows", 3, "hom_dim"), lambda v: v - 1),
            _set(("rows", 4, "dim_v"), lambda v: v + 1),
            _set(("rows", 5, "ext11"), lambda v: v + 1),
            _set(("rows", 0, "ext11"), 0),
            _set(("pre_dims", 2), 3),
            _set(("a",), 4),
        ],
    ),
    "verify": (
        ["verify", "--p", "5", "--suite", "all", "--format", "json"],
        lambda: workloads.verify_expect(5),
        [
            _set(("ok",), False),
            _set(("checks", 3, "ok"), False),
            _drop_check,
            _rename_check,
            _set(("p",), 7),
        ],
    ),
}


def _cases():
    for name, (_argv, _expect, alterations) in SMALL.items():
        for i in range(len(alterations)):
            yield name, i


@pytest.fixture(scope="module")
def real_outputs():
    out = {}
    for name, (argv, expect, _alt) in SMALL.items():
        code, text = _run(argv)
        out[name] = (code, text, expect(), workloads.validator_for(name))
    return out


@pytest.mark.parametrize("name", list(SMALL))
def test_real_output_passes(real_outputs, name):
    code, text, exp, validator = real_outputs[name]
    assert workloads.WORKLOADS[name].check(code, text, exp, validator) == []


@pytest.mark.parametrize("name,index", list(_cases()))
def test_altered_output_fails(real_outputs, name, index):
    code, text, exp, validator = real_outputs[name]
    data = copy.deepcopy(json.loads(text))
    SMALL[name][2][index](data)
    altered = json.dumps(data)
    assert altered != json.dumps(json.loads(text))
    assert workloads.WORKLOADS[name].check(code, altered, exp, validator) != []


@pytest.mark.parametrize("name", list(SMALL))
def test_bad_exit_code_fails(real_outputs, name):
    _code, text, exp, validator = real_outputs[name]
    assert workloads.WORKLOADS[name].check(1, text, exp, validator) != []


def test_oracle_disagreement_fails(real_outputs):
    code, text, exp, validator = real_outputs["sweep"]
    wrong = dict(exp, oracle_dim={key: dim + 1 for key, dim in exp["oracle_dim"].items()})
    assert workloads.WORKLOADS["sweep"].check(code, text, wrong, validator) != []


def test_workload_expectations_match_the_stated_inputs():
    pairs = workloads.sweep_expect(60)["pairs"]
    assert len(pairs) == 50 and pairs[0] == (3, 2) and pairs[-1] == (29, 2)
    names = workloads.verify_expect(7)["names"]
    assert len(names) == 18 and "shift_roundtrip_a6" in names and "shift_dim_a7" in names
