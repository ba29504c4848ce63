"""The pair comparison script: medians, win counts and the bound flag."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"

SPEC = {
    "workloads": [{"name": "sweep"}],
    "end_to_end": [{"name": "wall_s", "better": "lower", "bound": 0.25}],
}


def _summarise():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.summarise


def _runs(values, failed=0):
    return [{"attempted": 10, "failed": failed, "metrics": {"sweep.wall_s": {"value": v}}} for v in values]


def test_a_change_inside_its_bound_is_not_flagged():
    lines, flagged = _summarise()(SPEC, _runs([1.0, 1.2, 1.1, 1.3]), _runs([1.1, 1.1, 1.2, 1.2]))
    assert not flagged
    assert lines == [
        "sweep.wall_s             1.15 -> 1.15 (+0.0%; parent quartiles 1.025..1.275, IQR 0.25; "
        "change better in 2/4; bound 25%)"
    ]


def test_a_median_past_its_bound_and_a_failed_pass_are_flagged():
    lines, flagged = _summarise()(SPEC, _runs([1.0, 1.0, 1.0]), _runs([1.3, 1.2, 1.3], failed=1))
    assert flagged
    assert lines[0] == "WORSE change: 3 of 30 passes failed"
    assert lines[1].startswith("WORSE sweep.wall_s             1 -> 1.3 (+30.0%;")
    assert "change better in 0/3" in lines[1]


def _line(old, new):
    lines, flagged = _summarise()(SPEC, _runs(old), _runs(new))
    assert not flagged
    return lines[-1]


def test_a_gain_that_meets_the_claim_rule_is_claimable():
    # better in 9 of 10 pairs, and the medians 0.25 apart against an IQR of 0.2
    old = [1.0, 1.0, 1.0, 1.1, 1.1, 1.1, 1.1, 1.2, 1.2, 1.2]
    new = [0.8, 0.8, 0.8, 0.8, 0.8, 0.9, 0.9, 0.9, 0.9, 1.3]
    assert _line(old, new).endswith("change better in 9/10; bound 25%) CLAIMABLE")


def test_a_gain_that_misses_either_condition_is_not_claimable():
    old = [1.0, 1.0, 1.0, 1.1, 1.1, 1.1, 1.1, 1.2, 1.2, 1.2]
    # far apart, but better in only 8 of 10 pairs
    few_wins = [0.8, 0.8, 0.8, 0.8, 0.8, 0.9, 0.9, 0.9, 1.3, 1.3]
    assert _line(old, few_wins).endswith("change better in 8/10; bound 25%)")
    # better in every pair, but the medians 0.05 apart, inside the IQR of 0.2
    close = [v - 0.05 for v in old]
    assert _line(old, close).endswith("change better in 10/10; bound 25%)")
