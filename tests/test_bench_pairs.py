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
