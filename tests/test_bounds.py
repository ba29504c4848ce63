"""Tests for filtration tables, rank reports and the sweep harness."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powker
from powker import __version__, bounds
from powker.bounds import (
    ORDER_STATEMENT,
    _sweep_pairs,
    filtration_table,
    pre_filtration_dims,
    rank_report,
    sweep,
)
from powker.errors import ConsistencyError
from powker.ffpoly import PrimeModulus
from powker.homspace import ma_space

P3 = PrimeModulus(3)
P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


class TestFiltrationTable:
    def test_golden_profiles(self):
        assert filtration_table(P3, 2).hom_dims() == (3, 3, 2, 2)
        assert filtration_table(P3, 3).hom_dims() == (3, 3, 2, 2)
        assert filtration_table(P5, 2).hom_dims() == (5, 5, 5, 4, 3, 3)
        assert filtration_table(P7, 2).hom_dims() == (7, 7, 7, 7, 6, 5, 4, 4)

    def test_ext_column(self):
        table = filtration_table(P5, 2)
        assert [row.ext11 for row in table.rows] == [None, None, None, 1, 2, 2]
        for row in table.rows:
            if row.ext11 is not None:
                assert row.ext11 == 5 - row.hom_dim

    def test_dim_v_column(self):
        for q, a in ((3, 2), (5, 3)):
            table = filtration_table(PrimeModulus(q), a)
            assert [row.dim_v for row in table.rows] == [
                (a - 1) * q + k for k in range(q + 1)
            ]

    def test_half_step_row_is_the_level_dimension(self):
        # the level space is the kernel at the half flag, so the table
        # must agree with it there, and that value is p - 1
        for q, a in ((3, 2), (5, 2), (7, 2), (3, 3)):
            mod = PrimeModulus(q)
            table = filtration_table(mod, a)
            mid = (q + 1) // 2
            assert table.rows[mid].hom_dim == ma_space(mod, a).dim == q - 1

    def test_half_step_outside_the_window_raises(self, monkeypatch):
        # a count that never drops keeps the plateau and the steps of 0 or 1,
        # but puts ext11 = 0 at the level-a step, which `_check_ma_dim` refuses
        monkeypatch.setattr(bounds, "kernel_dim", lambda problem: problem.p.p)
        with pytest.raises(ConsistencyError, match="ext11 = 0 violates the proven window"):
            filtration_table(P5, 2)

    def test_serialization(self):
        table = filtration_table(P3, 2)
        data = table.to_json()
        assert data["p"] == 3 and data["a"] == 2
        assert data["rows"][0] == {"k": 0, "dim_v": 3, "hom_dim": 3, "ext11": None}


class TestPreFiltrationDims:
    @pytest.mark.parametrize("q,a", [(3, 3), (5, 3), (3, 4)])
    def test_staircase(self, q, a):
        assert pre_filtration_dims(PrimeModulus(q), a) == tuple(range(q + 1))

    def test_requires_level_three(self):
        with pytest.raises(ValueError):
            pre_filtration_dims(P3, 2)


class TestRankReport:
    @pytest.mark.parametrize("q,a", [(3, 2), (5, 2), (7, 2), (3, 5)])
    def test_fields(self, q, a):
        rep = rank_report(PrimeModulus(q), a)
        assert rep.dim_ma == q - 1
        assert rep.ext11 == 1
        assert rep.rank_e2 == 1
        assert rep.rank_lower == 1
        assert rep.rank_upper == (q + 1) // 2
        assert rep.conjecture_zp is True
        assert rep.order_statement == ORDER_STATEMENT

    def test_window(self):
        rep = rank_report(P7, 3)
        assert rep.rank_lower <= rep.rank_e2 <= rep.rank_upper

    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    def test_dimension_outside_the_window_raises(self, q, monkeypatch):
        # (q + 1) / 2 <= dim <= q - 1, checked by rank_report and by each `ma` level
        for dim in range(q + 2):
            monkeypatch.setattr(bounds, "kernel_dim", lambda problem: dim)
            if (q + 1) // 2 <= dim <= q - 1:
                assert rank_report(PrimeModulus(q), 2).dim_ma == dim
            else:
                with pytest.raises(ConsistencyError, match="proven"):
                    rank_report(PrimeModulus(q), 2)


class TestSweep:
    def test_pair_enumeration(self):
        assert _sweep_pairs(6) == [(3, 2)]
        pairs = _sweep_pairs(50)
        expected = (
            [(3, a) for a in range(2, 17)]
            + [(5, a) for a in range(2, 11)]
            + [(7, a) for a in range(2, 8)]
            + [(11, a) for a in range(2, 5)]
            + [(13, 2), (13, 3), (17, 2), (19, 2), (23, 2)]
        )
        assert pairs == expected
        assert len(pairs) == 38

    def test_validation(self):
        with pytest.raises(ValueError):
            sweep(5)

    def test_small_sweep(self):
        report = sweep(15)
        assert [(r.report.p.p, r.report.a) for r in report.rows] == [
            (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
        ]
        assert all(r.report.conjecture_zp for r in report.rows)
        assert report.engine.startswith("powker/")

    def test_engine_label(self):
        assert sweep(12).engine == f"powker/{__version__} (python)"

    def test_serialization(self):
        report = sweep(10)
        data = report.to_json()
        assert data["max_pa"] == 10
        row = data["rows"][0]
        assert set(row) == {
            "p", "a", "dim_ma", "ext11", "rank_lower", "rank_upper",
            "conjecture_zp", "ms",
        }


ENGINE = {
    "powker.ffpoly", "powker.steenrod", "powker.reps", "powker.crt",
    "powker.homspace", "powker.bounds", "powker._pykernel",
}
COUNT = {"powker.ffpoly", "powker.steenrod", "powker.reps", "powker.crt", "powker._pykernel"}


WATCHED = ENGINE | {"concurrent.futures", "multiprocessing", "logging", "dataclasses", "inspect", "powker._kernel", "json"}


def _loaded_after(code: str, watched=WATCHED, flags=()) -> set[str]:
    """The `watched` modules (by default the engine, pool and `json` ones)
    loaded after running `code` in a new interpreter started with `flags`;
    `sys.modules` is read before the script imports `json`."""
    script = (
        f"import sys\n{code}\nloaded = sorted({set(watched)!r} & set(sys.modules))\n"
        "import json\nprint(json.dumps(loaded))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(powker.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _main(argv: list[str]) -> str:
    return f"import powker.cli\ntry:\n    powker.cli.main({argv!r})\nexcept SystemExit:\n    pass"


@pytest.mark.parametrize(
    "code,loaded",
    [
        ("import powker", set()),
        ("import powker.cli", set()),
        ("import powker\npowker.kernel_dim", COUNT),
        (_main(["--help"]), set()),
        (_main([]), set()),
        (_main(["nope"]), set()),
        (_main(["sweep", "--help"]), set()),
        (_main(["ma", "--p", "5"]), set()),
        (_main(["verify", "--p", "x"]), set()),
        (_main(["sweep", "--max-pa", "30", "--format", "csv"]), COUNT | {"powker.bounds"}),
        (_main(["filtration", "--p", "5", "--a", "3"]), COUNT | {"powker.bounds"}),
        (_main(["verify", "--p", "3", "--suite", "all"]), COUNT | {"powker.homspace"}),
        (_main(["ma", "--p", "5", "--a", "2"]), COUNT | {"powker.homspace"}),
        (_main(["sweep", "--max-pa", "2006"]), set()),
        (_main(["filtration", "--p", "457", "--a", "2"]), {"powker.ffpoly"}),
        (_main(["ma", "--p", "3", "--a", "668"]), {"powker.ffpoly"}),
    ],
    ids=[
        "package", "cli", "count-name", "help", "no-command", "unknown-command",
        "sweep-help", "ma-no-level", "verify-bad-prime", "sweep", "filtration", "verify", "ma",
        "sweep-refused", "filtration-refused", "ma-refused",
    ],
)
def test_each_command_loads_only_its_engine(code, loaded):
    # `sweep` and `filtration` never load homspace, `verify` and `ma` never
    # load bounds, and neither the package nor --help nor a usage error
    # (of a command too) loads any engine module; a command over a limit
    # loads at most `ffpoly`, to validate p; text and CSV output load no json
    assert _loaded_after(code) == loaded


def test_cli_import_leaves_out_the_pool(tmp_path):
    # no module imports concurrent.futures or multiprocessing (sweeps run in
    # one process), nor dataclasses, which brings in inspect; the CLI never
    # loads the benchmark's kernel shim
    left_out = {"concurrent.futures", "multiprocessing", "logging", "dataclasses", "inspect", "powker._kernel"}
    assert not _loaded_after("import powker.cli") & left_out
    # --jobs is accepted and starts no pool, at a size a pool once ran
    out = tmp_path / "sweep.json"
    assert not _loaded_after(_main(["sweep", "--max-pa", "350", "--jobs", "2", "--out", str(out)])) & left_out
    assert len(json.loads(out.read_text())["rows"]) == len(_sweep_pairs(350))


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--max-pa", "30", "--format", "csv"],
        ["filtration", "--p", "5", "--a", "3"],
        ["verify", "--p", "3", "--suite", "all"],
        ["ma", "--p", "5", "--a", "2"],
    ],
    ids=["sweep", "filtration", "verify", "ma"],
)
def test_commands_leave_out_typing(argv):
    # the records are `Frozen` classes, so no command imports `typing`; the
    # interpreter runs without `site`, whose hooks may load it on their own
    assert _loaded_after(_main(argv), watched={"typing"}, flags=("-S",)) == set()
