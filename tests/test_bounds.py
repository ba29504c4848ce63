"""Tests for filtration tables, rank reports and the sweep harness."""

import concurrent.futures
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import powker
from powker import __version__
from powker.bounds import (
    ORDER_STATEMENT,
    _sweep_pairs,
    filtration_table,
    pre_filtration_dims,
    rank_report,
    sweep,
)
from powker.ffpoly import PrimeModulus
from powker.homspace import ma_space
from powker.steenrod import parameters

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

    def test_serialization(self):
        table = filtration_table(P3, 2)
        data = table.to_json()
        assert data["p"] == 3 and data["a"] == 2
        assert data["rows"][0] == {"k": 0, "dim_v": 3, "hom_dim": 3, "ext11": None}
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert lines[0] == "k,dim_v,hom_dim,ext11"
        assert lines[1] == "0,3,3,"
        assert lines[-1] == "3,6,2,1"


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


def _without_ms(report) -> str:
    data = report.to_json()
    for row in data["rows"]:
        row.pop("ms")
    return json.dumps(data, sort_keys=True)


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
        with pytest.raises(ValueError):
            sweep(10, parallelism=0)

    def test_small_sweep(self):
        report = sweep(15, parallelism=1)
        assert [(r.report.p.p, r.report.a) for r in report.rows] == [
            (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
        ]
        assert all(r.report.conjecture_zp for r in report.rows)
        assert report.engine.startswith("powker/")

    def test_engine_label(self):
        engine = f"powker/{__version__} (python)"
        assert sweep(12, parallelism=1).engine == sweep(12, parallelism=2).engine == engine

    def test_parallel_matches_serial(self):
        serial = sweep(12, parallelism=1)
        parallel = sweep(12, parallelism=3)
        assert _without_ms(serial) == _without_ms(parallel)

    def test_worker_count_is_clamped(self, monkeypatch):
        # a stand-in pool that records its arguments and maps in this
        # process, so no worker is ever started
        pools = []
        submitted = []

        class RecordingPool:
            def __init__(self, **kwargs):
                pools.append(kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                submitted.append(list(items))
                return map(fn, submitted[-1])

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        serial = sweep(12, parallelism=1)
        report = sweep(12, parallelism=100000)  # 6 pairs, 4 CPUs
        assert [(r.report.p.p, r.report.a) for r in report.rows] == [
            (r.report.p.p, r.report.a) for r in serial.rows
        ]
        assert report.engine == serial.engine
        assert _without_ms(report) == _without_ms(serial)
        # the pool gets the costliest pairs (largest degree delta) first
        order = submitted[0]
        assert sorted(order) == _sweep_pairs(12) != order
        costs = [parameters(PrimeModulus(q), a).delta for q, a in order]
        assert costs == sorted(costs, reverse=True)
        sweep(6, parallelism=100000)  # a single pair runs in this process
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        sweep(12, parallelism=3)  # unknown CPU count: serial
        assert pools == [{"max_workers": 4}]
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        sweep(12, parallelism=100000)
        assert pools[-1]["max_workers"] == len(_sweep_pairs(12))

    def test_serialization(self):
        report = sweep(10, parallelism=1)
        data = report.to_json()
        assert data["max_pa"] == 10
        row = data["rows"][0]
        assert set(row) == {
            "p", "a", "dim_ma", "ext11", "rank_lower", "rank_upper",
            "conjecture_zp", "ms",
        }
        csv = report.to_csv()
        header, *rows = csv.strip().split("\n")
        assert header == "p,a,dim_ma,ext11,rank_lower,rank_upper,conjecture_zp,ms"
        assert rows[0].startswith("3,2,2,1,1,2,true,")
        assert len(rows) == len(report.rows)


def test_cli_import_leaves_out_the_pool():
    # only a parallel sweep imports concurrent.futures, and with it logging
    code = "import sys, powker.cli; print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(Path(powker.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
