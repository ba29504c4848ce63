"""Acceptance gate: eight criteria, each with a stated time budget.

Every test prints exactly one pass/fail line of the form

    criterion N (<name>): PASS in <elapsed> (budget <limit>)

and the collected lines are also written to acceptance_report.txt next
to this file.  Budgets are asserted, not advisory.
"""

import json
import time
from pathlib import Path

import pytest

from oracle import m_nullity
from powker import _kernel
from powker.bounds import filtration_table, pre_filtration_dims, sweep
from powker.cli import main
from powker.ffpoly import PrimeModulus
from powker.homspace import (
    FpMatrix,
    contains,
    div_r_shift,
    family_element,
    ma_space,
    mul_r_shift,
    verify_k_lemma,
    verify_qr_identity,
    verify_substitution_identity,
)

_LINES = []


def _record(number, name, elapsed, budget):
    line = f"criterion {number} ({name}): PASS in {elapsed:.2f}s (budget {budget:.0f}s)"
    _LINES.append(line)
    print(line)
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget: {elapsed:.2f}s"


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    path = Path(__file__).resolve().parent / "acceptance_report.txt"
    path.write_text("\n".join(_LINES) + "\n", encoding="utf-8")


@pytest.fixture(scope="module")
def sweep50():
    start = time.perf_counter()
    report = sweep(50)
    return report, time.perf_counter() - start


def test_criterion_1_family_membership():
    start = time.perf_counter()
    for q in (3, 5, 7, 11, 13):
        mod = PrimeModulus(q)
        space = ma_space(mod, 2)
        count = (q + 1) // 2
        elems = [family_element(mod, k) for k in range(count)]
        for m in elems:
            assert contains(space, m), (q, m.text())
        domain = space.problem.domain_monomials()
        index = {key: i for i, key in enumerate(domain)}
        rows = []
        for m in elems:
            vec = [0] * len(domain)
            for i, j, c in m.iterterms():
                vec[index[(i, j)]] = c
            rows.append(vec)
        assert FpMatrix(mod, rows, len(domain)).rank() == count, q
        assert space.dim >= count, q
    _record(1, "family membership", time.perf_counter() - start, 5.0)


def test_criterion_2_shifting_isomorphisms():
    start = time.perf_counter()
    for q in (3, 5, 7):
        mod = PrimeModulus(q)
        dims = {a: ma_space(mod, a).dim for a in range(2, q + 1)}
        assert all(dims[a] == dims[2] for a in dims), (q, dims)
        for a in range(2, q + 1):
            basis = ma_space(mod, a).basis
            for b in range(a + 1, q + 1):
                for m in basis:
                    lifted = mul_r_shift(mod, a, b, m)
                    back = lifted
                    for level in range(b, a, -1):
                        back = div_r_shift(mod, level, back)
                    assert back == m, (q, a, b)
    _record(2, "shifting isomorphisms", time.perf_counter() - start, 30.0)


def test_criterion_3_identity_suite():
    start = time.perf_counter()
    for q in (3, 5, 7, 11, 13):
        mod = PrimeModulus(q)
        assert verify_qr_identity(mod), q
        assert verify_substitution_identity(mod), q
    for q in (3, 5, 7):
        assert verify_k_lemma(PrimeModulus(q)), q
    _record(3, "identity suite", time.perf_counter() - start, 10.0)


def test_criterion_4_filtration_bookkeeping():
    start = time.perf_counter()
    for q, a in ((3, 2), (3, 3), (5, 2), (7, 2)):
        table = filtration_table(PrimeModulus(q), a)
        dims = table.hom_dims()
        half = (q - 1) // 2
        assert all(d == q for d in dims[: half + 1]), (q, a, dims)
        assert all(prev - cur in (0, 1) for prev, cur in zip(dims, dims[1:])), (q, a, dims)
        if a >= 3:
            assert pre_filtration_dims(PrimeModulus(q), a) == tuple(range(q + 1)), (q, a)
    _record(4, "filtration bookkeeping", time.perf_counter() - start, 60.0)


def test_criterion_5_rank_bound_window(sweep50):
    report, _ = sweep50
    start = time.perf_counter()
    assert report.rows, "sweep produced no rows"
    for row in report.rows:
        rep = row.report
        q = rep.p.p
        assert rep.ext11 == q - rep.dim_ma, (q, rep.a)
        assert 1 <= rep.ext11 <= (q + 1) // 2, (q, rep.a, rep.ext11)
    _record(5, "rank bound window over all pa <= 50", time.perf_counter() - start, 10.0)


def test_criterion_6_sweep_reproduction(sweep50):
    report, elapsed = sweep50
    expected_pairs = (
        [(3, a) for a in range(2, 17)]
        + [(5, a) for a in range(2, 11)]
        + [(7, a) for a in range(2, 8)]
        + [(11, a) for a in range(2, 5)]
        + [(13, 2), (13, 3), (17, 2), (19, 2), (23, 2)]
    )
    got_pairs = [(r.report.p.p, r.report.a) for r in report.rows]
    assert got_pairs == expected_pairs
    for row in report.rows:
        assert row.report.conjecture_zp, (row.report.p.p, row.report.a)
        assert row.report.dim_ma == row.report.p.p - 1
    _record(6, "sweep reproduction at max_pa 50", elapsed, 120.0)


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    pairs = [
        (q, a)
        for q in (3, 5, 7)
        for a in range(2, 21 // q + 1)
        if q * a <= 21
    ]
    assert len(pairs) == 11
    for q, a in pairs:
        engine = ma_space(PrimeModulus(q), a).dim
        naive = m_nullity(q, a)
        assert engine == naive, (q, a, engine, naive)
    _record(7, "oracle equivalence for pa <= 21", time.perf_counter() - start, 60.0)


def test_criterion_8_determinism(sweep50, capsys):
    # sweeps run in one process: --jobs is accepted and the CLI's stdout,
    # timings aside, is the library's report for 1, 4 and 8 jobs alike
    serial, _ = sweep50
    start = time.perf_counter()

    def canonical(data):
        for row in data["rows"]:
            row.pop("ms")
        return json.dumps(data, sort_keys=True).encode()

    blob = canonical(serial.to_json())
    for jobs in (1, 4, 8):
        assert main(["sweep", "--max-pa", "50", "--jobs", str(jobs)]) == 0
        assert canonical(json.loads(capsys.readouterr().out)) == blob, jobs
    _record(8, "sweep determinism across 1/4/8 jobs", time.perf_counter() - start, 300.0)


def test_backend_note():
    # not a numbered criterion: record which backend produced the numbers
    line = f"engine backend: {_kernel.backend()}"
    _LINES.append(line)
    print(line)
