"""CLI tests: in-process invocations, schemas, exit codes, subprocess smoke."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from powker import __version__, homspace
from powker.cli import main
from powker.reps import Representation
from powker.ffpoly import PrimeModulus

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "docs" / "schemas"


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMa:
    def test_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "ma", "--p", "3", "--a", "2", "--basis", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("homspace"))
        assert data["dim"] == 2
        assert data["basis"] == ["x^3", "t^3"]

    def test_json_without_basis(self, capsys):
        code, out, _ = run_cli(capsys, "ma", "--p", "5", "--a", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("homspace"))
        assert data["dim"] == 4
        assert "basis" not in data

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "ma", "--p", "5", "--a", "3", "--basis")
        assert code == 0
        assert "dim = 4" in out
        assert "basis:" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "ma.json"
        code, out, _ = run_cli(
            capsys, "ma", "--p", "3", "--a", "2", "--format", "json", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["dim"] == 2

    def test_unwritable_out(self, capsys, tmp_path):
        target = tmp_path / "missing" / "ma.json"
        code, _, err = run_cli(
            capsys, "ma", "--p", "3", "--a", "2", "--format", "json", "--out", str(target)
        )
        assert code == 3
        assert "cannot write" in err


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("verify"))
        assert data["ok"] is True
        names = {c["name"] for c in data["checks"]}
        assert {"family_independence", "qr_identity", "substitution_identity",
                "k_polynomial_identity"} <= names

    def test_each_level_built_once(self, capsys, monkeypatch):
        levels = []
        builds = []
        real_f_of, real_level_rows = homspace.f_of, homspace._level_rows

        def counting_f_of(rep):
            levels.append(len(rep.weights))
            return real_f_of(rep)

        def counting_level_rows(problem):
            builds.append(problem.f.x_degree())
            return real_level_rows(problem)

        homspace._level.cache_clear()
        monkeypatch.setattr(homspace, "f_of", counting_f_of)
        monkeypatch.setattr(homspace, "_level_rows", counting_level_rows)
        code, _out, _ = run_cli(capsys, "verify", "--p", "5", "--suite", "all")
        assert code == 0
        # the level-a divisor has (a - 1) * p + (p + 1) / 2 weights
        expected = [(a - 1) * 5 + 3 for a in range(2, 6)]
        assert levels == expected
        assert builds == expected  # one operator per level, membership included

    def test_single_suite(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "5", "--suite", "qr", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [c["name"] for c in data["checks"]] == ["qr_identity"]

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--p", "3", "--suite", "family")
        assert code == 0
        assert "passed" in out and "FAIL" not in out


class TestFiltration:
    def test_json_with_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "filtration", "--p", "3", "--a", "3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("filtration"))
        assert [row["hom_dim"] for row in data["rows"]] == [3, 3, 2, 2]
        assert data["pre_dims"] == [0, 1, 2, 3]

    def test_json_level_two_has_no_staircase(self, capsys):
        code, out, _ = run_cli(capsys, "filtration", "--p", "5", "--a", "2", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("filtration"))
        assert "pre_dims" not in data

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "filtration", "--p", "3", "--a", "2", "--format", "csv")
        assert code == 0
        assert out.startswith("k,dim_v,hom_dim,ext11\n")

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "filtration", "--p", "3", "--a", "2")
        assert code == 0
        assert "hom_dim" in out


class TestSweep:
    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "15")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, load_schema("sweep"))
        assert len(data["rows"]) == 7
        assert all(row["conjecture_zp"] for row in data["rows"])

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "10", "--format", "csv")
        assert code == 0
        assert out.startswith("p,a,dim_ma,ext11,")

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "10", "--format", "text")
        assert code == 0
        assert "dim_ma" in out

    def test_engine_label(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "12", "--jobs", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["engine"] == f"powker/{__version__} (python)"

    def test_jobs_do_not_change_output(self, capsys):
        def stripped(argv):
            code, out, _ = run_cli(capsys, *argv)
            assert code == 0
            data = json.loads(out)
            for row in data["rows"]:
                row.pop("ms")
            return data

        one = stripped(["sweep", "--max-pa", "12", "--jobs", "1"])
        four = stripped(["sweep", "--max-pa", "12", "--jobs", "4"])
        assert one == four


class TestErrorPaths:
    def test_even_prime_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ma", "--p", "4", "--a", "2")
        assert code == 2
        assert "error" in err

    def test_modulus_beyond_the_primality_limit_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ma", "--p", "318665857834031151167461", "--a", "2")
        assert code == 2
        assert "below" in err

    def test_low_level_rejected(self, capsys):
        code, _, err = run_cli(capsys, "ma", "--p", "3", "--a", "1")
        assert code == 2

    def test_low_budget_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--max-pa", "4")
        assert code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["ma", "--p", "3", "--a", "2", "--format", "yaml"])
        assert exc.value.code == 2


class TestRepresentationSchema:
    def test_round_trip_validates(self):
        rep = Representation(PrimeModulus(5), (0, 2, 2))
        data = rep.to_json()
        jsonschema.validate(data, load_schema("representation"))
        assert Representation.from_json(data) == rep


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "powker", "sweep", "--max-pa", "10", "--format", "csv"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("p,a,dim_ma")

    def test_verify_failure_exit_code_is_reachable(self):
        # sanity that exit code discipline holds end to end
        proc = subprocess.run(
            [sys.executable, "-m", "powker", "verify", "--p", "7", "--suite", "subst"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "pass" in proc.stdout
