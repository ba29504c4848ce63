"""CLI tests: in-process invocations, schemas, exit codes, subprocess smoke."""

import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from powker import __version__, bounds, cli, crt, homspace
from powker.bounds import _sweep_pairs
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
        real_filtration_rep, real_level_rows = crt.filtration_rep, crt._level_rows

        def counting_filtration_rep(p, a, k):
            rep = real_filtration_rep(p, a, k)
            levels.append(len(rep.weights))
            return rep

        def counting_level_rows(problem):
            builds.append(problem.rep.dim)
            return real_level_rows(problem)

        monkeypatch.setattr(crt, "filtration_rep", counting_filtration_rep)
        monkeypatch.setattr(crt, "_level_rows", counting_level_rows)
        code, _out, _ = run_cli(capsys, "verify", "--p", "5", "--suite", "all")
        assert code == 0
        # the level-a divisor has (a - 1) * p + (p + 1) / 2 weights
        expected = [(a - 1) * 5 + 3 for a in range(2, 6)]
        assert levels == expected
        assert builds == expected  # one operator per level, membership included

    @pytest.mark.parametrize("q", [7, 11])
    def test_each_level_is_one_hom_space(self, capsys, monkeypatch, q):
        # the family suite and the shift walk share level 2, and the walk
        # holds levels a and a + 1: every suite together builds levels
        # 2 .. p once each, and no level twice
        problems = []
        real = homspace.hom_space

        def counting_hom_space(problem):
            problems.append(problem)
            return real(problem)

        monkeypatch.setattr(homspace, "hom_space", counting_hom_space)
        code, _out, _ = run_cli(capsys, "verify", "--p", str(q), "--suite", "all")
        assert code == 0
        assert len(problems) == len(set(problems)) == q - 1

    def test_level_outside_the_proven_window_exits_1(self, capsys, monkeypatch):
        # a local table that loses every multiplicity's line: the level's basis
        # passes its own certificates, but its dimension falls below (p + 1) / 2
        real = crt._local_kernels

        def lineless(problem):
            mult, kernels = real(problem)
            return mult, {e: [] for e in kernels}

        monkeypatch.setattr(crt, "_local_kernels", lineless)
        for argv in (["ma", "--p", "5", "--a", "2"], ["verify", "--p", "5", "--suite", "shift"]):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (1, "")
            assert "internal consistency error: kernel dimension 0 is below the proven lower bound 3" in err

    def test_identity_tables_built_once(self):
        # the qr check and the K-lemma read one product, and it and the
        # substitution check one table of powers: each is built once
        tables = (homspace._linear_powers, homspace._k_product)
        for table in tables:
            table.cache_clear()
        homspace._verify_checks(PrimeModulus(5), "all")
        for table in tables:
            info = table.cache_info()
            assert (info.misses, info.hits) == (1, 1), table.__name__

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
        lines = out.strip().split("\n")
        assert lines[0] == "k,dim_v,hom_dim,ext11"
        assert lines[1] == "0,3,3,"
        assert lines[-1] == "3,6,2,1"

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
        header, *rows = out.strip().split("\n")
        assert header == "p,a,dim_ma,ext11,rank_lower,rank_upper,conjecture_zp,ms"
        assert rows[0].startswith("3,2,2,1,1,2,true,")
        assert len(rows) == len(_sweep_pairs(10))

    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "10", "--format", "text")
        assert code == 0
        assert "dim_ma" in out

    def test_engine_label(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--max-pa", "12", "--jobs", "2", "--format", "json")
        assert code == 0
        assert json.loads(out)["engine"] == f"powker/{__version__} (python)"

    def test_jobs_do_not_change_output(self, capsys):
        # --jobs is accepted and ignored: the stdout is the same, timings aside
        def stdout(jobs):
            code, out, _ = run_cli(capsys, "sweep", "--max-pa", "30", "--jobs", jobs, "--format", "csv")
            assert code == 0
            return [line.rsplit(",", 1)[0] for line in out.splitlines()]

        assert stdout("1") == stdout("4") == stdout("8")

    def test_jobs_below_one_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--max-pa", "12", "--jobs", "0")
        assert (code, out) == (2, "")
        assert err == "error: --jobs must be an integer >= 1, got 0\n"


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


class Started(Exception):
    """Raised by the stand-ins for the work that a size limit must prevent."""


class TestSizeLimits:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        # every kernel build, dimension count and identity check fails
        # loudly, so no test here can start the extreme sizes it asks for
        def start(*args):
            raise Started

        monkeypatch.setattr(homspace, "hom_space", start)
        for module in (crt, homspace, bounds):
            monkeypatch.setattr(module, "kernel_dim", start)
        for name in ("verify_qr_identity", "verify_substitution_identity", "verify_k_lemma"):
            monkeypatch.setattr(homspace, name, start)

    @pytest.mark.parametrize(
        "argv",
        [
            ["ma", "--p", "65537", "--a", "2"],  # 98305 columns
            ["ma", "--p", "3", "--a", "668"],  # 2002
            ["filtration", "--p", "3", "--a", "668"],
            ["filtration", "--p", "449", "--a", "5"],  # 2020
            ["filtration", "--p", "13", "--a", "155"],  # 2008
            ["verify", "--p", "1999", "--suite", "family"],  # a = 2: 2998
            ["verify", "--p", "1361", "--suite", "family"],  # 2041; the prime after 1327
            ["verify", "--p", "53", "--suite", "qr"],
            ["verify", "--p", "53", "--suite", "subst"],
            ["verify", "--p", "53", "--suite", "klemma"],
        ],
    )
    def test_over_the_limit_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "over the limit of 2000" in err or "identity suites take p <= 47" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["ma", "--p", "3", "--a", "667"],  # 1999 columns
            ["filtration", "--p", "13", "--a", "154"],  # 1995
            ["sweep", "--max-pa", "500"],  # 499 columns; the largest sweep allowed
            ["verify", "--p", "1327", "--suite", "family"],  # 1990
            ["verify", "--p", "29", "--suite", "shift"],  # the largest shift suite allowed
            ["verify", "--p", "47", "--suite", "klemma"],
            ["filtration", "--p", "449", "--a", "2"],  # the largest filtration prime allowed
        ],
    )
    def test_up_to_the_limit_starts(self, argv):
        with pytest.raises(Started):
            main(argv)

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["filtration", "--p", "457", "--a", "2"], "filtration takes p <= 449, got 457"),
            (["filtration", "--p", "1327", "--a", "2"], "filtration takes p <= 449, got 1327"),  # 1990 columns
            (["verify", "--p", "31", "--suite", "shift"], "the shift suite takes p <= 29, got 31"),
            (["verify", "--p", "43", "--suite", "shift"], "the shift suite takes p <= 29, got 43"),  # 1827
            (["verify", "--p", "31", "--suite", "all"], "the shift suite takes p <= 29, got 31"),
            (["verify", "--p", "47", "--suite", "shift"], "the shift suite takes p <= 29, got 47"),  # 2185
            (["verify", "--p", "47", "--suite", "all"], "the shift suite takes p <= 29, got 47"),
        ],
    )
    def test_over_the_prime_limit_exits_2(self, capsys, argv, message):
        # the walk over the steps or the levels is too long; this limit is
        # checked first, so it is named even where a level is too wide too
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert message in err

    def test_prime_limits_read_their_constants(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_FILTRATION_P", 13)
        monkeypatch.setattr(cli, "MAX_SHIFT_P", 13)
        for q in (11, 13, 17, 19):
            for argv in (["filtration", "--p", str(q), "--a", "2"], ["verify", "--p", str(q), "--suite", "shift"]):
                if q > 13:
                    assert run_cli(capsys, *argv)[0] == 2
                else:
                    with pytest.raises(Started):
                        main(argv)

    @pytest.mark.parametrize("max_pa", [501, 1000, 2003, 2006])
    def test_sweep_over_the_work_limit_exits_2(self, capsys, max_pa):
        # the budget is over --max-pa 500; this limit is checked first, so it
        # is named whether the widest level is narrow enough (997 columns at
        # 1000, 1999 at 2003) or not (2002 at 2006)
        code, out, err = run_cli(capsys, "sweep", "--max-pa", str(max_pa))
        assert (code, out) == (2, "")
        assert f"sweep to max_pa {max_pa} is over the limit of 500" in err

    def test_sweep_limit_reads_max_sweep_pa(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_PA", 40)
        for max_pa in range(6, 61):
            if max_pa > 40:
                assert run_cli(capsys, "sweep", "--max-pa", str(max_pa))[0] == 2
            else:
                with pytest.raises(Started):
                    main(["sweep", "--max-pa", str(max_pa)])

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["ma", "--p", "3", "--a", "1"], "a must be an integer >= 2, got 1"),
            (["filtration", "--p", "3", "--a", "1"], "a must be an integer >= 2, got 1"),
            (["sweep", "--max-pa", "5"], "max_pa must be an integer >= 6, got 5"),
        ],
    )
    def test_below_the_range_exits_2(self, capsys, argv, message):
        # refused before the engine loads, with the engine's own message;
        # the column gate, which would read a = 1 at `sweep --max-pa 5`, comes after
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23, 29])
    def test_column_count_is_the_level_domain(self, monkeypatch, q):
        # `_check_level` counts exactly the level's domain columns, and no
        # step of the flag walks at level a (the filtration table's, and the
        # pre-filtration's one block down) has a wider domain
        mod = PrimeModulus(q)
        widths = []

        def record(problem):
            widths.append(len(problem.domain_monomials()))

        monkeypatch.setattr(bounds, "kernel_dim", record)
        for a in range(2, 21):
            ncols = len(homspace._ma_problem(mod, a).domain_monomials())
            monkeypatch.setattr(cli, "MAX_COLUMNS", ncols)
            cli._check_level(q, a)
            monkeypatch.setattr(cli, "MAX_COLUMNS", ncols - 1)
            with pytest.raises(ValueError, match=f"has {ncols} columns, over the limit of {ncols - 1}"):
                cli._check_level(q, a)
            widths.clear()
            walks = (a - 1, a - 2) if a >= 3 else (a - 1,)
            for blocks in walks:
                bounds._flag_walk(mod, a, blocks)
            assert len(widths) == len(walks) * (q + 1) and max(widths) <= ncols, (q, a)

    def test_sweep_limit_is_its_widest_level(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_COLUMNS", 40)
        width = {
            (q, a): len(homspace._ma_problem(PrimeModulus(q), a).domain_monomials())
            for q, a in _sweep_pairs(60)
        }
        for max_pa in range(6, 61):
            if max(width[pair] for pair in _sweep_pairs(max_pa)) > 40:
                assert run_cli(capsys, "sweep", "--max-pa", str(max_pa))[0] == 2
            else:
                with pytest.raises(Started):
                    main(["sweep", "--max-pa", str(max_pa)])


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

    def test_help_and_usage_error_through_the_entry_point(self):
        # the subparser's default picks the command only after parsing, so
        # neither run imports an engine module (-X importtime logs each import)
        def run(*argv):
            return subprocess.run(
                [sys.executable, "-X", "importtime", "-m", "powker", *argv],
                capture_output=True,
                text=True,
                timeout=120,
            )

        proc = run("sweep", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: powker sweep")
        assert "powker.ffpoly" not in proc.stderr
        proc = run("ma", "--p", "5")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "the following arguments are required: --a" in proc.stderr
        assert "powker.ffpoly" not in proc.stderr

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
