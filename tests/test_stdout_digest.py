"""The stdout digest script: timings are blanked, nothing else, the
sweep's digest does not depend on --jobs, and every command of its list
prints the bytes whose digests `stdout_digests.txt` stores."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "stdout_digest.py"
STORED = Path(__file__).resolve().parent / "stdout_digests.txt"


def _script():
    spec = importlib.util.spec_from_file_location("stdout_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_strip_ms_blanks_only_the_timings():
    strip_ms = _script().strip_ms
    assert strip_ms('{"rows": [{"p": 3, "ms": 12.5}]}\n') == '{"rows": [{"p": 3, "ms": -}]}\n'
    assert strip_ms("p,a,ms\n3,2,1.25\n5,2,10.5\n") == "p,a,ms\n3,2,-\n5,2,-\n"
    text = "max_pa = 6\n  p   a       ms\n  3   2    1.250\n  3   3   10.500\n"
    assert strip_ms(text) == "max_pa = 6\n  p   a       ms\n  3   2 -\n  3   3 -\n"
    assert strip_ms("dim = 4\nbasis:\n  x^2\n") == "dim = 4\nbasis:\n  x^2\n"


def _sweep_digest(jobs: str) -> str:
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--", "sweep", "--max-pa", "350", "--jobs", jobs],
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout
    sha, command = out.rstrip("\n").split("  ", 1)
    assert command == f"sweep --max-pa 350 --jobs {jobs}"
    return sha


def test_sweep_digest_is_independent_of_jobs():
    assert _sweep_digest("1") == _sweep_digest("2")


def test_stdout_matches_the_stored_digests():
    # the fixed list but its two --help commands, whose text depends on the
    # Python version and the terminal width
    script = _script()
    commands = [argv for argv in script.COMMANDS if "--help" not in argv]
    stored = [line.split("  ", 1) for line in STORED.read_text().splitlines()]
    assert [command for _sha, command in stored] == [" ".join(argv) for argv in commands]
    for (sha, command), argv in zip(stored, commands):
        assert script.digest(argv, script.ROOT / "src") == (sha, 0), command
