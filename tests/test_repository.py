"""The checkout tracks no file that `.gitignore` excludes, and its two
version strings agree.

Generated sources, build output and test reports are listed in
`.gitignore`; once such a file is tracked anyway, every build or test
run leaves a modified tracked file behind.  The version is set by hand
in `pyproject.toml` and in `powker._version`, whose value the sweep's
`engine` label prints.
"""

import shutil
import subprocess
from pathlib import Path

import pytest

import powker

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)


def test_no_ignored_file_is_tracked():
    if shutil.which("git") is None:
        pytest.skip("git is not installed")
    top = _git("rev-parse", "--show-toplevel")
    if top.returncode != 0 or Path(top.stdout.strip()).resolve() != ROOT:
        pytest.skip("not a git checkout of this project")
    listed = _git("ls-files", "-ci", "--exclude-standard")
    assert listed.returncode == 0, listed.stderr
    assert listed.stdout == ""


def test_package_version_matches_the_project_metadata():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == powker.__version__
