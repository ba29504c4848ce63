"""The checkout tracks no file that `.gitignore` excludes, its two
version strings agree, and no module of the package imports a name it
never uses.

Generated sources, build output and test reports are listed in
`.gitignore`; once such a file is tracked anyway, every build or test
run leaves a modified tracked file behind.  The version is set by hand
in `pyproject.toml` and in `powker._version`, whose value the sweep's
`engine` label prints.  The unused-import check reads each module's
syntax tree, so it needs no linter.
"""

import ast
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


def _unused_imports(source: str) -> list[str]:
    """The names that `source` imports and never reads; `__future__` imports
    are skipped, and a name listed in `__all__` counts as read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.partition(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_import_is_found():
    assert _unused_imports("from a import b, c\nimport d.e\n__all__ = ['c']\n") == ["b (line 1)", "d (line 2)"]
    assert _unused_imports("from __future__ import annotations\nimport d.e\nd.e.f()\n") == []


def test_every_import_is_used():
    unused = {
        path.name: names
        for path in sorted((ROOT / "src" / "powker").glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path.read_text()))
    }
    assert unused == {}
