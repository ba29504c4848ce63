"""Print one sha256 per CLI command, of its stdout with the timing (`ms`) values blanked.

    python3 scripts/stdout_digest.py                           # the fixed command list
    python3 scripts/stdout_digest.py --src ../other/src        # the same, another checkout
    python3 scripts/stdout_digest.py -- sweep --max-pa 12 --jobs 2   # one command

Each command runs as `python3 -m powker ...` in a subprocess, with the
package imported from `--src` (default: this checkout's `src/`).  Run it
on two checkouts and compare the lines: equal digests mean
byte-identical output apart from the per-row `ms` timings of `sweep`.
The exit status is 1 if any command exits nonzero, else 0.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

COMMANDS = (
    ("--help",),
    ("sweep", "--help"),
    ("sweep", "--max-pa", "50", "--format", "json"),
    ("sweep", "--max-pa", "50", "--format", "text"),
    ("sweep", "--max-pa", "50", "--format", "csv"),
    ("sweep", "--max-pa", "60", "--jobs", "2"),
    ("filtration", "--p", "13", "--a", "3"),
    ("filtration", "--p", "13", "--a", "3", "--format", "json"),
    ("filtration", "--p", "13", "--a", "3", "--format", "csv"),
    ("ma", "--p", "47", "--a", "2", "--basis"),
    ("ma", "--p", "47", "--a", "2", "--basis", "--format", "json"),
    ("verify", "--p", "7", "--suite", "all"),
    ("verify", "--p", "7", "--suite", "all", "--format", "json"),
    ("verify", "--p", "11", "--suite", "shift"),
    ("verify", "--p", "13", "--suite", "all", "--format", "json"),
    ("filtration", "--p", "7", "--a", "4", "--format", "json"),
    ("ma", "--p", "5", "--a", "9", "--basis", "--format", "json"),
    ("ma", "--p", "11", "--a", "9", "--basis", "--format", "json"),
    ("sweep", "--max-pa", "100", "--format", "json"),
    ("verify", "--p", "31", "--suite", "qr"),
    ("verify", "--p", "31", "--suite", "klemma"),
    ("sweep", "--max-pa", "350", "--jobs", "2", "--format", "json"),
    ("verify", "--p", "17", "--suite", "shift"),
    ("filtration", "--p", "101", "--a", "2", "--format", "json"),
    ("ma", "--p", "13", "--a", "40", "--basis", "--format", "json"),
    ("ma", "--p", "23", "--a", "22", "--basis", "--format", "json"),
    ("ma", "--p", "5", "--a", "120", "--basis", "--format", "json"),
    ("verify", "--p", "13", "--suite", "family", "--format", "json"),
)


# a sweep row's `ms` value: a JSON key, or the last column of a CSV or
# text table, once the table's header (ending in `ms`) has been seen
_JSON_MS = re.compile(r'("ms": )[-+0-9.eE]+')
_CSV_MS = re.compile(r",[^,\n]*$")
_TEXT_MS = re.compile(r"\s+\S+$")


def strip_ms(text: str) -> str:
    """The output with every `ms` value replaced by `-`; all other bytes are kept."""
    text = _JSON_MS.sub(r"\1-", text)
    lines = text.splitlines(keepends=True)
    cut = None  # (pattern, replacement) once a table header is seen
    for n, line in enumerate(lines):
        if cut is not None and line.strip():
            lines[n] = cut[0].sub(cut[1], line, count=1)
        elif line.rstrip().endswith(",ms"):
            cut = (_CSV_MS, ",-")
        elif line.rstrip().endswith(" ms"):
            cut = (_TEXT_MS, " -")
    return "".join(lines)


def digest(argv, src: Path) -> tuple[str, int]:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-m", "powker", *argv], capture_output=True, text=True, env=env
    )
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return hashlib.sha256(strip_ms(proc.stdout).encode()).hexdigest(), proc.returncode


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="directory holding powker")
    parser.add_argument("command", nargs="*", help="one CLI command instead of the fixed list")
    args = parser.parse_args(argv)
    commands = [args.command] if args.command else COMMANDS
    failed = False
    for command in commands:
        sha, code = digest(command, args.src.resolve())
        failed |= code != 0
        print(f"{sha}  {' '.join(command)}" + (f"  (exit {code})" if code else ""), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
