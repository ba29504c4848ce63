"""The benchmark's traced pass runs on this checkout.

`perfbench/traced_pass.py` wraps functions that it looks up by name
across the package (`_kernel.rref`, `_kernel.reduce_slice`,
`homspace.FpMatrix`, `steenrod.total_power`, ...).  Nothing else in this
suite runs it, so deleting or renaming one of those names would go
unseen until the benchmark failed.
"""

import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "perfbench" / "traced_pass.py"


def test_traced_verify_pass_exits_0():
    argv = ["--backend", "python", "--trace", "1", "--", "verify", "--p", "3", "--suite", "all", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["exit"] == 0, result["output"]
    assert result["spans"]["homspace.hom_space"]["calls"] > 0
