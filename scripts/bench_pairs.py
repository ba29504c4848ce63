"""Compare two checkouts on the benchmark in alternating pairs of runs.

    python3 scripts/bench_pairs.py ../parent .

Each of ten pairs runs `perfbench/run.py --workload all --trace 0` (the
command that `BENCHMARK.json` declares, for its `run_seconds` per
workload) once in each checkout, the parent first in even pairs and the
change first in odd ones, so that a drift of the host over the run falls
on both sides alike.  For every workload and end-to-end metric of
`BENCHMARK.json` it prints the parent's and the change's medians over
the pairs, the parent's quartiles, and the number of pairs in which the
change did better.  A change median worse than the
parent's by more than the metric's bound (a fraction of the parent's
median) is flagged `WORSE`, as is a side with failed passes.  A metric
on which the change meets the claim rule, better in at least nine tenths
of the pairs and with its median further from the parent's, in the
better direction, than the parent's interquartile range, is marked
`CLAIMABLE`.  The exit status is 1 if anything is flagged, else 0.  `BENCHMARK.json` is read from
this script's checkout and never written.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10


def run_once(checkout: Path, command: list[str], seconds: float) -> dict:
    """The summary line of one benchmark run in `checkout`."""
    argv = [*command, "--workload", "all", "--trace", "0", "--seconds", str(seconds)]
    proc = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode not in (0, 1) or not lines:
        raise SystemExit(f"error: {' '.join(argv)} exited {proc.returncode} in {checkout}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarise(spec: dict, parent: list[dict], change: list[dict]) -> tuple[list[str], bool]:
    """Report lines for runs paired by index, and whether anything is flagged."""
    lines, flagged = [], False
    for side, runs in (("parent", parent), ("change", change)):
        failed = sum(r["failed"] for r in runs)
        if failed:
            flagged = True
            lines.append(f"WORSE {side}: {failed} of {sum(r['attempted'] for r in runs)} passes failed")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            key = f"{workload}.{metric['name']}"
            old = [r["metrics"][key]["value"] for r in parent]
            new = [r["metrics"][key]["value"] for r in change]
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
            old_median, new_median = statistics.median(old), statistics.median(new)
            q1, q3 = quartiles(old)
            worse = sign * (new_median - old_median) > metric["bound"] * abs(old_median)
            flagged |= worse
            claimable = wins >= 0.9 * len(old) and sign * (old_median - new_median) > q3 - q1
            step = (new_median - old_median) / old_median if old_median else 0.0
            lines.append(
                f"{'WORSE ' if worse else ''}{key:<24} {old_median:.4g} -> {new_median:.4g} "
                f"({step:+.1%}; parent quartiles {q1:.4g}..{q3:.4g}, IQR {q3 - q1:.3g}; "
                f"change better in {wins}/{len(old)}; bound {metric['bound']:.0%})"
                f"{' CLAIMABLE' if claimable else ''}"
            )
    return lines, flagged


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(getattr(args, side).resolve(), spec["command"], spec["run_seconds"]))
        print(f"pair {pair + 1}/{PAIRS} done ({order[0]} first)", file=sys.stderr, flush=True)
    lines, flagged = summarise(spec, runs["parent"], runs["change"])
    print("\n".join(lines))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
