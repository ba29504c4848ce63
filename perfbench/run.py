"""Benchmark of the `powker` CLI: end-to-end runs and a traced per-layer run.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40 --trace 1 --label parent

`--trace 0` runs the workload's command as a user does, one subprocess
per pass with interpreter start and import included, and reports the
median wall time, CPU time (workers included) and peak RSS of a pass,
plus the median set-up time (interpreter start and `import powker.cli`
in a subprocess of its own).  `--trace 1` runs the same command in one
process at a time (`perfbench/traced_pass.py`), alternating untraced
and traced passes, and reports per-layer spans and counters.

Every pass's output is checked (see `workloads.py`) outside the timed
span; a wrong output counts the pass as failed and the benchmark exits 1.
The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the full record, with every sample and the
environment, goes to `perfbench/results/BENCH_<label>.json`.

The inputs are fixed parameters, so `--seed` changes nothing; it is
accepted and recorded so that runs can be told apart.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import ROOT, SRC, WORKLOADS, Workload, validator_for, canonical  # noqa: E402

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
TRACED_PASS = HERE / "traced_pass.py"
LAUNCH = HERE / "launch.py"
MIN_SETUP_SAMPLES = 15
PROBE = (
    "import powker, powker.cli, powker._kernel as k; "
    "print(powker.__file__, k.backend(), ' '.join(k.available()))"
)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

# metric -> (spans, field): a count is the spans' calls or work count; a time is
# their total seconds, or self seconds (seconds minus their direct children's)
LAYER_METRICS = {
    "kernel.reduce_slice.calls": (("kernel.reduce_slice",), "calls"),
    "kernel.reduce_slice.ops": (("kernel.reduce_slice",), "work"),
    "kernel.reduce_slice.s": (("kernel.reduce_slice",), "s"),
    "kernel.rref.calls": (("kernel.rref",), "calls"),
    "kernel.rref.cells": (("kernel.rref",), "work"),
    "kernel.rref.s": (("kernel.rref",), "s"),
    "homspace.hom_space.calls": (("homspace.hom_space",), "calls"),
    "homspace.hom_space.ncols": (("homspace.hom_space",), "work"),
    "homspace.hom_space.s": (("homspace.hom_space",), "s"),
    "homspace.hom_space.self_s": (("homspace.hom_space",), "self"),
    "homspace.FpMatrix.s": (("homspace.FpMatrix",), "s"),
    "reps.f_of.calls": (("reps.f_of",), "calls"),
    "reps.f_of.s": (("reps.f_of",), "s"),
    "steenrod.h_poly.calls": (("steenrod.h_poly",), "calls"),
    "steenrod.h_poly.s": (("steenrod.h_poly",), "s"),
    "homspace.ma_space.calls": (("homspace.ma_space",), "calls"),
    "homspace.contains.calls": (("homspace.contains",), "calls"),
    "homspace.contains.s": (("homspace.contains",), "s"),
    "homspace.shift.calls": (("homspace.shift",), "calls"),
    "homspace.shift.s": (("homspace.shift",), "s"),
    "ffpoly.divmod_x.calls": (("ffpoly.divmod_x",), "calls"),
    "ffpoly.divmod_x.s": (("ffpoly.divmod_x",), "s"),
    "steenrod.total_power.calls": (("steenrod.total_power",), "calls"),
    "steenrod.total_power.s": (("steenrod.total_power",), "s"),
    "ffpoly.mul.calls": (("ffpoly.mul",), "calls"),
    "ffpoly.mul.s": (("ffpoly.mul",), "s"),
    "ffpoly.s": (("ffpoly.mul", "ffpoly.divmod_x"), "s"),
    "steenrod.s": (("steenrod.total_power", "steenrod.h_poly"), "s"),
    "homspace.identities.s": (("homspace.identities",), "s"),
    "bounds.rank_report.calls": (("bounds.rank_report",), "calls"),
    "bounds.rank_report.s": (("bounds.rank_report",), "s"),
    "bounds.sweep.s": (("bounds.sweep",), "s"),
    "bounds.filtration_table.s": (("bounds.filtration_table",), "s"),
    "bounds.pre_filtration_dims.s": (("bounds.pre_filtration_dims",), "s"),
    "cli.main.s": (("cli.main",), "s"),
    "cli.self_s": (("cli.main",), "self"),
}

# Times of calls that some workload never makes read exactly 0 s there on every
# run, so they are left off the summary line; the table and results file keep them.
NOT_ON_EVERY_WORKLOAD = {
    "homspace.contains.s",
    "homspace.shift.s",
    "ffpoly.divmod_x.s",
    "steenrod.total_power.s",
    "homspace.identities.s",
    "bounds.rank_report.s",
    "bounds.sweep.s",
    "bounds.filtration_table.s",
    "bounds.pre_filtration_dims.s",
}


class BenchError(Exception):
    """The benchmark cannot run in this checkout."""


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _inside_checkout(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def _timed(cmd: list[str]) -> dict:
    """Run cmd under the launcher: wall_s, cpu_s, peak_rss_mb, exit and output."""
    proc = subprocess.run(
        [sys.executable, str(LAUNCH), "--", *cmd], cwd=ROOT, env=_env(), stdout=subprocess.PIPE, check=False
    )
    if proc.returncode != 0:
        raise BenchError(f"launcher exited {proc.returncode} running {cmd}")
    return json.loads(proc.stdout.decode())


def _setup_sample(env_info: dict) -> float:
    probe = _timed([sys.executable, "-c", PROBE])
    fields = probe["output"].split()
    if probe["exit"] != 0 or len(fields) < 2:
        raise BenchError(f"cannot import powker from {SRC} (exit {probe['exit']})")
    if not _inside_checkout(fields[0]):
        raise BenchError(f"powker resolved to {fields[0]}, outside {SRC}")
    env_info.update(powker_file=fields[0], backend=fields[1], available=fields[2:])
    return probe["wall_s"]


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, what: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(f"{what}: {e}" for e in errors)


def _rounds(deadline: float):
    """Yield round numbers while another round is expected to end by `deadline`.

    At least one round runs; the estimate is the length of the previous round.
    """
    last = 0.0
    n = 0
    while n == 0 or time.perf_counter() + last <= deadline:
        begin = time.perf_counter()
        yield n
        last = time.perf_counter() - begin
        n += 1


def run_end_to_end(w: Workload, exp: dict, validator, seconds: float, env_info: dict) -> tuple:
    counter = Counter()
    samples: dict[str, list[float]] = {name: [] for name, _unit in END_TO_END}
    cmd = [sys.executable, "-m", "powker", *w.argv]
    for _ in _rounds(time.perf_counter() + seconds):
        samples["setup_s"].append(_setup_sample(env_info))
        result = _timed(cmd)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(result[name])
        counter.record(w.name, w.check(result["exit"], result["output"], exp, validator))
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES:
        samples["setup_s"].append(_setup_sample(env_info))
    metrics = {name: (statistics.median(samples[name]), unit) for name, unit in END_TO_END}
    return counter, metrics, samples


def _traced_pass(w: Workload, backend: str, trace: int) -> dict | None:
    """One in-process pass, or None if the pass process itself failed."""
    cmd = [sys.executable, str(TRACED_PASS), "--backend", backend, "--trace", str(trace), "--", *w.traced_argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, check=False)
    if proc.returncode != 0:
        return None
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if not _inside_checkout(result["file"]):
        raise BenchError(f"powker resolved to {result['file']}, outside {SRC}")
    return result


def _layer_metrics(spans: dict) -> dict:
    out = {}
    for name, (names, field) in LAYER_METRICS.items():
        stats = [spans[n] for n in names if n in spans]
        if field in ("calls", "work"):
            out[name] = (sum(st[field] for st in stats), "count")
        elif field == "self":
            out[name] = (sum(st["s"] - st["child_s"] for st in stats), "s")
        else:
            out[name] = (sum(st["s"] for st in stats), "s")
    return out


def run_traced(w: Workload, exp: dict, validator, seconds: float, env_info: dict) -> tuple:
    """Alternate untraced and traced one-process passes on every available backend."""
    counter = Counter()
    deadline = time.perf_counter() + seconds
    _setup_sample(env_info)  # records the import path, the backend and the available backends
    # the reference: one end-to-end pass of the user's command (worker pool included)
    result = _timed([sys.executable, "-m", "powker", *w.argv])
    errors = w.check(result["exit"], result["output"], exp, validator)
    counter.record(f"{w.name} end-to-end", errors)
    reference = None if errors else canonical(result["output"])
    per_backend = {}
    backends = env_info["available"]
    for i, backend in enumerate(backends):
        untraced, traced = [], []
        now = time.perf_counter()
        for _ in _rounds(now + (deadline - now) / (len(backends) - i)):
            for trace, bucket in ((0, untraced), (1, traced)):
                result = _traced_pass(w, backend, trace)
                if result is None:
                    counter.record(f"{w.name} {backend} trace={trace}", ["pass process failed"])
                    continue
                errors = w.check(result["exit"], result["output"], exp, validator)
                if not errors and result["backend"] != backend:
                    errors = [f"ran on backend {result['backend']}, asked for {backend}"]
                if not errors and canonical(result["output"]) != reference:
                    errors = ["output differs from the end-to-end pass (timings aside)"]
                counter.record(f"{w.name} {backend} trace={trace}", errors)
                bucket.append(result)
        if not traced or not untraced:
            raise BenchError(f"no {w.name} pass completed on the {backend} backend")
        layers = [_layer_metrics(r["spans"]) for r in traced]
        metrics = {}
        for name, (_value, unit) in layers[0].items():
            values = [m[name][0] for m in layers]
            if unit == "count":
                if len(set(values)) != 1:
                    counter.errors.append(f"{name} differs between passes: {values}")
                metrics[name] = (values[0], unit)
            else:
                metrics[name] = (statistics.median(values), unit)
        overhead = statistics.median(r["elapsed_s"] for r in traced) - statistics.median(
            r["elapsed_s"] for r in untraced
        )
        metrics["trace.overhead_s"] = (overhead, "s")
        per_backend[backend] = {
            "metrics": metrics,
            "untraced_s": [r["elapsed_s"] for r in untraced],
            "traced_s": [r["elapsed_s"] for r in traced],
        }
    return counter, per_backend


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(name: str, args, env_info: dict) -> dict:
    w = WORKLOADS[name]
    exp = w.expect()
    validator = validator_for(w.name)
    if args.trace:
        counter, per_backend = run_traced(w, exp, validator, args.seconds, env_info)
        metrics = per_backend[env_info["backend"]]["metrics"]
        for backend, rec in per_backend.items():
            n = len(rec["traced_s"])
            for metric, (value, unit) in rec["metrics"].items():
                print(f"{name:<10} {backend:<6} {metric:<32} {_fmt(value):>14} {unit:<5} (median of {n} traced passes)")
        detail = {"backends": {b: {**r, "metrics": _plain(r["metrics"])} for b, r in per_backend.items()}}
    else:
        counter, metrics, samples = run_end_to_end(w, exp, validator, args.seconds, env_info)
        for metric, (value, unit) in metrics.items():
            print(f"{name:<10} {metric:<12} {_fmt(value):>10} {unit:<3} (median of {len(samples[metric])} samples)")
        detail = {"samples": samples}
    for line in counter.errors[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    return {
        "workload": name,
        "command": ["powker", *w.argv],
        "attempted": counter.attempted,
        "failed": counter.failed,
        "errors": counter.errors,
        "metrics": metrics,
        **detail,
    }


def _plain(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="powker CLI benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0, help="recorded only: the inputs are fixed")
    parser.add_argument("--seconds", type=float, default=40.0, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", help="results go to perfbench/results/BENCH_<label>.json")
    args = parser.parse_args(argv)

    for needed in (SRC / "powker" / "cli.py", ROOT / "tests" / "oracle.py", ROOT / "docs" / "schemas"):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout", file=sys.stderr)
            return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env_info = {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}
    try:
        runs = [run_workload(name, args, env_info) for name in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    prefix = len(runs) > 1
    metrics = {
        (f"{r['workload']}.{m}" if prefix else m): {"value": v, "unit": u}
        for r in runs
        for m, (v, u) in r["metrics"].items()
        if m not in NOT_ON_EVERY_WORKLOAD
    }
    label = args.label or f"{args.workload}-trace{args.trace}"
    RESULTS.mkdir(exist_ok=True)
    record = {
        "label": label,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **env_info,
        "runs": [{**r, "metrics": _plain(r["metrics"])} for r in runs],
    }
    (RESULTS / f"BENCH_{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    correct = not any(r["errors"] for r in runs)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
