"""One in-process pass of the `powker` CLI, with or without layer spans.

    python3 perfbench/traced_pass.py --backend python --trace 1 -- sweep --max-pa 60 ...

Imports the package from this checkout's `src/`, selects the kernel
backend, and (with `--trace 1`) wraps the public calls of each layer in
`perf_counter` spans before running `powker.cli.main(argv)`.  Prints one
JSON object: where `powker` was imported from, the backend, the exit
code, the CLI's stdout, the wall time of `main`, and per-span totals.

Spans are aggregated per name: calls, total seconds, seconds covered by
direct child spans (so self time = total - child), and a work count
computed from the call's arguments where one is defined.  A wrapper is
installed in every `powker` module that binds the function, because
`from ... import` copies the name into the importing module.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, seconds, child seconds, work]
        self._stack: list[float] = []  # child seconds of each open span

    def wrap(self, name: str, fn, work=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats[0] += 1
            if work is not None:
                stats[3] += work(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[1] += elapsed
                stats[2] += stack.pop()
                if stack:
                    stack[-1] += elapsed

        return traced

    def report(self) -> dict:
        return {
            name: {"calls": c, "s": s, "child_s": ch, "work": w}
            for name, (c, s, ch, w) in self.stats.items()
        }


def _rebind(original, replacement) -> None:
    for modname, module in list(sys.modules.items()):
        if modname == "powker" or modname.startswith("powker."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _slice_ops(w, fcoeffs, p):
    d = len(fcoeffs) - 1
    return max(len(w) - d, 0) * d


def _rref_cells(rows, ncols, p):
    return len(rows) * ncols


def _domain_size(problem):
    return problem.x_bound() + 1


def install(tracer: Tracer) -> None:
    """Wrap the public calls of every layer, in each module that looks them up."""
    from powker import _kernel, bounds, ffpoly, homspace, reps, steenrod

    functions = [
        ("kernel.reduce_slice", _kernel.reduce_slice, _slice_ops),
        ("kernel.rref", _kernel.rref, _rref_cells),
        ("homspace.hom_space", homspace.hom_space, _domain_size),
        ("homspace.ma_space", homspace.ma_space, None),
        ("homspace.contains", homspace.contains, None),
        ("homspace.shift", homspace.mul_r_shift, None),
        ("homspace.shift", homspace.div_r_shift, None),
        ("homspace.identities", homspace.verify_qr_identity, None),
        ("homspace.identities", homspace.verify_substitution_identity, None),
        ("homspace.identities", homspace.verify_k_lemma, None),
        ("steenrod.total_power", steenrod.total_power, None),
        ("steenrod.h_poly", steenrod.h_poly, None),
        ("reps.f_of", reps.f_of, None),
        ("bounds.rank_report", bounds.rank_report, None),
        ("bounds.sweep", bounds.sweep, None),
        ("bounds.filtration_table", bounds.filtration_table, None),
        ("bounds.pre_filtration_dims", bounds.pre_filtration_dims, None),
    ]
    for name, fn, work in functions:
        _rebind(fn, tracer.wrap(name, fn, work))
    methods = [
        ("homspace.FpMatrix", homspace.FpMatrix, "__init__"),
        ("ffpoly.mul", ffpoly.BiPoly, "__mul__"),
        ("ffpoly.divmod_x", ffpoly.BiPoly, "divmod_x"),
    ]
    for name, cls, attr in methods:
        traced = tracer.wrap(name, vars(cls)[attr])
        setattr(cls, attr, traced)
        if attr == "__mul__":
            cls.__rmul__ = traced


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--backend", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the powker arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    sys.path.insert(0, str(ROOT / "src"))
    import powker
    import powker.cli
    from powker import _kernel

    _kernel.use(args.backend)
    tracer = Tracer()
    if args.trace:
        install(tracer)
        run = tracer.wrap("cli.main", powker.cli.main)
    else:
        run = powker.cli.main
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
    result = {
        "file": powker.__file__,
        "backend": _kernel.backend(),
        "exit": code,
        "elapsed_s": elapsed,
        "output": out.getvalue(),
        "spans": tracer.report(),
    }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
