"""Command line interface: parse, refuse, call one engine entry point, render.

Subcommands: ``ma`` (one kernel space), ``verify`` (identity and family
checks), ``filtration`` (Hom-dimension table along the flag
filtration), ``sweep`` (rank reports over all p*a <= budget).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error.  JSON and CSV output formats are stable; text output is for
humans and may change.

A command checks its limits before it loads its engine, and refuses
(exit 2) naming the one that binds.  The work limit comes first: `sweep`
takes `--max-pa` <= MAX_SWEEP_PA, `filtration` p <= MAX_FILTRATION_P,
and `verify` p <= MAX_SHIFT_P for the shift suite and p <= MAX_IDENTITY_P
for the identity suites.  Then every level it builds must be at most
MAX_COLUMNS domain columns wide.  README's "Size limits" has the timings
behind each limit.

Importing this module loads no engine module and no `json`.  A command
loads `ffpoly` to validate p, checks its limits, and only then imports
its engine: `bounds` for `sweep` and `filtration` (with `crt`, never
`homspace`), `homspace` for `ma` and `verify` (never `bounds`), whose
`_verify_checks` runs the suites.  So `--help`, usage errors and
refusals compile no other engine module.
"""

from __future__ import annotations

import sys

from .errors import ConsistencyError

SUITES = ("family", "qr", "klemma", "subst", "shift", "all")
MAX_COLUMNS = 2000
MAX_SWEEP_PA = 500
MAX_IDENTITY_P = 47
MAX_SHIFT_P = 29
MAX_FILTRATION_P = 449


def _check_level(p: int, a: int) -> None:
    """Refuse level a at p if its domain, min(delta, d - 1) + 1 columns with
    d = (a-1)p + (p+1)/2, is wider than MAX_COLUMNS.  The steps of the
    filtration walk at level a are no wider."""
    ncols = min(p * a - (p + 3) // 2, (a - 1) * p + (p - 1) // 2) + 1
    if ncols > MAX_COLUMNS:
        raise ValueError(
            f"level p = {p}, a = {a} has {ncols} columns, over the limit of {MAX_COLUMNS}"
        )


def _json_text(data) -> str:
    import json

    return json.dumps(data, indent=2) + "\n"


def _csv_text(rows) -> str:
    """The records' `to_json` values under a header of the first one's keys;
    None is an empty field and a bool is `true` or `false`."""
    data = [row.to_json() for row in rows]
    lines = [",".join(data[0])]
    for d in data:
        lines.append(",".join(
            "" if v is None else str(v).lower() if isinstance(v, bool) else str(v) for v in d.values()
        ))
    return "\n".join(lines) + "\n"


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="powker",
        description="exact mod-p kernel spaces of the total power operation, "
        "Hom-dimension tables and torsion rank bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ma = sub.add_parser("ma", help="dimension (and basis) of one level-a kernel space")
    ma.add_argument("--p", type=int, required=True, help="odd prime")
    ma.add_argument("--a", type=int, required=True, help="level, at least 2")
    ma.add_argument("--basis", action="store_true", help="include the echelon basis")
    ma.add_argument("--format", choices=("text", "json"), default="text")
    ma.add_argument("--out", help="write output to this file instead of stdout")
    ma.set_defaults(run=_cmd_ma)

    ver = sub.add_parser("verify", help="run identity and membership check suites")
    ver.add_argument("--p", type=int, required=True, help="odd prime")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", help="write output to this file instead of stdout")
    ver.set_defaults(run=_cmd_verify)

    filt = sub.add_parser("filtration", help="Hom-dimension table along the flag filtration")
    filt.add_argument("--p", type=int, required=True, help="odd prime")
    filt.add_argument("--a", type=int, required=True, help="level, at least 2")
    filt.add_argument("--format", choices=("text", "json", "csv"), default="text")
    filt.add_argument("--out", help="write output to this file instead of stdout")
    filt.set_defaults(run=_cmd_filtration)

    sw = sub.add_parser("sweep", help="rank reports for every (p, a) with p*a <= budget")
    sw.add_argument("--max-pa", type=int, required=True, dest="max_pa", help="budget for p*a")
    sw.add_argument(
        "--jobs", type=int, default=1,
        help="accepted; sweeps run in one process",
    )
    sw.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sw.add_argument("--out", help="write output to this file instead of stdout")
    sw.set_defaults(run=_cmd_sweep)
    return parser


def _render_verify(p, suite: str, checks: list[dict], fmt: str) -> str:
    ok = all(c["ok"] for c in checks)
    if fmt == "json":
        return _json_text({"p": p.p, "suite": suite, "checks": checks, "ok": ok})
    lines = []
    for c in checks:
        status = "pass" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if "detail" in c else ""
        lines.append(f"{c['name']}: {status}{detail}")
    passed = sum(1 for c in checks if c["ok"])
    lines.append(f"passed {passed}/{len(checks)} checks")
    return "\n".join(lines) + "\n"


def _cmd_ma(args) -> tuple[str, int]:
    from .ffpoly import PrimeModulus

    p = PrimeModulus(args.p)
    _check_level(p.p, args.a)
    from .homspace import ma_space
    space = ma_space(p, args.a)
    if args.format == "json":
        return _json_text(space.to_json(a=args.a, include_basis=args.basis)), 0
    lines = [
        f"p = {p.p}",
        f"a = {args.a}",
        f"delta = {space.problem.delta}",
        f"f = {space.problem.f.text()}",
        f"dim = {space.dim}",
    ]
    if args.basis:
        lines.append("basis:")
        lines.extend(f"  {b.text()}" for b in space.basis)
    return "\n".join(lines) + "\n", 0


def _cmd_verify(args) -> tuple[str, int]:
    from .ffpoly import PrimeModulus

    p = PrimeModulus(args.p)
    if args.suite in ("shift", "all") and p.p > MAX_SHIFT_P:
        raise ValueError(f"the shift suite takes p <= {MAX_SHIFT_P}, got {p.p}")
    if args.suite in ("qr", "subst", "klemma", "all") and p.p > MAX_IDENTITY_P:
        raise ValueError(f"the identity suites take p <= {MAX_IDENTITY_P}, got {p.p}")
    if args.suite in ("family", "all"):
        _check_level(p.p, 2)
    if args.suite in ("shift", "all"):
        _check_level(p.p, p.p)
    from .homspace import _verify_checks
    checks = _verify_checks(p, args.suite)
    text = _render_verify(p, args.suite, checks, args.format)
    return text, 0 if all(c["ok"] for c in checks) else 1


def _cmd_filtration(args) -> tuple[str, int]:
    from .ffpoly import PrimeModulus

    p = PrimeModulus(args.p)
    if p.p > MAX_FILTRATION_P:
        raise ValueError(f"filtration takes p <= {MAX_FILTRATION_P}, got {p.p}")
    _check_level(p.p, args.a)
    from .bounds import filtration_table, pre_filtration_dims
    table = filtration_table(p, args.a)
    pre = pre_filtration_dims(p, args.a) if args.a >= 3 else None
    if args.format == "json":
        data = table.to_json()
        if pre is not None:
            data["pre_dims"] = list(pre)
        return _json_text(data), 0
    if args.format == "csv":
        return _csv_text(table.rows), 0
    lines = [f"p = {p.p}, a = {args.a}", " k  dim_v  hom_dim  ext11"]
    for row in table.rows:
        ext = "-" if row.ext11 is None else str(row.ext11)
        lines.append(f"{row.k:>2}  {row.dim_v:>5}  {row.hom_dim:>7}  {ext:>5}")
    if pre is not None:
        lines.append("pre-filtration dims (one fewer regular summand), k = 0..p: "
                     + " ".join(str(d) for d in pre))
    return "\n".join(lines) + "\n", 0


def _cmd_sweep(args) -> tuple[str, int]:
    if args.max_pa > MAX_SWEEP_PA:
        raise ValueError(f"sweep to max_pa {args.max_pa} is over the limit of {MAX_SWEEP_PA}")
    # the widest level has p = 3 or 5: for p >= 7, p*a - (p+1)/2 <= max_pa - 4
    for q in (3, 5):
        _check_level(q, args.max_pa // q)
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    from .bounds import sweep
    report = sweep(args.max_pa)
    if args.format == "json":
        return _json_text(report.to_json()), 0
    if args.format == "csv":
        return _csv_text(report.rows), 0
    lines = [f"max_pa = {report.max_pa}, engine = {report.engine}",
             "  p   a  dim_ma  ext11  rank    Z/p       ms"]
    for row in report.rows:
        d = row.to_json()
        flag = "yes" if d["conjecture_zp"] else "NO"
        lines.append(
            f"{d['p']:>3} {d['a']:>3}  {d['dim_ma']:>6}  {d['ext11']:>5}  "
            f"[{d['rank_lower']},{d['rank_upper']}]  {flag:>3}  {d['ms']:>9.3f}"
        )
    return "\n".join(lines) + "\n", 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = args.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"internal consistency error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 3
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
