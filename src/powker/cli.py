"""Command line interface.

Subcommands: ``ma`` (one kernel space), ``verify`` (identity and family
checks), ``filtration`` (Hom-dimension table along the flag
filtration), ``sweep`` (rank reports over all p*a <= budget).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error.  JSON and CSV output formats are stable; text output is for
humans and may change.

Before any work, a command refuses (exit 2) a level wider than
MAX_COLUMNS domain columns, `sweep` refuses `--max-pa` over
MAX_SWEEP_PA, `filtration` refuses p > MAX_FILTRATION_P, and `verify`
refuses the shift suite for p > MAX_SHIFT_P and the identity suites for
p > MAX_IDENTITY_P.  On a 2-vCPU machine, a level of about 2000 columns
took 12 s (p = 5, a = 400) to 25 s and 193 MB (p = 1327, a = 2), the
qr and klemma identities took 9 s each at p = 47, the shift suite 5.4 s
at p = 23 and 28 s at p = 29 (the next prime, 31, is refused), and
`filtration --a 2` 6.5 s at p = 307 and 17 s at p = 449 (about p^2.5, so
p = 1327 would run for about 4 minutes).  `--max-pa 500` took about 1 s,
in one process.

Importing this module loads no engine module and no `json`: `argparse`
checks the arguments first, then the command imports the engine it uses,
`bounds` for `sweep` and `filtration` (with `crt`, never `homspace`) and
`homspace` for `ma` and `verify` (never `bounds`), so `--help` and usage
errors compile none.
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


def _verify_checks(p, suite: str) -> list[dict]:
    from ._pykernel import rref
    from .homspace import _over_r, _times_r, contains, family_element, ma_space
    from .homspace import verify_k_lemma, verify_qr_identity, verify_substitution_identity

    checks: list[dict] = []

    def add(name: str, ok: bool, detail: str | None = None):
        entry: dict = {"name": name, "ok": bool(ok)}
        if detail:
            entry["detail"] = detail
        checks.append(entry)

    if suite in ("family", "all"):
        space = ma_space(p, 2)
        count = (p.p + 1) // 2
        vectors = []
        for k in range(count):
            elem = family_element(p, k)
            add(f"family_member_k{k}", contains(space, elem))
            vectors.append(space.problem.coordinates(elem))
        rank = len(rref(vectors, space.problem.x_bound() + 1, p.p))
        add("family_independence", rank == count, f"rank {rank} of {count} vectors")
    if suite in ("qr", "all"):
        add("qr_identity", verify_qr_identity(p))
    if suite in ("subst", "all"):
        add("substitution_identity", verify_substitution_identity(p))
    if suite in ("klemma", "all"):
        add("k_polynomial_identity", verify_k_lemma(p))
    if suite in ("shift", "all"):
        # one pass over the levels: the round trip a -> a + 1 runs while
        # level a is at hand; the checks are reported dimensions first
        dims: dict[int, int] = {}
        trips = []
        for a in range(2, p.p + 1):
            space = ma_space(p, a)
            dims[a] = space.dim
            if a == p.p:
                break
            try:
                # each basis vector m of level a has m r in level a + 1, and
                # each basis vector n of level a + 1 has n / r in level a
                for m in space.basis:
                    _times_r(p, a, a + 1, m)
                for n in ma_space(p, a + 1).basis:
                    _over_r(p, a + 1, n)
                trips.append((f"shift_roundtrip_a{a}", True))
            except ConsistencyError as exc:
                trips.append((f"shift_roundtrip_a{a}", False, str(exc)))
        for a in range(3, p.p + 1):
            add(f"shift_dim_a{a}", dims[a] == dims[2], f"dim {dims[a]} vs {dims[2]}")
        for trip in trips:
            add(*trip)
    return checks


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
    from .homspace import ma_space

    p = PrimeModulus(args.p)
    _check_level(p.p, args.a)
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
    if args.suite in ("family", "all"):
        _check_level(p.p, 2)
    if args.suite in ("shift", "all"):
        _check_level(p.p, p.p)
        if p.p > MAX_SHIFT_P:
            raise ValueError(f"the shift suite takes p <= {MAX_SHIFT_P}, got {p.p}")
    if args.suite in ("qr", "subst", "klemma", "all") and p.p > MAX_IDENTITY_P:
        raise ValueError(f"the identity suites take p <= {MAX_IDENTITY_P}, got {p.p}")
    checks = _verify_checks(p, args.suite)
    text = _render_verify(p, args.suite, checks, args.format)
    return text, 0 if all(c["ok"] for c in checks) else 1


def _cmd_filtration(args) -> tuple[str, int]:
    from .bounds import filtration_table, pre_filtration_dims
    from .ffpoly import PrimeModulus

    p = PrimeModulus(args.p)
    _check_level(p.p, args.a)
    if p.p > MAX_FILTRATION_P:
        raise ValueError(f"filtration takes p <= {MAX_FILTRATION_P}, got {p.p}")
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
    from .bounds import sweep

    # the widest level has p = 3 or 5: for p >= 7, p*a - (p+1)/2 <= max_pa - 4
    for q in (3, 5):
        _check_level(q, args.max_pa // q)
    if args.max_pa > MAX_SWEEP_PA:
        raise ValueError(f"sweep to max_pa {args.max_pa} is over the limit of {MAX_SWEEP_PA}")
    if args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
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
