"""Command line interface.

Subcommands: ``ma`` (one kernel space), ``verify`` (identity and family
checks), ``filtration`` (Hom-dimension table along the flag
filtration), ``sweep`` (rank reports over all p*a <= budget).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O
error.  JSON and CSV output formats are stable; text output is for
humans and may change.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import filtration_table, pre_filtration_dims, rank_report, sweep
from .errors import ConsistencyError
from .ffpoly import PrimeModulus
from .homspace import contains, div_r_shift, family_element, ma_space, mul_r_shift
from .homspace import verify_k_lemma, verify_qr_identity, verify_substitution_identity
from .homspace import FpMatrix

SUITES = ("family", "qr", "klemma", "subst", "shift", "all")


def _build_parser() -> argparse.ArgumentParser:
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

    ver = sub.add_parser("verify", help="run identity and membership check suites")
    ver.add_argument("--p", type=int, required=True, help="odd prime")
    ver.add_argument("--suite", choices=SUITES, default="all")
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.add_argument("--out", help="write output to this file instead of stdout")

    filt = sub.add_parser("filtration", help="Hom-dimension table along the flag filtration")
    filt.add_argument("--p", type=int, required=True, help="odd prime")
    filt.add_argument("--a", type=int, required=True, help="level, at least 2")
    filt.add_argument("--format", choices=("text", "json", "csv"), default="text")
    filt.add_argument("--out", help="write output to this file instead of stdout")

    sw = sub.add_parser("sweep", help="rank reports for every (p, a) with p*a <= budget")
    sw.add_argument("--max-pa", type=int, required=True, dest="max_pa", help="budget for p*a")
    sw.add_argument("--jobs", type=int, default=1, help="worker processes (default 1)")
    sw.add_argument("--format", choices=("json", "csv", "text"), default="json")
    sw.add_argument("--out", help="write output to this file instead of stdout")
    return parser


def _verify_checks(p: PrimeModulus, suite: str) -> list[dict]:
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
        rank = FpMatrix(p, vectors).rank()
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
                ok = True
                for m in space.basis:
                    lifted = mul_r_shift(p, a, a + 1, m)
                    if div_r_shift(p, a + 1, lifted) != m:
                        ok = False
                trips.append((f"shift_roundtrip_a{a}", ok))
            except ConsistencyError as exc:
                trips.append((f"shift_roundtrip_a{a}", False, str(exc)))
        for a in range(3, p.p + 1):
            add(f"shift_dim_a{a}", dims[a] == dims[2], f"dim {dims[a]} vs {dims[2]}")
        for trip in trips:
            add(*trip)
    return checks


def _render_verify(p: PrimeModulus, suite: str, checks: list[dict], fmt: str) -> str:
    ok = all(c["ok"] for c in checks)
    if fmt == "json":
        return json.dumps({"p": p.p, "suite": suite, "checks": checks, "ok": ok}, indent=2) + "\n"
    lines = []
    for c in checks:
        status = "pass" if c["ok"] else "FAIL"
        detail = f"  ({c['detail']})" if "detail" in c else ""
        lines.append(f"{c['name']}: {status}{detail}")
    passed = sum(1 for c in checks if c["ok"])
    lines.append(f"passed {passed}/{len(checks)} checks")
    return "\n".join(lines) + "\n"


def _cmd_ma(args) -> tuple[str, int]:
    p = PrimeModulus(args.p)
    space = ma_space(p, args.a)
    if args.format == "json":
        data = space.to_json(a=args.a, include_basis=args.basis)
        return json.dumps(data, indent=2) + "\n", 0
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
    p = PrimeModulus(args.p)
    checks = _verify_checks(p, args.suite)
    text = _render_verify(p, args.suite, checks, args.format)
    return text, 0 if all(c["ok"] for c in checks) else 1


def _cmd_filtration(args) -> tuple[str, int]:
    p = PrimeModulus(args.p)
    table = filtration_table(p, args.a)
    pre = pre_filtration_dims(p, args.a) if args.a >= 3 else None
    if args.format == "json":
        data = table.to_json()
        if pre is not None:
            data["pre_dims"] = list(pre)
        return json.dumps(data, indent=2) + "\n", 0
    if args.format == "csv":
        return table.to_csv(), 0
    lines = [f"p = {p.p}, a = {args.a}", " k  dim_v  hom_dim  ext11"]
    for row in table.rows:
        ext = "-" if row.ext11 is None else str(row.ext11)
        lines.append(f"{row.k:>2}  {row.dim_v:>5}  {row.hom_dim:>7}  {ext:>5}")
    if pre is not None:
        lines.append("pre-filtration dims (one fewer regular summand), k = 0..p: "
                     + " ".join(str(d) for d in pre))
    return "\n".join(lines) + "\n", 0


def _cmd_sweep(args) -> tuple[str, int]:
    report = sweep(args.max_pa, parallelism=args.jobs)
    if args.format == "json":
        return json.dumps(report.to_json(), indent=2) + "\n", 0
    if args.format == "csv":
        return report.to_csv(), 0
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


_DISPATCH = {
    "ma": _cmd_ma,
    "verify": _cmd_verify,
    "filtration": _cmd_filtration,
    "sweep": _cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _DISPATCH[args.command](args)
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
