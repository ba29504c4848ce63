"""The benchmark's workloads and the checks every CLI output must pass.

Each workload is one fixed `powker` command.  Its checker derives the
expected answer from the method's properties and from the independent
oracle in `tests/oracle.py` (which shares no code with the package),
never from a stored copy of earlier output.  The oracle values are
computed once by `expect()`, before any timing starts.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCHEMAS = ROOT / "docs" / "schemas"
ORACLE_DIR = ROOT / "tests"


def _oracle():
    if str(ORACLE_DIR) not in sys.path:
        sys.path.insert(0, str(ORACLE_DIR))
    import oracle

    return oracle


def validator_for(name: str):
    """Validator for the frozen output schema of the workload (or subcommand) `name`."""
    import jsonschema

    with open(SCHEMAS / f"{name}.schema.json", encoding="utf-8") as fh:
        return jsonschema.Draft7Validator(json.load(fh))


def _is_odd_prime(n: int) -> bool:
    return n > 2 and n % 2 == 1 and all(n % d for d in range(3, int(n**0.5) + 1, 2))


# -- sweep -------------------------------------------------------------


def sweep_expect(max_pa: int) -> dict:
    """Admissible pairs in (p, a) order, with oracle dimensions for p*a <= 21."""
    oracle = _oracle()
    pairs = [
        (q, a)
        for q in range(3, max_pa // 2 + 1)
        if _is_odd_prime(q)
        for a in range(2, max_pa // q + 1)
    ]
    return {
        "max_pa": max_pa,
        "pairs": pairs,
        "oracle_dim": {(q, a): oracle.m_nullity(q, a) for q, a in pairs if q * a <= 21},
    }


def sweep_check(data: dict, exp: dict) -> list[str]:
    errors = []
    if data["max_pa"] != exp["max_pa"]:
        errors.append(f"max_pa {data['max_pa']} != {exp['max_pa']}")
    got = [(row["p"], row["a"]) for row in data["rows"]]
    if got != exp["pairs"]:
        errors.append(f"pairs {got} != admissible pairs {exp['pairs']}")
    for row in data["rows"]:
        q, a = row["p"], row["a"]
        want = {
            "dim_ma": q - 1,
            "ext11": 1,
            "rank_lower": 1,
            "rank_upper": (q + 1) // 2,
            "conjecture_zp": True,
        }
        for key, value in want.items():
            if row[key] != value:
                errors.append(f"({q},{a}) {key} = {row[key]!r}, expected {value!r}")
        oracle_dim = exp["oracle_dim"].get((q, a))
        if oracle_dim is not None and row["dim_ma"] != oracle_dim:
            errors.append(f"({q},{a}) dim_ma {row['dim_ma']} != oracle {oracle_dim}")
    return errors


# -- filtration --------------------------------------------------------


def filtration_expect(p: int, a: int) -> dict:
    """Oracle kernel dimensions at the flag steps k = 0, (p+1)/2 and p."""
    oracle = _oracle()
    epsilon = (2 * a - 1) * (p - 1) // 2
    delta = p * a - (p + 3) // 2
    h = oracle.ppow({(0, 0): 1, (p - 1, 0): 1}, epsilon, p)
    r = {(0, 0): 1}
    for w in range(p):
        r = oracle.pmul(r, oracle.linear_form(w, p), p)
    blocks = oracle.ppow(r, a - 1, p)
    oracle_dim = {}
    for k in (0, (p + 1) // 2, p):
        f = blocks
        for w in range(k):
            f = oracle.pmul(f, oracle.linear_form(w, p), p)
        oracle_dim[k] = oracle.kernel_nullity(p, f, delta, h)
    return {"p": p, "a": a, "oracle_dim": oracle_dim}


def filtration_check(data: dict, exp: dict) -> list[str]:
    p, a = exp["p"], exp["a"]
    half = (p + 1) // 2
    errors = []
    if (data["p"], data["a"]) != (p, a):
        errors.append(f"(p, a) = ({data['p']}, {data['a']}), expected ({p}, {a})")
    rows = data["rows"]
    if [row["k"] for row in rows] != list(range(p + 1)):
        return errors + [f"steps {[row['k'] for row in rows]} != 0..{p}"]
    for row in rows:
        k, dim = row["k"], row["hom_dim"]
        if row["dim_v"] != (a - 1) * p + k:
            errors.append(f"k={k} dim_v {row['dim_v']} != {(a - 1) * p + k}")
        if k < half and dim != p:
            errors.append(f"k={k} hom_dim {dim} is off the plateau at {p}")
        if k == half and dim != p - 1:
            errors.append(f"k={k} hom_dim {dim} != p - 1 = {p - 1}")
        want_ext = p - dim if k >= half else None
        if row["ext11"] != want_ext:
            errors.append(f"k={k} ext11 {row['ext11']!r} != {want_ext!r}")
        if k in exp["oracle_dim"] and dim != exp["oracle_dim"][k]:
            errors.append(f"k={k} hom_dim {dim} != oracle {exp['oracle_dim'][k]}")
    for prev, cur in zip(rows, rows[1:]):
        if prev["hom_dim"] - cur["hom_dim"] not in (0, 1):
            errors.append(f"k={cur['k']} hom_dim drops {prev['hom_dim']} -> {cur['hom_dim']}")
    if a >= 3 and data.get("pre_dims") != list(range(p + 1)):
        errors.append(f"pre_dims {data.get('pre_dims')} != 0..{p}")
    return errors


# -- verify ------------------------------------------------------------


def verify_expect(p: int) -> dict:
    """Expected check names, and the oracle's verdict on the family elements."""
    oracle = _oracle()
    half = (p - 1) // 2
    names = (
        [f"family_member_k{k}" for k in range(half + 1)]
        + ["family_independence", "qr_identity", "substitution_identity", "k_polynomial_identity"]
        + [f"shift_dim_a{a}" for a in range(3, p + 1)]
        + [f"shift_roundtrip_a{a}" for a in range(2, p)]
    )
    a = 2
    epsilon = (2 * a - 1) * (p - 1) // 2
    h = oracle.ppow({(0, 0): 1, (p - 1, 0): 1}, epsilon, p)
    f = oracle.level_divisor(p, a)
    nonmembers = []
    for k in range(half + 1):
        # t^((p-1)/2-k) x^k (k x^(p-1) + (1-k) t^(p-1))
        m = oracle.pmul({(half - k, k): 1}, {(0, p - 1): k % p, (p - 1, 0): (1 - k) % p}, p)
        m = {key: c for key, c in m.items() if c}
        diff = oracle.padd(oracle.sub_power(m, p), oracle.pscale(oracle.pmul(h, m, p), p - 1, p), p)
        if oracle.divmod_x(diff, f, p)[1]:
            nonmembers.append(k)
    return {"p": p, "names": sorted(names), "oracle_nonmembers": nonmembers}


def verify_check(data: dict, exp: dict) -> list[str]:
    errors = []
    if data["p"] != exp["p"] or data["suite"] != "all":
        errors.append(f"p/suite = {data['p']}/{data['suite']}, expected {exp['p']}/all")
    if data["ok"] is not True:
        errors.append("ok is not true")
    errors.extend(f"check {c['name']} failed" for c in data["checks"] if c["ok"] is not True)
    names = sorted(c["name"] for c in data["checks"])
    if names != exp["names"]:
        errors.append(f"check names {names} != {exp['names']}")
    if exp["oracle_nonmembers"]:
        errors.append(f"oracle: family elements k={exp['oracle_nonmembers']} leave a remainder")
    return errors


# -- workloads ---------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]  # the end-to-end command, as a user types it
    traced_argv: tuple[str, ...]  # the same command in one process (no worker pool)
    expect: Callable[[], dict]
    check_data: Callable[[dict, dict], list[str]]

    def check(self, exit_code: int, output: str, exp: dict, validator) -> list[str]:
        """Every reason this output is wrong; an empty list means correct."""
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            data = json.loads(output)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        errors = [f"schema: {e.message}" for e in validator.iter_errors(data)]
        if errors:
            return errors
        return self.check_data(data, exp)


SWEEP = ("sweep", "--max-pa", "60", "--format", "json")
FILTRATION = ("filtration", "--p", "13", "--a", "3", "--format", "json")
VERIFY = ("verify", "--p", "7", "--suite", "all", "--format", "json")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep", SWEEP + ("--jobs", "2"), SWEEP + ("--jobs", "1"),
                 lambda: sweep_expect(60), sweep_check),
        Workload("filtration", FILTRATION, FILTRATION,
                 lambda: filtration_expect(13, 3), filtration_check),
        Workload("verify", VERIFY, VERIFY,
                 lambda: verify_expect(7), verify_check),
    )
}


def canonical(output: str) -> str:
    """The output with the per-row timing fields removed, for comparing runs."""
    data = json.loads(output)
    for row in data.get("rows", ()):
        row.pop("ms", None)
    return json.dumps(data, sort_keys=True)
