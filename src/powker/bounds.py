"""Hom-dimension bookkeeping along the flag filtration and torsion rank bounds.

`filtration_table` walks k = 0 .. p through the representations
V(a-1) + U(k) (a - 1 regular summands plus the first k weights) and
records the kernel dimension at each step against the fixed level
degree and twist.  The first half of the table sits on the plateau at
dimension p; from k = (p+1)/2 on, the complement rule converts each
dimension into an Ext count ext11 = p - hom_dim.

`rank_report` reduces the level-a kernel dimension to the bounds on the
torsion subgroup: the proven window is 1 <= rank <= (p+1)/2, the value
observed at the algebraic level is rank_e2 = p - dim, and rank_e2 == 1
is the single-summand (Z/p) outcome.  rank_upper stays (p+1)/2 for the
output bytes and the benchmark's sweep checker, but `crt._check_ma_dim`
checks the tighter dim >= (p+1)/2 that the family elements witness.
`sweep` runs rank reports over every pair (p, a) with p*a up to a budget
max_pa, one after another in the calling process; the report content is
deterministic.
"""

from __future__ import annotations

import time

from ._version import __version__
from .errors import ConsistencyError
from .ffpoly import Frozen, PrimeModulus, _is_prime
from .crt import HomProblem, _check_ma_dim, _ma_problem, kernel_dim
from .reps import filtration_rep
from .steenrod import h_poly, parameters

__all__ = [
    "FiltrationRow",
    "FiltrationTable",
    "RankReport",
    "SweepRow",
    "SweepReport",
    "filtration_table",
    "pre_filtration_dims",
    "rank_report",
    "sweep",
    "ORDER_STATEMENT",
]

ORDER_STATEMENT = "all p-power torsion has order p"


class FiltrationRow(Frozen):
    __slots__ = ("k", "dim_v", "hom_dim", "ext11")

    def to_json(self) -> dict:
        return {"k": self.k, "dim_v": self.dim_v, "hom_dim": self.hom_dim, "ext11": self.ext11}


class FiltrationTable(Frozen):
    __slots__ = ("p", "a", "rows")

    def hom_dims(self) -> tuple[int, ...]:
        return tuple(row.hom_dim for row in self.rows)

    def to_json(self) -> dict:
        return {
            "p": self.p.p,
            "a": self.a,
            "rows": [row.to_json() for row in self.rows],
        }


class RankReport(Frozen):
    __slots__ = ("p", "a", "dim_ma", "ext11", "rank_lower", "rank_upper", "rank_e2",
                 "conjecture_zp", "order_statement")


class SweepRow(Frozen):
    __slots__ = ("report", "ms")

    def to_json(self) -> dict:
        r = self.report
        return {
            "p": r.p.p,
            "a": r.a,
            "dim_ma": r.dim_ma,
            "ext11": r.ext11,
            "rank_lower": r.rank_lower,
            "rank_upper": r.rank_upper,
            "conjecture_zp": r.conjecture_zp,
            "ms": round(self.ms, 3),
        }


class SweepReport(Frozen):
    __slots__ = ("max_pa", "engine", "rows")

    def to_json(self) -> dict:
        return {
            "max_pa": self.max_pa,
            "engine": self.engine,
            "rows": [row.to_json() for row in self.rows],
        }


def _flag_walk(p: PrimeModulus, a: int, blocks: int) -> list[tuple[int, int, int]]:
    """(k, dim V, kernel dim) against f(V(blocks) + U(k)) for k = 0 .. p.

    Every step uses the level-a degree and twist.
    """
    pars = parameters(p, a)
    h = h_poly(p, a)
    rows = []
    for k in range(p.p + 1):
        rep = filtration_rep(p, blocks + 1, k)
        dim = kernel_dim(HomProblem(p, rep, pars.delta, h))
        rows.append((k, rep.dim, dim))
    return rows


def filtration_table(p: PrimeModulus, a: int) -> FiltrationTable:
    """Kernel dimensions against f(V(a-1) + U(k)) for k = 0 .. p."""
    pp = p.p
    rows = _flag_walk(p, a, a - 1)
    half = (pp - 1) // 2
    for k, _dv, dim in rows[: half + 1]:
        if dim != pp:
            raise ConsistencyError(f"expected the dimension plateau at p for k={k}, got {dim}")
    for (_k0, _d0, prev), (k1, _d1, cur) in zip(rows, rows[1:]):
        if prev - cur not in (0, 1):
            raise ConsistencyError(
                f"hom dimension must drop by 0 or 1 at each step; got {prev} -> {cur} at k={k1}"
            )
    _check_ma_dim(pp, rows[half + 1][2])  # step (p+1)/2 is `_ma_problem(p, a)`
    out = tuple(
        FiltrationRow(k, dv, dim, pp - dim if k >= half + 1 else None) for k, dv, dim in rows
    )
    return FiltrationTable(p, a, out)


def pre_filtration_dims(p: PrimeModulus, a: int) -> tuple[int, ...]:
    """Kernel dimensions against f(V(a-2) + U(k)) for k = 0 .. p.

    Uses the level-a degree and twist but one fewer regular summand;
    the expected staircase is (0, 1, ..., p).  Requires a >= 3 so that
    V(a-2) still contains a regular summand.
    """
    if a < 3:
        raise ValueError(f"a must be at least 3, got {a}")
    return tuple(dim for _k, _dv, dim in _flag_walk(p, a, a - 2))


def rank_report(p: PrimeModulus, a: int) -> RankReport:
    """Bounds on the torsion rank at level a, derived from dim of the kernel."""
    pp = p.p
    dim = kernel_dim(_ma_problem(p, a))
    _check_ma_dim(pp, dim)
    ext11 = pp - dim
    return RankReport(
        p=p,
        a=a,
        dim_ma=dim,
        ext11=ext11,
        rank_lower=1,
        rank_upper=(pp + 1) // 2,
        rank_e2=ext11,
        conjecture_zp=ext11 == 1,
        order_statement=ORDER_STATEMENT,
    )


def _sweep_pairs(max_pa: int) -> list[tuple[int, int]]:
    pairs = []
    for q in range(3, max_pa // 2 + 1, 2):
        if _is_prime(q):
            for a in range(2, max_pa // q + 1):
                pairs.append((q, a))
    return pairs


def sweep(max_pa: int) -> SweepReport:
    """Rank reports for every pair (p odd prime, a >= 2) with p*a <= max_pa,
    in this process, ordered by p ascending then a ascending.
    """
    if max_pa < 6:
        raise ValueError(f"max_pa must be at least 6, got {max_pa}")
    rows = []
    for q, a in _sweep_pairs(max_pa):
        start = time.perf_counter()
        report = rank_report(PrimeModulus(q), a)
        rows.append(SweepRow(report, (time.perf_counter() - start) * 1000.0))
    engine = f"powker/{__version__} (python)"
    return SweepReport(max_pa=max_pa, engine=engine, rows=tuple(rows))
