"""Pure-Python kernels: `rref` and the slice reducer `reduce_slice`.

`powker._ckernel` is the compiled twin of `rref`; both must produce
identical output for identical input.  Keep the algorithms in lockstep.
`reduce_slice` has no compiled twin: the engine no longer calls it, and
it stays only as the name the benchmark's traced pass wraps.
"""

from __future__ import annotations

BACKEND = "python"


def reduce_slice(w: list[int], fcoeffs: list[int], p: int) -> list[int]:
    """In-place remainder of a homogeneous slice modulo f.

    w[j] holds the coefficient of x^j in one homogeneous component (the
    t-exponent is implied by the total degree).  fcoeffs[k] holds the
    scalar of t^(d-k)*x^k in a homogeneous divisor f that is monic in x,
    so fcoeffs[d] == 1.  On return w[j] == 0 for all j >= d.
    """
    d = len(fcoeffs) - 1
    for j in range(len(w) - 1, d - 1, -1):
        c = w[j]
        if c:
            w[j] = 0
            base = j - d
            for k in range(d):
                fk = fcoeffs[k]
                if fk:
                    w[base + k] = (w[base + k] - c * fk) % p
    return w


def rref(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Nonzero rows of the reduced row echelon form of the given matrix.

    Rows are processed in order and reduced against the pivot rows found
    so far (the pivot for a column is the first row seen with a nonzero
    entry there).  Pivot entries are normalized to 1 and their columns
    cleared everywhere, so the result is the unique RREF of the row
    space, ordered by pivot column.
    """
    pivots: dict[int, list[int]] = {}
    for row in rows:
        r = [v % p for v in row]
        # Clear every existing pivot column from the incoming row.  Pivot
        # rows hold zeros at each other's pivot columns, so the subtraction
        # order does not matter.
        for c, pr in pivots.items():
            v = r[c]
            if v:
                r = [(a - v * b) % p for a, b in zip(r, pr)]
        lead = next((c for c in range(ncols) if r[c]), None)
        if lead is None:
            continue
        if r[lead] != 1:
            inv = pow(r[lead], p - 2, p)
            r = [a * inv % p for a in r]
        for pc, prow in pivots.items():
            f = prow[lead]
            if f:
                pivots[pc] = [(a - f * b) % p for a, b in zip(prow, r)]
        pivots[lead] = r
    return [pivots[c] for c in sorted(pivots)]
