"""Pure-Python kernels: `rref`, packed F_p vectors, and the slice reducer `reduce_slice`.

`rref` is the engine's one row reduction; it returns the unique RREF of
the row space by Gauss-Jordan elimination on packed rows, for every
shape of input.  The engine no longer calls `reduce_slice`; it stays
only as the name the benchmark's traced pass wraps.

A packed vector holds k residues in one int: slot i is entry i, in
bytes [i * width, (i + 1) * width).  A sum of non-negative multiples of
packed vectors adds slot by slot with no carry as long as every slot
stays below 256 ** width, so one integer multiply-add does k F_p
multiply-adds, with one `% p` per slot when unpacking.  Callers derive
the width from a bound on their slot sums with `slot_width`.
"""

from __future__ import annotations

import struct
import sys
from itertools import compress
from operator import mul

# slot widths that `struct` writes and `memoryview.cast` reads directly
# (native sizes, little-endian only); other widths take the per-slot byte path
_CAST = {struct.calcsize(code): code for code in "BHIQ"} if sys.byteorder == "little" else {}


def slot_width(bound: int) -> int:
    """Bytes per slot for packed vectors whose slots stay below `bound`.

    Up to 8 bytes, the width is rounded up to one that `memoryview.cast`
    reads directly: the spare bytes cost less than the per-slot byte path.
    """
    width = max(1, ((bound - 1).bit_length() + 7) // 8)
    return min((w for w in _CAST if w >= width), default=width)


def pack(values, width: int) -> int:
    """The packed int of a sequence of non-negative values, each below 256 ** width."""
    code = _CAST.get(width)
    if code is not None:
        data = struct.pack(f"<{len(values)}{code}", *values)
    else:
        data = b"".join(v.to_bytes(width, "little") for v in values)
    return int.from_bytes(data, "little")


def unpack(n: int, k: int, width: int, p: int) -> list[int]:
    """The k slots of the packed int n, each reduced mod p."""
    data = n.to_bytes(k * width, "little")
    code = _CAST.get(width)
    if code is not None:
        return [v % p for v in memoryview(data).cast(code)]
    return [int.from_bytes(data[i : i + width], "little") % p for i in range(0, k * width, width)]


def _dot(row: list[int], cols: list[int], p: int) -> int:
    """The packed products of a row with vectors packed column by column in cols."""
    # entries are reduced first, so that every term is non-negative
    return sum(map(mul, map(p.__rmod__, compress(row, row)), compress(cols, row)))


def annihilates(rows: list[list[int]], vectors: list[list[int]], ncols: int, p: int) -> bool:
    """True when row . v == 0 mod p for every row and every vector v (entries of v in [0, p))."""
    k = len(vectors)
    # a slot sums ncols products of two residues
    width = slot_width(ncols * (p - 1) ** 2 + 1)
    cols = [pack(col, width) for col in zip(*vectors)]
    return not any((s := _dot(row, cols, p)) and any(unpack(s, k, width, p)) for row in rows)


def nullspace_rows(reduced: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Kernel basis of a matrix given by its RREF rows: for each free column f
    in ascending order, the vector with 1 at f, 0 at the other free columns."""
    pivots = [next(c for c, v in enumerate(row) if v) for row in reduced]
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for prow, pc in zip(reduced, pivots):
            if prow[free]:
                vec[pc] = (-prow[free]) % p
        basis.append(vec)
    return basis


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

    The result is the unique RREF of the row space, ordered by pivot
    column.  Rows are processed in order; the pivot for a column is the
    first row seen with a nonzero entry there.  Pivot rows are kept
    packed, with slots not reduced mod p, but congruent to 1 at their
    own pivot column and to 0 at every other one.  So an incoming row r
    is cleared of every pivot column by the one combination
    pack(r) + sum (p - r[c]) * P_c over the pivots P_c, and a new pivot
    row, normalized to 1 at its lead, is folded into each older pivot
    row with one multiply-add.  Elimination stops once every column has
    a pivot.
    """
    # A pivot row starts below p and gains at most (p - 1) * (p - 1) per
    # slot in each of at most ncols folds; an incoming combination adds
    # at most ncols multiples of at most p - 1 of those.
    bound = p + ncols * (p - 1) ** 2
    width = slot_width(p + ncols * (p - 1) * bound)
    bits = 8 * width
    mask = (1 << bits) - 1
    pivots: dict[int, int] = {}  # pivot column -> packed pivot row
    for row in rows:
        r = [v % p for v in row]
        clear = [(p - r[c]) * pr for c, pr in pivots.items() if r[c]]
        if clear:
            r = unpack(pack(r, width) + sum(clear), ncols, width, p)
        lead = next((c for c in range(ncols) if r[c]), None)
        if lead is None:
            continue
        if r[lead] != 1:
            inv = pow(r[lead], p - 2, p)
            r = [a * inv % p for a in r]
        new = pack(r, width)
        shift = lead * bits
        for c, pr in pivots.items():
            f = (pr >> shift & mask) % p
            if f:
                pivots[c] = pr + (p - f) * new
        pivots[lead] = new
        if len(pivots) == ncols:
            break
    return [unpack(pivots[c], ncols, width, p) for c in sorted(pivots)]
