# cython: boundscheck=False, wraparound=False, cdivision=True
"""Compiled twin of `rref` in powker._pykernel.

The contract is documented there: for identical input both give
identical output, the unique RREF of the row space.  This kernel runs
the pivot-by-pivot elimination of the Python short path on every
input; the Python kernel's tall path (kernel tracking on packed
columns) has no compiled counterpart.
"""

from libc.stdlib cimport free, malloc

BACKEND = "c"


cdef inline long long _modinv(long long v, long long p):
    cdef long long result = 1
    cdef long long base = v % p
    cdef long long e = p - 2
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def rref(list rows, Py_ssize_t ncols, long long p):
    """Nonzero rows of the reduced row echelon form; see _pykernel."""
    if ncols == 0:
        return []
    cdef long long* piv = <long long*> malloc(ncols * ncols * sizeof(long long))
    cdef Py_ssize_t* colslot = <Py_ssize_t*> malloc(ncols * sizeof(Py_ssize_t))
    cdef long long* cur = <long long*> malloc(ncols * sizeof(long long))
    if piv == NULL or colslot == NULL or cur == NULL:
        if piv != NULL:
            free(piv)
        if colslot != NULL:
            free(colslot)
        if cur != NULL:
            free(cur)
        raise MemoryError()
    cdef Py_ssize_t nstored = 0
    cdef Py_ssize_t c, cc, slot, srow, lead
    cdef long long v, f, inv
    try:
        for c in range(ncols):
            colslot[c] = -1
        for row in rows:
            if len(<list> row) != ncols:
                raise ValueError("row length does not match ncols")
            for c in range(ncols):
                v = row[c] % p
                if v < 0:
                    v += p
                cur[c] = v
            # Clear every existing pivot column from the incoming row.
            # Pivot rows hold zeros at each other's pivot columns, so the
            # subtraction order does not matter.
            for c in range(ncols):
                slot = colslot[c]
                if slot < 0:
                    continue
                v = cur[c]
                if v == 0:
                    continue
                for cc in range(ncols):
                    f = (cur[cc] - v * piv[slot * ncols + cc]) % p
                    if f < 0:
                        f += p
                    cur[cc] = f
            lead = -1
            for c in range(ncols):
                if cur[c]:
                    lead = c
                    break
            if lead < 0:
                continue
            v = cur[lead]
            if v != 1:
                inv = _modinv(v, p)
                for cc in range(ncols):
                    cur[cc] = cur[cc] * inv % p
            for srow in range(nstored):
                f = piv[srow * ncols + lead]
                if f:
                    for cc in range(ncols):
                        v = (piv[srow * ncols + cc] - f * cur[cc]) % p
                        if v < 0:
                            v += p
                        piv[srow * ncols + cc] = v
            for cc in range(ncols):
                piv[nstored * ncols + cc] = cur[cc]
            colslot[lead] = nstored
            nstored += 1
        out = []
        for c in range(ncols):
            slot = colslot[c]
            if slot >= 0:
                out.append([piv[slot * ncols + cc] for cc in range(ncols)])
        return out
    finally:
        free(piv)
        free(colslot)
        free(cur)
