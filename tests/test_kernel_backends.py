"""The compiled and pure-Python kernels must be interchangeable.

Includes regression cases for a row-reduction bug where a new pivot row
was installed without first being cleared against pivots in later
columns; matrices whose pivots appear out of column order trigger it.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from powker import _kernel, homspace
from powker._pykernel import reduce_slice as py_reduce_slice
from powker._pykernel import rref as py_rref
from powker.bounds import filtration_table
from powker.ffpoly import PrimeModulus
from powker.homspace import FpMatrix, ma_space

HAS_C = "c" in _kernel.available()

needs_c = pytest.mark.skipif(not HAS_C, reason="compiled backend not built")


def naive_rref(rows, ncols, p):
    """Textbook reduced row echelon form, written for clarity not speed."""
    mat = [list(r) for r in rows]
    pivots = []
    row = 0
    for col in range(ncols):
        piv = next((r for r in range(row, len(mat)) if mat[r][col] % p), None)
        if piv is None:
            continue
        mat[row], mat[piv] = mat[piv], mat[row]
        inv = pow(mat[row][col], p - 2, p)
        mat[row] = [v * inv % p for v in mat[row]]
        for r in range(len(mat)):
            if r != row and mat[r][col] % p:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
    return [mat[i] for i in range(row)]


# pivots in columns 1, 0 force out-of-order discovery; the broken
# routine returned rows that were not reduced against each other
REGRESSIONS = [
    (3, 3, [[0, 1, 2], [1, 1, 1]]),
    (5, 4, [[0, 0, 1, 3], [0, 1, 4, 0], [1, 2, 0, 2]]),
    (5, 7, [
        [0, 0, 1, 1, 0, 2, 0],
        [0, 1, 0, 4, 0, 0, 3],
        [1, 0, 0, 0, 2, 0, 0],
        [0, 0, 0, 0, 1, 1, 4],
        [0, 3, 0, 0, 0, 1, 0],
    ]),
    (7, 5, [[0, 0, 0, 1, 6], [0, 0, 1, 0, 0], [0, 1, 0, 0, 3], [1, 0, 5, 0, 0]]),
]


class TestPythonRref:
    @pytest.mark.parametrize("p,ncols,rows", REGRESSIONS)
    def test_regressions(self, p, ncols, rows):
        assert py_rref(rows, ncols, p) == naive_rref(rows, ncols, p)

    def test_zero_and_empty(self):
        assert py_rref([], 4, 3) == []
        assert py_rref([[0, 0, 0]], 3, 3) == []

    def test_duplicate_rows_collapse(self):
        row = [1, 2, 0, 1]
        assert py_rref([row, row, row], 4, 3) == [[1, 2, 0, 1]]

    def test_fuzz_against_naive(self):
        rng = random.Random(1009)
        for _ in range(400):
            p = rng.choice([3, 5, 7, 11, 13])
            nrows = rng.randrange(1, 7)
            ncols = rng.randrange(1, 7)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            assert py_rref(rows, ncols, p) == naive_rref(rows, ncols, p), (p, rows)

    @given(
        p=st.sampled_from([3, 5]),
        rows=st.lists(
            st.lists(st.integers(min_value=0, max_value=12), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(deadline=None)
    def test_reduced_invariant(self, p, rows):
        # every pivot column contains exactly one nonzero entry
        out = py_rref(rows, 4, p)
        for row in out:
            lead = next(c for c, v in enumerate(row) if v)
            assert row[lead] == 1
            assert sum(1 for r in out if r[lead]) == 1


@needs_c
class TestCompiledParity:
    @pytest.mark.parametrize("p,ncols,rows", REGRESSIONS)
    def test_rref_regressions(self, p, ncols, rows):
        from powker._ckernel import rref as c_rref

        assert c_rref(rows, ncols, p) == naive_rref(rows, ncols, p)

    def test_rref_fuzz(self):
        from powker._ckernel import rref as c_rref

        rng = random.Random(77)
        for _ in range(400):
            p = rng.choice([3, 5, 7, 11, 13])
            nrows = rng.randrange(1, 8)
            ncols = rng.randrange(1, 8)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            assert c_rref(rows, ncols, p) == py_rref(rows, ncols, p), (p, rows)


class TestReduceSliceSemantics:
    def test_division_property(self):
        # reducing the dense vector of x^n by f leaves x^n mod f
        from powker.ffpoly import BiPoly

        p5 = PrimeModulus(5)
        f = BiPoly(p5, {(0, 3): 1, (0, 1): 2, (0, 0): 1})  # x^3 + 2x + 1
        fcoeffs = [1, 2, 0, 1]
        for n in range(3, 12):
            w = [0] * (n + 1)
            w[n] = 1
            py_reduce_slice(w, fcoeffs, 5)
            rem = BiPoly.monomial(p5, 0, n).divmod_x(f)[1]
            expect = [0, 0, 0]
            for _i, j, c in rem.iterterms():
                expect[j] = c
            assert w[:3] == expect


class TestLargeModulus:
    # 2^32 + 15, the least prime above 2^32: products of two residues
    # no longer fit in a signed 64-bit integer
    P = 4294967311

    @pytest.mark.parametrize("name", _kernel.available())
    def test_rref_matches_naive(self, name, restore_backend):
        _kernel.use(name)
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert FpMatrix(PrimeModulus(self.P), rows, 3).rank() == 3
        rng = random.Random(2**32)
        for _ in range(50):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = [[rng.randrange(self.P) for _ in range(ncols)] for _ in range(nrows)]
            assert _kernel.rref(rows, ncols, self.P) == naive_rref(rows, ncols, self.P), rows


class TestBackendSwitch:
    def test_available_names(self):
        names = _kernel.available()
        assert "python" in names
        assert set(names) <= {"c", "python"}

    def test_unknown_backend_rejected(self, restore_backend):
        with pytest.raises(ValueError):
            _kernel.use("fortran")

    def test_switch_round_trip(self, restore_backend):
        before = _kernel.use("python")
        assert _kernel.backend() == "python"
        _kernel.use(before)
        assert _kernel.backend() == before

    def test_level_cache_is_per_backend(self, monkeypatch):
        homspace._level.cache_clear()
        first = ma_space(PrimeModulus(3), 2)
        real_backend = _kernel.backend
        monkeypatch.setattr(_kernel, "backend", lambda: "other")
        again = ma_space(PrimeModulus(3), 2)
        assert homspace._level.cache_info().misses == 2
        assert again == first and again is not first
        monkeypatch.setattr(_kernel, "backend", real_backend)
        assert ma_space(PrimeModulus(3), 2) is first
        assert homspace._level.cache_info().misses == 2

    @needs_c
    def test_full_pipeline_parity(self, restore_backend):
        _kernel.use("python")
        py_space = ma_space(PrimeModulus(5), 2)
        py_table = filtration_table(PrimeModulus(3), 2).hom_dims()
        _kernel.use("c")
        c_space = ma_space(PrimeModulus(5), 2)
        c_table = filtration_table(PrimeModulus(3), 2).hom_dims()
        assert py_space.basis == c_space.basis
        assert py_table == c_table
