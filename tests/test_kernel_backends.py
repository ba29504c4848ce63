"""The row reduction, the packed vectors and the `_kernel` names the benchmark binds.

Includes regression cases for a row-reduction bug where a new pivot row
was installed without first being cleared against pivots in later
columns; matrices whose pivots appear out of column order trigger it.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import echelon, level_problem, operator_rows
from powker import _kernel, _pykernel
from powker._pykernel import pack, slot_width, unpack
from powker._pykernel import rref as py_rref
from powker.ffpoly import PrimeModulus
from powker.homspace import FpMatrix


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
        assert py_rref(rows, ncols, p) == echelon(rows, ncols, p)

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
            assert py_rref(rows, ncols, p) == echelon(rows, ncols, p), (p, rows)

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


def _low_rank_tall(rng, p, ncols):
    """More rows than columns: small combinations of a few base rows, with
    zero rows, repeated rows and entries outside [0, p), negative ones included."""
    base = [[rng.randrange(-2 * p, 2 * p) for _ in range(ncols)] for _ in range(rng.randrange(4))]
    rows = []
    for _ in range(rng.randrange(ncols + 1, 3 * ncols + 8)):
        pick = rng.random()
        if pick < 0.15 or not base:
            rows.append([0] * ncols)
        elif pick < 0.3 and rows:
            rows.append(list(rng.choice(rows)))
        else:
            row = [0] * ncols
            for b in base:
                c = rng.randrange(-3, 4)
                row = [x + c * y for x, y in zip(row, b)]
            rows.append(row)
    return rows


class TestTallRref:
    # more rows than columns
    @pytest.mark.parametrize("p", [3, 5, 13, 2**32 + 15])
    def test_fuzz_against_naive(self, p):
        rng = random.Random(p)
        for _ in range(150):
            ncols = rng.randrange(1, 9)
            rows = _low_rank_tall(rng, p, ncols)
            assert len(rows) > ncols
            assert py_rref(rows, ncols, p) == echelon(rows, ncols, p), (p, rows)

    @pytest.mark.parametrize("q,a", [(5, 4), (7, 3), (11, 2)])
    def test_level_operators(self, q, a):
        # the full remainder operator of a level, computed by the oracle
        rows, ncols = operator_rows(q, *level_problem(q, a))
        assert len(rows) > ncols
        assert py_rref(rows, ncols, q) == echelon(rows, ncols, q)

    @given(seed=st.integers(0, 2**32 - 1), order=st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_row_order_does_not_matter(self, seed, order):
        rng = random.Random(seed)
        p = rng.choice([3, 5, 13])
        ncols = rng.randrange(1, 7)
        rows = _low_rank_tall(rng, p, ncols)
        shuffled = list(rows)
        order.shuffle(shuffled)
        assert py_rref(shuffled, ncols, p) == py_rref(rows, ncols, p)

    def test_no_columns(self):
        assert py_rref([[], [], []], 0, 5) == []

    def test_all_zero(self):
        assert py_rref([[0, 0, 0]] * 5, 3, 7) == []
        assert py_rref([[0, 7, -14]] * 5, 3, 7) == []


@st.composite
def _matrices(draw):
    """(rows, ncols, p): tall, wide or square, with zero rows, rows that are
    combinations of earlier ones, and entries outside [0, p)."""
    p = draw(st.sampled_from([3, 13, 65537, 2**31 - 1, 2**61 - 1]))
    ncols = draw(st.integers(0, 8))
    nrows = draw(st.integers(0, 12))
    entries = st.one_of(st.integers(0, p - 1), st.integers(-3 * p, 3 * p))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            row = [0] * ncols
            for r in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                c = draw(entries)
                row = [x + c * y for x, y in zip(row, r)]
            rows.append(row)
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols, p


class TestPackedRref:
    # p = 2^61 - 1 needs slots wider than 8 bytes, so it takes the byte path
    @given(matrix=_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_textbook_echelon(self, matrix):
        rows, ncols, p = matrix
        assert py_rref(rows, ncols, p) == echelon(rows, ncols, p)


class TestPacking:
    @pytest.mark.parametrize("width", range(1, 10))
    def test_round_trip_at_the_largest_slot(self, width):
        top = 256**width - 1
        p = 2**89 - 1  # larger than every slot here, so unpack reduces nothing
        values = [top, 0, 1, top]
        assert unpack(pack(values, width), len(values), width, p) == values
        assert unpack(0, 3, width, p) == [0, 0, 0]
        with pytest.raises((OverflowError, struct.error)):
            pack([0, top + 1], width)
        with pytest.raises(OverflowError):
            unpack(pack(values, width) << 8 * width, len(values), width, p)

    def test_unpack_reduces_each_slot(self):
        assert unpack(pack([7, 12, 5, 0], 2), 4, 2, 5) == [2, 2, 0, 0]
        assert unpack(pack([7, 12, 5, 0], 3), 4, 3, 5) == [2, 2, 0, 0]

    @pytest.mark.parametrize("bound", [2, 256, 257, 2**16, 2**16 + 1, 2**40, 2**64 + 1, 2**100])
    def test_slot_width_holds_the_bound(self, bound):
        width = slot_width(bound)
        assert bound <= 256**width
        assert unpack(pack([bound - 1], width), 1, width, bound) == [bound - 1]
        if width > 8:
            assert bound > 256 ** (width - 1)  # whole bytes, no rounding past 8


class TestAnnihilates:
    def test_row_entries_are_reduced(self):
        # rows may hold entries outside [0, p), negative ones included
        vectors = [[1, 2, 0], [0, 1, 1]]  # orthogonal mod 5 to (3, 1, 4) and its multiples
        assert _pykernel.annihilates([[-2, 6, -11], [0, 5, -10]], vectors, 3, 5)
        assert not _pykernel.annihilates([[-2, 6, -11], [1, 0, 0]], vectors, 3, 5)
        assert not _pykernel.annihilates([[-4, 0, 0]], vectors, 3, 5)

    def test_fuzz_against_products(self):
        # rows from the annihilator of the vectors, shifted by multiples of p,
        # and in half the cases one entry nudged off it
        rng = random.Random(97)
        for _ in range(200):
            p = rng.choice([3, 5, 13, 2**32 + 15])
            ncols = rng.randrange(2, 6)
            vectors = [[rng.randrange(p) for _ in range(ncols)] for _ in range(rng.randrange(1, ncols))]
            dual = _pykernel.nullspace_rows(echelon(vectors, ncols, p), ncols, p)
            scale = rng.randrange(1, p)
            rows = [[v * scale + p * rng.randrange(-2, 3) for v in row] for row in dual]
            if rng.random() < 0.5:
                rows[0][rng.randrange(ncols)] += 1
            expect = all(sum(a * b for a, b in zip(r, v)) % p == 0 for r in rows for v in vectors)
            assert _pykernel.annihilates(rows, vectors, ncols, p) == expect


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
            _kernel.reduce_slice(w, fcoeffs, 5)
            rem = BiPoly.monomial(p5, 0, n).divmod_x(f)[1]
            expect = [0, 0, 0]
            for _i, j, c in rem.iterterms():
                expect[j] = c
            assert w[:3] == expect


class TestLargeModulus:
    # 2^32 + 15, the least prime above 2^32: products of two residues
    # no longer fit in a signed 64-bit integer
    P = 4294967311

    def test_rref_matches_naive(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        assert FpMatrix(PrimeModulus(self.P), rows, 3).rank() == 3
        rng = random.Random(2**32)
        for _ in range(50):
            nrows = rng.randrange(1, 6)
            ncols = rng.randrange(1, 6)
            rows = [[rng.randrange(self.P) for _ in range(ncols)] for _ in range(nrows)]
            assert py_rref(rows, ncols, self.P) == echelon(rows, ncols, self.P), rows


class TestBackendSwitch:
    # `_kernel` re-exports the engine's function objects, so that the
    # benchmark's rebinding of `_kernel.rref` reaches every call site
    def test_available_names(self):
        assert _kernel.available() == ("python",)
        assert _kernel.rref is _pykernel.rref

    def test_unknown_backend_rejected(self):
        for name in ("fortran", "c"):
            with pytest.raises(ValueError):
                _kernel.use(name)

    def test_switch_round_trip(self):
        before = _kernel.use("python")
        assert _kernel.backend() == "python"
        _kernel.use(before)
        assert _kernel.backend() == before
