import time
from functools import reduce
from operator import or_

import pytest
from bit_oracle import bit_indices
from hypothesis import example, given, strategies as st

from pipedual.grid import boxes, cells, pack, staircase_mask

# bit indices anywhere up to 2^24, and on either side of a byte edge
index_st = st.one_of(
    st.integers(0, 2**24),
    st.builds(lambda k, d: max(0, 8 * k + d), st.integers(0, 2**21), st.integers(-1, 1)),
)
# a mask: the union of a few 64-bit chunks, each shifted to one of those indices
mask_st = st.lists(
    st.builds(lambda at, chunk: chunk << at, index_st, st.integers(0, 2**64 - 1)), max_size=6
).map(lambda chunks: reduce(or_, chunks, 0))


class TestCells:
    @given(mask_st)
    @example(0)
    @example(1 << 7 | 1 << 8 | 1 << 15 | 1 << 16)
    @example(0xFF << 8 | 1 << 2**24)
    @example(1 | 1 << 2**24)
    def test_matches_the_bit_reference(self, mask):
        assert cells(mask) == bit_indices(mask)

    @given(st.integers(0, 2**4096))
    @example(2**4096 - 1)
    def test_reference_is_the_per_bit_loop(self, mask):
        assert bit_indices(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]

    def test_row_4096_reads_in_under_a_second(self):
        # row 4096 of the 4096 x 4096 grid, its top 512 bytes, built without
        # pack; it takes seconds if each cell costs the mask's 2 MiB width
        n = 4096
        row = int.from_bytes(bytes((n - 1) * n // 8) + b"\xff" * (n // 8), "little")
        start = time.perf_counter()
        indices = cells(row)
        assert time.perf_counter() - start < 1
        assert indices == list(range((n - 1) * n, n * n))


def box_set_st():
    """A grid of 1 to 70 columns, so masks end in any of up to 613 bytes,
    and a set of its boxes, often a whole row or column."""

    def build(n):
        box = st.tuples(st.integers(1, n), st.integers(1, n))
        span = range(1, n + 1)
        line = st.integers(1, n).flatmap(
            lambda k: st.sampled_from([[(k, c) for c in span], [(r, k) for r in span]])
        )
        sets = st.lists(st.one_of(st.lists(box, max_size=12), line), max_size=3)
        return st.tuples(st.just(n), sets.map(lambda parts: {b for part in parts for b in part}))

    return st.integers(1, 70).flatmap(build)


class TestBoxes:
    @given(box_set_st())
    @example((1, set()))
    @example((1, {(1, 1)}))
    @example((70, {(1, 8), (1, 9), (70, 70)}))
    def test_undoes_pack(self, case):
        n, box_set = case
        mask = pack(n, box_set)
        # pack's bit numbering, one shift per box, with no buffer
        assert mask == sum(1 << (r - 1) * n + c - 1 for r, c in box_set)
        assert boxes(n, mask) == tuple(sorted(box_set))
        assert pack(n, boxes(n, mask)) == mask

    @given(st.integers(1, 70), st.data())
    def test_boxes_off_the_grid_raise(self, n, data):
        # one coordinate off the grid: 0, negative, or past n; the other may be anything
        off = st.one_of(st.integers(-3, 0), st.integers(n + 1, n + 3))
        anything = st.integers(-3, n + 3)
        bad = data.draw(st.one_of(st.tuples(off, anything), st.tuples(anything, off)))
        on = data.draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4))
        message = rf"box \({bad[0]}, {bad[1]}\) outside the {n} x {n} grid"
        with pytest.raises(ValueError, match=message):
            pack(n, on + [bad])

    def test_row_4096_packs_in_under_a_second(self):
        # a box costs one byte write, not a shift of the 2 MiB mask
        n = 4096
        row = [(n, c) for c in range(1, n + 1)]
        start = time.perf_counter()
        mask = pack(n, row)
        assert time.perf_counter() - start < 1
        assert mask == int.from_bytes(bytes((n - 1) * n // 8) + b"\xff" * (n // 8), "little")


class TestStaircaseMask:
    @pytest.mark.parametrize("n", range(65))
    def test_equals_the_row_sum(self, n):
        # row r holds columns 1 .. n - r, one row mask shifted into place each
        rows = (((1 << n - r) - 1) << (r - 1) * n for r in range(1, n))
        assert staircase_mask(n) == sum(rows)

    def test_n_4096_builds_in_under_half_a_second(self):
        # one numeral, not a sum whose every step is as wide as the mask
        n = 4096
        start = time.perf_counter()
        mask = staircase_mask(n)
        assert time.perf_counter() - start < 0.5
        assert mask.bit_count() == n * (n - 1) // 2
        assert mask.bit_length() == (n - 2) * n + 1  # box (n - 1, 1)
