import time
from functools import reduce
from operator import or_

from bit_oracle import bit_indices
from hypothesis import example, given, strategies as st

from pipedual.grid import cells

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
