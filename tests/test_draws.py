"""The seeded sampler: its draws are pinned, so the tests and the CI rows
that use it keep the permutations they were written against."""

import pytest
from draws import sampled


@pytest.mark.parametrize(
    "n,first",
    [
        (9, [(8, 6, 3, 2, 9, 1, 5, 7, 4), (6, 1, 9, 4, 2, 7, 3, 5, 8)]),
        (12, [(8, 5, 9, 6, 3, 4, 1, 12, 7, 2, 11, 10), (9, 1, 10, 3, 8, 12, 2, 7, 6, 11, 5, 4)]),
    ],
)
def test_first_draws(n, first):
    assert [w.images for w in sampled(n, 2)] == first
    assert sampled(n, 3)[:2] == sampled(n, 2)
