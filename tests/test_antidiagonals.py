import math
import random

import pytest
from hypothesis import given, strategies as st

from pipedual.antidiagonals import (
    Antidiagonal,
    antidiagonal_family,
    antidiagonals_in_rectangle,
    essential_set,
)
from pipedual.grid import pack
from pipedual.permutations import (
    Permutation,
    all_permutations,
    identity,
    parse_permutation,
    rank,
    reversal,
)
from pipedual.transversals import SetFamily, minimalize


class TestAntidiagonalType:
    def test_accepts_strict_northeast_chain(self):
        Antidiagonal(((1, 3), (2, 2), (3, 1)))

    @pytest.mark.parametrize(
        "boxes",
        [
            ((1, 1), (2, 2)),  # southeast of the first
            ((1, 2), (2, 2)),  # column not strictly decreasing
            ((2, 2), (1, 3)),  # rows out of order
        ],
    )
    def test_rejects_non_chains(self, boxes):
        with pytest.raises(ValueError):
            Antidiagonal(boxes)


class TestRectangleStream:
    def test_unit_rectangle(self):
        assert [a.boxes for a in antidiagonals_in_rectangle(1, 1, 1)] == [((1, 1),)]

    def test_two_by_two(self):
        assert [a.boxes for a in antidiagonals_in_rectangle(2, 2, 2)] == [
            ((1, 2), (2, 1))
        ]

    def test_oversized_request_is_empty(self):
        assert list(antidiagonals_in_rectangle(3, 3, 4)) == []

    def test_size_zero_is_single_empty(self):
        assert [a.boxes for a in antidiagonals_in_rectangle(2, 3, 0)] == [()]

    def test_lexicographic_order(self):
        seqs = [a.boxes for a in antidiagonals_in_rectangle(3, 3, 2)]
        flattened = [tuple(x for box in s for x in box) for s in seqs]
        assert flattened == sorted(flattened)
        assert len(seqs) == len(set(seqs))

    @given(
        st.integers(1, 5), st.integers(1, 5), st.integers(0, 5)
    )
    def test_count_is_product_of_binomials(self, p, q, s):
        got = sum(1 for _ in antidiagonals_in_rectangle(p, q, s))
        assert got == math.comb(p, s) * math.comb(q, s)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            list(antidiagonals_in_rectangle(0, 2, 1))
        with pytest.raises(ValueError):
            list(antidiagonals_in_rectangle(2, 2, -1))


class TestFamily:
    def test_2143(self):
        family = antidiagonal_family(parse_permutation("2143"))
        assert family.members == (((1, 1),), ((1, 3), (2, 2), (3, 1)))

    def test_1432(self):
        family = antidiagonal_family(parse_permutation("1432"))
        assert family.members == (
            ((1, 2), (2, 1)),
            ((1, 2), (3, 1)),
            ((1, 3), (2, 1)),
            ((1, 3), (2, 2)),
            ((2, 2), (3, 1)),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_empty_exactly_for_identity(self, n):
        for w in all_permutations(n):
            assert (len(antidiagonal_family(w)) == 0) == (w == identity(n))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reversal_family_contains_corner(self, n):
        assert ((1, 1),) in antidiagonal_family(reversal(n)).members

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_members_are_antidiagonals_and_an_antichain(self, n):
        for w in all_permutations(n):
            members = antidiagonal_family(w).members
            for m in members:
                Antidiagonal(m)  # validates the chain shape
            sets = [set(m) for m in members]
            for i, a in enumerate(sets):
                for j, b in enumerate(sets):
                    if i != j:
                        assert not a < b

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_member_size_matches_anchor_rank(self, n):
        # anchored at its own bounding rectangle, a member has 1 + rank boxes
        for w in all_permutations(n):
            for m in antidiagonal_family(w).members:
                p = max(r for r, _ in m)
                q = max(c for _, c in m)
                assert len(m) == 1 + rank(w, p, q)

    def test_equals_minimalized_rectangle_union(self):
        # the family is the minimality filter applied to the raw union
        # of the per-rectangle streams
        w = parse_permutation("2143")
        union = set()
        for p in range(1, 5):
            for q in range(1, 5):
                size = 1 + rank(w, p, q)
                union.update(
                    a.boxes for a in antidiagonals_in_rectangle(p, q, size)
                )
        raw = SetFamily.from_sets(4, union)
        assert minimalize(raw) == antidiagonal_family(w)


def all_rectangles_family(w):
    """The family from every rectangle [p] x [q], not just the essential
    ones: the oracle for the essential-set construction."""
    n = w.n
    union = set()
    for p in range(1, n + 1):
        for q in range(1, n + 1):
            size = 1 + rank(w, p, q)
            union.update(
                pack(n, a.boxes) for a in antidiagonals_in_rectangle(p, q, size)
            )
    return minimalize(SetFamily(n, union))


def in_rothe_diagram(w, i, j):
    n = w.n
    return 1 <= i <= n and 1 <= j <= n and j < w(i) and i < w.inverse()(j)


class TestEssentialSet:
    def test_2143(self):
        assert essential_set(parse_permutation("2143")) == ((1, 1), (3, 3))

    def test_1432(self):
        assert essential_set(parse_permutation("1432")) == ((2, 3), (3, 2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_matches_definition(self, n):
        for w in all_permutations(n):
            expected = tuple(
                (p, q)
                for p in range(1, n + 1)
                for q in range(1, n + 1)
                if in_rothe_diagram(w, p, q)
                and not in_rothe_diagram(w, p + 1, q)
                and not in_rothe_diagram(w, p, q + 1)
            )
            assert essential_set(w) == expected, str(w)


class TestAllRectanglesOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agrees_on_all_of_sn(self, n):
        for w in all_permutations(n):
            assert antidiagonal_family(w) == all_rectangles_family(w), str(w)

    @pytest.mark.parametrize("n,seed", [(7, 7), (8, 8), (9, 9)])
    def test_agrees_on_a_seeded_sample(self, n, seed):
        rng = random.Random(seed)
        for _ in range(20):
            w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            assert antidiagonal_family(w) == all_rectangles_family(w), str(w)
