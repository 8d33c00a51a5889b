import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st
from rp_column_oracle import column_enumerate_rp

from pipedual.grid import pack, staircase_boxes
from pipedual.permutations import (
    Permutation,
    all_permutations,
    identity,
    length,
    parse_permutation,
    reversal,
)
from pipedual.pipedreams import (
    PipeDream,
    PipePair,
    crossing_counts,
    enumerate_rp,
    enumerate_rp_bruteforce,
    is_reduced,
    reduced_traces,
    render_ascii,
    trace,
)


def dream_st(min_n=2, max_n=5):
    def build(n):
        boxes = staircase_boxes(n)
        return st.frozensets(st.sampled_from(boxes)).map(
            lambda crosses: PipeDream(n, crosses)
        )

    return st.integers(min_n, max_n).flatmap(build)


class TestStaircaseInvariant:
    def test_rejects_box_on_antidiagonal(self):
        with pytest.raises(ValueError):
            PipeDream(3, frozenset({(1, 3)}))

    def test_rejects_box_below(self):
        with pytest.raises(ValueError):
            PipeDream(4, frozenset({(4, 4)}))

    def test_rejects_nonpositive_coordinates(self):
        with pytest.raises(ValueError):
            PipeDream(4, frozenset({(0, 1)}))

    def test_accepts_full_staircase(self):
        PipeDream(5, frozenset(staircase_boxes(5)))


class TestTrace:
    def test_empty_is_identity(self):
        assert trace(PipeDream(4, frozenset())) == identity(4)

    def test_two_crosses_give_2143(self):
        d = PipeDream(4, frozenset({(1, 1), (1, 3)}))
        assert trace(d) == parse_permutation("2143")

    def test_full_staircase_reverses(self):
        d = PipeDream(3, frozenset(staircase_boxes(3)))
        assert trace(d) == parse_permutation("321")

    @given(dream_st())
    def test_always_a_permutation(self, d):
        w = trace(d)  # Permutation construction validates bijectivity
        assert w.n == d.n


class TestCrossingCounts:
    def test_empty(self):
        assert crossing_counts(PipeDream(3, frozenset())) == frozenset()

    def test_disjoint_single_crossings(self):
        d = PipeDream(4, frozenset({(1, 1), (1, 3)}))
        assert crossing_counts(d) == frozenset(
            {PipePair(1, 2, 1), PipePair(3, 4, 1)}
        )

    def test_double_crossing_witness(self):
        # pipes 2 and 3 cross at (2,1), separate, and cross again at (1,2)
        d = PipeDream(3, frozenset({(1, 2), (2, 1)}))
        assert crossing_counts(d) == frozenset({PipePair(2, 3, 2)})
        assert trace(d) == identity(3)

    def test_full_staircase_all_pairs_once(self):
        d = PipeDream(3, frozenset(staircase_boxes(3)))
        assert crossing_counts(d) == frozenset(
            {PipePair(1, 2, 1), PipePair(1, 3, 1), PipePair(2, 3, 1)}
        )

    @given(dream_st())
    def test_total_crossings_equal_tile_count(self, d):
        assert sum(p.crossings for p in crossing_counts(d)) == len(d.crosses)


class TestIsReduced:
    def test_empty(self):
        assert is_reduced(PipeDream(4, frozenset()))

    def test_double_crossing_is_not(self):
        assert not is_reduced(PipeDream(3, frozenset({(1, 2), (2, 1)})))

    def test_larger_non_reduced_witness(self):
        d = PipeDream(4, frozenset({(1, 2), (2, 1), (3, 1)}))
        assert trace(d) == parse_permutation("1243")
        assert crossing_counts(d) == frozenset(
            {PipePair(2, 4, 2), PipePair(3, 4, 1)}
        )
        assert not is_reduced(d)

    def test_every_enumerated_dream_is_reduced(self):
        for member in enumerate_rp(parse_permutation("1432")).members:
            assert is_reduced(PipeDream(4, frozenset(member)))

    @given(dream_st())
    def test_size_bounds_trace_length(self, d):
        l = length(trace(d))
        assert len(d.crosses) >= l
        assert (len(d.crosses) == l) == is_reduced(d)


def _tile_walk_trace(n, mask):
    """What reduced_traces must give for one mask, from the tile walk."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    try:
        dream = PipeDream(n, frozenset(box for box in cells if mask & pack(n, [box])))
    except ValueError:
        return None
    return trace(dream).images if is_reduced(dream) else None


class TestReducedTracesOracle:
    """The slot model of :func:`reduced_traces` against the tile walk."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_staircase_subset(self, n):
        bits = [pack(n, [box]) for box in staircase_boxes(n)]
        masks = [
            sum(subset)
            for k in range(len(bits) + 1)
            for subset in itertools.combinations(bits, k)
        ]
        assert list(reduced_traces(n, masks)) == [_tile_walk_trace(n, m) for m in masks]

    def test_seeded_masks_up_to_n8(self):
        rng = random.Random(2004)
        kinds = {"reduced": 0, "not reduced": 0, "off staircase": 0}
        for n in range(2, 9):
            stair = pack(n, staircase_boxes(n))
            masks = []
            for _ in range(300):
                # sparse draws are mostly reduced, dense ones mostly not
                density = rng.choice([0.05, 0.15, 0.4, 0.8])
                mask = sum(1 << b for b in range(n * n) if rng.random() < density)
                masks.append(mask & stair if rng.random() < 0.8 else mask)
            expected = [_tile_walk_trace(n, m) for m in masks]
            assert list(reduced_traces(n, masks)) == expected
            for mask, images in zip(masks, expected):
                if mask & ~stair:
                    kinds["off staircase"] += 1
                else:
                    kinds["reduced" if images else "not reduced"] += 1
        assert min(kinds.values()) > 100, kinds

    def test_enumerated_dreams_trace_to_w(self):
        w = parse_permutation("317529846")
        rp = enumerate_rp(w)
        assert set(reduced_traces(w.n, rp.masks)) == {w.images}


class TestEnumerate:
    def test_2143(self):
        family = enumerate_rp(parse_permutation("2143"))
        assert family.members == (
            ((1, 1), (1, 3)),
            ((1, 1), (2, 2)),
            ((1, 1), (3, 1)),
        )

    def test_1432(self):
        family = enumerate_rp(parse_permutation("1432"))
        assert family.members == (
            ((1, 2), (1, 3), (2, 2)),
            ((1, 2), (1, 3), (3, 1)),
            ((1, 2), (2, 1), (2, 2)),
            ((1, 3), (2, 1), (3, 1)),
            ((2, 1), (2, 2), (3, 1)),
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_gives_single_empty_dream(self, n):
        assert enumerate_rp(identity(n)).members == ((),)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_reversal_gives_full_staircase(self, n):
        family = enumerate_rp(reversal(n))
        assert family.members == (tuple(sorted(staircase_boxes(n))),)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_brute_force_exhaustively(self, n):
        for w in all_permutations(n):
            assert enumerate_rp(w) == enumerate_rp_bruteforce(w)

    def test_members_trace_back_with_minimal_size(self):
        w = parse_permutation("35142")
        family = enumerate_rp(w)
        assert len(family) > 0
        for member in family.members:
            d = PipeDream(w.n, frozenset(member))
            assert trace(d) == w
            assert is_reduced(d)
            assert len(member) == length(w)

    @pytest.mark.parametrize("n", range(2, 11))
    def test_catalan_count_for_1_n_to_2(self, n):
        # Woo (2004): |RP(1 n n-1 ... 2)| is the Catalan number C_{n-1}
        w = Permutation((1,) + tuple(range(n, 1, -1)))
        assert len(enumerate_rp(w)) == math.comb(2 * n - 2, n - 1) // n

    def test_brute_force_cap(self):
        with pytest.raises(ValueError):
            enumerate_rp_bruteforce(identity(7))


def _seeded_draws(seed, sizes, count):
    rng = random.Random(seed)
    for _ in range(count):
        images = list(range(1, rng.choice(sizes) + 1))
        rng.shuffle(images)
        yield Permutation(tuple(images))


class TestColumnOracle:
    """The row-by-row construction against the column-order search in
    ``rp_column_oracle.py``, and against the slot reading of
    :func:`reduced_traces`."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_exhaustive(self, n):
        for w in all_permutations(n):
            assert enumerate_rp(w) == column_enumerate_rp(w), w

    @pytest.mark.parametrize("n", [8, 9])
    def test_seeded_draws(self, n):
        for w in _seeded_draws(n, [n], 20):
            assert enumerate_rp(w) == column_enumerate_rp(w), w

    def test_large_family(self):
        w = parse_permutation("317529846")
        rp = enumerate_rp(w)
        assert len(rp) == 11564
        assert rp == column_enumerate_rp(w)

    @pytest.mark.parametrize(
        "images", [tuple(range(1, 61)), (*range(1, 59), 60, 59)], ids=["identity", "s59"]
    )
    def test_n60(self, images):
        w = Permutation(images)
        assert enumerate_rp(w) == column_enumerate_rp(w)

    def test_seeded_members_trace_to_w(self):
        draws = list(_seeded_draws(910, [9, 10], 20))
        assert {w.n for w in draws} == {9, 10}
        for w in draws:
            rp = enumerate_rp(w)
            assert len(rp) > 0
            assert set(reduced_traces(w.n, rp.masks)) == {w.images}, w


class TestRenderAscii:
    def test_empty_two_by_two(self):
        assert render_ascii(PipeDream(2, frozenset())) == "..\n. "

    def test_diagonal_crosses(self):
        d = PipeDream(4, frozenset({(1, 1), (2, 2)}))
        assert render_ascii(d) == "+...\n.+. \n..  \n.   "

    def test_row_crosses(self):
        d = PipeDream(4, frozenset({(1, 1), (1, 3)}))
        assert render_ascii(d) == "+.+.\n... \n..  \n.   "

    @given(dream_st())
    def test_shape_and_charset(self, d):
        lines = render_ascii(d).split("\n")
        assert len(lines) == d.n
        assert all(len(line) == d.n for line in lines)
        for i, line in enumerate(lines, start=1):
            for j, ch in enumerate(line, start=1):
                if (i, j) in d.crosses:
                    assert ch == "+"
                elif i + j <= d.n + 1:
                    assert ch == "."
                else:
                    assert ch == " "
