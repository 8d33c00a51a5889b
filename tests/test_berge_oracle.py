"""The MMCS dualizer against the Berge oracle in ``berge_oracle.py``, and
the oracle itself against brute force."""

import itertools
import random
from functools import reduce
from operator import or_

import pytest
from berge_oracle import berge_dual, berge_dual_with_nonminimal
from hypothesis import example, given, strategies as st

from pipedual import transversals
from pipedual.antidiagonals import antidiagonal_family
from pipedual.permutations import Permutation, all_permutations, parse_permutation
from pipedual.pipedreams import enumerate_rp
from pipedual.transversals import (
    SetFamily,
    dual_with_nonminimal,
    is_minimal_transversal,
    transversal_dual,
)


def raw_family_st(max_n=4, max_members=7, max_size=4):
    """Box lists as given: empty members, repeated members, members that
    contain others."""

    def build(n):
        box = st.tuples(st.integers(1, n), st.integers(1, n))
        member = st.lists(box, max_size=max_size)
        return st.lists(member, max_size=max_members).map(
            lambda sets: SetFamily.from_sets(n, sets)
        )

    return st.integers(1, max_n).flatmap(build)


def random_family(rng, n, max_members):
    """Up to max_members members of up to half the grid; one in twenty may
    be empty."""
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    largest = max(1, len(cells) // 2)
    return SetFamily.from_sets(
        n,
        [
            rng.sample(cells, rng.randint(int(rng.random() >= 0.05), largest))
            for _ in range(rng.randint(0, max_members))
        ],
    )


def brute_force_dual(family):
    cells = [(r, c) for r in range(1, family.n + 1) for c in range(1, family.n + 1)]
    return SetFamily.from_sets(
        family.n,
        [
            subset
            for k in range(len(cells) + 1)
            for subset in itertools.combinations(cells, k)
            if is_minimal_transversal(subset, family)
        ],
    )


def seeded_permutations(n, count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        images = list(range(1, n + 1))
        rng.shuffle(images)
        yield Permutation(tuple(images))


class TestOracle:
    @given(raw_family_st(max_n=3, max_members=5, max_size=3))
    @example(SetFamily.empty(2))
    @example(SetFamily(2, [0]))
    def test_berge_matches_brute_force(self, family):
        assert berge_dual(family) == brute_force_dual(family)

    def test_last_round_rejects(self):
        # equal sizes go in mask order, so {(1,2),(2,1)} comes last; the last
        # round extends {(1,1)} by each of its cells, and {(1,1),(1,2)} is
        # not minimal: {(1,2)} alone meets both members
        family = SetFamily.from_sets(2, [[(1, 2), (2, 1)], [(1, 1), (1, 2)]])
        dual, rejects = berge_dual_with_nonminimal(family)
        assert dual.members == (((1, 1), (2, 1)), ((1, 2),))
        assert rejects.members == (((1, 1), (1, 2)),)


def assert_same_duals(family):
    """MMCS's (dual, rejects), checked against Berge through both readers."""
    dual_and_rejects = dual_with_nonminimal(family)
    assert dual_and_rejects == berge_dual_with_nonminimal(family)
    assert transversal_dual(family) == dual_and_rejects[0]
    return dual_and_rejects


def tabulate_lanes(monkeypatch, family, lanes):
    """Let MMCS on the family tabulate its lane repeats for `lanes` chosen
    cells only, and build them per use deeper down."""
    size = len(family) // 8 + 1
    cells = reduce(or_, family.masks, 0).bit_count()
    monkeypatch.setattr(transversals, "_LANE_TABLE_BYTES", lanes * size * cells)


class TestMmcsAgainstBerge:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_rp_and_ad_exhaustive(self, n):
        for w in all_permutations(n):
            for family in (enumerate_rp(w), antidiagonal_family(w)):
                assert_same_duals(family)

    @pytest.mark.parametrize("n,count", [(7, 12), (8, 6)])
    def test_rp_and_ad_seeded(self, n, count):
        for w in seeded_permutations(n, count, seed=n):
            for family in (enumerate_rp(w), antidiagonal_family(w)):
                assert_same_duals(family)

    def test_ad_seeded_s9(self):
        # past the exhaustive range: families of 15 to 76 members
        for w in seeded_permutations(9, 20, seed=9):
            assert_same_duals(antidiagonal_family(w))

    # mid-size AD families (110-185 members, 1,120-10,181 minimal
    # transversals) from the lexicographic start of S_9, the costliest
    # stretch of a sweep; 132987654 (|AD| 496) takes Berge about 30 s
    @pytest.mark.parametrize(
        "w", ["123895467", "123975486", "124786359", "124957638", "126873945"]
    )
    def test_ad_lexicographic_start_of_s9(self, w):
        assert_same_duals(antidiagonal_family(parse_permutation(w)))

    @given(raw_family_st())
    @example(SetFamily.empty(3))
    @example(SetFamily(3, [0]))
    @example(SetFamily(3, [0, 0b101, 0b11]))
    @example(SetFamily.from_sets(3, [[(1, 1)], [(1, 1), (2, 2)], [(1, 1)]]))
    def test_families(self, family):
        assert_same_duals(family)

    @pytest.mark.parametrize(
        "n,sets,rejects",
        [
            # the last member contains another, so every transversal of the
            # others meets it and the final round extends nothing
            (3, [[(1, 1), (1, 2)], [(1, 1), (1, 2), (2, 1)], [(2, 2), (3, 3)]], []),
            # (1, 2) lies in both members; {(1, 1)} misses the last and is
            # extended by (1, 2) too, a cell MMCS does not allow at that node
            (3, [[(1, 1), (1, 2)], [(1, 2), (2, 1), (2, 2)]], [[(1, 1), (1, 2)]]),
            # equal sizes: {(2,1),(2,2)} is the largest mask, so it is
            # taken last; taking {(1,1),(2,1)} last would find no rejects
            (
                3,
                [[(1, 1), (2, 1)], [(1, 2), (2, 2)], [(2, 1), (2, 2)]],
                [[(1, 1), (1, 2), (2, 1)], [(1, 1), (1, 2), (2, 2)]],
            ),
            # the last member lies in the last row of the largest grid, at
            # cells just under bit 2^24: its cells are rejected, found and
            # left to another node (not allowed) at those indices
            (
                4096,
                [
                    [(1, 1), (1, 2), (4096, 3)],
                    [(1, 1), (1, 3), (4096, 2)],
                    [(4096, 1), (4096, 2), (4096, 3)],
                ],
                [[(1, 2), (1, 3), (4096, 2)], [(1, 2), (1, 3), (4096, 3)]],
            ),
            (3, [[], [(1, 1), (1, 3)]], []),
            (3, [[]], []),
            (3, [], []),
        ],
        ids=[
            "last-contains", "shared-cells", "equal-sizes", "last-row-of-4096",
            "with-empty", "only-empty", "empty",
        ],
    )
    def test_deferred_member_edge_cases(self, n, sets, rejects):
        family = SetFamily.from_sets(n, sets)
        assert assert_same_duals(family)[1] == SetFamily.from_sets(n, rejects)

    def test_two_far_boxes(self):
        # the last member is the top bit of a 4,000,000-bit mask: a list of
        # its cells that tests every bit index would take minutes
        family = SetFamily(2000, [1, 1 << (2000 * 2000 - 1)])
        dual, rejects = assert_same_duals(family)
        assert dual.members == (((1, 1), (2000, 2000)),)
        assert len(rejects) == 0

    # MMCS keeps each chosen cell's critical members in a lane of
    # len(members) // 8 + 1 bytes: these counts put the lane's spare top bit
    # on either side of a byte, two bytes and a 64-bit word
    LANE_COUNTS = [7, 8, 9, 15, 16, 17, 63, 64, 65]

    @pytest.mark.parametrize("count", LANE_COUNTS)
    @pytest.mark.parametrize("n,sizes", [(4, (2, 8)), (5, (3, 12)), (5, (1, 5))])
    def test_lane_boundary_counts(self, monkeypatch, count, n, sizes):
        rng = random.Random(count * 100 + n * 10 + sizes[0])
        for _ in range(2):
            masks = set()
            while len(masks) < count:
                boxes = rng.sample(range(n * n), rng.randint(*sizes))
                masks.add(sum(1 << i for i in boxes))
            family = SetFamily(n, masks)
            assert len(family) == count
            tabulated = assert_same_duals(family)
            for lanes in (0, 2):
                with monkeypatch.context() as patch:
                    tabulate_lanes(patch, family, lanes)
                    assert dual_with_nonminimal(family) == tabulated

    @pytest.mark.parametrize("count", LANE_COUNTS)
    @pytest.mark.parametrize("others", [0, 1, 3])
    @pytest.mark.parametrize("lanes", [None, 0, 3])
    def test_transversals_as_deep_as_the_members(self, monkeypatch, count, others, lanes):
        # count - others disjoint singletons and `others` members of two to
        # four further cells: every minimal transversal takes one cell per
        # member, min(#cells, #members) = count of them; `lanes` bounds the
        # depth to which MMCS tabulates its lane repeats (None: the default)
        rng = random.Random(count + others)
        picked = rng.sample(range(81), 81)
        singles, spare = picked[: count - others], picked[count - others:]
        masks = [1 << i for i in singles]
        for j in range(others):
            masks.append(sum(1 << i for i in spare[4 * j: 4 * j + rng.randint(2, 4)]))
        family = SetFamily(9, masks)
        if lanes is not None:
            tabulate_lanes(monkeypatch, family, lanes)
        dual, _ = assert_same_duals(family)
        assert {m.bit_count() for m in dual.masks} == {count}

    def test_rejects_match_the_last_round(self):
        rng = random.Random(2014)
        with_rejects = 0
        for _ in range(600):
            family = random_family(rng, rng.randint(1, 4), max_members=8)
            dual, rejects = dual_with_nonminimal(family)
            assert (dual, rejects) == berge_dual_with_nonminimal(family)
            with_rejects += bool(rejects)
        assert with_rejects > 50
