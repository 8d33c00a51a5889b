"""The MMCS dualizer against the Berge oracle in ``berge_oracle.py``, and
the oracle itself against brute force."""

import itertools
import random

import pytest
from berge_oracle import berge_dual, berge_dual_with_nonminimal
from hypothesis import example, given, strategies as st

from pipedual.antidiagonals import antidiagonal_family
from pipedual.permutations import Permutation, all_permutations
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
    assert dual_with_nonminimal(family) == berge_dual_with_nonminimal(family)


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

    @given(raw_family_st())
    @example(SetFamily.empty(3))
    @example(SetFamily(3, [0]))
    @example(SetFamily(3, [0, 0b101, 0b11]))
    @example(SetFamily.from_sets(3, [[(1, 1)], [(1, 1), (2, 2)], [(1, 1)]]))
    def test_families(self, family):
        assert transversal_dual(family) == berge_dual(family)

    def test_rejects_match_the_last_round(self):
        rng = random.Random(2014)
        with_rejects = 0
        for _ in range(600):
            family = random_family(rng, rng.randint(1, 4), max_members=8)
            dual, rejects = dual_with_nonminimal(family)
            assert (dual, rejects) == berge_dual_with_nonminimal(family)
            with_rejects += bool(rejects)
        assert with_rejects > 50
