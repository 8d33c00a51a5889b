"""AD(w) against the subword-complex oracle in ``subword_oracle.py``, and
the oracle's criterion against the brute-force enumerator."""

import itertools

import pytest
from draws import sampled
from subword_oracle import demazure, flagged_members, staircase_word

from pipedual.antidiagonals import antidiagonal_family
from pipedual.grid import cells, pack, staircase_boxes, staircase_mask
from pipedual.permutations import all_permutations, bruhat_geq, reversal
from pipedual.pipedreams import enumerate_rp_bruteforce


@pytest.mark.parametrize("n", range(1, 9))
def test_staircase_word_is_a_word_for_the_longest_permutation(n):
    word = staircase_word(n)
    assert sorted(bit for bit, _ in word) == cells(staircase_mask(n))
    assert demazure(n, word, set()) == reversal(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_against_brute_force(n):
    # S meets every reduced pipe dream of w iff delta(Q - S) is not >= w
    word = staircase_word(n)
    bits = [pack(n, [box]) for box in staircase_boxes(n)]
    subsets = [
        sum(subset) for k in range(len(bits) + 1) for subset in itertools.combinations(bits, k)
    ]
    for w in all_permutations(n):
        dreams = enumerate_rp_bruteforce(w).masks
        for s in subsets:
            meets = all(s & dream for dream in dreams)
            assert meets == (not bruhat_geq(demazure(n, word, set(cells(s))), w)), (w, s)


@pytest.mark.parametrize("n", range(1, 7))
def test_exhaustive(n):
    for w in all_permutations(n):
        assert flagged_members(w) == [], w


@pytest.mark.parametrize("n", [7, 8, 9])
def test_seeded_draws(n):
    for w in sampled(n, 20):
        assert flagged_members(w) == [], w


def test_flags_both_mutants():
    # every member of S_4-S_6 grown by the first staircase cell it lacks,
    # and with its first cell dropped
    members = 0
    for n in (4, 5, 6):
        stair = staircase_mask(n)
        for w in all_permutations(n):
            for mask in antidiagonal_family(w).masks:
                free = stair & ~mask
                mutants = [mask | free & -free, mask & mask - 1]
                assert flagged_members(w, mutants) == mutants, (w, mask)
                members += 1
    assert members == 8208
