"""Two symmetries that no output may break.

A family is a set: rebuilding one from its masks in another order, with
repeats, gives the same value and the same bytes from every reader.  And
the companion transpose law: RP(w^-1) = RP(w)^T and AD(w^-1) = AD(w)^T,
transposing each box (r, c) to (c, r).
"""

import random

import pytest

from pipedual import transversals
from pipedual.antidiagonals import antidiagonal_family
from pipedual.permutations import Permutation, all_permutations
from pipedual.pipedreams import enumerate_rp
from pipedual.transversals import (
    SetFamily,
    dual_with_nonminimal,
    family_to_json,
    family_to_text,
    transversal_dual,
)
from pipedual.verification import _nonminimal_stats


def seeded_draws(count, seed):
    """count uniform draws from S_7, S_8 and S_9, n itself drawn too."""
    rng = random.Random(seed)
    for _ in range(count):
        images = list(range(1, rng.choice((7, 8, 9)) + 1))
        rng.shuffle(images)
        yield Permutation(tuple(images))


def both_families(ws):
    for w in ws:
        yield enumerate_rp(w)
        yield antidiagonal_family(w)


def readers(family):
    dual, rejects = dual_with_nonminimal(family)
    return (
        family_to_json(family),
        family_to_text(family),
        family.members,
        transversal_dual(family),
        dual,
        rejects,
        _nonminimal_stats(rejects),
    )


def assert_order_free(family, rng):
    masks = list(family.masks)
    rng.shuffle(masks)
    repeats = rng.choices(masks, k=min(len(masks), 3))
    rebuilt = SetFamily(family.n, masks + repeats)
    assert rebuilt == family and hash(rebuilt) == hash(family)
    read = readers(family)
    assert readers(rebuilt) == read
    # MMCS takes its members in its own order, whatever order it is given;
    # read[4:6] is dual_with_nonminimal(family)
    found, rejects = transversals._mmcs(masks)
    assert (SetFamily(family.n, found), SetFamily(family.n, rejects)) == read[4:6]


class TestFamilyIsASet:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        rng = random.Random(n)
        for family in both_families(all_permutations(n)):
            assert_order_free(family, rng)

    def test_seeded_s7_to_s9(self):
        rng = random.Random(0)
        for family in both_families(seeded_draws(50, seed=31)):
            assert_order_free(family, rng)

    @pytest.mark.parametrize("order", [[6, 3], [3, 6], [3, 6, 3, 6, 6]])
    def test_equal_sizes_put_the_larger_mask_last(self, order):
        # {(1,2),(2,1)} (mask 6) and {(1,1),(1,2)} (mask 3) have two boxes
        # each.  With 6 last, the last round extends {(1,1)} and rejects
        # {(1,1),(1,2)}; with 3 last it would reject {(1,2),(2,1)} instead
        family = SetFamily(2, order)
        dual, rejects = dual_with_nonminimal(family)
        assert dual.members == (((1, 1), (2, 1)), ((1, 2),))
        assert rejects.members == (((1, 1), (1, 2)),)
        found, rejected = transversals._mmcs(dict.fromkeys(order))
        assert SetFamily(2, rejected) == rejects and SetFamily(2, found) == dual


def transposed(family):
    return SetFamily.from_sets(family.n, ([(c, r) for r, c in m] for m in family.members))


def assert_transpose_law(w):
    v = w.inverse()
    assert enumerate_rp(v) == transposed(enumerate_rp(w)), w
    assert antidiagonal_family(v) == transposed(antidiagonal_family(w)), w


class TestTransposeLaw:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        for w in all_permutations(n):
            assert_transpose_law(w)

    def test_seeded_s7_to_s9(self):
        for w in seeded_draws(200, seed=7):
            assert_transpose_law(w)
