import json
import random
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from pipedual.antidiagonals import antidiagonal_family
from pipedual.permutations import parse_permutation
from pipedual.pipedreams import enumerate_rp
from pipedual.transversals import (
    FamilyFormatError,
    SetFamily,
    dual_with_nonminimal,
    family_from_json,
    family_from_json_obj,
    family_to_json,
    family_to_json_obj,
    is_minimal_transversal,
    is_transversal,
    minimalize,
    transversal_dual,
)


def family_st(max_n=4, max_members=6, max_size=4):
    def build(n):
        box = st.tuples(st.integers(1, n), st.integers(1, n))
        member = st.frozensets(box, min_size=1, max_size=max_size)
        return st.frozensets(member, max_size=max_members).map(
            lambda sets: SetFamily.from_sets(n, sets)
        )

    return st.integers(2, max_n).flatmap(build)


def family_and_probe_st(n):
    box = st.tuples(st.integers(1, n), st.integers(1, n))
    family = st.lists(st.lists(box, max_size=4), max_size=6).map(
        lambda sets: SetFamily.from_sets(n, sets)
    )
    # probes reach one past each edge of the grid
    near = st.tuples(st.integers(0, n + 1), st.integers(0, n + 1))
    return st.tuples(family, st.lists(near, max_size=4))


def antichain_st(**kwargs):
    return family_st(**kwargs).map(minimalize)


class TestSetFamily:
    def test_canonicalizes(self):
        family = SetFamily.from_sets(3, [[(2, 1), (1, 2)], [(1, 1)], [(1, 2), (2, 1)]])
        assert family.members == (((1, 1),), ((1, 2), (2, 1)))

    def test_rejects_out_of_grid(self):
        with pytest.raises(ValueError):
            SetFamily.from_sets(2, [[(3, 1)]])

    def test_container_protocol(self):
        family = SetFamily.from_sets(3, [[(1, 1)], [(2, 2)]])
        assert len(family) == 2
        assert [(1, 1)] in family
        assert list(family) == [((1, 1),), ((2, 2),)]

    def test_off_grid_box_is_not_aliased(self):
        # (1, 4) packs to the bit of (2, 1) on the 3 x 3 grid
        family = SetFamily.from_sets(3, [[(2, 1)], [(1, 1), (2, 1)]])
        assert [(2, 1)] in family
        assert [(1, 4)] not in family
        assert [(1, 1), (1, 4)] not in family
        assert [(0, 1)] not in family

    @given(st.integers(1, 4).flatmap(family_and_probe_st))
    def test_contains_matches_member_lookup(self, case):
        family, probe = case
        old = tuple(sorted(set(probe))) in set(family.members)
        assert (probe in family) == old
        for member in family.members:
            assert member in family and list(reversed(member)) * 2 in family


class TestCanonicalMasks:
    @given(st.lists(st.integers(0, 2**81 - 1), max_size=12))
    @example([5, 3, 9, 3, 1, 9])
    @example([7, 7])
    def test_unsorted_duplicated_and_generator_input(self, masks):
        canonical = tuple(sorted(set(masks)))
        assert SetFamily(9, masks).masks == canonical
        assert SetFamily(9, tuple(reversed(masks))).masks == canonical
        assert SetFamily(9, (m for m in masks)).masks == canonical
        assert SetFamily(9, masks + masks).masks == canonical
        assert SetFamily(9, canonical) == SetFamily(9, masks)

    def test_distinct_masks_build_no_set(self):
        # 100,000 distinct masks: the sorted list and the tuple hold about
        # 0.8 MB each, and a set of them would add about 4.7 MB
        masks = list(range(1 << 20, (1 << 20) + 300_000, 3))
        random.Random(0).shuffle(masks)
        tracemalloc.start()
        try:
            family = SetFamily(9, masks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert family.masks == tuple(sorted(masks))
        assert peak < 2_500_000


def box_lists_st(max_n=9, max_members=6, max_size=6):
    # n = 9 puts boxes on bits up to 80, past one machine word
    def build(n):
        box = st.tuples(st.integers(1, n), st.integers(1, n))
        member = st.lists(box, max_size=max_size)
        return st.tuples(st.just(n), st.lists(member, max_size=max_members))

    return st.integers(1, max_n).flatmap(build)


class TestWideMasks:
    @given(box_lists_st())
    @example((9, [[(9, 9), (1, 1), (9, 9)], [(8, 9)], [], [(1, 1), (9, 9)]]))
    def test_members_round_trip(self, case):
        n, sets = case
        family = SetFamily.from_sets(n, sets)
        canonical = tuple(sorted({tuple(sorted(set(s))) for s in sets}))
        assert family.members == canonical
        assert len(family) == len(canonical)
        assert SetFamily.from_sets(n, family.members) == family
        assert family_from_json(family_to_json(family)) == family


class TestIsTransversal:
    def test_vacuous_on_empty_family(self):
        assert is_transversal(set(), SetFamily.empty(3))

    def test_dream_meets_every_antidiagonal(self):
        family = antidiagonal_family(parse_permutation("2143"))
        assert is_transversal({(1, 1), (2, 2)}, family)

    def test_missing_a_member(self):
        family = antidiagonal_family(parse_permutation("2143"))
        assert not is_transversal({(2, 2)}, family)


class TestIsMinimalTransversal:
    def test_empty_set_against_empty_family(self):
        assert is_minimal_transversal(set(), SetFamily.empty(2))

    def test_member_of_dual(self):
        family = antidiagonal_family(parse_permutation("2143"))
        assert is_minimal_transversal({(1, 1), (2, 2)}, family)

    def test_superset_is_not_minimal(self):
        family = antidiagonal_family(parse_permutation("2143"))
        assert not is_minimal_transversal({(1, 1), (2, 2), (3, 1)}, family)

    @given(antichain_st(max_n=3, max_members=4, max_size=3))
    def test_agrees_with_dual_membership(self, family):
        dual = transversal_dual(family)
        for member in dual.members:
            assert is_minimal_transversal(member, family)


class TestMinimalize:
    def test_drops_strict_superset(self):
        family = SetFamily.from_sets(3, [[(1, 1)], [(1, 1), (2, 2)]])
        assert minimalize(family).members == (((1, 1),),)

    def test_keeps_antichain(self):
        family = SetFamily.from_sets(3, [[(1, 2)], [(2, 1)]])
        assert minimalize(family) == family

    @given(family_st())
    def test_idempotent(self, family):
        once = minimalize(family)
        assert minimalize(once) == once

    @given(family_st())
    def test_result_is_antichain_covering_inputs(self, family):
        kept = [set(m) for m in minimalize(family).members]
        for a in kept:
            assert sum(1 for b in kept if b <= a) == 1
        for m in family.members:
            assert any(k <= set(m) for k in kept)


class TestTransversalDual:
    def test_empty_family_dualizes_to_empty_set(self):
        assert transversal_dual(SetFamily.empty(3)).members == ((),)

    def test_two_singletons(self):
        family = SetFamily.from_sets(3, [[(1, 1)], [(2, 2)]])
        assert transversal_dual(family).members == (((1, 1), (2, 2)),)

    def test_family_with_empty_member_has_no_transversals(self):
        family = SetFamily.from_sets(3, [[], [(1, 1)]])
        assert transversal_dual(family) == SetFamily.empty(3)

    def test_worked_example(self):
        w = parse_permutation("2143")
        assert transversal_dual(antidiagonal_family(w)) == enumerate_rp(w)

    @given(antichain_st())
    def test_double_dual_fixes_antichains(self, family):
        assert transversal_dual(transversal_dual(family)) == family

    @given(family_st())
    def test_dual_is_an_antichain(self, family):
        dual = transversal_dual(family)
        sets = [set(m) for m in dual.members]
        for i, a in enumerate(sets):
            for j, b in enumerate(sets):
                if i != j:
                    assert not a < b

    @given(family_st(max_n=3, max_members=4, max_size=3))
    def test_dual_members_hit_everything(self, family):
        for member in transversal_dual(family).members:
            assert is_transversal(member, family)

    def test_nonminimal_collection(self):
        # re-extending toward {(1,1),(1,2)} in the final round rebuilds a
        # transversal of both members that {(1,2)} alone already covers
        family = SetFamily.from_sets(2, [[(1, 2), (2, 1)], [(1, 1), (1, 2)]])
        dual, nonmin = dual_with_nonminimal(family)
        assert dual.members == (((1, 1), (2, 1)), ((1, 2),))
        assert nonmin.members == (((1, 1), (1, 2)),)
        for member in nonmin.members:
            assert is_transversal(member, family)
            assert not is_minimal_transversal(member, family)


class TestJson:
    def test_shape(self):
        w = parse_permutation("2143")
        obj = family_to_json_obj(enumerate_rp(w))
        assert obj == {
            "n": 4,
            "members": [
                [[1, 1], [1, 3]],
                [[1, 1], [2, 2]],
                [[1, 1], [3, 1]],
            ],
        }

    @given(family_st())
    def test_round_trip(self, family):
        assert family_from_json(family_to_json(family)) == family

    def test_accepts_unsorted_input(self):
        loaded = family_from_json_obj(
            {"n": 3, "members": [[[2, 1], [1, 2]], [[1, 1]]]}
        )
        assert loaded.members == (((1, 1),), ((1, 2), (2, 1)))

    @pytest.mark.parametrize(
        "payload",
        [
            "nonsense",
            "[]",
            '{"n": 2}',
            '{"n": 0, "members": []}',
            '{"n": 2, "members": [[[1]]]}',
            '{"n": 2, "members": [[[1, 3]]]}',
            '{"n": 2, "members": [[[1, "a"]]]}',
            '{"n": true, "members": []}',
            '{"n": 2, "members": [[[1, 1]]], "extra": 1}',
        ],
    )
    def test_rejects_malformed(self, payload):
        with pytest.raises(FamilyFormatError):
            family_from_json(payload)

    def test_emits_compact_valid_json(self):
        family = SetFamily.from_sets(2, [[(1, 1)]])
        text = family_to_json(family)
        assert text == '{"n":2,"members":[[[1,1]]]}'
        assert json.loads(text) == {"n": 2, "members": [[[1, 1]]]}
