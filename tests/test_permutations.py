import itertools

import pytest
from hypothesis import given, strategies as st
from peaks import traced

from pipedual.permutations import (
    Permutation,
    all_permutations,
    bruhat_geq,
    identity,
    length,
    parse_permutation,
    prefix_sets,
    rank,
    rank_matrix,
    reversal,
)


def perm_st(min_n=1, max_n=5):
    return st.integers(min_n, max_n).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(
            lambda images: Permutation(tuple(images))
        )
    )


class TestParse:
    def test_digit_string(self):
        assert parse_permutation("2143").images == (2, 1, 4, 3)

    def test_smallest(self):
        assert parse_permutation("1") == identity(1)

    def test_comma_form_for_large_n(self):
        w = parse_permutation("10,2,3,4,5,6,7,8,9,1")
        assert w.n == 10
        assert w.images[0] == 10 and w.images[9] == 1

    @pytest.mark.parametrize("bad", ["", "  ", "12a4", "x", "1,2,foo"])
    def test_non_numeric_or_empty(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    @pytest.mark.parametrize(
        "bad", ["2,+1", "\u0662\u0661", "1_0,2,3,4,5,6,7,8,9,1"]
    )
    def test_only_ascii_digit_tokens(self, bad):
        # int() would read these as 2,1 / 21 / 10,2,...,1
        with pytest.raises(ValueError, match="non-numeric token"):
            parse_permutation(bad)

    @pytest.mark.parametrize("bad", ["11", "123404", "22", "2,3,4", "0,1"])
    def test_not_a_bijection(self, bad):
        with pytest.raises(ValueError):
            parse_permutation(bad)

    @given(perm_st(max_n=9))
    def test_str_round_trip(self, w):
        assert parse_permutation(str(w)) == w

    def test_str_uses_commas_beyond_nine(self):
        w = identity(11)
        assert str(w) == "1,2,3,4,5,6,7,8,9,10,11"
        assert parse_permutation(str(w)) == w


class TestRank:
    def test_2143_corners(self):
        w = parse_permutation("2143")
        assert rank(w, 1, 1) == 0
        assert rank(w, 3, 3) == 2

    @pytest.mark.parametrize("p,q", list(itertools.product(range(1, 5), repeat=2)))
    def test_identity_is_min(self, p, q):
        assert rank(identity(4), p, q) == min(p, q)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            rank(identity(3), 0, 1)
        with pytest.raises(IndexError):
            rank(identity(3), 1, 4)

    def test_reads_one_prefix_set(self):
        # no n x n table: at n = 600 that peaks at about 6 MiB
        w = identity(600)
        value, peak = traced(rank, w, 1, 1)
        assert value == 1 and peak < 1

    @given(perm_st())
    def test_full_rank_is_n(self, w):
        assert rank(w, w.n, w.n) == w.n

    @given(perm_st())
    def test_increments_locate_one_entries(self, w):
        r = rank_matrix(w)

        def entry(p, q):
            return r.entry(p, q) if p >= 1 and q >= 1 else 0

        for p in range(1, w.n + 1):
            for q in range(1, w.n + 1):
                inc = (
                    entry(p, q)
                    - entry(p - 1, q)
                    - entry(p, q - 1)
                    + entry(p - 1, q - 1)
                )
                assert inc == (1 if w(p) == q else 0)

    @given(perm_st())
    def test_monotone_in_each_direction(self, w):
        r = rank_matrix(w)
        for p in range(1, w.n):
            for q in range(1, w.n + 1):
                assert 0 <= r.entry(p + 1, q) - r.entry(p, q) <= 1
                assert 0 <= r.entry(q, p + 1) - r.entry(q, p) <= 1


class TestPrefixSets:
    # the oracles count images directly and share no code with prefix_sets,
    # rank_matrix or rank
    @pytest.mark.parametrize("n", range(1, 7))
    def test_against_direct_count(self, n):
        for w in all_permutations(n):
            sets, r = prefix_sets(w), rank_matrix(w)
            for p in range(1, n + 1):
                assert sets[p - 1] == sum(2 ** (j - 1) for j in w.images[:p])
                for q in range(1, n + 1):
                    assert rank(w, p, q) == r.entry(p, q) == sum(
                        1 for i in range(p) if w.images[i] <= q
                    )


class TestLength:
    @pytest.mark.parametrize(
        "text,expected", [("2143", 2), ("1432", 3), ("1234", 0), ("4321", 6)]
    )
    def test_known_values(self, text, expected):
        assert length(parse_permutation(text)) == expected

    @given(perm_st())
    def test_inverse_preserves_length(self, w):
        assert length(w) == length(w.inverse())

    @given(perm_st())
    def test_zero_only_for_identity(self, w):
        assert (length(w) == 0) == (w == identity(w.n))


class TestBruhat:
    @given(perm_st())
    def test_reflexive(self, w):
        assert bruhat_geq(w, w)

    @given(perm_st())
    def test_identity_is_minimum(self, w):
        assert bruhat_geq(w, identity(w.n))

    @given(perm_st())
    def test_reversal_is_maximum(self, w):
        assert bruhat_geq(reversal(w.n), w)

    def test_incomparable_pair(self):
        v, w = parse_permutation("1432"), parse_permutation("2143")
        assert not bruhat_geq(v, w)
        assert not bruhat_geq(w, v)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            bruhat_geq(identity(3), identity(4))

    def test_builds_no_rank_table(self):
        # two n x n tables at n = 600 peak at about 10 MiB
        v, w = reversal(600), identity(600)
        above, peak = traced(bruhat_geq, v, w)
        assert above and peak < 1

    def test_antisymmetric_on_s4(self):
        perms = list(all_permutations(4))
        for v in perms:
            for w in perms:
                if bruhat_geq(v, w) and bruhat_geq(w, v):
                    assert v == w

    @given(st.data())
    def test_transitive(self, data):
        n = data.draw(st.integers(2, 4))
        perms = st.permutations(range(1, n + 1)).map(lambda i: Permutation(tuple(i)))
        u, v, w = data.draw(perms), data.draw(perms), data.draw(perms)
        if bruhat_geq(u, v) and bruhat_geq(v, w):
            assert bruhat_geq(u, w)


class TestAllPermutations:
    def test_singleton(self):
        assert list(all_permutations(1)) == [identity(1)]

    def test_lex_order_and_count(self):
        perms = list(all_permutations(3))
        assert len(perms) == 6
        assert perms[0].images == (1, 2, 3)
        assert perms[-1].images == (3, 2, 1)
        assert [p.images for p in perms] == sorted(p.images for p in perms)

    def test_s5_count(self):
        assert sum(1 for _ in all_permutations(5)) == 120

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            next(all_permutations(0))


def test_permutation_validates():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation(())
    # True == 1 and 1.0 == 1, so the bijection test alone lets these through
    for images in [(2, True), (True,), (1.0, 2), (1, 2.0)]:
        with pytest.raises(ValueError, match="images must be of type int"):
            Permutation(images)
    w = Permutation([2, 1])
    assert w.images == (2, 1) and w == Permutation((2, 1)) and hash(w) == hash(Permutation((2, 1)))


def test_call_and_inverse():
    w = parse_permutation("2143")
    assert [w(i) for i in range(1, 5)] == [2, 1, 4, 3]
    assert w.inverse() == w
    with pytest.raises(IndexError):
        w(5)
