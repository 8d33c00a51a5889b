import json
import random

import pytest
from hypothesis import given, strategies as st

from pipedual.permutations import (
    Permutation,
    all_permutations,
    identity,
    reversal,
    length,
    parse_permutation,
)
from pipedual.pipedreams import PipeDream, enumerate_rp, is_reduced, trace
from pipedual.schubert import (
    Polynomial,
    normalize_exponents,
    polynomial_to_json,
    polynomial_to_json_obj,
    polynomial_to_str,
    schubert_polynomial,
    specialize_all_ones,
)


def simple_transposition(n, k):
    images = list(range(1, n + 1))
    images[k - 1], images[k] = images[k], images[k - 1]
    return Permutation(tuple(images))


class TestExponents:
    def test_strips_trailing_zeros(self):
        assert normalize_exponents((1, 2, 0, 0)) == (1, 2)
        assert normalize_exponents((0, 0)) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_exponents((1, -1))

    def test_equal_up_to_trailing_zeros(self):
        p = Polynomial.from_dict({(1, 0): 2})
        q = Polynomial.from_dict({(1,): 2})
        assert p == q


class TestPolynomial:
    def test_from_dict_merges_and_drops_zeros(self):
        p = Polynomial.from_dict({(1, 1): 2, (1, 1, 0): -2, (2,): 1})
        assert p.terms == (((2,), 1),)

    def test_graded_lex_descending(self):
        p = Polynomial.from_dict({(0, 2, 1): 1, (2, 1): 1, (1, 1, 1): 1, (1, 2): 1})
        assert [e for e, _ in p.terms] == [(2, 1), (1, 2), (1, 1, 1), (0, 2, 1)]

    def test_str_forms(self):
        assert polynomial_to_str(Polynomial.zero()) == "0"
        assert polynomial_to_str(Polynomial.one()) == "1"
        p = Polynomial.from_dict({(2, 0, 1): 1, (1, 1): 3, (): -1})
        assert polynomial_to_str(p) == "x1^2*x3 + 3*x1*x2 + -1"

    def test_coefficient_lookup(self):
        p = Polynomial.from_dict({(1, 1): 3})
        assert p.coefficient((1, 1, 0)) == 3
        assert p.coefficient((1,)) == 0


class TestSchubert:
    def test_2143(self):
        poly = schubert_polynomial(parse_permutation("2143"))
        assert poly == Polynomial.from_dict({(2,): 1, (1, 1): 1, (1, 0, 1): 1})
        assert polynomial_to_str(poly) == "x1^2 + x1*x2 + x1*x3"

    def test_1432(self):
        poly = schubert_polynomial(parse_permutation("1432"))
        expected = Polynomial.from_dict(
            {(2, 1): 1, (2, 0, 1): 1, (1, 2): 1, (1, 1, 1): 1, (0, 2, 1): 1}
        )
        assert poly == expected
        assert (
            polynomial_to_str(poly)
            == "x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3"
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_identity_is_one(self, n):
        assert schubert_polynomial(identity(n)) == Polynomial.one()

    @pytest.mark.parametrize("n,k", [(2, 1), (3, 1), (3, 2), (4, 3), (5, 4)])
    def test_simple_transposition_sums_first_k_variables(self, n, k):
        expected = Polynomial.from_dict(
            {tuple(0 if j != i else 1 for j in range(k)): 1 for i in range(k)}
        )
        assert schubert_polynomial(simple_transposition(n, k)) == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_ones_counts_pipe_dreams(self, n):
        for w in all_permutations(n):
            assert specialize_all_ones(schubert_polynomial(w)) == len(enumerate_rp(w))

    @given(st.integers(2, 5).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda i: Permutation(tuple(i)))
    ))
    def test_homogeneous_of_degree_length(self, w):
        poly = schubert_polynomial(w)
        l = length(w)
        assert all(d == l for d in poly.total_degrees())
        assert all(c > 0 for _, c in poly.terms)

    @given(st.integers(2, 5).flatmap(
        lambda n: st.permutations(range(1, n + 1)).map(lambda i: Permutation(tuple(i)))
    ))
    def test_variables_stay_below_n(self, w):
        # exponent tuples are stripped, so their length bounds the variables used
        for exps, _ in schubert_polynomial(w).terms:
            assert len(exps) <= w.n - 1


class TestJsonForm:
    def test_shape(self):
        poly = schubert_polynomial(parse_permutation("2143"))
        assert polynomial_to_json_obj(poly) == [
            {"coeff": 1, "exponents": [2]},
            {"coeff": 1, "exponents": [1, 1]},
            {"coeff": 1, "exponents": [1, 0, 1]},
        ]

    def test_valid_json(self):
        text = polynomial_to_json(schubert_polynomial(parse_permutation("321")))
        assert json.loads(text) == [{"coeff": 1, "exponents": [2, 1]}]


def divided_difference(poly, i):
    """The operator (f - s_i f) / (x_i - x_{i+1}), applied one monomial at
    a time: x_i^p x_{i+1}^q maps to sum_{j<p-q} x_i^{p-1-j} x_{i+1}^{q+j}
    for p > q, to minus the mirrored sum for p < q, and to 0 for p == q."""
    out = {}
    for exps, coeff in poly.items():
        p, q = exps[i - 1], exps[i]
        sign = 1 if p > q else -1
        hi, lo = max(p, q), min(p, q)
        for j in range(hi - lo):
            e = list(exps)
            e[i - 1], e[i] = hi - 1 - j, lo + j
            key = tuple(e)
            out[key] = out.get(key, 0) + sign * coeff
    return {e: c for e, c in out.items() if c}


def schubert_by_divided_differences(w):
    """Lascoux-Schutzenberger: start from S_{w0} = x1^{n-1} x2^{n-2} ...
    x_{n-1} and apply S_{v s_i} = d_i S_v down a chain of descents to w.
    Independent of the pipe-dream enumerator."""
    n = w.n
    images = list(w.images)
    chain = []  # climb from w to w0 by ascents, recording each s_i
    while True:
        i = next((i for i in range(1, n) if images[i - 1] < images[i]), None)
        if i is None:
            break
        images[i - 1], images[i] = images[i], images[i - 1]
        chain.append(i)
    poly = {tuple(range(n - 1, -1, -1)): 1}
    for i in reversed(chain):
        poly = divided_difference(poly, i)
    return poly


class TestDividedDifferenceOracle:
    def test_w0_is_the_staircase_monomial(self):
        assert schubert_by_divided_differences(reversal(4)) == {(3, 2, 1, 0): 1}

    def test_single_step(self):
        # d_1 x1^2 x2 = x1 x2, the Schubert polynomial of 231
        assert divided_difference({(2, 1, 0): 1}, 1) == {(1, 1, 0): 1}
        assert divided_difference({(0, 3): 1}, 1) == {
            (2, 0): -1, (1, 1): -1, (0, 2): -1,
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_agrees_on_all_of_sn(self, n):
        for w in all_permutations(n):
            oracle = Polynomial.from_dict(schubert_by_divided_differences(w))
            assert oracle == schubert_polynomial(w), str(w)

    @pytest.mark.parametrize("n,seed", [(7, 7), (8, 8)])
    def test_agrees_on_a_seeded_sample(self, n, seed):
        # equal polynomials give equal row weights and |RP(w)|; with every
        # member tracing to w and reduced, the family is pinned exactly
        rng = random.Random(seed)
        for _ in range(40):
            w = Permutation(tuple(rng.sample(range(1, n + 1), n)))
            oracle = schubert_by_divided_differences(w)
            assert Polynomial.from_dict(oracle) == schubert_polynomial(w), str(w)
            rp = enumerate_rp(w)
            assert sum(oracle.values()) == len(rp)
            for member in rp.members:
                dream = PipeDream(n, frozenset(member))
                assert trace(dream) == w and is_reduced(dream)
