import collections
import functools
import hashlib
import itertools
import json
import math
import multiprocessing
import operator
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import pipedual.transversals as transversals
import pipedual.verification as verification
from pipedual.antidiagonals import antidiagonal_family, antidiagonals_in_rectangle
from pipedual.grid import staircase_boxes
from pipedual.permutations import (
    Permutation,
    all_permutations,
    identity,
    parse_permutation,
    rank,
    rank_matrix,
)
from pipedual.pipedreams import PipeDream, enumerate_rp
from pipedual.schubert import Polynomial, schubert_polynomial
from pipedual.transversals import (
    SetFamily,
    is_minimal_transversal,
    is_transversal,
    transversal_dual,
)
from pipedual.verification import (
    ALL_CHECKS,
    CHECK_DOUBLE_DUAL,
    CHECK_DUAL_REDUCEDNESS,
    CHECK_DUALITY,
    CHECK_RANK_ANTIDIAGONAL,
    CHECK_TRANSVERSALITY,
    CheckResult,
    VerificationReport,
    _verify_chunk,
    iter_verify,
    max_elbow_antidiagonal,
    report_from_json_obj,
    report_to_json_obj,
    reports_from_json,
    reports_to_json,
    verify_bruhat_oracle,
    verify_claim1,
    verify_claim2,
    verify_double_dual,
    verify_permutation,
    verify_range,
    verify_rank_antidiagonal_law,
    verify_theorem,
)
from test_schubert import schubert_by_divided_differences


def dream_st(min_n=2, max_n=5):
    def build(n):
        boxes = staircase_boxes(n)
        return st.frozensets(st.sampled_from(boxes)).map(
            lambda crosses: PipeDream(n, crosses)
        )

    return st.integers(min_n, max_n).flatmap(build)


class TestTheorem:
    def test_worked_example(self):
        assert verify_theorem(parse_permutation("2143")).passed

    def test_identity(self):
        assert verify_theorem(identity(4)).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exhaustive_small(self, n):
        for w in all_permutations(n):
            assert verify_theorem(w).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_dreams_are_exactly_the_minimal_transversals(self, n):
        for w in all_permutations(n):
            family = antidiagonal_family(w)
            dreams = enumerate_rp(w)
            assert len(dreams) == len(transversal_dual(family))
            for member in dreams.members:
                assert is_minimal_transversal(member, family)


class TestClaims:
    def test_claim1_examples(self):
        assert verify_claim1(parse_permutation("2143")).passed
        assert verify_claim1(identity(3)).passed

    def test_claim2_examples(self):
        assert verify_claim2(parse_permutation("2143")).passed
        assert verify_claim2(identity(3)).passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_claims_exhaustive_small(self, n):
        for w in all_permutations(n):
            assert verify_claim1(w).passed
            assert verify_claim2(w).passed

    def test_claim2_records_nonminimal_stats(self):
        report = verify_claim2(parse_permutation("321"))
        assert "nonminimal_transversals_seen" in report.stats
        assert "reduced_nonminimal_transversals" in report.stats
        assert (
            report.stats["reduced_nonminimal_transversals"]
            <= report.stats["nonminimal_transversals_seen"]
        )


class TestMaxElbowAntidiagonal:
    def test_worked_example(self):
        d = PipeDream(4, frozenset({(1, 1), (2, 2)}))
        assert max_elbow_antidiagonal(d, 3, 3) == 2

    @pytest.mark.parametrize("p,q", [(1, 1), (2, 3), (4, 4), (3, 1)])
    def test_empty_dream_gives_min(self, p, q):
        d = PipeDream(4, frozenset())
        assert max_elbow_antidiagonal(d, p, q) == min(p, q)

    def test_full_staircase_corner(self):
        d = PipeDream(3, frozenset(staircase_boxes(3)))
        assert max_elbow_antidiagonal(d, 1, 1) == 0

    def test_out_of_range(self):
        d = PipeDream(3, frozenset())
        with pytest.raises(IndexError):
            max_elbow_antidiagonal(d, 0, 1)
        with pytest.raises(IndexError):
            max_elbow_antidiagonal(d, 1, 4)

    @given(dream_st())
    def test_monotone_in_both_directions(self, d):
        for p in range(1, d.n):
            for q in range(1, d.n + 1):
                assert max_elbow_antidiagonal(d, p, q) <= max_elbow_antidiagonal(
                    d, p + 1, q
                )
                assert max_elbow_antidiagonal(d, q, p) <= max_elbow_antidiagonal(
                    d, q, p + 1
                )


def brute_max_elbow(dream, p, q):
    """Largest k such that some k-box antidiagonal in [p] x [q] misses
    every crossing; a crossing-free antidiagonal stays so when shrunk."""
    k = 0
    while any(
        dream.crosses.isdisjoint(a.boxes)
        for a in antidiagonals_in_rectangle(p, q, k + 1)
    ):
        k += 1
    return k


class TestMaxElbowOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_every_staircase_subset(self, n):
        boxes = staircase_boxes(n)
        for size in range(len(boxes) + 1):
            for crosses in itertools.combinations(boxes, size):
                d = PipeDream(n, frozenset(crosses))
                for p in range(1, n + 1):
                    for q in range(1, n + 1):
                        assert max_elbow_antidiagonal(d, p, q) == brute_max_elbow(
                            d, p, q
                        )

    @given(dream_st(max_n=6))
    def test_random_dreams(self, d):
        for p in range(1, d.n + 1):
            for q in range(1, d.n + 1):
                assert max_elbow_antidiagonal(d, p, q) == brute_max_elbow(d, p, q)


def per_rectangle_max_elbow(crosses, p, q):
    # the per-rectangle DP the rank/antidiagonal check ran before the
    # shared row DP, kept verbatim as the reference for its witnesses
    best = 0
    below = [0] * (q + 1)
    for r in range(p, 0, -1):
        row_best = [0] * (q + 1)
        for c in range(1, q + 1):
            if (r, c) not in crosses:
                row_best[c] = 1 + below[c - 1]
                if row_best[c] > best:
                    best = row_best[c]
        merged = [0] * (q + 1)
        for c in range(1, q + 1):
            merged[c] = max(merged[c - 1], below[c], row_best[c])
        below = merged
    return best


def per_rectangle_rank_check(w, rp):
    rm = rank_matrix(w)
    for member in rp.members:
        crosses = frozenset(member)
        for p in range(1, w.n + 1):
            for q in range(1, w.n + 1):
                if per_rectangle_max_elbow(crosses, p, q) != rm.entry(p, q):
                    witness = SetFamily.from_sets(w.n, [member, [(p, q)]])
                    return CheckResult(False, witness)
    return CheckResult(True)


class TestRankWitness:
    """On corrupted families the check must name the same witness as the
    per-rectangle loop: the first failing member in ``members`` order and
    its first failing rectangle in row-major order."""

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_matches_the_per_rectangle_loop(self, n):
        rng = random.Random(n)
        staircase = staircase_boxes(n)
        failures = 0
        for _ in range(12):
            images = list(range(1, n + 1))
            rng.shuffle(images)
            w = Permutation(tuple(images))
            members = enumerate_rp(w).members
            for _ in range(2):
                # drop a crossing from some members, add one to others
                corrupted = [list(m) for m in members]
                for member in rng.sample(corrupted, min(3, len(corrupted))):
                    if member and rng.random() < 0.5:
                        member.remove(rng.choice(member))
                    else:
                        member.append(
                            rng.choice([b for b in staircase if b not in member])
                        )
                family = SetFamily.from_sets(n, corrupted)
                expected = per_rectangle_rank_check(w, family)
                assert verification._check_rank_antidiagonal(w, family) == expected
                failures += not expected.passed
        assert failures >= 12


class TestRankAntidiagonalLaw:
    def test_worked_example(self):
        assert verify_rank_antidiagonal_law(parse_permutation("2143")).passed

    def test_identity(self):
        assert verify_rank_antidiagonal_law(identity(4)).passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        for w in all_permutations(n):
            assert verify_rank_antidiagonal_law(w).passed

    def test_spot_check_against_rank(self):
        w = parse_permutation("2143")
        for member in enumerate_rp(w).members:
            d = PipeDream(4, frozenset(member))
            for p in range(1, 5):
                for q in range(1, 5):
                    assert max_elbow_antidiagonal(d, p, q) == rank(w, p, q)


class TestDoubleDual:
    @pytest.mark.parametrize("text", ["2143", "1432", "1234", "4321"])
    def test_examples(self, text):
        assert verify_double_dual(parse_permutation(text)).passed

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_exhaustive_small(self, n):
        for w in all_permutations(n):
            assert verify_double_dual(w).passed


class TestBruhatOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_agrees(self, n):
        assert verify_bruhat_oracle(n).passed

    def test_cap(self):
        with pytest.raises(ValueError):
            verify_bruhat_oracle(6)


S5_IMAGES = [w.images for w in all_permutations(5)]


def _deadline_before_41st(chunk, deadline):
    """A worker's chunk as if the deadline passed just before the 41st
    permutation of S_5: the second chunk comes back short."""
    return [verify_permutation(Permutation(w)) for w in chunk if w < S5_IMAGES[40]]


class TestVerifyRange:
    def test_single_permutation(self):
        run = verify_range(1)
        assert len(run.reports) == 1
        assert run.passed_count == 1
        assert not run.exhausted

    def test_s4_all_pass_with_all_checks(self):
        run = verify_range(4)
        assert len(run.reports) == math.factorial(4)
        assert run.passed_count == len(run.reports)
        for report in run.reports:
            assert tuple(report.checks) == ALL_CHECKS

    def test_reports_in_lexicographic_order(self):
        run = verify_range(3)
        images = [r.permutation.images for r in run.reports]
        assert images == sorted(images)

    def test_zero_budget_exhausts_cleanly(self):
        run = verify_range(4, budget_seconds=0)
        assert run.exhausted
        assert len(run.reports) < math.factorial(4)

    def test_parallel_matches_serial(self):
        serial = verify_range(4)
        parallel = verify_range(4, jobs=2)
        assert not parallel.exhausted
        assert [r.permutation for r in parallel.reports] == [
            r.permutation for r in serial.reports
        ]
        assert parallel.passed_count == serial.passed_count

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            verify_range(0)

    def test_parallel_budget_is_honoured(self):
        run = verify_range(7, budget_seconds=1, jobs=2)
        assert run.exhausted
        assert run.elapsed < 3
        images = [r.permutation.images for r in run.reports]
        assert images == [w.images for w in all_permutations(7)][: len(images)]

    def test_half_second_budget_keeps_a_lexicographic_prefix(self):
        # workers stop at the deadline themselves
        run = verify_range(7, budget_seconds=0.5, jobs=2)
        assert run.exhausted
        assert run.elapsed < 1.5
        images = [r.permutation.images for r in run.reports]
        assert images
        assert images == [w.images for w in all_permutations(7)][: len(images)]

    def test_closing_the_sweep_early_stops_every_worker(self):
        reports = iter_verify(7, jobs=2)
        assert next(reports).permutation == identity(7)
        reports.close()
        assert multiprocessing.active_children() == []

    def test_short_chunk_keeps_its_reports_and_ends_the_sweep(self, monkeypatch):
        # forked workers inherit the patched module
        monkeypatch.setattr(verification, "_verify_chunk", _deadline_before_41st)
        images = [r.permutation.images for r in iter_verify(5, jobs=2)]
        assert images == S5_IMAGES[:40]

    def test_chunk_stops_at_the_deadline(self):
        chunk = tuple(w.images for w in all_permutations(3))
        assert _verify_chunk(chunk, time.monotonic() - 1) == []
        reports = _verify_chunk(chunk, None)
        assert [r.permutation.images for r in reports] == list(chunk)


class TestOutputBytes:
    # sha256 of `pipedual verify --n 6 --format json` stdout
    S6_JSON_SHA256 = "de6dac9370459f78d5758c3e62d7140c7e37047fda4587ef647ab404d78845fd"

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_verify_s6_json_is_pinned(self, jobs):
        text = reports_to_json(verify_range(6, jobs=jobs).reports) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == self.S6_JSON_SHA256


def short_permutation_st(min_n=8, max_n=10, max_steps=12):
    """Products of at most max_steps simple transpositions: permutations
    of S_8..S_10 whose families stay small."""

    def product(n, steps):
        images = list(range(1, n + 1))
        for i in steps:
            images[i - 1], images[i] = images[i], images[i - 1]
        return Permutation(tuple(images))

    return st.integers(min_n, max_n).flatmap(
        lambda n: st.lists(st.integers(1, n - 1), max_size=max_steps).map(
            lambda steps: product(n, steps)
        )
    )


class TestBeyondExhaustive:
    @settings(max_examples=40, derandomize=True)
    @given(short_permutation_st())
    def test_laws_hold(self, w):
        report = verify_permutation(w)
        assert report.checks[CHECK_RANK_ANTIDIAGONAL].passed
        assert report.checks[CHECK_TRANSVERSALITY].passed
        assert report.checks[CHECK_DUALITY].passed
        assert report.passed

    @settings(max_examples=40, derandomize=True)
    @given(short_permutation_st())
    def test_schubert_oracle_agrees(self, w):
        # the divided-difference oracle shares no code with enumerate_rp,
        # so this checks its pruning past the exhaustive range
        oracle = schubert_by_divided_differences(w)
        assert Polynomial.from_dict(oracle) == schubert_polynomial(w)
        assert sum(oracle.values()) == len(enumerate_rp(w))


def _count_calls(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args):
        counts[name] = counts.get(name, 0) + 1
        return original(*args)

    monkeypatch.setattr(module, name, counted)


def _record_searches(monkeypatch):
    """Count the MMCS searches, keyed by (members, allowed cells)."""
    searches: collections.Counter = collections.Counter()
    original = transversals._mmcs

    def recorded(members, allowed):
        searches[tuple(members), allowed] += 1
        return original(members, allowed)

    monkeypatch.setattr(transversals, "_mmcs", recorded)
    return searches


def _union(masks):
    return functools.reduce(operator.or_, masks, 0)


def _dual_search(family):
    # the search transversal_dual runs: every cell of the family allowed
    return family.masks, _union(family.masks)


def _reject_search(family):
    # the member Berge's order takes last; the non-minimal stats search the
    # rest for transversals that use no cell of it
    last = sorted(family.masks, key=int.bit_count)[-1]
    rest = tuple(m for m in family.masks if m != last)
    return rest, _union(rest) & ~last


class TestSinglePass:
    def _counted(self, monkeypatch):
        counts: dict[str, int] = {}
        for name in ("enumerate_rp", "antidiagonal_family"):
            _count_calls(monkeypatch, verification, name, counts)
        return counts, _record_searches(monkeypatch)

    def test_families_and_duals_computed_once(self, monkeypatch):
        w = parse_permutation("13254")
        rp, ad = enumerate_rp(w), antidiagonal_family(w)
        counts, searches = self._counted(monkeypatch)
        assert verify_permutation(w).passed
        assert counts == {"enumerate_rp": 1, "antidiagonal_family": 1}
        # dual(RP) = AD is certified, so RP is never searched
        assert searches == {
            _dual_search(ad): 1,
            _reject_search(ad): 1,
        }

    def test_third_dual_only_when_duality_fails(self, monkeypatch):
        w = parse_permutation("13254")
        rp, ad = enumerate_rp(w), antidiagonal_family(w)
        short = SetFamily.from_sets(rp.n, rp.members[1:])
        monkeypatch.setattr(verification, "enumerate_rp", lambda v: short)
        _, searches = self._counted(monkeypatch)
        report = verify_permutation(w)
        # dual(AD) == RP is dualized again only because it differs from short
        assert searches == {
            _dual_search(short): 1,
            _dual_search(ad): 1,
            _reject_search(ad): 1,
            _dual_search(rp): 1,
        }
        assert not report.checks[CHECK_DUALITY].passed
        assert report.checks[CHECK_DOUBLE_DUAL].passed

    def test_matches_the_public_checks_over_s5(self):
        for w in all_permutations(5):
            parts = [
                verify_claim1(w),
                verify_claim2(w),
                verify_rank_antidiagonal_law(w),
                verify_double_dual(w),
                verify_theorem(w),
            ]
            checks = {k: v for part in parts for k, v in part.checks.items()}
            stats = {k: v for part in parts for k, v in part.stats.items()}
            report = verify_permutation(w)
            assert report == VerificationReport(w, checks, stats)
            assert list(report.checks) == list(checks) == list(ALL_CHECKS)
            assert list(report.stats) == list(stats) == [
                "nonminimal_transversals_seen",
                "reduced_nonminimal_transversals",
                "antidiagonals_off_staircase",
            ]


def certified(rp, ad):
    """Whether verify_permutation's certificate gives dual(RP) = AD
    without a search on RP."""
    minimal = verification._check_transversality(rp, ad)[1]
    return verification._dual_rp(rp, ad, transversal_dual(ad), minimal) is ad


def pairwise_transversality(rp, ad):
    # the transversality check before the per-cell table, kept verbatim
    return verification._result_from_offenders(
        rp.n, [m for m in rp.masks if not all(m & a for a in ad.masks)]
    )


def reference_single_pass(w, rp, ad):
    """verify_permutation before the certificate, kept as the reference:
    it always dualizes RP by MMCS."""
    dual_ad, rejected = transversals.dual_with_nonminimal(ad)
    dual_rp = transversal_dual(rp)
    twice = dual_rp if dual_ad == rp else transversal_dual(dual_ad)
    checks = {
        CHECK_TRANSVERSALITY: pairwise_transversality(rp, ad),
        CHECK_DUAL_REDUCEDNESS: verification._check_dual_reducedness(w, dual_ad),
        CHECK_RANK_ANTIDIAGONAL: verification._check_rank_antidiagonal(w, rp),
        CHECK_DOUBLE_DUAL: verification._check_double_dual(ad, twice),
        CHECK_DUALITY: verification._check_duality(rp, ad, dual_ad, dual_rp),
    }
    stats = {
        **verification._nonminimal_stats(rejected),
        **verification._off_staircase_stats(ad),
    }
    return VerificationReport(w, checks, stats)


def corrupted_pairs(w, rng):
    """(kind, RP, AD) with one family of w corrupted, so that dual(RP) is
    no longer AD; w must not be the identity, whose AD is empty."""
    n = w.n
    rp, ad = enumerate_rp(w), antidiagonal_family(w)
    cells = [1 << i for i in range(n * n)]
    a = rng.choice(ad.masks)
    outside = [c for c in cells if not c & a]
    x = rng.choice([c for c in cells if c & a])
    dropped = rng.choice(rp.masks)
    extra = next(
        e
        for e in iter(lambda: sum(rng.sample(cells, rng.randint(1, 3))), None)
        if e not in ad.masks
    )
    yield "drop_rp", SetFamily(n, set(rp.masks) - {dropped}), ad
    yield "nonminimal_ad", rp, SetFamily(n, ad.masks + (a | rng.choice(outside),))
    yield "extra_ad", rp, SetFamily(n, ad.masks + (extra,))
    moved = a ^ x | rng.choice(outside)
    yield "moved_cell", rp, SetFamily(n, set(ad.masks) - {a} | {moved})


def seeded_draws(n, count):
    rng = random.Random(n)
    return [Permutation(tuple(rng.sample(range(1, n + 1), n))) for _ in range(count)]


class TestCertificate:
    """The certificate of verify_permutation against MMCS on RP."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_holds_exactly_when_mmcs_agrees_on_sn(self, n):
        for w in all_permutations(n):
            rp, ad = enumerate_rp(w), antidiagonal_family(w)
            mmcs_agrees = transversal_dual(rp) == ad
            assert certified(rp, ad) == mmcs_agrees
            assert mmcs_agrees

    @pytest.mark.parametrize("n", [8, 9])
    def test_holds_exactly_when_mmcs_agrees_on_seeded_draws(self, n):
        for w in seeded_draws(n, 20):
            rp, ad = enumerate_rp(w), antidiagonal_family(w)
            mmcs_agrees = transversal_dual(rp) == ad
            assert certified(rp, ad) == mmcs_agrees
            assert mmcs_agrees

    def _corrupted_cases(self):
        rng = random.Random(2024)
        for n in (4, 5, 6, 7):
            for w in seeded_draws(n, 8):
                if w != identity(n):
                    for kind, rp, ad in corrupted_pairs(w, rng):
                        yield w, kind, rp, ad

    def test_fails_on_corrupted_pairs_and_falls_back(self, monkeypatch):
        kinds = collections.Counter()
        for w, kind, rp, ad in self._corrupted_cases():
            assert not certified(rp, ad)
            assert transversal_dual(rp) != ad
            with monkeypatch.context() as patch:
                patch.setattr(verification, "enumerate_rp", lambda v: rp)
                patch.setattr(verification, "antidiagonal_family", lambda v: ad)
                searches = _record_searches(patch)
                report = verify_permutation(w)
            assert searches[_dual_search(rp)] >= 1, kind
            assert report == reference_single_pass(w, rp, ad), kind
            assert not report.checks[CHECK_DUALITY].passed
            kinds[kind] += 1
        assert sorted(kinds) == ["drop_rp", "extra_ad", "moved_cell", "nonminimal_ad"]
        assert min(kinds.values()) >= 20

    def test_transversality_offenders_match_the_pairwise_loop(self):
        failing = 0
        for _w, kind, rp, ad in self._corrupted_cases():
            table = verification._check_transversality(rp, ad)[0]
            assert table == pairwise_transversality(rp, ad), kind
            offenders = [m for m in rp.members if not is_transversal(m, ad)]
            if offenders:
                assert table == CheckResult(False, SetFamily.from_sets(rp.n, offenders))
            else:
                assert table == CheckResult(True)
            failing += not table.passed
        assert failing >= 20


class TestReports:
    def test_failing_check_requires_counterexample(self):
        with pytest.raises(ValueError):
            CheckResult(False)

    def test_merged_report_check_order(self):
        report = verify_permutation(parse_permutation("2143"))
        assert tuple(report.checks) == ALL_CHECKS
        assert report.checks[CHECK_DUALITY].passed

    def test_json_round_trip_passing(self):
        report = verify_permutation(parse_permutation("2143"))
        again = report_from_json_obj(report_to_json_obj(report))
        assert again == report

    def test_json_round_trip_failing(self):
        witness = SetFamily.from_sets(3, [[(1, 1)], [(1, 2), (2, 1)]])
        report = VerificationReport(
            identity(3),
            {"duality": CheckResult(False, witness)},
            {"antidiagonals_off_staircase": 0},
        )
        obj = report_to_json_obj(report)
        assert obj["checks"]["duality"]["pass"] is False
        assert obj["checks"]["duality"]["counterexample"]["n"] == 3
        assert report_from_json_obj(obj) == report

    def test_json_list_round_trip(self):
        reports = verify_range(3).reports
        text = reports_to_json(reports)
        assert reports_from_json(text) == reports
        parsed = json.loads(text)
        assert all(set(entry) == {"w", "checks", "stats"} for entry in parsed)
