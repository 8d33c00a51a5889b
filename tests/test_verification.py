import collections
import concurrent.futures
import hashlib
import itertools
import json
import math
import multiprocessing
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

import pipedual.transversals as transversals
import pipedual.verification as verification
from pipedual.antidiagonals import antidiagonal_family, antidiagonals_in_rectangle
from pipedual.grid import Lanes, staircase_boxes
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
    minimalize,
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
    report_to_json,
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


def lanes_of(family):
    return Lanes(family.n, family.masks)


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

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 9])
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
                result = verification._check_rank_antidiagonal(w, lanes_of(family))
                assert result == expected
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

    # S_8, not S_7: two jobs can sweep all of S_7 in under a second
    def test_parallel_budget_is_honoured(self):
        run = verify_range(8, budget_seconds=1, jobs=2)
        assert run.exhausted
        assert run.elapsed < 3
        images = [r.permutation.images for r in run.reports]
        assert images == [w.images for w in all_permutations(8)][: len(images)]

    def test_half_second_budget_keeps_a_lexicographic_prefix(self):
        # workers stop at the deadline themselves
        run = verify_range(8, budget_seconds=0.5, jobs=2)
        assert run.exhausted
        assert run.elapsed < 1.5
        images = [r.permutation.images for r in run.reports]
        assert images
        assert images == [w.images for w in all_permutations(8)][: len(images)]

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

    @pytest.mark.parametrize(
        "n,jobs,workers",
        [(1, 2, 1), (3, 8, 1), (5, 2, 2), (5, 8, 4), (7, 2, 2), (7, 500, 158)],
    )
    def test_pool_never_outnumbers_the_chunks(self, monkeypatch, n, jobs, workers):
        # the spy records the pool size and starts no worker
        seen = []

        class NoPool(Exception):
            pass

        def spy(max_workers):
            seen.append(max_workers)
            raise NoPool

        # iter_verify imports the pool class where a parallel sweep starts
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
        with pytest.raises(NoPool):
            next(iter_verify(n, jobs=jobs))
        assert seen == [workers]

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
    """Count the MMCS searches, keyed by their members."""
    searches: collections.Counter = collections.Counter()
    original = transversals._mmcs

    def recorded(members):
        searches[tuple(members)] += 1
        return original(members)

    monkeypatch.setattr(transversals, "_mmcs", recorded)
    return searches


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
        # one search of AD gives dual(AD) and the stats' rejects;
        # dual(AD) == RP makes dual(RP) min(AD), so RP is never searched
        assert searches == {ad.masks: 1}

    def test_only_ad_searched_when_duality_fails(self, monkeypatch):
        w = parse_permutation("13254")
        rp, ad = enumerate_rp(w), antidiagonal_family(w)
        short = SetFamily.from_sets(rp.n, rp.members[1:])
        monkeypatch.setattr(verification, "enumerate_rp", lambda v: short)
        _, searches = self._counted(monkeypatch)
        report = verify_permutation(w)
        # dual(AD) differs from short, which decides the duality check:
        # neither short nor dual(AD) is searched
        assert searches == {ad.masks: 1}
        assert not report.checks[CHECK_DUALITY].passed
        assert report.checks[CHECK_DOUBLE_DUAL].passed

    @pytest.mark.parametrize("drop", [0, 1])
    def test_theorem_searches_only_ad(self, monkeypatch, drop):
        w = parse_permutation("13254")
        rp, ad = enumerate_rp(w), antidiagonal_family(w)
        kept = SetFamily.from_sets(rp.n, rp.members[drop:])
        monkeypatch.setattr(verification, "enumerate_rp", lambda v: kept)
        _, searches = self._counted(monkeypatch)
        report = verify_theorem(w)
        # the same one search of AD, whether RP is intact or not
        assert searches == {ad.masks: 1}
        assert report.checks[CHECK_DUALITY].passed == (not drop)

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


def derived_dual_rp(rp, ad):
    """dual(RP) by the identity dual(dual(H)) = min(H): min(AD) when
    dual(AD) == RP, else MMCS on RP.  The verifier reads only the first
    case; in the second the duality check has already failed."""
    return minimalize(ad) if transversal_dual(ad) == rp else transversal_dual(rp)


def pairwise_transversality(rp, ad):
    # the per-dream loop the transversality check ran before it moved onto
    # lanes, kept as its reference
    return verification._result_from_offenders(
        rp.n, [m for m in rp.masks if not all(m & a for a in ad.masks)]
    )


def compare_families(got, want):
    # a failing comparison names every mask in just one of the families
    if got == want:
        return CheckResult(True)
    return CheckResult(False, SetFamily(want.n, set(got.masks) ^ set(want.masks)))


def reference_single_pass(w, rp, ad):
    """verify_permutation with every dual searched, kept as the reference:
    it dualizes RP and dual(AD) by MMCS, and its duality check compares
    dual(AD) with RP, then dual(RP) with AD."""
    dual_ad, rejected = transversals.dual_with_nonminimal(ad)
    dual_rp = transversal_dual(rp)
    twice = transversal_dual(dual_ad)
    duality = compare_families(dual_ad, rp)
    checks = {
        CHECK_TRANSVERSALITY: pairwise_transversality(rp, ad),
        CHECK_DUAL_REDUCEDNESS: verification._check_dual_reducedness(
            w, lanes_of(dual_ad)
        ),
        CHECK_RANK_ANTIDIAGONAL: verification._check_rank_antidiagonal(w, lanes_of(rp)),
        CHECK_DOUBLE_DUAL: compare_families(twice, ad),
        CHECK_DUALITY: duality if not duality.passed else compare_families(dual_rp, ad),
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
    """dual(AD) == RP certifies dual(RP) = min(AD), by the identity
    dual(dual(H)) = min(H); the derived dual(RP) against MMCS on RP."""

    def _check(self, w):
        rp, ad = enumerate_rp(w), antidiagonal_family(w)
        mmcs = transversal_dual(rp)
        assert (transversal_dual(ad) == rp) == (mmcs == ad)
        assert derived_dual_rp(rp, ad) == mmcs == ad

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
    def test_holds_exactly_when_mmcs_agrees_on_sn(self, n):
        for w in all_permutations(n):
            self._check(w)

    @pytest.mark.parametrize("n", [8, 9])
    def test_holds_exactly_when_mmcs_agrees_on_seeded_draws(self, n):
        for w in seeded_draws(n, 20):
            self._check(w)

    def _corrupted_cases(self):
        rng = random.Random(2024)
        for n in (4, 5, 6, 7, 8, 9):
            for w in seeded_draws(n, 8 if n < 8 else 4):
                if w != identity(n):
                    for kind, rp, ad in corrupted_pairs(w, rng):
                        yield w, kind, rp, ad

    def test_matches_mmcs_and_the_reference_on_corrupted_pairs(self, monkeypatch):
        kinds = collections.Counter()
        for w, kind, rp, ad in self._corrupted_cases():
            dual_rp = derived_dual_rp(rp, ad)
            assert dual_rp == transversal_dual(rp) != ad, kind
            if kind == "nonminimal_ad":
                # still dual(AD) == RP: the derived dual drops the superset
                assert transversal_dual(ad) == rp
                assert dual_rp == minimalize(ad) != ad
            with monkeypatch.context() as patch:
                patch.setattr(verification, "enumerate_rp", lambda v: rp)
                patch.setattr(verification, "antidiagonal_family", lambda v: ad)
                report = verify_permutation(w)
                theorem = verify_theorem(w)
            reference = reference_single_pass(w, rp, ad)
            assert report == reference, kind
            off = "antidiagonals_off_staircase"
            assert theorem == VerificationReport(
                w,
                {CHECK_DUALITY: reference.checks[CHECK_DUALITY]},
                {off: reference.stats[off]},
            ), kind
            assert not report.checks[CHECK_DUALITY].passed
            kinds[kind] += 1
        assert sorted(kinds) == ["drop_rp", "extra_ad", "moved_cell", "nonminimal_ad"]
        assert min(kinds.values()) >= 20

    def test_transversality_offenders_match_the_pairwise_loop(self):
        failing = 0
        for _w, kind, rp, ad in self._corrupted_cases():
            result = verification._check_transversality(lanes_of(rp), ad)
            assert result == pairwise_transversality(rp, ad), kind
            offenders = [m for m in rp.members if not is_transversal(m, ad)]
            if offenders:
                witness = SetFamily.from_sets(rp.n, offenders)
                assert result == CheckResult(False, witness)
            else:
                assert result == CheckResult(True)
            failing += not result.passed
        assert failing >= 20


class TestReports:
    def test_failing_check_requires_counterexample(self):
        with pytest.raises(ValueError):
            CheckResult(False)

    def test_merged_report_check_order(self):
        report = verify_permutation(parse_permutation("2143"))
        assert tuple(report.checks) == ALL_CHECKS
        assert report.checks[CHECK_DUALITY].passed

    def test_json_fields_passing(self):
        report = verify_permutation(parse_permutation("2143"))
        obj = json.loads(report_to_json(report))
        assert obj["w"] == [2, 1, 4, 3]
        assert list(obj["checks"]) == list(ALL_CHECKS)
        passing = {"pass": True, "counterexample": None}
        assert all(entry == passing for entry in obj["checks"].values())
        assert obj["stats"] == report.stats

    def test_json_fields_failing(self):
        witness = SetFamily.from_sets(3, [[(1, 1)], [(1, 2), (2, 1)]])
        report = VerificationReport(
            identity(3),
            {"duality": CheckResult(False, witness)},
            {"antidiagonals_off_staircase": 0},
        )
        assert json.loads(report_to_json(report)) == {
            "w": [1, 2, 3],
            "checks": {
                "duality": {
                    "pass": False,
                    "counterexample": {"n": 3, "members": [[[1, 1]], [[1, 2], [2, 1]]]},
                }
            },
            "stats": {"antidiagonals_off_staircase": 0},
        }

    def test_json_list_joins_the_reports(self):
        reports = verify_range(3).reports
        parsed = json.loads(reports_to_json(reports))
        assert parsed == [json.loads(report_to_json(r)) for r in reports]
        assert [entry["w"] for entry in parsed] == [list(r.permutation.images) for r in reports]
        assert all(set(entry) == {"w", "checks", "stats"} for entry in parsed)

    def test_failing_report_bytes_are_pinned(self, monkeypatch):
        # 2143 with its first dream dropped from RP, patched in as
        # TestCertificate patches it: only duality fails, and its
        # counterexample is the dropped dream.  The S_6 to S_8 digests
        # hold passing reports only
        w = parse_permutation("2143")
        rp = enumerate_rp(w)
        short = SetFamily.from_sets(rp.n, rp.members[1:])
        monkeypatch.setattr(verification, "enumerate_rp", lambda v: short)
        passing = '{"pass":true,"counterexample":null}'
        assert report_to_json(verify_permutation(w)) == (
            '{"w":[2,1,4,3],"checks":{'
            f'"transversality":{passing},"dual_reducedness":{passing},'
            f'"rank_antidiagonal":{passing},"double_dual":{passing},'
            '"duality":{"pass":false,"counterexample":{"n":4,"members":[[[1,1],[1,3]]]}}},'
            '"stats":{"nonminimal_transversals_seen":0,'
            '"reduced_nonminimal_transversals":0,"antidiagonals_off_staircase":0}}'
        )

    # each case patches one family of 2143 (RP holds {(1,1),(1,3)},
    # {(1,1),(2,2)}, {(1,1),(3,1)}; AD holds {(1,1)}, {(1,3),(2,2),(3,1)})
    # so that the named check fails, and pins the whole report
    PASS = '{"pass":true,"counterexample":null}'
    STATS = (
        '"stats":{"nonminimal_transversals_seen":0,'
        '"reduced_nonminimal_transversals":0,"antidiagonals_off_staircase":%d}}'
    )
    FAILING = {
        # AD gains {(2,1)}, which no dream meets
        CHECK_TRANSVERSALITY: (
            "antidiagonal_family", "ad", [(2, 1)],
            '{"w":[2,1,4,3],"checks":{"transversality":{"pass":false,"counterexample":'
            '{"n":4,"members":[[[1,1],[1,3]],[[1,1],[2,2]],[[1,1],[3,1]]]}},'
            f'"dual_reducedness":{PASS},"rank_antidiagonal":{PASS},"double_dual":{PASS},'
            '"duality":{"pass":false,"counterexample":{"n":4,"members":[[[1,1],[1,3]],'
            "[[1,1],[1,3],[2,1]],[[1,1],[2,1],[2,2]],[[1,1],[2,1],[3,1]],"
            "[[1,1],[2,2]],[[1,1],[3,1]]]}}}," + STATS % 0,
        ),
        # dual(AD) gains {(1,2),(2,1)}: both crossings swap slots 2 and 3
        CHECK_DUAL_REDUCEDNESS: (
            "dual_with_nonminimal", "rp", [(1, 2), (2, 1)],
            f'{{"w":[2,1,4,3],"checks":{{"transversality":{PASS},'
            '"dual_reducedness":{"pass":false,"counterexample":'
            '{"n":4,"members":[[[1,2],[2,1]]]}},'
            f'"rank_antidiagonal":{PASS},"double_dual":{PASS},'
            '"duality":{"pass":false,"counterexample":{"n":4,"members":[[[1,2],[2,1]]]}}},'
            + STATS % 0,
        ),
        # RP gains {(2,1),(2,2)}; the witness is that dream and box (1,1),
        # where its first rank rectangle fails
        CHECK_RANK_ANTIDIAGONAL: (
            "enumerate_rp", "rp", [(2, 1), (2, 2)],
            '{"w":[2,1,4,3],"checks":{"transversality":{"pass":false,"counterexample":'
            '{"n":4,"members":[[[2,1],[2,2]]]}},'
            f'"dual_reducedness":{PASS},'
            '"rank_antidiagonal":{"pass":false,"counterexample":'
            '{"n":4,"members":[[[1,1]],[[2,1],[2,2]]]}},'
            f'"double_dual":{PASS},'
            '"duality":{"pass":false,"counterexample":{"n":4,"members":[[[2,1],[2,2]]]}}},'
            + STATS % 0,
        ),
        # AD gains {(1,1),(4,4)}, a superset of {(1,1)} off the staircase
        CHECK_DOUBLE_DUAL: (
            "antidiagonal_family", "ad", [(1, 1), (4, 4)],
            f'{{"w":[2,1,4,3],"checks":{{"transversality":{PASS},'
            f'"dual_reducedness":{PASS},"rank_antidiagonal":{PASS},'
            '"double_dual":{"pass":false,"counterexample":{"n":4,"members":[[[1,1],[4,4]]]}},'
            '"duality":{"pass":false,"counterexample":{"n":4,"members":[[[1,1],[4,4]]]}}},'
            + STATS % 1,
        ),
    }

    @pytest.mark.parametrize("check", list(FAILING))
    def test_failing_report_bytes_are_pinned_per_check(self, monkeypatch, check):
        target, base, extra, want = self.FAILING[check]
        w = parse_permutation("2143")
        family = {"rp": enumerate_rp, "ad": antidiagonal_family}[base](w)
        patched = SetFamily.from_sets(4, family.members + (tuple(extra),))
        if target == "dual_with_nonminimal":
            monkeypatch.setattr(
                verification, target, lambda f: (patched, SetFamily.empty(4))
            )
        else:
            monkeypatch.setattr(verification, target, lambda v: patched)
        report = verify_permutation(w)
        assert check in report.failed_checks()
        assert report_to_json(report) == want

    def test_bruhat_witness_bytes_are_pinned(self, monkeypatch):
        # a comparison that calls everything comparable first disagrees with
        # the closure at w = 132, v = 123: the witness holds both matrices
        monkeypatch.setattr(verification, "bruhat_geq", lambda v, w: True)
        assert report_to_json(verify_bruhat_oracle(3)) == (
            '{"w":[1,2,3],"checks":{"bruhat_oracle":{"pass":false,"counterexample":'
            '{"n":3,"members":[[[1,1],[2,2],[3,3]],[[1,1],[2,3],[3,2]]]}}},"stats":{}}'
        )
