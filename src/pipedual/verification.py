"""
Executable checks for the duality between reduced pipe dreams and
minimal antidiagonal families, with machine-readable reports.

The central identity: the transversal dual of the antidiagonal family of
w is exactly the set of reduced pipe dreams of w, and dually.  The
supporting checks localize a failure: every reduced pipe dream meets
every antidiagonal of the family; every minimal transversal is a reduced
pipe dream tracing weakly above w in Bruhat order; inside any rectangle
the largest crossing-free antidiagonal of a reduced pipe dream has
exactly the rank of that rectangle; and dualization is an involution on
antichain families.

A failing check always carries a counterexample family; reports also
carry non-asserted observation counters (see the ``stats`` field).
"""

from __future__ import annotations

import json
import time
from collections import deque
from collections.abc import Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import islice
from math import factorial

from .antidiagonals import antidiagonal_family
from .grid import pack, staircase_boxes
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_geq,
    identity,
    length,
    prefix_sets,
)
from .pipedreams import PipeDream, enumerate_rp, reduced_traces
from .transversals import (
    SetFamily,
    _holders,
    dual_with_nonminimal,
    family_from_json_obj,
    family_to_json_obj,
    transversal_dual,
)

# check names in failure-localization order: supporting claims first,
# the headline duality last
CHECK_TRANSVERSALITY = "transversality"
CHECK_DUAL_REDUCEDNESS = "dual_reducedness"
CHECK_RANK_ANTIDIAGONAL = "rank_antidiagonal"
CHECK_DOUBLE_DUAL = "double_dual"
CHECK_DUALITY = "duality"
CHECK_BRUHAT_ORACLE = "bruhat_oracle"

ALL_CHECKS = (
    CHECK_TRANSVERSALITY,
    CHECK_DUAL_REDUCEDNESS,
    CHECK_RANK_ANTIDIAGONAL,
    CHECK_DOUBLE_DUAL,
    CHECK_DUALITY,
)

BRUHAT_ORACLE_MAX_N = 5

# permutations per worker task in a parallel sweep.  Each task costs the
# main process one round trip, so tasks are large; the budget does not
# need them small, since a worker checks the deadline before each
# permutation and returns a short chunk once it has passed
CHUNK_SIZE = 32


@dataclass
class CheckResult:
    passed: bool
    counterexample: SetFamily | None = None

    def __post_init__(self):
        if not self.passed and self.counterexample is None:
            raise ValueError("a failing check must carry a counterexample")


@dataclass
class VerificationReport:
    permutation: Permutation
    checks: dict[str, CheckResult]
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, result in self.checks.items() if not result.passed]


@dataclass
class VerificationRun:
    """Outcome of a sweep over S_n: reports for the permutations finished
    before the budget ran out, in lexicographic order."""

    n: int
    reports: list[VerificationReport]
    exhausted: bool
    elapsed: float

    @property
    def passed_count(self) -> int:
        return sum(1 for report in self.reports if report.passed)


def _result_from_offenders(n: int, offenders: list[int]) -> CheckResult:
    if not offenders:
        return CheckResult(True)
    return CheckResult(False, SetFamily(n, offenders))


def _check_transversality(rp: SetFamily, ad: SetFamily) -> tuple[CheckResult, bool]:
    """The transversality check, and whether each member a of AD is then a
    minimal transversal of RP: each cell of a has a private RP member."""
    holders, full = _holders(rp.masks), (1 << len(rp.masks)) - 1
    missed, private = 0, True
    for a in ad.masks:
        held = [holders.get(1 << i, 0) for i in range(a.bit_length()) if a >> i & 1]
        once = twice = 0
        for h in held:
            twice |= once & h
            once |= h
        missed |= full & ~once
        private = private and all(h & ~twice for h in held)
    offenders = [m for i, m in enumerate(rp.masks) if missed >> i & 1]
    return _result_from_offenders(rp.n, offenders), private and not offenders


def _dual_rp(
    rp: SetFamily, ad: SetFamily, dual_ad: SetFamily, minimal: bool
) -> SetFamily:
    """AD when the certificate of verify_permutation holds, else MMCS on RP."""
    return ad if minimal and dual_ad == rp else transversal_dual(rp)


def _check_dual_reducedness(w: Permutation, dual_ad: SetFamily) -> CheckResult:
    offenders = [
        mask
        for mask, images in zip(dual_ad.masks, reduced_traces(w.n, dual_ad.masks))
        # Bruhat order is reflexive: v == w needs no rank matrices
        if images is None
        or not (images == w.images or bruhat_geq(Permutation(images), w))
    ]
    return _result_from_offenders(w.n, offenders)


def _nonminimal_stats(rejected: SetFamily) -> dict[str, int]:
    traces = reduced_traces(rejected.n, rejected.masks)
    return {
        "nonminimal_transversals_seen": len(rejected),
        "reduced_nonminimal_transversals": sum(t is not None for t in traces),
    }


def _check_rank_antidiagonal(w: Permutation, rp: SetFamily) -> CheckResult:
    n = w.n
    # rank row p as _antidiagonal_steps gives a row: bit q - 1 is set iff
    # rank(w, p, q) > rank(w, p, q - 1), i.e. q is one of w(1), ..., w(p)
    rank_steps = prefix_sets(w)
    # each offending mask -> its first failing (p, q) in row-major order
    failures: dict[int, tuple[int, int]] = {}
    for mask in rp.masks:
        for p, steps in enumerate(rank_steps, 1):
            if diff := _antidiagonal_steps(n, mask, p) ^ steps:
                failures[mask] = (p, (diff & -diff).bit_length())
                break
    if not failures:
        return CheckResult(True)
    # the witness is the first offender in members order, not masks order
    member = SetFamily(n, failures).members[0]
    rect = failures[pack(n, member)]
    return CheckResult(False, SetFamily.from_sets(n, [member, [rect]]))


def _check_double_dual(ad: SetFamily, twice: SetFamily) -> CheckResult:
    if twice == ad:
        return CheckResult(True)
    return CheckResult(False, SetFamily(ad.n, set(twice.masks) ^ set(ad.masks)))


def _check_duality(
    rp: SetFamily, ad: SetFamily, dual_ad: SetFamily, dual_rp: SetFamily
) -> CheckResult:
    if dual_ad != rp:
        return CheckResult(False, SetFamily(rp.n, set(dual_ad.masks) ^ set(rp.masks)))
    if dual_rp != ad:
        return CheckResult(False, SetFamily(ad.n, set(dual_rp.masks) ^ set(ad.masks)))
    return CheckResult(True)


def _off_staircase_stats(ad: SetFamily) -> dict[str, int]:
    off = ~pack(ad.n, staircase_boxes(ad.n))
    return {"antidiagonals_off_staircase": sum(1 for m in ad.masks if m & off)}


def verify_theorem(w: Permutation) -> VerificationReport:
    """Check that dualizing the antidiagonal family yields the reduced
    pipe dreams, and dualizing those yields the family back."""
    rp = enumerate_rp(w)
    ad = antidiagonal_family(w)
    dual_ad = transversal_dual(ad)
    dual_rp = _dual_rp(rp, ad, dual_ad, _check_transversality(rp, ad)[1])
    result = _check_duality(rp, ad, dual_ad, dual_rp)
    return VerificationReport(w, {CHECK_DUALITY: result}, _off_staircase_stats(ad))


def verify_claim1(w: Permutation) -> VerificationReport:
    """Check that every reduced pipe dream of w meets every member of the
    antidiagonal family of w."""
    result, _minimal = _check_transversality(enumerate_rp(w), antidiagonal_family(w))
    return VerificationReport(w, {CHECK_TRANSVERSALITY: result})


def verify_claim2(w: Permutation) -> VerificationReport:
    """Check that every minimal transversal of the antidiagonal family,
    read as a pipe dream, is reduced and traces to a permutation weakly
    above w in Bruhat order.

    Also records how many non-minimal transversals the final round of
    Berge multiplication would discard (see :func:`dual_with_nonminimal`),
    and how many of those are reduced pipe dreams; the counts are
    observations, not assertions.
    """
    dual_ad, rejected = dual_with_nonminimal(antidiagonal_family(w))
    return VerificationReport(
        w,
        {CHECK_DUAL_REDUCEDNESS: _check_dual_reducedness(w, dual_ad)},
        _nonminimal_stats(rejected),
    )


def _antidiagonal_steps(n: int, mask: int, p: int) -> int:
    """Row p of the table of largest crossing-free antidiagonals, as its
    steps: bit q - 1 is set iff the largest antidiagonal inside [p] x [q]
    avoiding the crossings of ``mask`` has one box more than inside
    [p] x [q - 1] (a row grows by at most one box per column).

    One chain DP runs bottom-up from row p: if L' is the row for rows
    r+1..p, the row for rows r..p is L(c) = max(L(c - 1), L'(c),
    L'(c - 1) + 1 if (r, c) is an elbow).  That is the longest-common-
    subsequence recurrence with elbows as matches, run here bit-parallel,
    one grid row per step (Hyyro, "Bit-parallel LCS-length computation
    revisited", 2004).
    """
    full = (1 << n) - 1
    v = full  # bit q - 1 clear iff the row so far steps up at column q
    for r in range(p, 0, -1):
        u = v & ~(mask >> (r - 1) * n)
        v = ((v + u) | (v - u)) & full
    return v ^ full


def max_elbow_antidiagonal(dream: PipeDream, p: int, q: int) -> int:
    """Largest antidiagonal inside [p] x [q] avoiding every crossing tile
    of the pipe dream: longest strictly-northeast chain over elbow boxes,
    read from row p of the chain DP that the rank/antidiagonal check runs
    (the steps in its first q columns)."""
    if not (1 <= p <= dream.n and 1 <= q <= dream.n):
        raise IndexError(f"rectangle ({p}, {q}) out of range for n={dream.n}")
    steps = _antidiagonal_steps(dream.n, pack(dream.n, dream.crosses), p)
    return (steps & ((1 << q) - 1)).bit_count()


def verify_rank_antidiagonal_law(w: Permutation) -> VerificationReport:
    """Check that for every reduced pipe dream of w and every rectangle,
    the largest crossing-free antidiagonal has size exactly the rank."""
    return VerificationReport(
        w, {CHECK_RANK_ANTIDIAGONAL: _check_rank_antidiagonal(w, enumerate_rp(w))}
    )


def verify_double_dual(w: Permutation) -> VerificationReport:
    """Check that dualizing twice returns the antidiagonal family."""
    ad = antidiagonal_family(w)
    twice = transversal_dual(transversal_dual(ad))
    return VerificationReport(w, {CHECK_DOUBLE_DUAL: _check_double_dual(ad, twice)})


def _permutation_matrix_boxes(w: Permutation) -> list[tuple[int, int]]:
    return [(i, w.images[i - 1]) for i in range(1, w.n + 1)]


def verify_bruhat_oracle(n: int) -> VerificationReport:
    """Check the rank-matrix comparison against an independent Bruhat
    oracle: the reflexive-transitive closure of transpositions that
    increase inversion count by exactly one.

    The report is keyed to the identity of S_n; a counterexample family
    holds the permutation matrices of an offending ordered pair.
    """
    if n > BRUHAT_ORACLE_MAX_N:
        raise ValueError(f"closure oracle is capped at n <= {BRUHAT_ORACLE_MAX_N}")
    perms = list(all_permutations(n))
    index = {w.images: i for i, w in enumerate(perms)}
    lengths = [length(w) for w in perms]
    above = [0] * len(perms)  # above[i]: bitmask of {v : v >= perms[i]}
    for i in sorted(range(len(perms)), key=lambda k: -lengths[k]):
        mask = 1 << i
        img = list(perms[i].images)
        for a in range(n):
            for b in range(a + 1, n):
                img[a], img[b] = img[b], img[a]
                j = index[tuple(img)]
                img[a], img[b] = img[b], img[a]
                if lengths[j] == lengths[i] + 1:
                    mask |= above[j]
        above[i] = mask
    for i, w in enumerate(perms):
        for j, v in enumerate(perms):
            if bruhat_geq(v, w) != bool(above[i] >> j & 1):
                witness = SetFamily.from_sets(
                    n, [_permutation_matrix_boxes(v), _permutation_matrix_boxes(w)]
                )
                return VerificationReport(
                    identity(n), {CHECK_BRUHAT_ORACLE: CheckResult(False, witness)}
                )
    return VerificationReport(identity(n), {CHECK_BRUHAT_ORACLE: CheckResult(True)})


def verify_permutation(w: Permutation) -> VerificationReport:
    """Run every per-permutation check, supporting claims first, in one
    pass: RP(w), AD(w) and their duals are each computed once.

    dual(RP) is certified, not searched for (Fredman and Khachiyan 1996;
    Eiter and Gottlob 1995).  Let A = AD(w), R = RP(w) and suppose (a)
    every a in A meets every r in R, (b) dual(A) = R, and (c) each cell
    of each a has a private member of R, one meeting a there alone.
    Then dual(R) = A.  By (a) and (c), each a is a minimal transversal
    of R.  If a minimal transversal t of R contained no a, its complement
    would meet every a, so hold a member of dual(A) = R that t misses.
    So t contains some a, and t = a by minimality.  If (a), (b) or (c)
    fails, MMCS computes dual(R)."""
    rp = enumerate_rp(w)
    ad = antidiagonal_family(w)
    dual_ad, rejected = dual_with_nonminimal(ad)
    transversality, minimal = _check_transversality(rp, ad)
    dual_rp = _dual_rp(rp, ad, dual_ad, minimal)
    # dual(AD) == RP makes dual(dual(AD)) exactly dual(RP)
    twice = dual_rp if dual_ad == rp else transversal_dual(dual_ad)
    checks = {
        CHECK_TRANSVERSALITY: transversality,
        CHECK_DUAL_REDUCEDNESS: _check_dual_reducedness(w, dual_ad),
        CHECK_RANK_ANTIDIAGONAL: _check_rank_antidiagonal(w, rp),
        CHECK_DOUBLE_DUAL: _check_double_dual(ad, twice),
        CHECK_DUALITY: _check_duality(rp, ad, dual_ad, dual_rp),
    }
    return VerificationReport(
        w, checks, {**_nonminimal_stats(rejected), **_off_staircase_stats(ad)}
    )


def _verify_each(
    perms: Iterable[Permutation], deadline: float | None
) -> Iterator[VerificationReport]:
    """verify_permutation on each of perms, until the deadline passes."""
    for w in perms:
        if deadline is not None and time.monotonic() >= deadline:
            return
        yield verify_permutation(w)


def _verify_chunk(
    chunk: tuple[tuple[int, ...], ...], deadline: float | None
) -> list[VerificationReport]:
    # time.monotonic is system-wide, so the parent's deadline holds here
    return list(_verify_each(map(Permutation, chunk), deadline))


def iter_verify(
    n: int, budget_seconds: float | None = None, jobs: int = 1
) -> Iterator[VerificationReport]:
    """Yield the report of every permutation of S_n in lexicographic
    order, stopping once the time budget is spent; a permutation is
    started only before the deadline.

    With jobs > 1 the permutations go to worker processes in chunks of
    CHUNK_SIZE, at most 2 * jobs of them in flight.  Chunks are yielded in
    submission order, and the sweep stops after the first chunk that comes
    back short.  Closing the generator early shuts the pool down."""
    if n < 1:
        raise ValueError("n must be at least 1")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    if jobs <= 1:
        yield from _verify_each(all_permutations(n), deadline)
        return
    images = (w.images for w in all_permutations(n))
    chunks = iter(lambda: tuple(islice(images, CHUNK_SIZE)), ())
    pool = ProcessPoolExecutor(max_workers=jobs)

    def submit(chunk):
        return len(chunk), pool.submit(_verify_chunk, chunk, deadline)

    try:
        window = deque(map(submit, islice(chunks, 2 * jobs)))
        while window:
            size, future = window.popleft()
            reports = future.result()
            if len(reports) < size:
                yield from reports
                return
            window.extend(map(submit, islice(chunks, 1)))
            yield from reports
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def verify_range(
    n: int, budget_seconds: float | None = None, jobs: int = 1
) -> VerificationRun:
    """Run the full check suite for every permutation of S_n in
    lexicographic order: iter_verify's reports, collected.  Stops early,
    keeping the finished prefix, once the time budget is spent; budget
    exhaustion is a status, not an error."""
    start = time.monotonic()
    reports = list(iter_verify(n, budget_seconds, jobs))
    exhausted = len(reports) < factorial(n)
    return VerificationRun(n, reports, exhausted, time.monotonic() - start)


def report_to_json_obj(report: VerificationReport) -> dict:
    return {
        "w": list(report.permutation.images),
        "checks": {
            name: {
                "pass": result.passed,
                "counterexample": (
                    None
                    if result.counterexample is None
                    else family_to_json_obj(result.counterexample)
                ),
            }
            for name, result in report.checks.items()
        },
        "stats": dict(report.stats),
    }


def report_from_json_obj(obj: dict) -> VerificationReport:
    checks = {
        name: CheckResult(
            entry["pass"],
            None
            if entry["counterexample"] is None
            else family_from_json_obj(entry["counterexample"]),
        )
        for name, entry in obj["checks"].items()
    }
    return VerificationReport(
        Permutation(tuple(obj["w"])), checks, dict(obj.get("stats", {}))
    )


def report_to_json(report: VerificationReport) -> str:
    return json.dumps(report_to_json_obj(report), separators=(",", ":"))


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    return "[" + ",".join(map(report_to_json, reports)) + "]"


def reports_from_json(text: str) -> list[VerificationReport]:
    return [report_from_json_obj(obj) for obj in json.loads(text)]
