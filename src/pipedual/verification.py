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

import time
from collections import deque
from collections.abc import Collection, Iterable, Iterator
from itertools import islice, permutations

from . import MAX_JOBS
from .antidiagonals import antidiagonal_family
from .grid import Lanes, Record, pack, staircase_mask
from .permutations import (
    Permutation,
    all_permutations,
    bruhat_geq,
    identity,
    length,
    prefix_sets,
    reversal,
)
from .pipedreams import PipeDream, enumerate_rp, reduced_traces, trace_lanes
from .transversals import (
    SetFamily,
    _ordered,
    dual_with_nonminimal,
    family_to_json,
    minimalize,
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


class CheckResult(Record):
    def __init__(self, passed: bool, counterexample: SetFamily | None = None):
        if not passed and counterexample is None:
            raise ValueError("a failing check must carry a counterexample")
        self.passed = passed
        self.counterexample = counterexample


class VerificationReport(Record):
    def __init__(
        self,
        permutation: Permutation,
        checks: dict[str, CheckResult],
        stats: dict[str, int] | None = None,
    ):
        self.permutation = permutation
        self.checks = checks
        self.stats = {} if stats is None else stats

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, result in self.checks.items() if not result.passed]


class VerificationRun(Record):
    """Outcome of a sweep over S_n: reports for the permutations finished
    before the budget ran out, in lexicographic order."""

    def __init__(
        self, n: int, reports: list[VerificationReport], exhausted: bool, elapsed: float
    ):
        self.n = n
        self.reports = reports
        self.exhausted = exhausted
        self.elapsed = elapsed

    @property
    def passed_count(self) -> int:
        return sum(1 for report in self.reports if report.passed)


def _result_from_offenders(n: int, offenders: Collection[int]) -> CheckResult:
    if not offenders:
        return CheckResult(True)
    return CheckResult(False, SetFamily(n, offenders))


def _check_transversality(rp: Lanes, ad: SetFamily) -> CheckResult:
    # a lane's top bit survives exactly where its dream meets every member
    met = rp.top
    for a in ad.masks:
        met &= rp.nonzero(rp.packed & rp.ones * a)
    return _result_from_offenders(rp.n, rp.select(met ^ rp.top))


def _check_dual_reducedness(w: Permutation, dual_ad: Lanes) -> CheckResult:
    # a dream that traces to w needs no rank matrices (Bruhat order is
    # reflexive); slot c must hold w^-1(c) in every lane
    slots, bad = trace_lanes(dual_ad)
    wrong = 0
    for c, pipe in enumerate(w.inverse().images, 1):
        wrong |= slots[c] ^ dual_ad.ones * pipe
    suspects = dual_ad.select(bad | dual_ad.nonzero(wrong))
    offenders = [
        mask
        for mask, images in zip(suspects, reduced_traces(w.n, suspects))
        if images is None or not bruhat_geq(Permutation(images), w)
    ]
    return _result_from_offenders(w.n, offenders)


def _nonminimal_stats(rejected: SetFamily) -> dict[str, int]:
    # empty on every AD family of S_1 .. S_8, and then no lanes are built
    bad = trace_lanes(Lanes(rejected.n, rejected.masks))[1] if rejected.masks else 0
    return {
        "nonminimal_transversals_seen": len(rejected),
        "reduced_nonminimal_transversals": len(rejected) - bad.bit_count(),
    }


def _check_rank_antidiagonal(w: Permutation, rp: Lanes) -> CheckResult:
    n, rows = w.n, prefix_sets(w)
    # rank row p as _antidiagonal_steps gives a row: bit q - 1 is set iff
    # rank(w, p, q) > rank(w, p, q - 1), i.e. q is one of w(1), ..., w(p);
    # one DP per row p runs on every dream at once; both sides of a row's
    # difference keep lanes' top bits clear, so one nonzero test reads all rows
    diff = 0
    for p, steps in enumerate(rows, 1):
        diff |= _antidiagonal_steps(n, rp.packed, p, rp.ones) ^ rp.ones * steps
    if not (bad := rp.nonzero(diff)):
        return CheckResult(True)
    # the witness is the first offender in members order, with its first
    # failing (p, q) in row-major order, recomputed on its mask alone
    mask = _ordered(rp.select(bad))[0]
    for p, steps in enumerate(rows, 1):
        if diff := _antidiagonal_steps(n, mask, p) ^ steps:
            corner = pack(n, [(p, (diff & -diff).bit_length())])
            return CheckResult(False, SetFamily(n, (mask, corner)))


def _check_same(got: SetFamily, want: SetFamily) -> CheckResult:
    # the counterexample is the symmetric difference of the two families
    return _result_from_offenders(want.n, got.masks ^ want.masks)


def _check_duality(
    rp: SetFamily, dual_ad: SetFamily, double_dual: CheckResult
) -> CheckResult:
    # once dual(AD) == RP, dual(RP) = dual(dual(AD)) = min(AD), so the
    # double-dual check is the second half
    return double_dual if dual_ad == rp else _check_same(dual_ad, rp)


def _off_staircase_stats(ad: SetFamily) -> dict[str, int]:
    # 0 for every antidiagonal family (see antidiagonal_family), kept
    # computed since the count is part of every report's bytes
    off = ~staircase_mask(ad.n)
    return {"antidiagonals_off_staircase": sum(1 for m in ad.masks if m & off)}


def verify_theorem(w: Permutation) -> VerificationReport:
    """Check that dualizing the antidiagonal family yields the reduced
    pipe dreams, and dualizing those yields the family back."""
    rp = enumerate_rp(w)
    ad = antidiagonal_family(w)
    double_dual = _check_same(minimalize(ad), ad)
    result = _check_duality(rp, transversal_dual(ad), double_dual)
    return VerificationReport(w, {CHECK_DUALITY: result}, _off_staircase_stats(ad))


def verify_claim1(w: Permutation) -> VerificationReport:
    """Check that every reduced pipe dream of w meets every member of the
    antidiagonal family of w."""
    rp = enumerate_rp(w)
    result = _check_transversality(Lanes(w.n, rp.masks), antidiagonal_family(w))
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
    result = _check_dual_reducedness(w, Lanes(w.n, dual_ad.masks))
    return VerificationReport(
        w, {CHECK_DUAL_REDUCEDNESS: result}, _nonminimal_stats(rejected)
    )


def _antidiagonal_steps(n: int, mask: int, p: int, ones: int = 1) -> int:
    """Row p of the table of largest crossing-free antidiagonals, as its
    steps: bit q - 1 is set iff the largest antidiagonal inside [p] x [q]
    avoiding the crossings of ``mask`` has one box more than inside
    [p] x [q - 1] (a row grows by at most one box per column).  With
    ``ones`` from :class:`grid.Lanes`, mask is the lanes' packed int and
    the row comes back in every lane: ``v + u`` carries only into a
    lane's bits above n, and ``v - u`` never borrows, since u is a subset
    of v.

    One chain DP runs bottom-up from row p: if L' is the row for rows
    r+1..p, the row for rows r..p is L(c) = max(L(c - 1), L'(c),
    L'(c - 1) + 1 if (r, c) is an elbow).  That is the longest-common-
    subsequence recurrence with elbows as matches, run here bit-parallel,
    one grid row per step (Hyyro, "Bit-parallel LCS-length computation
    revisited", 2004).
    """
    full = ones * ((1 << n) - 1)
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
    steps = _antidiagonal_steps(dream.n, dream.mask, p)
    return (steps & ((1 << q) - 1)).bit_count()


def verify_rank_antidiagonal_law(w: Permutation) -> VerificationReport:
    """Check that for every reduced pipe dream of w and every rectangle,
    the largest crossing-free antidiagonal has size exactly the rank."""
    rp = enumerate_rp(w)
    result = _check_rank_antidiagonal(w, Lanes(w.n, rp.masks))
    return VerificationReport(w, {CHECK_RANK_ANTIDIAGONAL: result})


def verify_double_dual(w: Permutation) -> VerificationReport:
    """Check that dualizing twice returns the antidiagonal family."""
    ad = antidiagonal_family(w)
    twice = transversal_dual(transversal_dual(ad))
    return VerificationReport(w, {CHECK_DOUBLE_DUAL: _check_same(twice, ad)})


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
                matrices = (pack(n, enumerate(u.images, 1)) for u in (v, w))
                result = CheckResult(False, SetFamily(n, matrices))
                return VerificationReport(identity(n), {CHECK_BRUHAT_ORACLE: result})
    return VerificationReport(identity(n), {CHECK_BRUHAT_ORACLE: CheckResult(True)})


def verify_permutation(w: Permutation) -> VerificationReport:
    """Run every per-permutation check, supporting claims first, in one
    pass: RP(w), AD(w) and dual(AD) are each computed once.

    For any family H, dual(dual(H)) = min(H), its minimal members: the
    blocker of a clutter's blocker is the clutter (Edmonds and
    Fulkerson, "Bottleneck extrema", 1970), and dual(H) = dual(min(H)).
    So dual(dual(AD)) is min(AD), and when dual(AD) == RP so is dual(RP):
    the one MMCS search is on AD, whether the checks pass or fail, and
    RP is never dualized.  The double-dual check therefore compares AD
    with min(AD).  :func:`antidiagonal_family` cuts non-minimal chains as
    it builds them and runs no minimality filter, so this check tests
    that cutting rule and fails if it lets a non-minimal chain through.
    Duality is decided first, on the two families; then RP is packed into
    lanes (:class:`grid.Lanes`), shared with dual(AD) unless the two
    differ, and both families are dropped before the lane checks run."""
    rp = enumerate_rp(w)
    ad = antidiagonal_family(w)
    dual_ad, rejected = dual_with_nonminimal(ad)
    double_dual = _check_same(minimalize(ad), ad)
    duality = _check_duality(rp, dual_ad, double_dual)
    lanes = Lanes(w.n, rp.masks)
    dual_lanes = lanes if dual_ad == rp else Lanes(w.n, dual_ad.masks)
    del rp, dual_ad
    checks = {
        CHECK_TRANSVERSALITY: _check_transversality(lanes, ad),
        CHECK_DUAL_REDUCEDNESS: _check_dual_reducedness(w, dual_lanes),
        CHECK_RANK_ANTIDIAGONAL: _check_rank_antidiagonal(w, lanes),
        CHECK_DOUBLE_DUAL: double_dual,
        CHECK_DUALITY: duality,
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
    """A generator of the report of every permutation of S_n in
    lexicographic order, stopping once the time budget is spent; a
    permutation is started only before the deadline.

    With jobs > 1 the permutations go to worker processes in chunks of
    CHUNK_SIZE, at most 2 * jobs of them in flight.  Chunks are yielded in
    submission order, and the sweep stops after the first chunk that comes
    back short.  No pool starts once the deadline has passed, and closing
    the generator early shuts the pool down.  Raises ValueError at the
    call, before any report is asked for or any worker exists, unless n
    and jobs are ints (not bools) of at least 1, jobs is at most MAX_JOBS,
    and the budget is None or a finite number of at least 0.  The budget
    runs from the call."""
    for name, count in (("n", n), ("jobs", jobs)):
        if isinstance(count, bool) or not isinstance(count, int) or count < 1:
            raise ValueError(f"{name} must be an int of at least 1, got {count!r}")
    if jobs > MAX_JOBS:
        raise ValueError(f"jobs must be at most {MAX_JOBS}, got {jobs}")
    if budget_seconds is not None and (
        isinstance(budget_seconds, bool)
        or not isinstance(budget_seconds, (int, float))
        or not 0 <= budget_seconds < float("inf")  # false for nan
    ):
        raise ValueError(f"budget_seconds must be finite and at least 0, got {budget_seconds!r}")
    deadline = None if budget_seconds is None else time.monotonic() + budget_seconds
    if jobs == 1:
        return _verify_each(all_permutations(n), deadline)
    return _verify_pool(n, jobs, deadline)


def _verify_pool(n: int, jobs: int, deadline: float | None) -> Iterator[VerificationReport]:
    """The sweep of :func:`iter_verify` on a pool of jobs workers."""
    if deadline is not None and time.monotonic() >= deadline:
        return
    # imported here: it loads multiprocessing, which serial runs never use
    from concurrent.futures import ProcessPoolExecutor

    # plain tuples in lexicographic order; each worker builds and validates
    # the Permutation of every tuple it checks
    images = permutations(range(1, n + 1))
    chunks = iter(lambda: tuple(islice(images, CHUNK_SIZE)), ())
    first = list(islice(chunks, 2 * jobs))
    # a worker starts at the first submit whether or not a chunk is left
    # for it, so a pool never outnumbers the chunks
    pool = ProcessPoolExecutor(max_workers=min(jobs, len(first)))

    def submit(chunk):
        return len(chunk), pool.submit(_verify_chunk, chunk, deadline)

    try:
        window = deque(map(submit, first))
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


def ends_sweep(report: VerificationReport) -> bool:
    """Whether report is of n, ..., 1, the last permutation of S_n in
    lexicographic order: a sweep that yields it has checked all of S_n."""
    return report.permutation == reversal(report.permutation.n)


def verify_range(
    n: int, budget_seconds: float | None = None, jobs: int = 1
) -> VerificationRun:
    """Run the full check suite for every permutation of S_n in
    lexicographic order: iter_verify's reports, collected.  Stops early,
    keeping the finished prefix, once the time budget is spent; budget
    exhaustion is a status, not an error."""
    start = time.monotonic()
    reports = list(iter_verify(n, budget_seconds, jobs))
    exhausted = not reports or not ends_sweep(reports[-1])
    return VerificationRun(n, reports, exhausted, time.monotonic() - start)


def _result_to_json(result: CheckResult) -> str:
    family = result.counterexample
    return '{{"pass":{},"counterexample":{}}}'.format(
        "true" if result.passed else "false",
        "null" if family is None else family_to_json(family),
    )


def report_to_json(report: VerificationReport) -> str:
    """Compact JSON, ``{"w":[...],"checks":{name:{"pass":bool,
    "counterexample":family or null},...},"stats":{key:int,...}}``, with
    each counterexample written by :func:`family_to_json`.  Check names
    and stats keys are constants of this module, plain words that JSON
    needs no escape for, so they are written as they are."""
    w = ",".join(map(str, report.permutation.images))
    checks = ",".join(
        f'"{name}":{_result_to_json(result)}' for name, result in report.checks.items()
    )
    stats = ",".join(f'"{key}":{value}' for key, value in report.stats.items())
    return f'{{"w":[{w}],"checks":{{{checks}}},"stats":{{{stats}}}}}'


def reports_to_json(reports: Iterable[VerificationReport]) -> str:
    return "[" + ",".join(map(report_to_json, reports)) + "]"
