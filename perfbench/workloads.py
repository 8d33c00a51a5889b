"""Workload definitions, seeded input generation and output digests for
perfbench.

This module never imports pipedual: inputs are made before the program is
loaded, and the program receives only the generated items.

Per-item cost and memory grow steeply with the size of the family of
reduced pipe dreams RP(w) (in the S_9 pool, the median query costs about
20 ms, the costliest 11 s), so a plain uniform sample of S_8 or S_9 gives a
wall time decided by whether the sample happened to catch a large family.
The sampled workloads therefore draw from a fixed pool of uniform-random
permutations whose |RP| and |AD| were recorded once (``record.py``), and
measure a family by its crosses, |RP(w)| times the length of w:

* the top 2% of each group by crosses (the whole pool of a sample
  workload, each command's share of a query pool) is never drawn.  On
  ``query-s9`` the ``rp``, ``dual`` and ``schubert`` queries among them
  take up to 11 s each, hundreds of typical ones, so which of them a run
  drew would decide its wall time;
* the rest of the group is sorted by crosses and cut into equal strata,
  and the seed picks one member per stratum;
* the picks are sent largest family first (on a query pool, the commands
  take turns), so the costliest items run while little is cached, and a
  run's peak memory is about the sum of all its cached families, which the
  strata keep steady.  With the largest last, the peak would also carry
  their transients, which vary more with the draw.

Every member of a group below its top 2% is equally likely to be drawn,
and the sizes of the families in a run barely depend on the seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import statistics
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

QUERY_COMMANDS = ("rp", "ad", "dual", "schubert")

# kind "sweep": one `pipedual verify --n N --jobs J --format json` call.
# kind "sample": verify_permutation(w) per drawn permutation, in one process.
# kind "query": one CLI command per drawn (permutation, command) pair.
# ``per_second`` sets how many items a run draws: per_second * --seconds.
WORKLOADS = {
    "sweep-s7-j2": {"kind": "sweep", "n": 7, "jobs": 2},
    # run by hand only; README.md says why BENCHMARK.json leaves it out
    "sample-s8": {"kind": "sample", "pool": "pool-s8.json", "per_second": 4.0},
    "query-s9": {"kind": "query", "pool": "pool-s9.json", "per_second": 20.0},
    # toy sizes for selftest.py
    "sweep-s4-j2": {"kind": "sweep", "n": 4, "jobs": 2},
    "sample-s5": {"kind": "sample", "pool": "pool-s5.json", "per_second": 8.0},
    "query-s5": {"kind": "query", "pool": "pool-s5.json", "per_second": 8.0},
}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def report_digest(report: dict) -> str:
    """Eight hex digits naming one report of a `verify --format json`
    payload, as recorded in data/sweeps.json."""
    return sha(json.dumps(report, separators=(",", ":")))[:8]


def load_json(name: str):
    return json.loads((DATA / name).read_text())


def perm_text(images) -> str:
    return "".join(str(i) for i in images)


def all_permutations(n: int) -> list[str]:
    """S_n in lexicographic order, the order of `pipedual verify`."""
    return [perm_text(p) for p in itertools.permutations(range(1, n + 1))]


def input_summary(rp: list[int], ad: list[int], repeated_share: float) -> dict:
    """The input properties reported with a run's metrics."""
    return {
        "items": len(rp),
        "rp_median": statistics.median(rp),
        "rp_max": max(rp),
        "ad_median": statistics.median(ad),
        "ad_max": max(ad),
        "rp_ge_1000_share": sum(r >= 1000 for r in rp) / len(rp),
        "repeated_share": repeated_share,
    }


def crosses(entry: dict) -> int:
    """Crosses in all of RP(w): each reduced pipe dream of w has one per
    inversion of w."""
    w = entry["w"]
    return entry["rp"] * sum(a > b for a, b in itertools.combinations(w, 2))


def _stratified(entries: list[dict], count: int, rng: random.Random) -> list[dict]:
    """One seeded pick per equal stratum by crosses of the entries below
    their top 2%, largest first."""
    ranked = sorted(entries, key=lambda e: (crosses(e), e["w"]))
    ranked = ranked[: len(ranked) - len(ranked) // 50]
    strata = min(count, len(ranked))
    picks = []
    for i in range(strata):
        lo, hi = i * len(ranked) // strata, (i + 1) * len(ranked) // strata
        picks.append(ranked[lo + rng.randrange(hi - lo)])
    return picks[::-1]


def draw(spec: dict, seed: int, seconds: float) -> list[dict]:
    """The items of one run, in the order they are sent: pool entries
    {"w", "rp", "ad"[, "cmd", "sha"]}."""
    rng = random.Random(seed)
    entries = load_json(spec["pool"])["items"]
    count = max(1, round(spec["per_second"] * seconds))
    if spec["kind"] == "sample":
        return _stratified(entries, count, rng)
    groups = [_stratified([e for e in entries if e["cmd"] == cmd], count // 4 or 1, rng) for cmd in QUERY_COMMANDS]
    # commands rotate rp, ad, dual, schubert through the stream
    return [e for row in itertools.zip_longest(*groups) for e in row if e is not None]
