"""Record the input pools and expected outputs that perfbench checks against.

    PYTHONPATH=src python3 perfbench/record.py

Run it from the repository root on the commit whose outputs are the
reference; it rewrites every file in perfbench/data/.  Each pool is a
uniform random sample of distinct permutations drawn with a fixed seed, with
|RP(w)| and |AD(w)| recorded so that runs can stratify by family size, and
for query pools the sha256 of each command's stdout.  For each sweep it
records the sha256 of the whole JSON payload and a short digest per report,
so that a mismatch names the permutations whose report changed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from workloads import DATA, QUERY_COMMANDS, all_permutations, input_summary, perm_text, report_digest, sha

POOL_SEED = 1
# (file, n, pool size, with a CLI command and stdout digest per entry)
POOLS = (
    ("pool-s5.json", 5, 24, True),
    ("pool-s8.json", 8, 400, False),
    ("pool-s9.json", 9, 1600, True),
)
SWEEPS = ((4, 2), (7, 2))
BATCH = 40


def _measure(batch: list[dict]) -> list[dict]:
    """Sizes, and for query entries the stdout digest, of one batch.  Runs
    in its own process so that the program's caches die with it."""
    from pipedual import antidiagonal_family, enumerate_rp, parse_permutation
    from pipedual.cli import main

    for entry in batch:
        w = parse_permutation(entry["w"])
        entry["rp"] = len(enumerate_rp(w))
        entry["ad"] = len(antidiagonal_family(w))
        if "cmd" in entry:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main([entry["cmd"], entry["w"], "--format", "json"])
            if code != 0:
                raise RuntimeError(f"{entry['cmd']} {entry['w']} exited {code}")
            entry["sha"] = sha(out.getvalue())[:16]
    return batch


def _sweep(n: int, jobs: int) -> dict:
    from pipedual import antidiagonal_family, enumerate_rp, parse_permutation
    from pipedual.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--n", str(n), "--jobs", str(jobs), "--format", "json"])
    if code != 0:
        raise RuntimeError(f"verify --n {n} exited {code}")
    payload = out.getvalue()
    rp = [len(enumerate_rp(parse_permutation(w))) for w in all_permutations(n)]
    ad = [len(antidiagonal_family(parse_permutation(w))) for w in all_permutations(n)]
    return {
        "n": n,
        "jobs": jobs,
        "payload_sha256": sha(payload),
        "payload_bytes": len(payload.encode()),
        "reports": "".join(report_digest(obj) for obj in json.loads(payload)),
        "inputs": input_summary(rp, ad, 0.0),
    }


def pool_entries(n: int, size: int, with_cmd: bool) -> list[dict]:
    rng = random.Random(POOL_SEED)
    seen: set[str] = set()
    entries = []
    while len(entries) < size:
        images = list(range(1, n + 1))
        rng.shuffle(images)
        w = perm_text(images)
        if w in seen:
            continue
        seen.add(w)
        entry = {"w": w}
        if with_cmd:
            entry["cmd"] = QUERY_COMMANDS[len(entries) % len(QUERY_COMMANDS)]
        entries.append(entry)
    return entries


def main() -> int:
    DATA.mkdir(exist_ok=True)
    ctx = get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx, max_tasks_per_child=1) as ex:
        for name, n, size, with_cmd in POOLS:
            entries = pool_entries(n, size, with_cmd)
            batches = [entries[i : i + BATCH] for i in range(0, len(entries), BATCH)]
            items = [e for batch in ex.map(_measure, batches) for e in batch]
            doc = {"n": n, "seed": POOL_SEED, "items": items}
            (DATA / name).write_text(json.dumps(doc, separators=(",", ":")) + "\n")
            print(f"{name}: {len(items)} entries", file=sys.stderr)
    sweeps = {}
    for n, jobs in SWEEPS:
        # a fresh spawned process per sweep, so that its pool forks a clean parent
        with ProcessPoolExecutor(max_workers=1, mp_context=ctx) as ex:
            sweeps[f"{n}-{jobs}"] = ex.submit(_sweep, n, jobs).result()
        print(f"sweep S_{n} jobs {jobs}: recorded", file=sys.stderr)
    (DATA / "sweeps.json").write_text(json.dumps(sweeps, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
