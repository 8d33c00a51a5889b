"""One measured phase of a perfbench run, in a fresh interpreter.

    python3 perfbench/phase.py setup      # print the import time of pipedual
    python3 perfbench/phase.py < job.json # run a job, print a JSON result

Every layer of pipedual memoizes in a process-global cache, so each timed
phase gets its own interpreter: a second phase in the same process would
time cache hits.  A CLI user pays the same cold start on every call.

The job (JSON on stdin) names a kind:

* ``sweep``: one ``verify --n N --jobs J --format json`` through
  ``pipedual.cli.main``, stdout captured;
* ``walk``: ``verify_permutation(w)`` per item; traced, the item's layers
  and then each of the five checks are called one by one;
* ``query``: one ``cli.main([cmd, w, "--format", "json"])`` per item;
  traced, the layers the command needs are called first, so the
  ``cli.main`` span times parsing, formatting and printing.

Outputs are checked after the timed loop.  The result carries per-item
latencies, the items that failed and why, and, traced, every span.
"""

import sys
import time

# only sys and time are loaded before the import is timed
_t0 = time.perf_counter()
import pipedual  # noqa: E402
import pipedual.cli  # noqa: E402

IMPORT_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from pipedual import (  # noqa: E402
    antidiagonal_family,
    enumerate_rp,
    parse_permutation,
    rank_matrix,
    schubert_polynomial,
    transversal_dual,
    verify_claim1,
    verify_claim2,
    verify_double_dual,
    verify_permutation,
    verify_rank_antidiagonal_law,
    verify_theorem,
)

from workloads import report_digest, sha  # noqa: E402

# the five per-permutation checks, in the order verify_permutation runs them
CHECKS = (
    ("verify_claim1", verify_claim1),
    ("verify_claim2", verify_claim2),
    ("verify_rank_antidiagonal_law", verify_rank_antidiagonal_law),
    ("verify_double_dual", verify_double_dual),
    ("verify_theorem", verify_theorem),
)
CHECK_NAMES = {"transversality", "dual_reducedness", "rank_antidiagonal", "double_dual", "duality"}
now = time.perf_counter


class Tracer:
    """Spans kept in memory: [name, start, end, parent index, item, count]."""

    def __init__(self):
        self.spans: list[list] = []

    @contextlib.contextmanager
    def span(self, name: str, item: int, parent: int | None = None):
        record = [name, now(), None, parent, item, None]
        self.spans.append(record)
        try:
            yield record
        finally:
            record[2] = now()


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pipedual.cli.main(argv)
    return code, out.getvalue()


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; reaped children include pool workers
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def sweep(job: dict) -> dict:
    n, jobs = job["n"], job["jobs"]
    start = now()
    try:
        code, payload = run_cli(["verify", "--n", str(n), "--jobs", str(jobs), "--format", "json"])
    except (Exception, SystemExit) as exc:  # counted below as items without a report
        code, payload = repr(exc), ""
    wall = now() - start
    want = job["expect"]
    try:
        reports = json.loads(payload)
    except json.JSONDecodeError:
        reports = []
    failures = []
    for i in range(len(want["reports"]) // 8):
        if i >= len(reports):
            failures.append({"item": i, "why": f"no report (exit {code})"})
        elif report_digest(reports[i]) != want["reports"][8 * i : 8 * i + 8]:
            failures.append({"item": i, "w": reports[i]["w"], "why": "report digest mismatch"})
        elif not all(c["pass"] for c in reports[i]["checks"].values()):
            failures.append({"item": i, "w": reports[i]["w"], "why": "report fails"})
    if not failures and sha(payload) != want["payload_sha256"]:
        # every report matches, so the difference lies between them
        failures.append({"item": "payload", "why": "payload digest mismatch"})
    return {
        "wall_s": wall,
        "attempted": len(want["reports"]) // 8,
        "failures": failures,
        "stdout_bytes": len(payload.encode()),
    }


def _rank_matrix(w) -> None:
    rank_matrix(w)


def _dual_rp(w) -> int:
    rp = enumerate_rp(w)
    transversal_dual(rp)
    return len(rp)


def _schubert(w) -> None:
    schubert_polynomial(w)


# traced layer calls: span name -> call returning the count kept on the span
LAYERS = {
    "rank_matrix": _rank_matrix,
    "enumerate_rp": lambda w: len(enumerate_rp(w)),
    "antidiagonal_family": lambda w: len(antidiagonal_family(w)),
    "dual_ad": lambda w: len(transversal_dual(antidiagonal_family(w))),
    "dual_rp": _dual_rp,
    "schubert_polynomial": _schubert,
}
WALK_LAYERS = ("rank_matrix", "enumerate_rp", "antidiagonal_family", "dual_ad", "dual_rp")
QUERY_LAYERS = {
    "rp": ("rank_matrix", "enumerate_rp"),
    "ad": ("rank_matrix", "antidiagonal_family"),
    "dual": ("rank_matrix", "antidiagonal_family", "dual_ad"),
    "schubert": ("rank_matrix", "enumerate_rp", "schubert_polynomial"),
}


def layer_spans(tr: Tracer, i: int, root: int, w, names) -> dict:
    """Call the item's layers in dependency order, one span each under the
    item's root span; returns {layer: count}."""
    counts = {}
    for name in names:
        with tr.span(name, i, root) as span:
            span[5] = counts[name] = LAYERS[name](w)
    return counts


def walk_traced(tr: Tracer, i: int, w) -> tuple[list, int]:
    """The item's check reports and |dual(AD)|."""
    with tr.span("item", i):
        root = len(tr.spans) - 1
        counts = layer_spans(tr, i, root, w, WALK_LAYERS)
        parts = []
        for name, check in CHECKS:
            with tr.span(name, i, root):
                parts.append(check(w))
    return parts, counts["dual_ad"]


def walk(job: dict) -> dict:
    perms = [parse_permutation(w) for w in job["items"]]
    tr = Tracer() if job["trace"] else None
    latencies, failures, sizes = [], [], []
    start = now()
    for i, w in enumerate(perms):
        t = now()
        why = None
        try:
            if tr is None:
                checks = verify_permutation(w).checks
            else:
                parts, dual_ad = walk_traced(tr, i, w)
                checks = {k: v for p in parts for k, v in p.checks.items()}
                stats = {k: v for p in parts for k, v in p.stats.items()}
                sizes.append({"dual_ad": dual_ad, "nonminimal": stats.get("nonminimal_transversals_seen", 0)})
        except Exception as exc:  # one bad item must not end the run
            checks, why = {}, repr(exc)
        latencies.append(now() - t)
        if why is None and (set(checks) != CHECK_NAMES or not all(c.passed for c in checks.values())):
            why = "report fails or lacks checks"
        if why:
            failures.append({"item": i, "w": job["items"][i], "why": why})
    wall = now() - start
    result = {"wall_s": wall, "attempted": len(perms), "failures": failures, "latencies": latencies}
    if tr is not None:
        result["spans"] = tr.spans
        result["sizes"] = sizes
    return result


def query_traced(tr: Tracer, i: int, w, argv: list[str]) -> tuple[int, str]:
    with tr.span("item", i):
        root = len(tr.spans) - 1
        layer_spans(tr, i, root, w, QUERY_LAYERS[argv[0]])
        with tr.span("cli.main", i, root) as span:
            code, text = run_cli(argv)
            span[5] = len(text.encode())
    return code, text


def query(job: dict) -> dict:
    items = job["items"]
    tr = Tracer() if job["trace"] else None
    latencies, outputs = [], []
    start = now()
    for i, item in enumerate(items):
        argv = [item["cmd"], item["w"], "--format", "json"]
        t = now()
        try:
            if tr is None:
                outputs.append(run_cli(argv))
            else:
                outputs.append(query_traced(tr, i, parse_permutation(item["w"]), argv))
        except (Exception, SystemExit) as exc:  # one bad item must not end the run
            outputs.append((None, repr(exc)))
        latencies.append(now() - t)
    wall = now() - start
    failures = []
    for i, (item, (code, text)) in enumerate(zip(items, outputs)):
        why = None
        if code != 0:
            why = f"exit {code}" if code is not None else text
        elif sha(text)[:16] != item["sha"]:
            why = "stdout digest mismatch"
        elif item["cmd"] == "schubert":
            coeffs = sum(term["coeff"] for term in json.loads(text))
            if coeffs != item["rp"]:
                why = f"coefficient sum {coeffs} != |RP| {item['rp']}"
        if why:
            failures.append({"item": i, "w": item["w"], "cmd": item["cmd"], "why": why})
    result = {
        "wall_s": wall,
        "attempted": len(items),
        "failures": failures,
        "latencies": latencies,
        "stdout_bytes": sum(len(text.encode()) for code, text in outputs if code is not None),
    }
    if tr is not None:
        result["spans"] = tr.spans
    return result


PHASES = {"sweep": sweep, "walk": walk, "query": query}


def main() -> int:
    if sys.argv[1:] == ["setup"]:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0
    job = json.load(sys.stdin)
    result = PHASES[job["kind"]](job)
    result["import_s"] = IMPORT_S
    result["peak_rss_mb"] = peak_rss_mb()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
