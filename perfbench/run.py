"""perfbench: the pipedual benchmark.

    python3 perfbench/run.py --workload query-s9 --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The program is used from ``src/``
as it is; nothing is built.  Workloads are defined in ``workloads.py`` and
described, with every metric, in ``README.md``.

Each measured phase runs in a fresh interpreter (``phase.py``).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` the run measures the untraced phase once, then a traced phase,
and reports the per-layer metrics.  The line before it is a JSON detail
record: the run's input properties, per-item latency percentiles, the
failure list, and, traced, the overhead of tracing and the slowest items.
Traced spans are written to ``.bench_build/perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, all_permutations, draw, input_summary, load_json

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_SAMPLES = 10
# the fixed share of S_n that the traced sweep walks serially
SWEEP_WALK_SHARE = 8
RUN_LIMIT_S = 170

# per-layer busy time: metric prefix -> span name recorded by phase.py
BUSY = {
    "permutations.rank_matrix": "rank_matrix",
    "pipedreams.enumerate_rp": "enumerate_rp",
    "antidiagonals.antidiagonal_family": "antidiagonal_family",
    "transversals.dual_ad": "dual_ad",
    "transversals.dual_rp": "dual_rp",
    "schubert.schubert_polynomial": "schubert_polynomial",
    "verification.transversality": "verify_claim1",
    "verification.dual_reducedness": "verify_claim2",
    "verification.rank_antidiagonal": "verify_rank_antidiagonal_law",
    "verification.double_dual": "verify_double_dual",
    "verification.duality": "verify_theorem",
    "cli.main": "cli.main",
}
# per-layer counts: metric -> span whose recorded sizes are summed
COUNTS = {
    "pipedreams.enumerate_rp.dreams": "enumerate_rp",
    "antidiagonals.antidiagonal_family.members": "antidiagonal_family",
    "transversals.dual_ad.members_out": "dual_ad",
    "transversals.dual_rp.members_in": "dual_rp",
}
PERCENTILES = (99.9, 99, 95, 90, 75, 50)


class PhaseError(RuntimeError):
    """A phase process crashed or overran; the run has no valid result."""


class Run:
    """One benchmark invocation: its deadline and the child environment."""

    def __init__(self, root: Path):
        self.deadline = time.monotonic() + RUN_LIMIT_S
        path = os.environ.get("PYTHONPATH")
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src if not path else src + os.pathsep + path)
        self.root = root

    def phase(self, job: dict | None) -> dict:
        """Run one job, or with None the setup probe, in a fresh interpreter."""
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "phase.py"), *(["setup"] if job is None else [])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=self.root,
            env=self.env,
            text=True,
            start_new_session=True,
        )
        stdin = None if job is None else json.dumps(job)
        try:
            out, _ = proc.communicate(stdin, timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the phase and any pool workers
            proc.communicate()
            raise PhaseError(f"phase overran the {RUN_LIMIT_S}s run limit") from None
        if proc.returncode != 0:
            raise PhaseError(f"phase exited {proc.returncode}")
        return json.loads(out)


def percentile(values: list[float], p: float) -> float:
    return statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]


def latency(latencies: list[float]) -> dict:
    """Median and tail per-item latency; the tail is the highest of
    PERCENTILES with at least ten samples beyond it."""
    if len(latencies) < 2:
        return {"samples": len(latencies)}
    ms = [x * 1000 for x in latencies]
    tail = next((p for p in PERCENTILES if len(ms) * (100 - p) / 100 >= 10), None)
    return {
        "samples": len(ms),
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "latency_tail_ms": None
        if tail is None
        else {"value": percentile(ms, tail), "unit": "ms", "percentile": tail},
    }


def input_properties(spec: dict, items: list[dict]) -> dict:
    if spec["kind"] == "sweep":
        return load_json("sweeps.json")[f"{spec['n']}-{spec['jobs']}"]["inputs"]
    repeated = 1 - len({e["w"] for e in items}) / len(items)
    return input_summary([e["rp"] for e in items], [e["ad"] for e in items], repeated)


def job_for(spec: dict, items: list[dict], trace: bool) -> dict:
    if spec["kind"] == "sweep":
        expect = load_json("sweeps.json")[f"{spec['n']}-{spec['jobs']}"]
        return {"kind": "sweep", "n": spec["n"], "jobs": spec["jobs"], "expect": expect}
    if spec["kind"] == "sample":
        return {"kind": "walk", "items": [e["w"] for e in items], "trace": trace}
    return {"kind": "query", "items": items, "trace": trace}


def traced_sweep(run: Run, spec: dict) -> tuple[dict, dict, float]:
    """(traced walk, untraced walk, share of S_n walked).  Calls inside the
    program's own worker processes cannot be timed from outside, so a fixed
    random eighth of S_n is walked item by item in one benchmark-owned
    process, first untraced and then traced.  An eighth keeps a traced run
    well inside its time limit on a busy machine; random, because
    lexicographic order puts the heavy permutations together."""
    perms = all_permutations(spec["n"])
    order = list(range(len(perms)))
    random.Random(0).shuffle(order)
    walked = order[: len(order) // SWEEP_WALK_SHARE]
    job = {"kind": "walk", "items": [perms[i] for i in walked]}
    serial = run.phase(dict(job, trace=False))
    traced = run.phase(dict(job, trace=True))
    # map item indices back to positions in S_n
    for span in traced["spans"]:
        span[4] = walked[span[4]]
    for result in (serial, traced):
        for failure in result["failures"]:
            failure["item"] = walked[failure["item"]]
    return traced, serial, len(walked) / len(perms)


def layer_metrics(spec: dict, traced: dict, untraced: dict, serial_wall: float) -> dict:
    spans = traced["spans"]
    busy = {name: 0.0 for name in BUSY.values()}
    counts = {name: 0 for name in COUNTS.values()}
    for name, start, end, _parent, _item, count in spans:
        if name in busy:
            busy[name] += end - start
        if name in counts and count is not None:
            counts[name] += count
    metrics = {f"{k}.busy_s": {"value": busy[v], "unit": "s"} for k, v in BUSY.items()}
    metrics.update({k: {"value": counts[v], "unit": "count"} for k, v in COUNTS.items()})
    sizes = traced.get("sizes", [])
    useful = sum(s["dual_ad"] for s in sizes)
    seen = sum(s["nonminimal"] for s in sizes)
    metrics["transversals.last_round_useful_ratio"] = {
        "value": useful / (useful + seen) if useful + seen else 0.0,
        "unit": "ratio",
    }
    metrics["verification.jobs2_speedup"] = {
        "value": serial_wall / untraced["wall_s"] if spec["kind"] == "sweep" else 0.0,
        "unit": "ratio",
    }
    stdout_bytes = untraced["stdout_bytes"] if spec["kind"] == "sweep" else 0
    if spec["kind"] == "query":
        stdout_bytes = sum(c for name, *_, c in spans if name == "cli.main")
    metrics["cli.stdout_bytes"] = {"value": stdout_bytes, "unit": "bytes"}
    return metrics


def slowest(spec: dict, spans: list[list], items: list[dict]) -> list[dict]:
    """The five items with the longest traced spans, with |RP| and |AD|."""
    if spec["kind"] == "sweep":
        perms = all_permutations(spec["n"])
        about = {i: {"w": perms[i]} for i in range(len(perms))}
        for name, *_, item, count in spans:
            if name in ("enumerate_rp", "antidiagonal_family"):
                about[item]["rp" if name == "enumerate_rp" else "ad"] = count
    else:
        keep = ("w", "cmd", "rp", "ad") if spec["kind"] == "query" else ("w", "rp", "ad")
        about = {i: {k: e[k] for k in keep} for i, e in enumerate(items)}
    roots = sorted((s for s in spans if s[0] == "item"), key=lambda s: s[1] - s[2])[:5]
    return [dict(about[item], seconds=end - start) for _, start, end, _, item, _ in roots]


def write_trace(workload: str, seed: int, spans: list[list]) -> str:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.jsonl"
    keys = ("name", "start", "end", "parent", "item", "count")
    with path.open("w") as f:
        for span in spans:
            f.write(json.dumps(dict(zip(keys, span))) + "\n")
    return str(path.relative_to(ROOT))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(result line, detail record) of one run."""
    spec = WORKLOADS[workload]
    run = Run(ROOT)
    items = [] if spec["kind"] == "sweep" else draw(spec, seed, seconds)
    detail: dict = {"workload": workload, "seed": seed, "inputs": input_properties(spec, items)}

    # the least of many fresh imports, half of them after the timed phase:
    # import time is short, a busy machine only ever adds to it, and its
    # busy spells last seconds to minutes
    probes = 0 if trace else SETUP_SAMPLES
    setup = [run.phase(None)["import_s"] for _ in range(probes // 2)]
    untraced = run.phase(job_for(spec, items, False))
    setup += [run.phase(None)["import_s"] for _ in range(probes - probes // 2)]
    phases = [untraced]
    detail["latency"] = latency(untraced.get("latencies", []))
    if not trace:
        metrics = {
            "wall_s": {"value": untraced["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": untraced["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": min(setup + [untraced["import_s"]]), "unit": "s"},
        }
    else:
        if spec["kind"] == "sweep":
            traced, serial, share = traced_sweep(run, spec)
            phases.append(serial)
        else:
            traced, serial, share = run.phase(job_for(spec, items, True)), untraced, 1.0
        phases.append(traced)
        # the untraced serial walk, scaled to all items: on the sweep the
        # numerator of jobs2_speedup, everywhere the base of the overhead
        serial_wall = serial["wall_s"] / share
        metrics = layer_metrics(spec, traced, untraced, serial_wall)
        detail["trace"] = {
            "untraced_wall_s": untraced["wall_s"],
            "serial_wall_s": serial_wall,
            "traced_wall_s": traced["wall_s"] / share,
            "walked_share": share,
            "overhead_s": traced["wall_s"] / share - serial_wall,
            "slowest": slowest(spec, traced["spans"], items),
            "spans_file": write_trace(workload, seed, traced["spans"]),
        }
    attempted = sum(p["attempted"] for p in phases)
    failures = [f for p in phases for f in p["failures"]]  # at most one per item
    failed = len(failures)
    detail["failed_frac"] = failed / attempted
    detail["failures"] = failures[:20]
    if "stdout_bytes" in untraced:
        detail["stdout_bytes"] = untraced["stdout_bytes"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return line, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pipedual benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "pipedual" / "__init__.py").is_file():
        print("perfbench: run from a pipedual source checkout (src/pipedual missing)", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        line, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except PhaseError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
