"""Fast self-test of perfbench at toy size.

    python3 perfbench/selftest.py

Runs from the repository root, in a few seconds: an S_4 sweep at jobs 2, a
handful of S_5 verifications and a handful of S_5 CLI queries, each untraced
and traced.  It checks that every metric named in BENCHMARK.json is emitted
with its unit, that the toy runs pass their output gates, that a wrong
expected digest shows up as a failed item rather than a crash, and that the
benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

TOYS = ("sweep-s4-j2", "sample-s5", "query-s5")


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")


def check_line(line: dict, declared: list[dict], what: str) -> None:
    expect(set(line) == {"correct", "attempted", "failed", "metrics"}, f"{what}: result keys")
    expect(line["attempted"] >= 1 and line["failed"] == 0 and line["correct"], f"{what}: {line}")
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    expect(got == units, f"{what}: metrics {got} != declared {units}")
    for name, m in line["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} is not a number")


def wrong_digests() -> None:
    """A corrupted expectation must fail exactly the affected items."""
    draw, load_json = run.draw, run.load_json

    def bad_draw(spec, seed, seconds):
        items = draw(spec, seed, seconds)
        items[0] = dict(items[0], sha="0" * 16)
        return items

    def bad_load(name):
        doc = load_json(name)
        if name == "sweeps.json":
            for sweep in doc.values():
                sweep["reports"] = "00000000" + sweep["reports"][8:]
        return doc

    run.draw, run.load_json = bad_draw, bad_load
    try:
        line, detail = run.measure("query-s5", 3, 1.0, False)
        expect(line["failed"] == 1 and not line["correct"], f"query wrong digest: {line}")
        expect(detail["failures"][0]["why"] == "stdout digest mismatch", f"{detail['failures']}")
        line, detail = run.measure("sweep-s4-j2", 3, 1.0, False)
        expect(line["failed"] == 1 and not line["correct"], f"sweep wrong digest: {line}")
        expect(detail["failures"][0]["item"] == 0, f"{detail['failures']}")
    finally:
        run.draw, run.load_json = draw, load_json


def refuses_without_sources(root: Path) -> None:
    bare = root / ".bench_build" / "perfbench-selftest"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-s9", "--seed", "1", "--seconds", "1"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=60,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, f"bare directory: exit {proc.returncode}")


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for workload in TOYS:
        for trace in (False, True):
            line, detail = run.measure(workload, 1, 1.0, trace)
            declared = bench["per_layer"] if trace else bench["end_to_end"]
            check_line(line, declared, f"{workload} trace={int(trace)}")
            expect(detail["inputs"]["repeated_share"] == 0, f"{workload}: repeated inputs")
            if trace:
                walked = round(detail["inputs"]["items"] * detail["trace"]["walked_share"])
                expect(len(detail["trace"]["slowest"]) == min(5, walked), f"{workload}: slowest items")
    wrong_digests()
    refuses_without_sources(run.ROOT)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
