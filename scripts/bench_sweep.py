#!/usr/bin/env python3
"""Time one full sweep, ``pipedual verify --n N --jobs J --format json``.

Runs the CLI of a checkout in a child process and records, under a
label, the wall time, the CPU time of the child and its workers, the
peak RSS of the largest of those processes (``resource.getrusage`` of
the children), the size and sha256 of stdout, the last line of stderr
(where a budgeted sweep says how many permutations it checked), the exit
status and the checkout's commit; the child's stderr is passed on as it
comes.  The record is printed and merged into the output file by
:func:`write_record`, so a before/after pair is two runs of this script on
one machine:

    python scripts/bench_sweep.py --n 8 --jobs 2 --budget 100000 \\
        --checkout ../parent --label before --out BENCH_s8.json
    python scripts/bench_sweep.py --n 8 --jobs 2 --budget 100000 \\
        --label after --out BENCH_s8.json
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

from pipedual.cli import _budget_seconds, _job_count, _positive_int

ROOT = Path(__file__).resolve().parents[1]


def commit_of(checkout: Path) -> str:
    """HEAD of the checkout, with "-dirty" if tracked files differ from it."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return "unknown"
    dirty = subprocess.run(
        git + ["status", "--porcelain", "--untracked-files=no"],
        capture_output=True,
        text=True,
    ).stdout.strip()
    return head.stdout.strip() + ("-dirty" if dirty else "")


def read_out(out: Path) -> dict:
    """The JSON object in ``out``, or {} when there is no such file.  Any
    other content exits with status 2 and a one-line message, leaving the
    file as it was; each script calls this before its run, so a bad file
    costs no run.
    """
    try:
        data = json.loads(out.read_text()) if out.exists() else {}
    except (OSError, ValueError) as exc:
        data = exc
    if not isinstance(data, dict):
        print(f"error: --out {out} does not hold a JSON object", file=sys.stderr)
        raise SystemExit(2)
    return data


def write_record(out: Path, label: str, checkout: Path, fields: dict) -> None:
    """Print the record of one run as a JSON line and merge it into the
    JSON object in ``out`` (see :func:`read_out`), a new file when there
    is none.  The record is the label, the checkout's commit, the date,
    the machine and then ``fields``.  It replaces any record with the same
    label in the object's ``runs`` list, which it starts when the object
    has none, and every other key of the object is kept.
    """
    record = {
        "label": label,
        "commit": commit_of(checkout),
        "date": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        **fields,
    }
    # printed first, so a file that cannot be merged still leaves the run on stdout
    print(json.dumps(record))
    data = read_out(out)
    data["runs"] = [run for run in data.get("runs", []) if run["label"] != label] + [record]
    out.write_text(json.dumps(data, indent=2) + "\n")


def sweep(checkout: Path, n: int, jobs: int, budget: float | None) -> dict:
    argv = ["verify", "--n", str(n), "--jobs", str(jobs), "--format", "json"]
    if budget is not None:
        argv += ["--budget", str(budget)]
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    digest = hashlib.sha256()
    size = 0
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    tail = [""]

    def echo(stream) -> None:  # drains stderr, so a full pipe cannot stall the sweep
        for line in iter(stream.readline, b""):
            text = line.decode(errors="replace")
            sys.stderr.write(text)
            sys.stderr.flush()
            tail[0] = text.strip() or tail[0]

    with subprocess.Popen(
        [sys.executable, "-m", "pipedual", *argv], cwd=checkout, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        reader = threading.Thread(target=echo, args=(proc.stderr,))
        reader.start()
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            size += len(chunk)
        reader.join()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return {
        "command": "pipedual " + " ".join(argv),
        "exit_status": proc.returncode,
        "wall_s": round(wall, 2),
        "cpu_s": round(cpu, 2),
        # kilobytes on Linux; the largest process the sweep ran
        "peak_rss_mb": round(after.ru_maxrss / 1024, 1),
        "stdout_bytes": size,
        "stdout_sha256": digest.hexdigest(),
        # the last stderr line: how many permutations a budgeted sweep checked
        "stderr_tail": tail[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--n", type=_positive_int, required=True)
    parser.add_argument("--jobs", type=_job_count, default=1)
    parser.add_argument("--budget", type=_budget_seconds, default=None,
                        help="passed to verify; its default is 600 s")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose src/ is run (default: this one)")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    read_out(args.out)
    checkout = args.checkout.resolve()
    write_record(args.out, args.label, checkout, sweep(checkout, args.n, args.jobs, args.budget))
    return 0


if __name__ == "__main__":
    sys.exit(main())
