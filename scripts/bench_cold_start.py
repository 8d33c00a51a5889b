#!/usr/bin/env python3
"""Time the cold start of one CLI call: ``import pipedual.cli`` plus one
small command, in a fresh interpreter.

For each command in ``COMMANDS`` a child interpreter imports the CLI of a
checkout, runs the command through ``cli.main`` with stdout to devnull,
and reports the time from just before the import to the end of the
command.  The figure kept is the least of ``--repeat`` children, taken
two ways:

* ``cold_ms``: no bytecode cache for the package, with
  ``PYTHONDONTWRITEBYTECODE=1``, so every module the call loads is
  compiled from source, as in a fresh checkout (and in perfbench);
* ``cached_ms``: the package's bytecode cache written by an earlier
  call, as in an installed package.

The package is copied without its ``__pycache__`` into a temporary
directory first, so neither figure depends on what earlier runs left in
the checkout.  Rounds go through every command in turn, so drift on the
machine spreads over all of them.  The record is printed and merged into
the output file by ``bench_sweep.write_record``, so a before/after pair is
two runs of this script on one machine:

    python scripts/bench_cold_start.py --checkout ../parent --label before \\
        --out BENCH_lazy_commands.json
    python scripts/bench_cold_start.py --label after --out BENCH_lazy_commands.json
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_sweep import read_out, write_record
from pipedual.cli import _positive_int

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (
    ("rp", "2143"),
    ("ad", "2143"),
    ("dual", "2143"),
    ("schubert", "2143"),
    ("verify", "--n", "3", "--jobs", "1"),
)
MODES = ("cold_ms", "cached_ms")
# the child: seconds from before the import to the end of the command, on
# stderr (stdout is the command's)
CHILD = """\
import sys, time
start = time.perf_counter()
import pipedual.cli
code = pipedual.cli.main(sys.argv[1:])
sys.stdout.flush()
print(time.perf_counter() - start if code == 0 else f"exit {code}", file=sys.stderr)
"""


def call_seconds(src: Path, argv: tuple, cold: bool) -> float:
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PD_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if cold:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )
    last = proc.stderr.strip().splitlines()[-1:] or [f"status {proc.returncode}"]
    try:
        return float(last[0])
    except ValueError:
        raise SystemExit(f"pipedual {' '.join(argv)} failed: {last[0]}") from None


def cold_start(checkout: Path, repeat: int) -> dict:
    best = {(argv, mode): float("inf") for argv in COMMANDS for mode in MODES}
    with tempfile.TemporaryDirectory() as tmp:
        # one copy per mode: a cold call must find no cache to read
        trees = {mode: Path(tmp, mode) for mode in MODES}
        for tree in trees.values():
            shutil.copytree(
                checkout / "src" / "pipedual", tree / "pipedual",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        for argv in COMMANDS:  # writes the bytecode the cached calls read
            call_seconds(trees["cached_ms"], argv, cold=False)
        for _ in range(repeat):
            for argv in COMMANDS:
                for mode, tree in trees.items():
                    seconds = call_seconds(tree, argv, cold=mode == "cold_ms")
                    best[argv, mode] = min(best[argv, mode], seconds)
    return {
        " ".join(argv): {mode: round(best[argv, mode] * 1000, 2) for mode in MODES}
        for argv in COMMANDS
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--repeat", type=_positive_int, default=15,
                        help="children per command and mode; the least is kept")
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="repository whose src/ is run (default: this one)")
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    read_out(args.out)
    checkout = args.checkout.resolve()
    commands = cold_start(checkout, args.repeat)
    write_record(args.out, args.label, checkout, {"repeat": args.repeat, "commands": commands})
    return 0


if __name__ == "__main__":
    sys.exit(main())
