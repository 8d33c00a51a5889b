"""Smoke tests: each script in scripts/ runs end to end in a subprocess."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pipedual.verification import reports_to_json, verify_range

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestRunFullVerification:
    def test_small_sweep_passes(self):
        proc = run_script("run_full_verification.py", "--max-n", "3")
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[0].split()[:3] == ["n", "checked", "passed"]
        assert len(lines) == 2 + 3

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_columns_are_sums_over_verify_range(self, jobs):
        proc = run_script("run_full_verification.py", "--max-n", "5", "--jobs", jobs)
        assert proc.returncode == 0, proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:]]
        assert len(rows) == 5
        for n, row in enumerate(rows, 1):
            reports = verify_range(n).reports
            stats = [
                sum(r.stats[name] for r in reports)
                for name in (
                    "nonminimal_transversals_seen",
                    "reduced_nonminimal_transversals",
                    "antidiagonals_off_staircase",
                )
            ]
            counts = [n, len(reports), sum(r.passed for r in reports), *stats]
            # n, checked, passed, time, then the three stats columns
            assert row[:3] + row[4:] == [str(x) for x in counts]

    @pytest.mark.parametrize("flag,value", [("--jobs", "0"), ("--budget", "nan")])
    def test_rejects_bad_flag_value(self, flag, value):
        proc = run_script("run_full_verification.py", "--max-n", "3", flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["-2", "0"])
    def test_rejects_bad_max_n(self, value):
        proc = run_script("run_full_verification.py", "--max-n", value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--max-n" in proc.stderr


class TestSummarizeFamilies:
    def test_small_summary(self):
        proc = run_script("summarize_families.py", "--max-n", "3")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("n=1\n")
        assert "n=3\n" in proc.stdout

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_rejects_bad_max_n(self, value):
        proc = run_script("summarize_families.py", "--max-n", value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "--max-n" in proc.stderr


class TestBenchSweep:
    def test_small_sweep_record(self, tmp_path):
        out = tmp_path / "bench.json"
        for label in ("first", "second", "first"):
            proc = run_script(
                "bench_sweep.py", "--n", "4", "--jobs", "2", "--label", label,
                "--out", str(out),
            )
            assert proc.returncode == 0, proc.stderr
        runs = json.loads(out.read_text())["runs"]
        assert [run["label"] for run in runs] == ["second", "first"]
        payload = (reports_to_json(verify_range(4).reports) + "\n").encode()
        for run in runs:
            assert run["command"] == "pipedual verify --n 4 --jobs 2 --format json"
            assert run["exit_status"] == 0
            assert run["stdout_bytes"] == len(payload)
            assert run["stdout_sha256"] == hashlib.sha256(payload).hexdigest()
            assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 1
            assert run["commit"]

    @pytest.mark.parametrize(
        "flag,value", [("--n", "0"), ("--jobs", "0"), ("--budget", "nan")]
    )
    def test_rejects_bad_flag_value(self, tmp_path, flag, value):
        out = tmp_path / "bench.json"
        proc = run_script(
            "bench_sweep.py", "--n", "3", "--label", "bad", "--out", str(out),
            flag, value,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not out.exists()
