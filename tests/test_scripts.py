"""Smoke tests: each script in scripts/ runs end to end in a subprocess."""

import hashlib
import json
import os
import re
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

    @pytest.mark.parametrize(
        "flag,value", [("--jobs", "0"), ("--jobs", "257"), ("--budget", "nan")]
    )
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


HEADER = ["label", "commit", "date", "machine"]


@pytest.fixture
def write_record(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    from bench_sweep import write_record

    return write_record


class TestWriteRecord:
    def labels(self, out):
        return [run["label"] for run in json.loads(out.read_text())["runs"]]

    def test_keeps_other_keys_and_runs(self, write_record, tmp_path):
        out = tmp_path / "bench.json"
        old = {"label": "old", "wall_s": 2.0}
        out.write_text(json.dumps({"what": "kept", "runs": [old]}))
        write_record(out, "new", tmp_path, {"wall_s": 1.0})
        data = json.loads(out.read_text())
        assert list(data) == ["what", "runs"] and data["what"] == "kept"
        assert data["runs"][0] == old and self.labels(out) == ["old", "new"]

    def test_starts_runs(self, write_record, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"what": "kept"}))
        write_record(out, "new", tmp_path, {"wall_s": 1.0})
        assert json.loads(out.read_text())["what"] == "kept"
        assert self.labels(out) == ["new"]

    def test_same_label_replaces(self, write_record, tmp_path):
        out = tmp_path / "bench.json"
        for label, wall in (("first", 1.0), ("second", 2.0), ("first", 3.0)):
            write_record(out, label, tmp_path, {"wall_s": wall})
        runs = json.loads(out.read_text())["runs"]
        assert [(run["label"], run["wall_s"]) for run in runs] == [("second", 2.0), ("first", 3.0)]

    def test_creates_missing_file(self, write_record, tmp_path, capsys):
        out = tmp_path / "bench.json"
        write_record(out, "new", tmp_path, {"wall_s": 1.0})
        (run,) = json.loads(out.read_text())["runs"]
        assert list(run) == HEADER + ["wall_s"] and run["wall_s"] == 1.0
        assert json.loads(capsys.readouterr().out) == run


@pytest.mark.parametrize(
    "script,argv",
    [
        # a sweep that ran would add its budget line to stderr
        ("bench_sweep.py", ["--n", "8", "--budget", "0.1"]),
        ("bench_cold_start.py", ["--repeat", "1"]),
    ],
)
@pytest.mark.parametrize("content", ["[1]", "not json"])
def test_out_file_must_hold_an_object(tmp_path, script, argv, content):
    out = tmp_path / "bench.json"
    out.write_text(content)
    proc = run_script(script, *argv, "--label", "bad", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: --out {out} does not hold a JSON object\n"
    assert out.read_text() == content


class TestBenchSweep:
    # one run: TestWriteRecord checks how a record joins the runs
    def test_small_sweep_record(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"what": "kept"}))
        argv = ["--n", "4", "--jobs", "2", "--label", "small", "--out", str(out)]
        proc = run_script("bench_sweep.py", *argv)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["what"] == "kept"
        (run,) = data["runs"]
        payload = (reports_to_json(verify_range(4).reports) + "\n").encode()
        assert list(run) == HEADER + [
            "command", "exit_status", "wall_s", "cpu_s", "peak_rss_mb",
            "stdout_bytes", "stdout_sha256", "stderr_tail",
        ]
        assert run["label"] == "small" and run["commit"]
        assert run["command"] == "pipedual verify --n 4 --jobs 2 --format json"
        assert run["exit_status"] == 0
        assert run["stdout_bytes"] == len(payload)
        assert run["stdout_sha256"] == hashlib.sha256(payload).hexdigest()
        assert run["stderr_tail"] == ""
        assert run["wall_s"] > 0 and run["cpu_s"] > 0 and run["peak_rss_mb"] > 1

    def test_budgeted_sweep_passes_stderr_on(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_script(
            "bench_sweep.py", "--n", "8", "--budget", "0.1", "--label", "cut",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        (run,) = json.loads(out.read_text())["runs"]
        assert run["exit_status"] == 4
        assert re.fullmatch(r"budget exhausted after .*: \d+ of S_8 checked", run["stderr_tail"])
        assert proc.stderr.splitlines()[-1] == run["stderr_tail"]

    @pytest.mark.parametrize(
        "flag,value",
        [("--n", "0"), ("--jobs", "0"), ("--jobs", "257"), ("--budget", "nan")],
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


class TestBenchColdStart:
    # one run: TestWriteRecord checks how a record joins the runs
    def test_record(self, tmp_path):
        out = tmp_path / "bench.json"
        out.write_text(json.dumps({"note": "kept"}))
        argv = ["--repeat", "1", "--label", "cold", "--out", str(out)]
        proc = run_script("bench_cold_start.py", *argv)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(out.read_text())
        assert data["note"] == "kept"
        (run,) = data["runs"]
        assert list(run) == HEADER + ["repeat", "commands"]
        assert list(run["commands"]) == [
            "rp 2143", "ad 2143", "dual 2143", "schubert 2143", "verify --n 3 --jobs 1"
        ]
        for times in run["commands"].values():
            assert times["cold_ms"] > 0 and times["cached_ms"] > 0
        assert run["label"] == "cold" and run["repeat"] == 1 and run["commit"]

    def test_rejects_bad_repeat(self, tmp_path):
        out = tmp_path / "bench.json"
        proc = run_script(
            "bench_cold_start.py", "--repeat", "0", "--label", "bad", "--out", str(out)
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert not out.exists()
