import functools
import hashlib
import itertools
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from pipedual.cli import (
    EXIT_BAD_JSON,
    EXIT_BUDGET,
    EXIT_FAIL,
    EXIT_USAGE,
    _family_text,
    build_parser,
    main,
)
from pipedual.permutations import identity
from pipedual.transversals import (
    SetFamily,
    family_from_json,
    family_to_json,
    family_to_json_obj,
)
from pipedual.verification import (
    CheckResult,
    VerificationReport,
    iter_verify,
    reports_to_json,
    verify_range,
)

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _format_member(member) -> str:
    return "{" + ", ".join(f"({r},{c})" for (r, c) in member) + "}"


class TestRp:
    def test_text(self, capsys):
        code, out, err = run_cli(capsys, "rp", "2143")
        assert code == 0 and err == ""
        assert out == "{(1,1), (1,3)}\n{(1,1), (2,2)}\n{(1,1), (3,1)}\n"

    def test_trivial(self, capsys):
        code, out, _ = run_cli(capsys, "rp", "1")
        assert code == 0
        assert out == "{}\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "rp", "2143", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "n": 4,
            "members": [
                [[1, 1], [1, 3]],
                [[1, 1], [2, 2]],
                [[1, 1], [3, 1]],
            ],
        }

    def test_ascii_matches_golden_files(self, capsys):
        code, out, _ = run_cli(capsys, "rp", "2143", "--format", "ascii")
        assert code == 0
        blocks = [GOLDEN.joinpath(f"rp_2143_{i}.txt").read_text() for i in range(3)]
        assert out == "\n\n".join(block[:-1] for block in blocks) + "\n"

    def test_parse_failure_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "rp", "1231")
        assert code == EXIT_USAGE
        assert out == ""
        assert "not a permutation" in err

    def test_signed_token_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "rp", "2,+1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "non-numeric token" in err

    # the n = 60 cases guard against a recursive row loop in enumerate_rp
    def test_identity_at_n60(self, capsys):
        code, out, err = run_cli(capsys, "rp", ",".join(map(str, range(1, 61))))
        assert (code, out, err) == (0, "{}\n", "")

    def test_last_simple_transposition_at_n60(self, capsys):
        images = [*range(1, 59), 60, 59]
        code, out, err = run_cli(capsys, "rp", ",".join(map(str, images)))
        assert code == 0 and err == ""
        assert out == "".join(f"{{({r},{60 - r})}}\n" for r in range(1, 60))


class TestAd:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "ad", "2143")
        assert code == 0
        assert out == "{(1,1)}\n{(1,3), (2,2), (3,1)}\n"

    def test_identity_prints_nothing(self, capsys):
        code, out, _ = run_cli(capsys, "ad", "1234")
        assert code == 0
        assert out == ""

    def test_1432_has_five_members(self, capsys):
        code, out, _ = run_cli(capsys, "ad", "1432", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["members"]) == 5

    def test_ascii_not_offered(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["ad", "2143", "--format", "ascii"])
        assert exc.value.code == EXIT_USAGE


class TestDual:
    def test_permutation_input_dualizes_antidiagonals(self, capsys):
        code, out, _ = run_cli(capsys, "dual", "2143")
        assert code == 0
        assert out == "{(1,1), (1,3)}\n{(1,1), (2,2)}\n{(1,1), (3,1)}\n"

    def test_1432_round_trip(self, capsys):
        code, rp_out, _ = run_cli(capsys, "rp", "1432")
        code2, dual_out, _ = run_cli(capsys, "dual", "1432")
        assert code == code2 == 0
        assert dual_out == rp_out

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "family.json"
        path.write_text('{"n": 3, "members": [[[1, 1]], [[2, 2]]]}')
        code, out, _ = run_cli(capsys, "dual", str(path))
        assert code == 0
        assert out == "{(1,1), (2,2)}\n"

    def test_empty_family_file(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"n": 2, "members": []}')
        code, out, _ = run_cli(capsys, "dual", str(path))
        assert code == 0
        assert out == "{}\n"

    def test_1600_singletons_need_no_recursion(self, capsys, tmp_path):
        # one transversal of 1,600 cells: a search as deep as the family
        cells = [(r, c) for r in range(1, 41) for c in range(1, 41)]
        path = tmp_path / "singletons.json"
        path.write_text(json.dumps({"n": 40, "members": [[[r, c]] for r, c in cells]}))
        code, out, err = run_cli(capsys, "dual", str(path))
        assert code == 0 and err == ""
        assert out == _format_member(cells) + "\n"

    def test_malformed_json_exits_3(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "members": [[[9, 9]]]}')
        code, out, err = run_cli(capsys, "dual", str(path))
        assert code == EXIT_BAD_JSON
        assert out == ""
        assert "outside" in err

    def test_non_utf8_file_exits_3(self, capsys, tmp_path):
        path = tmp_path / "utf16.json"
        path.write_bytes(b'\xff\xfe{"n": 2, "members": []}')
        code, out, err = run_cli(capsys, "dual", str(path))
        assert code == EXIT_BAD_JSON
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "utf-8" in err

    def test_unreadable_input_exits_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "dual", str(tmp_path / "missing.json"))
        assert code == EXIT_USAGE
        assert "neither a permutation nor a readable file" in err


class TestSchubert:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "2143")
        assert code == 0
        assert out == "x1^2 + x1*x2 + x1*x3\n"

    def test_identity_is_one(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "123")
        assert code == 0
        assert out == "1\n"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "schubert", "321", "--format", "json")
        assert code == 0
        assert json.loads(out) == [{"coeff": 1, "exponents": [2, 1]}]

    def test_parse_failure_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "schubert", "notaperm")
        assert code == EXIT_USAGE
        assert err


class TestVerify:
    def test_n1(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1")
        assert code == 0
        assert out.endswith("1/1 permutations pass\n")

    def test_n4_summary(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "1234 ok"
        assert lines[-1] == "24/24 permutations pass"
        assert len(lines) == 25

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--format", "json")
        assert code == 0
        reports = json.loads(out)
        assert len(reports) == 6
        assert all(
            entry["pass"] for report in reports for entry in report["checks"].values()
        )

    def test_budget_exhaustion_exits_4(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--n", "4", "--budget", "0")
        assert code == EXIT_BUDGET
        assert "budget exhausted" in err

    def test_failure_exits_1(self, capsys, monkeypatch):
        witness = SetFamily.from_sets(2, [[(1, 1)]])
        report = VerificationReport(
            identity(2), {"duality": CheckResult(False, witness)}
        )
        monkeypatch.setattr(
            "pipedual.verification.verify_permutation", lambda w: report
        )
        code, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == EXIT_FAIL
        assert "FAIL: duality" in out

    def test_jobs_flag_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--jobs", "2")
        assert code == 0
        assert out.endswith("6/6 permutations pass\n")

    def test_jobs_default_from_environment(self, monkeypatch):
        monkeypatch.setenv("PD_JOBS", "3")
        args = build_parser().parse_args(["verify", "--n", "2"])
        assert args.jobs == 3

    def test_rejects_bad_n(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "0"])
        assert exc.value.code == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--jobs", "0"),
            ("--jobs", "-3"),
            ("--budget", "nan"),
            ("--budget", "-1"),
            ("--budget", "inf"),
        ],
    )
    def test_rejects_bad_flag_value(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2", flag, value])
        assert exc.value.code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    @pytest.mark.parametrize("value", ["abc", "0"])
    def test_rejects_bad_jobs_environment(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PD_JOBS", value)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "2"])
        assert exc.value.code == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err

    def test_bad_jobs_environment_only_matters_to_verify(self, capsys, monkeypatch):
        monkeypatch.setenv("PD_JOBS", "abc")
        code, out, _ = run_cli(capsys, "rp", "21")
        assert code == 0 and out == "{(1,1)}\n"
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--jobs", "1")
        assert code == 0 and out.endswith("2/2 permutations pass\n")

    def test_jobs_environment_read_on_every_call(self, capsys, monkeypatch):
        # main keeps one parser per process; $PD_JOBS must not freeze in it
        seen = []

        def spy(n, budget_seconds, jobs):
            seen.append(jobs)
            return iter_verify(n, budget_seconds=budget_seconds)

        monkeypatch.setattr("pipedual.cli.iter_verify", spy)
        for value in ("3", "2", ""):
            monkeypatch.setenv("PD_JOBS", value)
            code, out, _ = run_cli(capsys, "verify", "--n", "2")
            assert code == 0 and out.endswith("2/2 permutations pass\n")
        assert seen == [3, 2, 1]


@functools.cache
def _collected_json(n):
    return reports_to_json(verify_range(n).reports) + "\n"


class TestStreamedVerify:
    """verify writes each report as it arrives; its bytes are those of the
    writer over a collected run."""

    # sha256 of `pipedual verify --n 6 --format text` stdout, recorded
    # while the CLI still collected every report before printing
    S6_TEXT_SHA256 = "d2a9e2f7a644cfb683c2a4eaa6d952c6ef8b3a77726abeef0a8df6363a4e77b0"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_json_equals_the_collected_writer(self, capsys, n, jobs):
        code, out, err = run_cli(
            capsys, "verify", "--n", str(n), "--jobs", jobs, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert out == _collected_json(n)

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_zero_budget_prints_an_empty_array(self, capsys, jobs):
        code, out, err = run_cli(
            capsys, "verify", "--n", "6", "--jobs", jobs, "--budget", "0",
            "--format", "json",
        )
        assert code == EXIT_BUDGET
        assert out == "[]\n"
        assert "0 of S_6 checked" in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_s6_text_is_pinned(self, capsys, jobs):
        code, out, err = run_cli(capsys, "verify", "--n", "6", "--jobs", jobs)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == self.S6_TEXT_SHA256


# the writers as they were before they wrote from masks: every box tuple
# built from a table of all n^2 cells, members sorted as tuples
def _old_members(family):
    n = family.n
    cells = [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)]
    members = []
    for mask in family.masks:
        boxes = []
        while mask:
            low = mask & -mask
            boxes.append(cells[low.bit_length() - 1])
            mask ^= low
        members.append(tuple(boxes))
    return tuple(sorted(members))


def _old_json_obj(family):
    return {
        "n": family.n,
        "members": [[[r, c] for (r, c) in m] for m in _old_members(family)],
    }


def family_st():
    def build(n):
        box = st.tuples(st.integers(1, n), st.integers(1, n))
        return st.frozensets(st.frozensets(box, max_size=6), max_size=8).map(
            lambda sets: SetFamily.from_sets(n, sets)
        )

    # n = 300 puts cells past 65,535, so keys need three bytes a cell
    return st.sampled_from([1, 2, 3, 5, 9, 17, 300]).flatmap(build)


class TestMaskWriter:
    @given(family_st())
    @example(SetFamily.from_sets(3, [[(1, 1)], [(1, 1), (1, 2)]]))
    @example(SetFamily.from_sets(3, [[(1, 1), (1, 2)], [(1, 1)], [(1, 1), (3, 1)]]))
    @example(SetFamily.from_sets(2, [[], [(1, 1)], [(2, 2)]]))
    @example(SetFamily.from_sets(1, [[]]))
    @example(SetFamily.empty(4))
    # on the 300 x 300 grid, (219, 136) is cell 65,535 and (219, 137) cell 65,536
    @example(
        SetFamily.from_sets(
            300,
            [
                [(1, 1), (300, 300)],
                [(1, 1), (219, 136)],
                [(219, 137)],
                [(1, 1)],
                [(219, 136)],
            ],
        )
    )
    def test_matches_old_writers(self, family):
        members = _old_members(family)
        assert family.members == members
        assert family_to_json_obj(family) == _old_json_obj(family)
        assert family_to_json(family) == json.dumps(
            _old_json_obj(family), separators=(",", ":")
        )
        assert _family_text(family) == "\n".join(_format_member(m) for m in members)


class TestPinnedBytes:
    """sha256 of the concatenated stdout of every family and polynomial
    command in every format, recorded before the writers read masks."""

    COMMANDS = [
        ("rp", "text"),
        ("rp", "json"),
        ("rp", "ascii"),
        ("ad", "text"),
        ("ad", "json"),
        ("dual", "text"),
        ("dual", "json"),
        ("schubert", "text"),
        ("schubert", "json"),
    ]
    S5_SHA256 = "473ed4c43b6a26ed1574ea47df13dff4a1a99fded656cfd192280ae314c695c3"
    LARGE = ["35281746", "16875342", "47268153", "937184265", "918573462", "148326579"]
    LARGE_SHA256 = "7aa96b426fe3a2809a97226b423130180561d72fbf7b866e40ab04537baedde7"

    def digest(self, capsys, perms):
        digest = hashlib.sha256()
        for w in perms:
            for cmd, fmt in self.COMMANDS:
                code, out, err = run_cli(capsys, cmd, w, "--format", fmt)
                assert (code, err) == (0, "")
                digest.update(out.encode())
        return digest.hexdigest()

    def test_all_of_s5(self, capsys):
        perms = ["".join(map(str, p)) for p in itertools.permutations(range(1, 6))]
        assert self.digest(capsys, perms) == self.S5_SHA256

    def test_s8_and_s9(self, capsys):
        assert self.digest(capsys, self.LARGE) == self.LARGE_SHA256


def test_output_cost_follows_boxes_not_grid(capsys, tmp_path):
    # two one-box members on the 2000 x 2000 grid: a table of every cell
    # would take about 400 MB
    path = tmp_path / "far.json"
    path.write_text('{"n": 2000, "members": [[[1, 1]], [[2000, 2000]]]}')
    tracemalloc.start()
    try:
        code = main(["dual", str(path), "--format", "json"])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == '{"n":2000,"members":[[[1,1],[2000,2000]]]}\n'
    assert peak < 50 * 2**20


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "pipedual", "rp", "2143"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "{(1,1), (1,3)}\n{(1,1), (2,2)}\n{(1,1), (3,1)}\n"
        assert proc.stderr == ""

    def test_stdout_carries_payload_only(self, capsys):
        code, out, err = run_cli(capsys, "dual", "zzz")
        assert code == EXIT_USAGE
        assert out == ""


def test_every_emitted_family_reparses(capsys):
    for args in (["rp", "1432"], ["ad", "1432"], ["dual", "2143"], ["rp", "54321"]):
        code = main(args + ["--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        family = family_from_json(out)
        assert family_to_json(family) == out.strip()
