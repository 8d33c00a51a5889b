"""Value semantics of the exported classes, and what importing pipedual loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from pipedual import (
    Antidiagonal,
    Permutation,
    PipeDream,
    Polynomial,
    RankMatrix,
    SetFamily,
    VerificationReport,
    VerificationRun,
    parse_permutation,
    verify_permutation,
)
from pipedual.verification import CHECK_DUALITY, CheckResult, report_to_json

HERE = Path(__file__).resolve().parent

_W = Permutation((2, 1, 3))
_FAIL = CheckResult(False, SetFamily.from_sets(3, [[(1, 1)], [(2, 1), (1, 2)]]))
_REPORT = VerificationReport(_W, {CHECK_DUALITY: _FAIL}, {"seen": 1})

# class -> (fields, one field changed); the fields are given in order.  A
# PipeDream is built from boxes and holds their mask: STORED gives the fields
# of a class whose constructor arguments are not its fields
FROZEN = {
    Permutation: ({"images": (2, 1, 3)}, {"images": (1, 2, 3)}),
    RankMatrix: ({"n": 2, "entries": ((0, 1), (1, 2))}, {"n": 3}),
    PipeDream: ({"n": 3, "crosses": ((1, 2), (1, 1))}, {"crosses": ()}),
    Antidiagonal: ({"boxes": ((1, 2), (2, 1))}, {"boxes": ((1, 1),)}),
    Polynomial: ({"terms": (((2, 1), 1), ((1,), 3))}, {"terms": ()}),
    SetFamily: ({"n": 2, "masks": frozenset({1, 6})}, {"masks": frozenset({2})}),
}
MUTABLE = {
    CheckResult: ({"passed": False, "counterexample": _FAIL.counterexample}, {"passed": True}),
    VerificationReport: (
        {"permutation": _W, "checks": {CHECK_DUALITY: _FAIL}, "stats": {"seen": 1}},
        {"stats": {}},
    ),
    VerificationRun: (
        {"n": 3, "reports": [_REPORT], "exhausted": True, "elapsed": 0.5},
        {"exhausted": False},
    ),
}
ALL = {**FROZEN, **MUTABLE}
STORED = {PipeDream: {"n": 3, "mask": 0b11}}


def ids(cls):
    return cls.__name__


@pytest.mark.parametrize("cls", ALL, ids=ids)
class TestEveryClass:
    def test_keyword_and_positional_construction_agree(self, cls):
        fields, _ = ALL[cls]
        value = cls(**fields)
        stored = STORED.get(cls, fields)
        assert {name: getattr(value, name) for name in stored} == stored
        assert cls(*fields.values()) == value

    def test_equality_by_field(self, cls):
        fields, changed = ALL[cls]
        value = cls(**fields)
        assert value == cls(**fields) and not value != cls(**fields)
        assert value != cls(**{**fields, **changed})
        assert value != tuple(fields.values())

    def test_pickle_and_copy_round_trip(self, cls):
        value = cls(**ALL[cls][0])
        for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
            assert back == value and type(back) is cls

    def test_unpickling_skips_init(self, cls, monkeypatch):
        # the fields come back as saved: no validation, no sort
        value = cls(**ALL[cls][0])
        data = pickle.dumps(value)

        def refuse(self, *args, **kwargs):
            raise AssertionError("__init__ ran")

        monkeypatch.setattr(cls, "__init__", refuse)
        assert vars(pickle.loads(data)) == vars(value)

    def test_only_pipe_pairs_order(self, cls):
        value = cls(**ALL[cls][0])
        with pytest.raises(TypeError):
            value < value  # noqa: B015


# SetFamily writes its masks in hex: see TestSetFamilyRepr
@pytest.mark.parametrize("cls", [c for c in ALL if c is not SetFamily], ids=ids)
def test_repr_names_each_field(cls):
    fields, _ = ALL[cls]
    listed = ", ".join(f"{name}={v!r}" for name, v in STORED.get(cls, fields).items())
    assert repr(cls(**fields)) == f"{cls.__name__}({listed})"


@pytest.mark.parametrize("cls", FROZEN, ids=ids)
class TestFrozen:
    def test_hash_by_field(self, cls):
        fields, changed = FROZEN[cls]
        assert hash(cls(**fields)) == hash(cls(**fields))
        assert len({cls(**fields), cls(**fields), cls(**{**fields, **changed})}) == 2

    def test_fields_are_read_only(self, cls):
        fields, changed = FROZEN[cls]
        value = cls(**fields)
        for name in STORED.get(cls, fields):
            with pytest.raises(AttributeError):
                setattr(value, name, changed.get(name, 0))
            with pytest.raises(AttributeError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert value == cls(**fields)


@pytest.mark.parametrize("cls", MUTABLE, ids=ids)
class TestMutable:
    def test_unhashable(self, cls):
        with pytest.raises(TypeError):
            hash(cls(**MUTABLE[cls][0]))

    def test_fields_can_be_assigned(self, cls):
        fields, changed = MUTABLE[cls]
        value = cls(**fields)
        for name, v in changed.items():
            setattr(value, name, v)
        assert value == cls(**{**fields, **changed})


def test_each_report_gets_its_own_stats():
    a, b = VerificationReport(_W, {}), VerificationReport(_W, {})
    a.stats["seen"] = 1
    assert (a.stats, b.stats) == ({"seen": 1}, {})


class TestPickledReports:
    def test_failing_report_with_counterexample(self):
        back = pickle.loads(pickle.dumps(_REPORT))
        assert back == _REPORT and not back.passed
        assert back.checks[CHECK_DUALITY].counterexample == _FAIL.counterexample
        assert report_to_json(back) == report_to_json(_REPORT)

    def test_verified_report(self):
        report = verify_permutation(parse_permutation("1432"))
        back = pickle.loads(pickle.dumps(report))
        assert back == report and report_to_json(back) == report_to_json(report)


class TestSetFamilyRepr:
    def test_masks_in_hex(self):
        family = SetFamily(2, [6, 1])
        assert repr(family) == "SetFamily(n=2, masks=(0x1, 0x6))"
        assert repr(SetFamily(2, [4])) == "SetFamily(n=2, masks=(0x4,))"
        assert repr(SetFamily.empty(3)) == "SetFamily(n=3, masks=())"

    def test_mask_past_the_decimal_digit_limit(self):
        # box (300, 300) is bit 89,999: about 27,000 decimal digits
        family = SetFamily.from_sets(300, [[(300, 300)]])
        assert repr(family) == f"SetFamily(n=300, masks=({1 << 89_999:#x},))"


def _source_env() -> dict:
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def test_import_loads_no_heavy_module():
    # without site (-S) too: a .pth file that preloads a module hides it
    for flags in ([], ["-S"]):
        for mode in ([], ["--commands"]):
            proc = subprocess.run(
                [sys.executable, *flags, str(HERE / "import_guard.py"), *mode],
                capture_output=True,
                text=True,
                env=_source_env(),
                timeout=120,
            )
            assert (flags, mode, proc.returncode, proc.stderr) == (flags, mode, 0, "")


# the public names, as they were when each was imported eagerly
PUBLIC = [
    "Antidiagonal", "Box", "FamilyFormatError", "Permutation", "PipeDream",
    "Polynomial", "RankMatrix", "SetFamily", "VerificationReport",
    "VerificationRun", "all_permutations", "antidiagonal_family",
    "antidiagonals_in_rectangle", "bruhat_geq", "enumerate_rp",
    "enumerate_rp_bruteforce", "family_from_json", "family_to_json", "identity",
    "is_minimal_transversal", "is_reduced", "is_transversal", "iter_verify",
    "length", "max_elbow_antidiagonal", "minimalize", "parse_permutation",
    "polynomial_to_json", "polynomial_to_str", "rank", "rank_matrix",
    "render_ascii", "reversal", "schubert_polynomial", "specialize_all_ones",
    "staircase_boxes", "trace", "transversal_dual", "verify_bruhat_oracle",
    "verify_claim1", "verify_claim2", "verify_double_dual", "verify_permutation",
    "verify_range", "verify_rank_antidiagonal_law", "verify_theorem",
]


def test_public_names_resolve_lazily():
    # a fresh interpreter, so that no test has imported a module already
    code = """
import pipedual
assert pipedual.__all__ == PUBLIC, pipedual.__all__
listed = dir(pipedual)  # before any name has resolved
assert set(PUBLIC) <= set(listed), set(PUBLIC) - set(listed)
star = {}
exec("from pipedual import *", star)
assert all(star[name] is getattr(pipedual, name) for name in PUBLIC)
assert pipedual.enumerate_rp is sys.modules["pipedual.pipedreams"].enumerate_rp
try:
    pipedual.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("pipedual.no_such_name resolved")
"""
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys\nPUBLIC = {PUBLIC!r}\n{code}"],
        capture_output=True,
        text=True,
        env=_source_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
