"""The memory probe itself: each test fails against a probe that reads 0
and against one that reads the caller's peak, which a fixture raises to
at least 96 MiB, above every range read here."""

import resource
import sys

import pytest
from peaks import fresh, traced


@pytest.fixture(autouse=True)
def heavy_caller():
    if resource.getrusage(resource.RUSAGE_SELF).ru_maxrss < 96 << 10:  # KiB on Linux
        b"x" * (96 << 20)


def test_fresh_reads_its_child():
    code, out, err, peak = fresh([sys.executable, "-c", "data = b'x' * (64 << 20)"])
    assert (code, out, err) == (0, b"", b"")
    assert 64 <= peak < 96


def test_fresh_reads_not_the_caller():
    code, out, err, peak = fresh([sys.executable, "-c", "pass"])
    assert (code, out, err) == (0, b"", b"")
    assert 2 < peak < 32  # an interpreter's few MiB


def test_traced_reads_the_call():
    value, peak = traced(bytes, 8 << 20)
    assert value == bytes(8 << 20)
    assert 8 <= peak < 16
