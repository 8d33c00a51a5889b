"""
Command-line interface.

Subcommands:
  rp PERM        reduced pipe dreams of a permutation
  ad PERM        minimal antidiagonal family of a permutation
  dual INPUT     transversal dual of a family (permutation or JSON file)
  schubert PERM  Schubert polynomial of a permutation
  verify         exhaustive law checks over all of S_n

The first four are rows of one table, ``_QUERIES``.  Only payload goes
to stdout; diagnostics go to stderr.  Exit statuses: 0 success, 1
verification failure, 2 argument or permutation parse failure, 3
malformed family JSON, 4 verification budget exhausted with all
completed permutations passing, 141 stdout closed by its reader (the
status of a process killed by SIGPIPE).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import sys
import time
from collections.abc import Sequence

from .antidiagonals import antidiagonal_family
from .permutations import Permutation, parse_permutation
from .pipedreams import PipeDream, enumerate_rp, render_ascii
from .schubert import polynomial_to_json, polynomial_to_str, schubert_polynomial
from .transversals import (
    FamilyFormatError,
    SetFamily,
    family_from_json,
    family_to_json,
    family_to_text,
    transversal_dual,
)
from .verification import iter_verify, report_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_BUDGET = 4
EXIT_PIPE = 141  # 128 + SIGPIPE


class _CliError(Exception):
    """Command failure with a dedicated exit status."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _parse_perm_arg(text: str) -> Permutation:
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None


def _family_of(token: str) -> SetFamily:
    """The antidiagonal family of a permutation, else the family in the
    JSON file named ``token``."""
    try:
        w = parse_permutation(token)
    except ValueError:
        w = None
    if w is not None:
        return antidiagonal_family(w)
    try:
        if not os.path.isfile(token):
            raise FileNotFoundError(token)
        with open(token, encoding="utf-8") as file:
            return family_from_json(file.read())
    except OSError:
        raise _CliError(
            EXIT_USAGE, f"{token!r} is neither a permutation nor a readable file"
        ) from None
    except (FamilyFormatError, UnicodeDecodeError) as exc:
        raise _CliError(EXIT_BAD_JSON, str(exc)) from None


def _family_to_ascii(family: SetFamily) -> str:
    dreams = (PipeDream(family.n, frozenset(m)) for m in family.members)
    return "\n\n".join(map(render_ascii, dreams))


_FAMILY = {"text": family_to_text, "json": family_to_json}

# name: (positional, build, {--format choice: writer}, help); every
# --format defaults to "text"
_QUERIES = {
    "rp": (
        "perm", lambda perm: enumerate_rp(_parse_perm_arg(perm)),
        {**_FAMILY, "ascii": _family_to_ascii},
        "enumerate the reduced pipe dreams of PERM",
    ),
    "ad": (
        "perm", lambda perm: antidiagonal_family(_parse_perm_arg(perm)), _FAMILY,
        "the minimal antidiagonal family of PERM",
    ),
    "dual": (
        "input", lambda token: transversal_dual(_family_of(token)), _FAMILY,
        "transversal dual of a family: antidiagonals of a permutation, "
        "or any family JSON file",
    ),
    "schubert": (
        "perm", lambda perm: schubert_polynomial(_parse_perm_arg(perm)),
        {"text": polynomial_to_str, "json": polynomial_to_json},
        "the Schubert polynomial of PERM",
    ),
}


def _run_query(args) -> int:
    positional, build, writers, _ = _QUERIES[args.command]
    text = writers[args.format](build(getattr(args, positional)))
    # text output prints nothing for an empty family.  The ascii writer
    # never comes back empty: every permutation has a reduced pipe dream
    if text:
        print(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    # each report is written as it arrives; none is kept
    start = time.monotonic()
    checked = passed = 0
    json_out = args.format == "json"
    if json_out:
        sys.stdout.write("[")
    with contextlib.closing(iter_verify(args.n, args.budget, args.jobs)) as reports:
        for report in reports:
            if json_out:
                sys.stdout.write(("," if checked else "") + report_to_json(report))
            elif report.passed:
                print(f"{report.permutation} ok")
            else:
                print(f"{report.permutation} FAIL: {', '.join(report.failed_checks())}")
            checked += 1
            passed += report.passed
    print("]" if json_out else f"{passed}/{checked} permutations pass")
    exhausted = checked < math.factorial(args.n)
    if exhausted:
        print(
            f"budget exhausted after {time.monotonic() - start:.1f}s: "
            f"{checked} of S_{args.n} checked",
            file=sys.stderr,
        )
    return EXIT_FAIL if passed < checked else EXIT_BUDGET if exhausted else EXIT_OK


def _positive_int(text: str) -> int:
    # ASCII digits only: int() also reads other scripts' digits and "1_2"
    if text.isascii() and text.isdigit() and (value := int(text)) >= 1:
        return value
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _budget_seconds(text: str) -> float:
    # ASCII only, as in _positive_int: float() reads the same numerals
    try:
        value = float(text)
        if text.isascii() and "_" not in text and math.isfinite(value) and value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a finite, non-negative number of seconds, got {text!r}"
    )


def build_parser() -> argparse.ArgumentParser:
    return _build_parser()[0]


def _jobs_default() -> str:
    return os.environ.get("PD_JOBS") or "1"


def _build_parser() -> tuple[argparse.ArgumentParser, argparse.Action]:
    """A new parser and its verify --jobs action."""
    parser = argparse.ArgumentParser(
        prog="pipedual",
        description="Reduced pipe dreams, antidiagonal families, and their "
        "transversal duality.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, (positional, _, writers, about) in _QUERIES.items():
        query = sub.add_parser(name, help=about)
        query.add_argument(positional)
        query.add_argument("--format", choices=writers, default="text")
        query.set_defaults(func=_run_query)

    verify = sub.add_parser(
        "verify", help="run every duality check for all permutations of S_n"
    )
    verify.add_argument("--n", type=_positive_int, required=True)
    verify.add_argument(
        "--budget",
        type=_budget_seconds,
        default=600.0,
        help="time budget in seconds (default 600)",
    )
    jobs = verify.add_argument(
        "--jobs",
        type=_positive_int,
        default=_jobs_default(),
        help="worker processes (default $PD_JOBS or 1)",
    )
    verify.add_argument("--format", choices=("text", "json"), default="text")
    verify.set_defaults(func=_cmd_verify)

    return parser, jobs


# main parses with one parser per process and resets --jobs's default to
# $PD_JOBS on every call; argparse sends a string default through the
# action's type at parse time, so a bad $PD_JOBS fails as a bad --jobs
_main_parser = functools.cache(_build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    parser, jobs = _main_parser()
    jobs.default = _jobs_default()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader is gone (a sweep has closed its pool on the way out):
        # with stdout on devnull, the flush at exit drops the rest
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
