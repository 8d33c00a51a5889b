"""
Command-line interface.

Subcommands:
  rp PERM        reduced pipe dreams of a permutation
  ad PERM        minimal antidiagonal family of a permutation
  dual INPUT     transversal dual of a family (permutation or JSON file)
  schubert PERM  Schubert polynomial of a permutation
  verify         exhaustive law checks over all of S_n

Only payload goes to stdout; diagnostics go to stderr.  Exit statuses:
0 success, 1 verification failure, 2 argument or permutation parse
failure, 3 malformed family JSON, 4 verification budget exhausted with
all completed permutations passing.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time
from pathlib import Path
from typing import Sequence

from .antidiagonals import antidiagonal_family
from .permutations import Permutation, parse_permutation
from .pipedreams import PipeDream, enumerate_rp, render_ascii
from .schubert import polynomial_to_json, polynomial_to_str, schubert_polynomial
from .transversals import (
    FamilyFormatError,
    SetFamily,
    _ordered_members,
    family_from_json,
    family_to_json,
    transversal_dual,
)
from .verification import iter_verify, report_to_json

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_JSON = 3
EXIT_BUDGET = 4


class _CliError(Exception):
    """Command failure with a dedicated exit status."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _family_text(family: SetFamily) -> str:
    members = _ordered_members(
        family, "({},{})".format, lambda boxes: "{" + ", ".join(boxes) + "}"
    )
    return "\n".join(members)


def _print_family(family: SetFamily, fmt: str) -> None:
    if fmt == "json":
        print(family_to_json(family))
    elif fmt == "ascii":
        blocks = [
            render_ascii(PipeDream(family.n, frozenset(member)))
            for member in family.members
        ]
        print("\n\n".join(blocks))
    else:
        text = _family_text(family)
        if text:
            print(text)


def _parse_perm_arg(text: str) -> Permutation:
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from None


def _cmd_rp(args) -> int:
    w = _parse_perm_arg(args.perm)
    _print_family(enumerate_rp(w), args.format)
    return EXIT_OK


def _cmd_ad(args) -> int:
    w = _parse_perm_arg(args.perm)
    _print_family(antidiagonal_family(w), args.format)
    return EXIT_OK


def _cmd_dual(args) -> int:
    token = args.input
    try:
        w = parse_permutation(token)
    except ValueError:
        w = None
    if w is not None:
        family = antidiagonal_family(w)
    else:
        path = Path(token)
        if not path.is_file():
            raise _CliError(
                EXIT_USAGE,
                f"{token!r} is neither a permutation nor a readable file",
            )
        try:
            family = family_from_json(path.read_text(encoding="utf-8"))
        except (FamilyFormatError, UnicodeDecodeError) as exc:
            raise _CliError(EXIT_BAD_JSON, str(exc)) from None
    _print_family(transversal_dual(family), args.format)
    return EXIT_OK


def _cmd_schubert(args) -> int:
    w = _parse_perm_arg(args.perm)
    poly = schubert_polynomial(w)
    if args.format == "json":
        print(polynomial_to_json(poly))
    else:
        print(polynomial_to_str(poly))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # each report is written as it arrives; none is kept
    start = time.monotonic()
    checked = passed = 0
    json_out = args.format == "json"
    if json_out:
        sys.stdout.write("[")
    for report in iter_verify(args.n, budget_seconds=args.budget, jobs=args.jobs):
        if json_out:
            sys.stdout.write(("," if checked else "") + report_to_json(report))
        elif report.passed:
            print(f"{report.permutation} ok")
        else:
            print(f"{report.permutation} FAIL: {', '.join(report.failed_checks())}")
        checked += 1
        passed += report.passed
    if json_out:
        sys.stdout.write("]\n")
    else:
        print(f"{passed}/{checked} permutations pass")
    exhausted = checked < math.factorial(args.n)
    if exhausted:
        print(
            f"budget exhausted after {time.monotonic() - start:.1f}s: "
            f"{checked} of S_{args.n} checked",
            file=sys.stderr,
        )
    if passed < checked:
        return EXIT_FAIL
    if exhausted:
        return EXIT_BUDGET
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
        if value >= 1:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")


def _budget_seconds(text: str) -> float:
    try:
        value = float(text)
        if math.isfinite(value) and value >= 0:
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

    rp = sub.add_parser("rp", help="enumerate the reduced pipe dreams of PERM")
    rp.add_argument("perm")
    rp.add_argument(
        "--format", choices=("text", "json", "ascii"), default="text"
    )
    rp.set_defaults(func=_cmd_rp)

    ad = sub.add_parser("ad", help="the minimal antidiagonal family of PERM")
    ad.add_argument("perm")
    ad.add_argument("--format", choices=("text", "json"), default="text")
    ad.set_defaults(func=_cmd_ad)

    dual = sub.add_parser(
        "dual",
        help="transversal dual of a family: antidiagonals of a permutation, "
        "or any family JSON file",
    )
    dual.add_argument("input")
    dual.add_argument("--format", choices=("text", "json"), default="text")
    dual.set_defaults(func=_cmd_dual)

    schubert = sub.add_parser("schubert", help="the Schubert polynomial of PERM")
    schubert.add_argument("perm")
    schubert.add_argument("--format", choices=("text", "json"), default="text")
    schubert.set_defaults(func=_cmd_schubert)

    verify = sub.add_parser(
        "verify", help="run every duality check for all permutations of S_n"
    )
    verify.add_argument("--n", type=int, required=True)
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
    if args.command == "verify" and args.n < 1:
        parser.error("--n must be at least 1")
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
