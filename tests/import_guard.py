"""Check that importing pipedual and its CLI, and running each command,
loads only the modules that the command needs.

    python tests/import_guard.py             # import pipedual, pipedual.cli
    python tests/import_guard.py --commands  # each command through cli.main

Run it in a fresh interpreter.  It compares ``sys.modules`` before and
after, so what the interpreter loaded at startup does not count.

* ``import pipedual`` must add no ``pipedual.*`` module, and ``import
  pipedual.cli`` only those in ``CLI_MODULES``; neither may add one of
  ``HEAVY``.
* ``--commands`` imports ``pipedual.cli`` and runs one row of
  ``COMMANDS`` through ``cli.main``, in a fresh interpreter per row (with
  ``-S`` when the guard has it).  Of the package, that may load only
  ``CLI_MODULES`` and the modules the row names, and of ``HEAVY`` only
  those the row allows.

Exit status 0 if every check holds, else 1 with the offenders on stderr.
"""

import os
import sys

# dataclasses pulls in inspect, ast, dis and tokenize; json is read only by
# ``dual FILE``; pathlib pulls in urllib.parse and ipaddress; the process
# pool is imported when a sweep starts one
HEAVY = (
    "dataclasses", "inspect", "json", "pathlib", "typing",
    "multiprocessing", "concurrent.futures",
)
# what every query shares, and all that ``import pipedual.cli`` may load of
# the package
CLI_MODULES = ("cli", "permutations", "transversals", "grid")

FAMILY = "FAMILY"  # stands for the path of a family JSON file
VERIFY = ("verification", "pipedreams", "antidiagonals")
# (argv, package modules it may add to CLI_MODULES, HEAVY modules it may add)
COMMANDS = (
    (("rp", "2143"), ("pipedreams",), ()),
    (("rp", "2143", "--format", "ascii"), ("pipedreams",), ()),
    (("ad", "2143"), ("antidiagonals",), ()),
    (("dual", "2143"), ("antidiagonals",), ()),
    (("dual", FAMILY), (), ("json",)),
    (("schubert", "2143"), ("schubert", "pipedreams"), ()),
    (("verify", "--n", "3", "--jobs", "1"), VERIFY, ()),
    (("verify", "--n", "3", "--jobs", "2"), VERIFY, ("multiprocessing", "concurrent.futures")),
)


def offenders(added: set, package: tuple, heavy: tuple = ()) -> list[str]:
    """The modules of ``added`` that are in HEAVY but not in ``heavy``, or
    in the package but not named in ``package``."""
    allowed = {f"pipedual.{name}" for name in package}
    return sorted(
        (set(HEAVY) - set(heavy)) & added
        | {m for m in added if m.startswith("pipedual.") and m not in allowed}
    )


def import_offenders() -> list[str]:
    before = set(sys.modules)
    import pipedual  # noqa: F401

    bad = offenders(set(sys.modules) - before, ())
    import pipedual.cli  # noqa: F401

    bad += offenders(set(sys.modules) - before, CLI_MODULES)
    return [f"import pipedual, pipedual.cli loaded {name}" for name in sorted(set(bad))]


def run_command(row: int, family: str) -> list[str]:
    argv, package, heavy = COMMANDS[row]
    argv = [family if arg == FAMILY else arg for arg in argv]
    before = set(sys.modules)
    import pipedual.cli

    code = pipedual.cli.main(argv)
    bad = offenders(set(sys.modules) - before, CLI_MODULES + package, heavy)
    problems = [f"pipedual {' '.join(argv)} loaded {name}" for name in bad]
    return problems + ([f"pipedual {' '.join(argv)} exited {code}"] if code else [])


def command_offenders() -> list[str]:
    import subprocess
    import tempfile

    flags = ["-S"] if sys.flags.no_site else []
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        family = os.path.join(tmp, "family.json")
        with open(family, "w") as file:
            file.write('{"n": 3, "members": [[[1, 1], [2, 2]], [[1, 2]]]}')
        for row in range(len(COMMANDS)):
            proc = subprocess.run(
                [sys.executable, *flags, os.path.abspath(__file__), "--command", str(row), family],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
            problems += proc.stderr.splitlines()
            if proc.returncode and not proc.stderr:
                problems.append(f"row {row} exited {proc.returncode}")
    return problems


if __name__ == "__main__":
    if sys.argv[1:2] == ["--command"]:
        problems = run_command(int(sys.argv[2]), sys.argv[3])
    elif sys.argv[1:] == ["--commands"]:
        problems = command_offenders()
    else:
        problems = import_offenders()
    for line in problems:
        print(line, file=sys.stderr)
    sys.exit(1 if problems else 0)
