"""Check that importing pipedual and its CLI loads none of the modules that
only some commands need or that slow every cold start.

    python tests/import_guard.py

Run it in a fresh interpreter.  It compares ``sys.modules`` before and
after ``import pipedual, pipedual.cli``, so what the interpreter loaded at
startup does not count.  Exit status 0 if the import added none of
``HEAVY``, else 1 with their names on stderr.
"""

import sys

# dataclasses pulls in inspect, ast, dis and tokenize; json is read only by
# ``dual FILE``; the process pool is imported when a sweep starts one
HEAVY = ("dataclasses", "inspect", "json", "typing", "multiprocessing", "concurrent.futures")


def added_heavy_modules() -> list[str]:
    before = set(sys.modules)
    import pipedual  # noqa: F401
    import pipedual.cli  # noqa: F401

    return sorted(set(HEAVY) & (set(sys.modules) - before))


if __name__ == "__main__":
    added = added_heavy_modules()
    if added:
        print(f"import pipedual, pipedual.cli loaded {', '.join(added)}", file=sys.stderr)
    sys.exit(1 if added else 0)
