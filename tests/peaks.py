"""The one memory probe behind every bound in the tests and in CI, in MiB:
the tracemalloc peak of a call, or the peak RSS of a command on its own."""

import subprocess
import sys
import tracemalloc

# A command spawned straight from a large process starts in that process's
# address space and counts its high-water, so a small interpreter runs it
# and reads only its own child.  The child writes straight to the pipes;
# then the wrapper adds to stderr a newline, the child's status and its peak
_WRAPPER = (
    "import resource, subprocess, sys\n"
    "code = subprocess.run(sys.argv[1:]).returncode\n"
    "peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux\n"
    "sys.stderr.write(f'\\n{code} {peak}')\n"
)


def traced(call, *args):
    """``call(*args)`` and its tracemalloc peak."""
    tracemalloc.start()
    try:
        result = call(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak / 2**20


def fresh(argv):
    """The exit status, stdout and stderr (bytes) of ``argv``, and the peak
    RSS of that process alone."""
    run = subprocess.run([sys.executable, "-c", _WRAPPER, *argv], capture_output=True)
    err, _, tail = run.stderr.rpartition(b"\n")
    code, peak = tail.split()
    return int(code), run.stdout, err, float(peak)
