"""
Pipe dreams on the n x n grid, identified with their sets of crossing tiles.

Tile semantics: at a crossing tile both pipes pass straight through
(west to east, south to north); at an elbow tile the pipe arriving from
the west turns north and the pipe arriving from the south turns east.
Pipes enter from the west edge of rows 1..n.  Crossing tiles are confined
to the staircase region {(i, j) : i + j <= n}; everything on or below the
main antidiagonal is an elbow, which forces every westward pipe to exit
through the north edge, so tracing always yields a permutation.

>>> trace(PipeDream(4, frozenset({(1, 1), (1, 3)}))).images
(2, 1, 4, 3)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .grid import Box, staircase_boxes
from .permutations import Permutation, length
from .transversals import SetFamily

# largest n for which the subset-enumeration oracle stays cheap
BRUTE_FORCE_MAX_N = 6


@dataclass(frozen=True)
class PipeDream:
    """Crossing-box set of an n x n pipe dream."""

    n: int
    crosses: frozenset[Box]

    def __post_init__(self):
        for (r, c) in self.crosses:
            if not (1 <= r and 1 <= c and r + c <= self.n):
                raise ValueError(
                    f"crossing tile ({r}, {c}) outside the staircase of the "
                    f"{self.n} x {self.n} grid"
                )


@dataclass(frozen=True, order=True)
class PipePair:
    """An unordered pair of pipes (labeled by entry row, a < b) together
    with the number of tiles where they cross."""

    a: int
    b: int
    crossings: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError(f"pipe pair not normalized: {self.a}, {self.b}")


def _walk(dream: PipeDream):
    """Yield (pipe, box, heading) for every tile each pipe passes through;
    heading is 'E' when the pipe enters the box from the west and 'N' when
    it enters from the south.  Ends each pipe at its north-edge exit column."""
    crosses = dream.crosses
    for pipe in range(1, dream.n + 1):
        r, c = pipe, 1
        heading = "E"
        while r >= 1:
            yield pipe, (r, c), heading
            if (r, c) in crosses:
                if heading == "E":
                    c += 1
                else:
                    r -= 1
            else:
                if heading == "E":
                    heading = "N"
                    r -= 1
                else:
                    heading = "E"
                    c += 1
        yield pipe, (0, c), "X"


def trace(dream: PipeDream) -> Permutation:
    """The permutation w sending each entry row i to the north-edge exit
    column w(i) of its pipe."""
    images = [0] * dream.n
    for pipe, (r, c), heading in _walk(dream):
        if heading == "X":
            images[pipe - 1] = c
    return Permutation(tuple(images))


def crossing_counts(dream: PipeDream) -> frozenset[PipePair]:
    """Crossing multiplicities for every pair of pipes meeting at least once.

    Each crossing tile is traversed straight by exactly one west-east pipe
    and one south-north pipe; those two pipes cross there.
    """
    horizontal: dict[Box, int] = {}
    vertical: dict[Box, int] = {}
    for pipe, box, heading in _walk(dream):
        if box in dream.crosses:
            if heading == "E":
                horizontal[box] = pipe
            elif heading == "N":
                vertical[box] = pipe
    counts: dict[tuple[int, int], int] = {}
    for box in dream.crosses:
        a, b = horizontal[box], vertical[box]
        key = (a, b) if a < b else (b, a)
        counts[key] = counts.get(key, 0) + 1
    return frozenset(PipePair(a, b, m) for (a, b), m in counts.items())


def is_reduced(dream: PipeDream) -> bool:
    """True iff no pair of pipes crosses more than once; equivalently the
    number of crossing tiles equals the inversion count of the trace."""
    return all(pair.crossings <= 1 for pair in crossing_counts(dream))


def enumerate_rp(w: Permutation) -> SetFamily:
    """All reduced pipe dreams tracing to w, as a canonical family.

    Builds the dreams row by row from the top, working back from w.  The
    west and south pipes of box (r, c) sit in the adjacent slots k and
    k + 1, k = r + c - 1, and a crossing swaps them; read the other way,
    slot c starts out holding w^-1(c), the pipe that exits at column c,
    and each crossing undoes its swap.  Row r takes its boxes from the
    right, slots k = n - 1 down to r, and undoes a swap only where
    slots[k] > slots[k + 1]: pipes keep their order until they cross, so
    that is the pair's one crossing, and every dream built is reduced.

    Slot r is not touched below row r, so row r must leave pipe r there.
    If pipe r sits in slot p, the crossings in slots r .. p - 1 are forced,
    one in slot p is impossible, and each slot p + 1 .. n - 1 is a free
    choice under the inversion rule.  Rows r + 1 .. n - 1 are the staircase
    of S_{n-r} on slots r + 1 .. n, on which every order of the pipes left
    there has a reduced pipe dream, so no branch dies (Bergeron and
    Billey, "RC-graphs and Schubert polynomials", Experiment. Math. 1993).
    Partial dreams that leave the same pipes in the same slots share their
    completions: the frontier keys them by those pipes, and each row is
    one loop over it.

    >>> len(enumerate_rp(Permutation((1, 4, 3, 2))))
    5
    """
    n = w.n
    # the pipes in slots r .. n before row r -> masks of rows 1 .. r - 1
    frontier = {w.inverse().images: [0]}
    for r in range(1, n):
        first = (r - 1) * n  # the bit of box (r, 1), in slot r
        below: dict[tuple[int, ...], list[int]] = {}
        while frontier:
            pipes, masks = frontier.popitem()
            at = pipes.index(r)  # pipe r sits in slot p = r + at
            head, tail = pipes[:at], pipes[at + 1:]
            # the forced crossings in slots r .. p - 1, then the free ones
            # from slot n - 1 down to p + 1, where tail[j] sits in slot p + 1 + j
            rows = [(tail, ((1 << at) - 1) << first)]
            for j in range(len(tail) - 2, -1, -1):
                bit = 1 << (first + at + 1 + j)
                for i in range(len(rows)):
                    t, row = rows[i]
                    if t[j] > t[j + 1]:
                        rows.append((t[:j] + (t[j + 1], t[j]) + t[j + 2:], row | bit))
            for t, row in rows:
                below.setdefault(head + t, []).extend([mask | row for mask in masks])
        frontier = below
    [masks] = frontier.values()
    return SetFamily(n, masks)


def reduced_traces(n: int, masks: Iterable[int]) -> Iterator[tuple[int, ...] | None]:
    """For each mask of crossing tiles (see :func:`grid.pack`), the images
    of its trace if it is a reduced pipe dream of the n x n grid, and None
    if it is not reduced or has a tile off the staircase.

    Reads the crossings column by column from the left, each column from
    the bottom, forward from the identity, swapping slots r + c - 1 and
    r + c at each; this is the pipe dream's word in the triangular reduced
    word of the longest permutation (Knutson and Miller, "Subword
    complexes in Coxeter groups", Adv. Math. 2004).  It shares no order
    or state with the row-by-row :func:`enumerate_rp`, so it serves the
    tests as an independent check of it.
    Pipes keep their order in the slots until they cross, so a crossing
    whose lower slot holds the larger pipe is the pair's second.  At the
    end slot c holds the pipe that exits at column c.
    """
    boxes = [
        ((r - 1) * n + c - 1, r + c - 1)
        for c in range(1, n)
        for r in range(n - c, 0, -1)
    ]
    off_staircase = ~sum(1 << bit for bit, _ in boxes)
    for mask in masks:
        if mask & off_staircase:
            yield None
            continue
        slots = list(range(n + 1))  # slots[k]: the pipe in slot k (0 unused)
        for bit, k in boxes:
            if mask >> bit & 1:
                a, b = slots[k], slots[k + 1]
                if a > b:
                    yield None
                    break
                slots[k], slots[k + 1] = b, a
        else:
            images = [0] * n
            for c in range(1, n + 1):
                images[slots[c] - 1] = c
            yield tuple(images)


def enumerate_rp_bruteforce(w: Permutation) -> SetFamily:
    """Independent oracle for :func:`enumerate_rp`: enumerate every subset
    of the staircase with length(w) boxes and keep those that trace to w
    and are reduced.  Only for n <= BRUTE_FORCE_MAX_N."""
    if w.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force enumeration is capped at n <= {BRUTE_FORCE_MAX_N}"
        )
    boxes = staircase_boxes(w.n)
    found = []
    for subset in itertools.combinations(boxes, length(w)):
        dream = PipeDream(w.n, frozenset(subset))
        if trace(dream) == w and is_reduced(dream):
            found.append(subset)
    return SetFamily.from_sets(w.n, found)


def render_ascii(dream: PipeDream) -> str:
    """Fixed-width picture: '+' for crossings, '.' for elbows weakly above
    the main antidiagonal (row + col <= n + 1), a space below it."""
    n = dream.n
    lines = []
    for i in range(1, n + 1):
        line = []
        for j in range(1, n + 1):
            if (i, j) in dream.crosses:
                line.append("+")
            elif i + j <= n + 1:
                line.append(".")
            else:
                line.append(" ")
        lines.append("".join(line))
    return "\n".join(lines)
