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


def _column_order(n: int) -> list[Box]:
    """The staircase boxes column by column from the left, each column
    from the bottom: the order in which the west and south pipes of box
    (r, c) sit in the adjacent frontier slots r + c - 1 and r + c."""
    return [(r, c) for c in range(1, n) for r in range(n - c, 0, -1)]


def enumerate_rp(w: Permutation) -> SetFamily:
    """All reduced pipe dreams tracing to w, as a canonical family.

    Depth-first search over the staircase boxes, column by column from the
    left and each column from the bottom, so every box comes after the
    boxes below it and to its left.  In that order the west and south
    pipes of box (r, c) sit in the adjacent frontier slots r + c - 1 and
    r + c; a crossing swaps them (the transposition s_{r+c-1}) and an
    elbow leaves them.  Pipes keep their order in the slots until they
    cross, so two adjacent pipes have met at a crossing exactly when the
    larger one sits in the lower-numbered slot, as :func:`reduced_traces`
    also reads it.  A branch is cut as soon as a pair of pipes would cross
    twice, the crossing budget length(w) is exceeded, or the boxes left
    cannot hold enough crossings.

    Column c must leave w^-1(c) in slot c.  Its boxes touch ever lower
    slots, so that pipe can only move down, and a slot above the box in
    hand is never touched again in the column.  Hence at every box of
    column c a crossing that would take w^-1(c) from the west slot up is
    cut, and so is an elbow that would leave it in the south slot; at the
    top box, whose west slot is c, w^-1(c) must be in one of the two.

    The search walks forward taking elbows and keeps the crossings still
    to try on an explicit stack, so its depth is not bounded by Python's
    recursion limit (the staircase of S_n has n(n-1)/2 boxes).
    """
    n = w.n
    target = w.inverse().images  # target[c-1] must exit north at column c
    budget = length(w)
    # per box: its bit, its west slot, the pipe that must leave slot c at
    # the top of its column c, and whether it is that top box
    boxes = [
        ((r - 1) * n + c - 1, r + c - 1, target[c - 1], r == 1)
        for (r, c) in _column_order(n)
    ]
    end = len(boxes)
    slack = end - budget  # the elbows a dream of w has on the staircase
    slots = list(range(n + 1))  # slots[k]: the pipe in slot k (0 unused)
    path = [0] * budget  # path[:depth]: crossing boxes of the current branch
    pending: list[tuple[int, int]] = []  # (box, depth there): crossings to try
    results: list[int] = []
    mask = i = depth = 0
    # walk forward taking each box as an elbow, leaving its crossing on
    # pending; at a leaf or a dead end, resume the latest pending crossing
    while True:
        if i - depth <= slack:
            if i == end:
                results.append(mask)
            else:
                _, k, want, top = boxes[i]
                a, b = slots[k], slots[k + 1]
                if (
                    depth < budget
                    and (b == want if top else a != want)
                    and a < b
                ):
                    pending.append((i, depth))
                if a == want if top else b != want:
                    i += 1
                    continue
        if not pending:
            return SetFamily(n, results)
        i, back = pending.pop()
        while depth > back:  # unwind the branch back to box i
            depth -= 1
            bit, k, _, _ = boxes[path[depth]]
            slots[k], slots[k + 1] = slots[k + 1], slots[k]
            mask ^= 1 << bit
        bit, k, _, _ = boxes[i]
        slots[k], slots[k + 1] = slots[k + 1], slots[k]
        mask |= 1 << bit
        path[depth] = i
        depth += 1
        i += 1


def reduced_traces(n: int, masks: Iterable[int]) -> Iterator[tuple[int, ...] | None]:
    """For each mask of crossing tiles (see :func:`grid.pack`), the images
    of its trace if it is a reduced pipe dream of the n x n grid, and None
    if it is not reduced or has a tile off the staircase.

    Reads the crossings in :func:`enumerate_rp`'s box order, swapping
    slots r + c - 1 and r + c at each; this is the pipe dream's word in
    the triangular reduced word of the longest permutation (Knutson and
    Miller, "Subword complexes in Coxeter groups", Adv. Math. 2004).
    Pipes keep their order in the slots until they cross, so a crossing
    whose lower slot holds the larger pipe is the pair's second.  At the
    end slot c holds the pipe that exits at column c.
    """
    boxes = [((r - 1) * n + c - 1, r + c - 1) for (r, c) in _column_order(n)]
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
