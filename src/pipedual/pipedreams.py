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

from collections.abc import Callable, Iterable, Iterator
from itertools import combinations

from .grid import Box, Frozen, Lanes, pack, staircase_boxes, staircase_mask
from .permutations import Permutation, length
from .transversals import SetFamily

# largest n for which the subset-enumeration oracle stays cheap
BRUTE_FORCE_MAX_N = 6


class PipeDream(Frozen):
    """An n x n pipe dream: the mask of its crossing tiles (see
    :func:`grid.pack`), given as any iterable of boxes.  A box off the grid
    raises ValueError, as does a tile off the staircase, naming the first
    in row-major order."""

    def __init__(self, n: int, crosses: Iterable[Box]):
        mask = pack(n, crosses)
        if off := mask & ~staircase_mask(n):
            i = (off & -off).bit_length() - 1
            raise ValueError(
                f"crossing tile ({i // n + 1}, {i % n + 1}) outside the staircase "
                f"of the {n} x {n} grid"
            )
        self.__dict__.update(n=n, mask=mask)


def trace(dream: PipeDream) -> Permutation:
    """The permutation w sending each entry row i to the north-edge exit
    column w(i) of its pipe: the tile walk.  A pipe heading east keeps its
    heading through a crossing and turns at an elbow, as does one heading
    north, so its heading flips exactly at the elbows."""
    return Permutation(_walk(dream.n, dream.mask))


def _walk(n: int, mask: int) -> tuple[int, ...]:
    """The images of :func:`trace`, on a mask of crossing tiles."""
    images = []
    for pipe in range(1, n + 1):
        # i is the bit of the pipe's tile (r, c); the pipe leaves the grid
        # once r reaches 0, so once i turns negative
        i, c, east = (pipe - 1) * n, 1, 1
        while i >= 0:
            east ^= 1 ^ (mask >> i & 1)  # flips at an elbow
            if east:
                c, i = c + 1, i + 1
            else:
                i -= n
        images.append(c)
    return tuple(images)


def is_reduced(dream: PipeDream) -> bool:
    """True iff the number of crossing tiles equals the inversion count of
    the trace; equivalently no pair of pipes crosses more than once
    (Bergeron and Billey's rc-graphs)."""
    return dream.mask.bit_count() == length(trace(dream))


def fold_rows(w: Permutation, start, add: Callable[[dict, tuple, object, int], None]):
    """A fold over the reduced pipe dreams of w, built row by row from the
    top, working back from w.  The west and south pipes of box (r, c) sit
    in the adjacent slots k and k + 1, k = r + c - 1, and a crossing swaps
    them; read the other way, slot c starts out holding w^-1(c), the pipe
    that exits at column c, and each crossing undoes its swap.  Row r
    takes its boxes from the right, slots k = n - 1 down to r, and undoes
    a swap only where slots[k] > slots[k + 1]: pipes keep their order
    until they cross, so that is the pair's one crossing, and every dream
    built is reduced.

    Slot r is not touched below row r, so row r must leave pipe r there.
    If pipe r sits in slot p, the crossings in slots r .. p - 1 are forced,
    one in slot p is impossible, and each slot p + 1 .. n - 1 is a free
    choice under the inversion rule.  Rows r + 1 .. n - 1 are the staircase
    of S_{n-r} on slots r + 1 .. n, on which every order of the pipes left
    there has a reduced pipe dream, so no branch dies (Bergeron and
    Billey, "RC-graphs and Schubert polynomials", Experiment. Math. 1993).
    Partial dreams that leave the same pipes in the same slots share their
    completions: the frontier keys them by those pipes, with one
    accumulator, first ``start``, and each row is one loop over it.  For
    each key's accumulator ``acc`` and each crossing mask ``row`` of the
    row (see :func:`grid.pack`) that leads to the key ``pipes``,
    ``add(below, pipes, acc, row)`` merges into ``below[pipes]``.  The one
    accumulator left after row n - 1 is returned.
    """
    n = w.n
    # the pipes in slots r .. n before row r -> accumulator of rows 1 .. r - 1
    frontier = {w.inverse().images: start}
    for r in range(1, n):
        first = (r - 1) * n  # the bit of box (r, 1), in slot r
        below: dict[tuple[int, ...], object] = {}
        while frontier:
            pipes, acc = frontier.popitem()
            at = pipes.index(r)  # pipe r sits in slot p = r + at
            head, tail = pipes[:at], pipes[at + 1:]
            # row r in its own bits, box (r, c) at bit c - 1, shifted into place once: the
            # forced crossings in slots r .. p - 1, then the free ones from slot n - 1 down
            # to p + 1, where tail[j] sits in slot p + 1 + j
            rows = [(tail, (1 << at) - 1)]
            for j in range(len(tail) - 2, -1, -1):
                for i in range(len(rows)):
                    t, row = rows[i]
                    if t[j] > t[j + 1]:
                        rows.append((t[:j] + (t[j + 1], t[j]) + t[j + 2:], row | 2 << at + j))
            for t, row in rows:
                add(below, head + t, acc, row << first)
        frontier = below
    [acc] = frontier.values()
    return acc


def _add_masks(below: dict, pipes: tuple, masks: list[int], row: int) -> None:
    below.setdefault(pipes, []).extend([mask | row for mask in masks] if row else masks)


def enumerate_rp(w: Permutation) -> SetFamily:
    """All reduced pipe dreams tracing to w, as a family: the
    fold of :func:`fold_rows` over lists of masks.

    >>> len(enumerate_rp(Permutation((1, 4, 3, 2))))
    5
    """
    return SetFamily(w.n, fold_rows(w, [0], _add_masks))


def trace_lanes(lanes: Lanes) -> tuple[list[int], int]:
    """The slot trace of every mask of ``lanes`` at once: the final slots,
    where lane i of ``slots[k]`` holds the pipe in slot k of mask i
    (``slots[0]`` is unused), and the top bits of the lanes that are not
    reduced pipe dreams of the staircase.

    Reads the crossings column by column from the left, each column from
    the bottom, forward from the identity, swapping slots r + c - 1 and
    r + c at each; this is the pipe dream's word in the triangular reduced
    word of the longest permutation (Knutson and Miller, "Subword
    complexes in Coxeter groups", Adv. Math. 2004).  It shares no order
    or state with the row-by-row :func:`enumerate_rp`, so it serves the
    tests as an independent check of it.
    Pipes keep their order in the slots until they cross, so a crossing
    whose lower slot holds the larger pipe is the pair's second; a lane
    flags it where ``(a | top) - b`` keeps its top bit.  A swap acts on
    the lanes whose mask holds the box.  At the end slot c holds the pipe
    that exits at column c.
    """
    n, packed, ones, top = lanes.n, lanes.packed, lanes.ones, lanes.top
    high = 8 * lanes.size - 1  # the top bit of a lane
    slots = [ones * k for k in range(n + 1)]
    bad = 0
    for c in range(1, n):
        for r in range(n - c, 0, -1):
            bit = (r - 1) * n + c - 1
            # 1 at the foot of each lane whose mask holds box (r, c)
            crossed = packed >> bit & ones
            if crossed:
                k = r + c - 1
                a, b = slots[k], slots[k + 1]
                bad |= ((a | top) - b) & crossed << high
                swap = (a ^ b) & crossed * ((1 << high) - 1)
                slots[k], slots[k + 1] = a ^ swap, b ^ swap
    return slots, bad | lanes.nonzero(packed & ~(ones * staircase_mask(n)))


def reduced_traces(n: int, masks: Iterable[int]) -> Iterator[tuple[int, ...] | None]:
    """For each mask of crossing tiles (see :func:`grid.pack`), the images
    of its trace if it is a reduced pipe dream of the n x n grid, and None
    if it is not reduced or has a tile off the staircase: the lanes of
    :func:`trace_lanes`, decoded."""
    lanes = Lanes(n, masks)
    slots, bad = trace_lanes(lanes)
    for flag, pipes in zip(lanes.split(bad), zip(*map(lanes.split, slots))):
        # pipes[c], the pipe in slot c, exits at column c
        yield None if flag else tuple(sorted(range(1, n + 1), key=pipes.__getitem__))


def enumerate_rp_bruteforce(w: Permutation) -> SetFamily:
    """Independent oracle for :func:`enumerate_rp`: enumerate every subset
    of the staircase with length(w) boxes and keep those whose tile walk
    traces to w.  Each one kept has length(w) crossings, so it is reduced
    by the rule of :func:`is_reduced`.  Only for n <= BRUTE_FORCE_MAX_N."""
    if w.n > BRUTE_FORCE_MAX_N:
        raise ValueError(
            f"brute-force enumeration is capped at n <= {BRUTE_FORCE_MAX_N}"
        )
    masks = (pack(w.n, subset) for subset in combinations(staircase_boxes(w.n), length(w)))
    return SetFamily(w.n, (m for m in masks if _walk(w.n, m) == w.images))


def _pictures(n: int, masks: Iterable[int]) -> Iterator[str]:
    """The picture of :func:`render_ascii` for each mask of crossing tiles
    on the staircase, in order.  Each grid row's line is looked up by the
    row and its bits, in a table built as rows are first seen, so a
    picture costs n lookups."""
    full, lines = (1 << n) - 1, {}

    def line(r: int, row: int) -> str:
        # row r + 1: its crossings, then '.' through column n - r, then spaces
        return "".join("+" if row >> c & 1 else "." if c < n - r else " " for c in range(n))

    for mask in masks:
        picture = []
        for r in range(n):
            key = r, mask & full
            picture.append(lines.get(key) or lines.setdefault(key, line(*key)))
            mask >>= n
        yield "\n".join(picture)


def render_ascii(dream: PipeDream) -> str:
    """Fixed-width picture: '+' for crossings, '.' for elbows weakly above
    the main antidiagonal (row + col <= n + 1), a space below it."""
    return next(_pictures(dream.n, [dream.mask]))
