"""
Antidiagonals in grid rectangles, and the minimal antidiagonal family of
a permutation.

An antidiagonal is a box set with no element weakly southeast of another:
listed by increasing row, the columns strictly decrease.  The family of a
permutation w collects, over the upper-left rectangles [p] x [q] cornered
at Fulton's essential set of w, the antidiagonals of size
1 + rank(w, p, q), and keeps the inclusion-minimal ones.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import chain

from .grid import Box, Frozen, boxes
from .permutations import Permutation, prefix_sets
from .transversals import SetFamily


class Antidiagonal(Frozen):
    """Boxes sorted by row; rows strictly increase, columns strictly decrease."""

    def __init__(self, boxes: tuple[Box, ...]):
        for (r1, c1), (r2, c2) in zip(boxes, boxes[1:]):
            if not (r1 < r2 and c1 > c2):
                raise ValueError(f"not an antidiagonal: {boxes!r}")
        self.__dict__["boxes"] = boxes

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)


def _chains(
    n: int, r_min: int, p: int, c_max: int, k: int,
    head: int = 0, limits: tuple[tuple[int, int], ...] = (),
) -> Iterator[int]:
    # masks (grid.pack, n columns) of head plus k boxes with rows ascending
    # in [r_min, p], columns descending in [1, c_max], in lexicographic
    # order, cutting a chain as soon as it holds s boxes of m for some
    # (m, s) in limits
    if k == 0:
        yield head
        return
    for r in range(r_min, p - k + 2):
        for c in range(k, c_max + 1):
            bit = 1 << (r - 1) * n + c - 1
            chain = head | bit
            for m, s in limits:
                if bit & m and (chain & m).bit_count() >= s:
                    break
            else:
                yield from _chains(n, r + 1, p, c - 1, k - 1, chain, limits)


def antidiagonals_in_rectangle(p: int, q: int, size: int) -> Iterator[Antidiagonal]:
    """Every antidiagonal of the given size inside [p] x [q], exactly once,
    in lexicographic order of the (row, col) box sequence.

    >>> [a.boxes for a in antidiagonals_in_rectangle(2, 2, 2)]
    [((1, 2), (2, 1))]
    """
    if p < 1 or q < 1:
        raise ValueError("rectangle dimensions must be positive")
    if size < 0:
        raise ValueError("size must be non-negative")
    for mask in _chains(q, 1, p, q, size):
        yield Antidiagonal(boxes(q, mask))


def essential_set(w: Permutation) -> tuple[Box, ...]:
    """Fulton's essential set of w, in row-major order: the boxes (p, q) of
    the Rothe diagram D(w) = {(i, j) : j < w(i), i < w^-1(j)} such that
    neither (p + 1, q) nor (p, q + 1) is in D(w).

    >>> essential_set(Permutation((2, 1, 4, 3)))
    ((1, 1), (3, 3))
    >>> essential_set(Permutation((1, 4, 3, 2)))
    ((2, 3), (3, 2))
    """
    # diagram row p: the columns left of w(p) whose one-entry lies below p
    n, rows = w.n, [((1 << j - 1) - 1) & ~s for j, s in zip(w.images, prefix_sets(w))]
    # every row's essential boxes at their grid.pack bits, decoded in one call
    mask = sum((row & ~below & ~(row >> 1)) << p * n
               for p, (row, below) in enumerate(zip(rows, rows[1:] + [0])))
    return boxes(n, mask)


def antidiagonal_family(w: Permutation) -> SetFamily:
    """The inclusion-minimal antidiagonals of w.

    Collects, for each (p, q) of the essential set, the minimal
    antidiagonals of 1 + rank(w, p, q) boxes in [p] x [q].  The essential
    minors already define the Schubert determinantal ideal (Fulton,
    "Flags, Schubert polynomials, degeneracy loci, and determinantal
    formulas", Duke Math. J. 1992), and their antidiagonals generate its
    initial ideal (Knutson and Miller, "Groebner geometry of Schubert
    polynomials", Ann. Math. 2005, Thm. B), so the other rectangles add
    only non-minimal antidiagonals.  A diagram box (p, q) has no one-entry
    west of it in row p or north of it in column q, so
    1 + rank(w, p, q) <= min(p, q) and every essential rectangle holds one.

    Every member lies in the staircase r + c <= n.  Listed by row, the
    i-th box (r_i, c_i) of an antidiagonal of s = 1 + rank(w, p, q) boxes
    in [p] x [q] has r_i <= p - s + i and c_i <= q - i + 1, so
    r_i + c_i <= p + q - rank(w, p, q) <= n: of rows 1 .. p, the
    p - rank(w, p, q) that hold their one-entry right of column q hold it
    in distinct columns q + 1 .. n, so there are at most n - q of them.

    Every subset of an antidiagonal is one, so a chain of size s is not
    minimal exactly when some essential rectangle of a size s' < s holds
    s' of its boxes; the chains are cut there as they are built, and no
    minimality filter runs afterwards.
    """
    n = w.n
    prefix = prefix_sets(w)
    rects = []  # (p, q, mask of [p] x [q], its size 1 + rank(w, p, q))
    for p, q in essential_set(w):
        mask = sum(((1 << q) - 1) << r * n for r in range(p))
        rects.append((p, q, mask, 1 + (prefix[p - 1] & (1 << q) - 1).bit_count()))
    return SetFamily(n, chain.from_iterable(
        _chains(n, 1, p, q, size, 0, tuple((m, s) for _, _, m, s in rects if s < size))
        for p, q, _, size in rects))
