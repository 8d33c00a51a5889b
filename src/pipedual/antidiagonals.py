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

from dataclasses import dataclass
from typing import Iterator

from .grid import Box, pack
from .permutations import Permutation, prefix_sets
from .transversals import SetFamily, minimalize


@dataclass(frozen=True)
class Antidiagonal:
    """Boxes sorted by row; rows strictly increase, columns strictly decrease."""

    boxes: tuple[Box, ...]

    def __post_init__(self):
        for (r1, c1), (r2, c2) in zip(self.boxes, self.boxes[1:]):
            if not (r1 < r2 and c1 > c2):
                raise ValueError(f"not an antidiagonal: {self.boxes!r}")

    def __len__(self) -> int:
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)


def _chains(r_min: int, p: int, c_max: int, k: int) -> Iterator[tuple[Box, ...]]:
    # k boxes with rows ascending in [r_min, p], columns descending in [1, c_max]
    if k == 0:
        yield ()
        return
    for r in range(r_min, p - k + 2):
        for c in range(k, c_max + 1):
            for rest in _chains(r + 1, p, c - 1, k - 1):
                yield ((r, c), *rest)


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
    for boxes in _chains(1, p, q, size):
        yield Antidiagonal(boxes)


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
    rows = [((1 << j - 1) - 1) & ~s for j, s in zip(w.images, prefix_sets(w))]
    return tuple(
        (p, q)
        for p, (row, below) in enumerate(zip(rows, rows[1:] + [0]), 1)
        for q in range(1, w.n + 1)
        if (row & ~below & ~(row >> 1)) >> q - 1 & 1
    )


def antidiagonal_family(w: Permutation) -> SetFamily:
    """The inclusion-minimal antidiagonals of w, canonically ordered.

    Collects the antidiagonals of 1 + rank(w, p, q) boxes in [p] x [q] for
    each (p, q) of the essential set, then keeps the minimal ones.  The
    essential minors already define the Schubert determinantal ideal
    (Fulton, "Flags, Schubert polynomials, degeneracy loci, and
    determinantal formulas", Duke Math. J. 1992), and their antidiagonals
    generate its initial ideal (Knutson and Miller, "Groebner geometry of
    Schubert polynomials", Ann. Math. 2005, Thm. B), so the other
    rectangles add only non-minimal antidiagonals.  A diagram box (p, q)
    has no one-entry west of it in row p or north of it in column q, so
    1 + rank(w, p, q) <= min(p, q) and every essential rectangle holds one.
    """
    n = w.n
    prefix = prefix_sets(w)
    union: set[int] = set()
    for p, q in essential_set(w):
        size = 1 + (prefix[p - 1] & (1 << q) - 1).bit_count()
        union.update(pack(n, chain) for chain in _chains(1, p, q, size))
    return minimalize(SetFamily(n, union))
