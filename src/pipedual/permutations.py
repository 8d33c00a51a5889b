"""
Permutations of {1, ..., n} in one-line notation, their rank matrices,
inversion length, and Bruhat order comparison.

All coordinates are 1-based (row, column) pairs with row 1 at the top,
matching the usual matrix convention.  The permutation matrix of w has a
one-entry in row i and column w(i); ``rank(w, p, q)`` counts one-entries
weakly northwest of (p, q).

>>> w = parse_permutation("2143")
>>> w.images
(2, 1, 4, 3)
>>> length(w)
2
>>> rank(w, 3, 3)
2
>>> bruhat_geq(w, identity(4))
True
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from operator import or_

from .grid import Frozen


class Permutation(Frozen):
    """A permutation w of {1..n}; ``images[i-1] == w(i)``, held as a tuple
    of ints.  An image of another type, ``bool`` and ``float`` included,
    raises ValueError."""

    def __init__(self, images: Iterable[int]):
        images = tuple(images)
        if {*map(type, images)} - {int}:
            raise ValueError(f"images must be of type int: {images!r}")
        n = len(images)
        if n < 1 or sorted(images) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {images!r}")
        self.__dict__["images"] = images

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"position {i} out of range 1..{self.n}")
        return self.images[i - 1]

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def __str__(self) -> str:
        sep = "" if self.n <= 9 else ","
        return sep.join(str(j) for j in self.images)


def identity(n: int) -> Permutation:
    """The identity permutation of S_n."""
    return Permutation(tuple(range(1, n + 1)))


def reversal(n: int) -> Permutation:
    """The order-reversing permutation n, n-1, ..., 1."""
    return Permutation(tuple(range(n, 0, -1)))


def parse_permutation(text: str) -> Permutation:
    """Parse one-line notation: a digit string for n <= 9, or a
    comma-separated list of integers.

    >>> parse_permutation("2143").images
    (2, 1, 4, 3)
    >>> parse_permutation("10,2,3,4,5,6,7,8,9,1").n
    10
    """
    text = text.strip()
    if not text:
        raise ValueError("empty permutation")
    if "," in text:
        tokens = [t.strip() for t in text.split(",")]
    else:
        tokens = list(text)
    if not all(t.isascii() and t.isdigit() for t in tokens):
        raise ValueError(f"non-numeric token in permutation: {text!r}")
    return Permutation(tuple(int(t) for t in tokens))


class RankMatrix(Frozen):
    """Prefix-sum table of a permutation matrix.

    ``entry(p, q)`` is the number of one-entries weakly northwest of
    (p, q), i.e. the rank of the upper-left p x q submatrix.
    """

    def __init__(self, n: int, entries: tuple[tuple[int, ...], ...]):
        self.__dict__.update(n=n, entries=entries)

    def entry(self, p: int, q: int) -> int:
        if not (1 <= p <= self.n and 1 <= q <= self.n):
            raise IndexError(f"({p}, {q}) out of range for n={self.n}")
        return self.entries[p - 1][q - 1]


def prefix_sets(w: Permutation) -> list[int]:
    """The images w(1), ..., w(p) as a bit set, at index p - 1: bit q - 1
    stands for q.  rank(w, p, q) is the number of its bits below bit q.

    >>> [bin(s) for s in prefix_sets(parse_permutation("2143"))]
    ['0b10', '0b11', '0b1011', '0b1111']
    """
    return list(itertools.accumulate((1 << j - 1 for j in w.images), or_))


def rank_matrix(w: Permutation) -> RankMatrix:
    """The full rank table of w, counted off its prefix sets."""
    below = [(1 << q) - 1 for q in range(1, w.n + 1)]
    return RankMatrix(
        w.n,
        tuple(tuple((s & m).bit_count() for m in below) for s in prefix_sets(w)),
    )


def rank(w: Permutation, p: int, q: int) -> int:
    """Count one-entries of the permutation matrix weakly northwest of (p, q).

    >>> rank(parse_permutation("2143"), 1, 1)
    0
    >>> rank(identity(5), 3, 4)
    3
    """
    if not (1 <= p <= w.n and 1 <= q <= w.n):
        raise IndexError(f"({p}, {q}) out of range for n={w.n}")
    return (prefix_sets(w)[p - 1] & (1 << q) - 1).bit_count()


def length(w: Permutation) -> int:
    """Number of inversions: pairs i < i' with w(i) > w(i').

    >>> length(parse_permutation("2143"))
    2
    >>> length(identity(6))
    0
    """
    img = w.images
    return sum(
        1
        for i in range(w.n)
        for k in range(i + 1, w.n)
        if img[i] > img[k]
    )


def bruhat_geq(v: Permutation, w: Permutation) -> bool:
    """True iff v >= w in Bruhat order.

    The comparison is the entrywise rank criterion, on prefix sets: v >= w
    exactly when every upper-left submatrix of v has rank at most that of w.

    >>> bruhat_geq(parse_permutation("321"), parse_permutation("213"))
    True
    """
    if v.n != w.n:
        raise ValueError(f"size mismatch: {v.n} vs {w.n}")
    below = [(1 << q) - 1 for q in range(1, v.n + 1)]  # the column masks
    pairs = zip(prefix_sets(v), prefix_sets(w))
    return all((a & m).bit_count() <= (b & m).bit_count() for a, b in pairs for m in below)


def all_permutations(n: int) -> Iterator[Permutation]:
    """Yield every element of S_n once, in lexicographic one-line order."""
    if n < 1:
        raise ValueError("n must be at least 1")
    for images in itertools.permutations(range(1, n + 1)):
        yield Permutation(images)
