"""Shared grid vocabulary: 1-based (row, column) boxes of an n x n grid."""

from __future__ import annotations

from typing import Iterable

Box = tuple[int, int]


def staircase_boxes(n: int) -> tuple[Box, ...]:
    """Boxes strictly above the main antidiagonal, i.e. row + col <= n.

    These are the only boxes where a pipe dream on the n x n grid may
    carry a crossing tile.

    >>> staircase_boxes(3)
    ((1, 1), (1, 2), (2, 1))
    """
    return tuple(
        (i, j) for i in range(1, n) for j in range(1, n - i + 1)
    )


def pack(n: int, boxes: Iterable[Box]) -> int:
    """The mask of a box set: box (r, c) is bit (r - 1) * n + (c - 1)."""
    mask = 0
    for (r, c) in boxes:
        mask |= 1 << ((r - 1) * n + (c - 1))
    return mask
