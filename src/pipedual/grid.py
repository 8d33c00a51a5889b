"""Shared grid vocabulary: 1-based (row, column) boxes of an n x n grid,
their bit-packed masks, and masks packed side by side into lanes; and the
base classes of the package's value types."""

from __future__ import annotations

from collections.abc import Iterable

Box = tuple[int, int]


class Record:
    """A value compared and printed by its fields: the attributes that the
    subclass's ``__init__`` sets, in that order.  Two records are equal when
    they are of one class with equal fields.  Records are mutable and so
    unhashable.  Pickling saves and restores the fields without calling
    ``__init__``, so nothing is validated or sorted twice.
    """

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A read-only record, hashable by its fields.  ``__init__`` writes the
    fields into ``__dict__``; assigning or deleting an attribute afterwards
    raises ``AttributeError``.
    """

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a {self.__class__.__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a {self.__class__.__name__}")


def staircase_boxes(n: int) -> tuple[Box, ...]:
    """Boxes strictly above the main antidiagonal, i.e. row + col <= n.

    These are the only boxes where a pipe dream on the n x n grid may
    carry a crossing tile.

    >>> staircase_boxes(3)
    ((1, 1), (1, 2), (2, 1))
    """
    return boxes(n, staircase_mask(n))


def staircase_mask(n: int) -> int:
    """The mask of :func:`staircase_boxes`: row r holds columns 1 .. n - r.
    One binary numeral, row n first, each row from its top bit: r zeros, n - r ones."""
    return int("".join("0" * r + "1" * (n - r) for r in range(n, 0, -1)) or "0", 2)


def pack(n: int, boxes: Iterable[Box]) -> int:
    """The mask of a box set: box (r, c) is bit (r - 1) * n + (c - 1), set
    in one buffer up to the highest box.  A box off the grid, which would
    alias one on it, raises ValueError."""
    at = []
    for r, c in boxes:
        if not (1 <= r <= n and 1 <= c <= n):
            raise ValueError(f"box ({r}, {c}) outside the {n} x {n} grid")
        at.append((r - 1) * n + c - 1)
    data = bytearray(max(at, default=-1) // 8 + 1)
    for i in at:
        data[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(data, "little")


def boxes(n: int, mask: int) -> tuple[Box, ...]:
    """The boxes of a mask, sorted by (row, col): the inverse of :func:`pack`.

    >>> boxes(3, pack(3, [(2, 1), (1, 3)]))
    ((1, 3), (2, 1))
    """
    return tuple((i // n + 1, i % n + 1) for i in cells(mask))


# BYTE_BITS[v]: the set bits of byte v, ascending; _REVERSED[v]: v with its
# bits reversed; _SMEAR[v]: v's top bit and every bit below it; _NONZERO[v]:
# 0xFF if v else 0.  Byte v + 2^b, for v < 2^b, is byte v plus bit b.
BYTE_BITS, _REVERSED, _SMEAR, _NONZERO = [()], b"\0", b"\0", b"\0"
for _b in range(8):
    BYTE_BITS += [bits + (_b,) for bits in BYTE_BITS]
    _REVERSED += bytes(v | 0x80 >> _b for v in _REVERSED)
    _SMEAR += bytes([(2 << _b) - 1]) * len(_SMEAR)
    _NONZERO += b"\xff" * len(_NONZERO)
del _b


def cells(mask: int) -> list[int]:
    """The ascending bit indices of a mask, (r - 1) * n + c - 1 for each box
    (r, c) of :func:`pack`; they compare as sorted box tuples, a prefix first.
    Linear in the mask's bytes plus its cells: ``find`` skips zero bytes.

    >>> cells(0)
    []
    >>> cells(1 << 80 | 1 << 64 | 1)
    [0, 64, 80]
    >>> BYTE_BITS[0], BYTE_BITS[0b10100110], BYTE_BITS[255]
    ((), (1, 2, 5, 7), (0, 1, 2, 3, 4, 5, 6, 7))
    >>> all(BYTE_BITS[v] == tuple(b for b in range(8) if v >> b & 1) for v in range(256))
    True
    """
    data = mask.to_bytes(mask.bit_length() // 8 + 1, "little")
    nonzero = data.translate(_NONZERO)  # 0xFF where data has a cell
    out, j = [], nonzero.find(255)
    while j >= 0:
        for b in BYTE_BITS[data[j]]:
            out.append(8 * j + b)
        j = nonzero.find(255, j + 1)
    return out


class Lanes:
    """Masks of the n x n grid side by side in one int: mask i fills lane
    i, which is 8 * (n * n // 8 + 1) bits wide, so its top bit lies above
    every cell.  One big-int operation then acts on every mask at once;
    subtracting ``ones`` (1 in every lane) from lanes with their top bits
    set borrows only within a lane, and a top bit survives exactly where
    its lane was nonzero.
    """

    def __init__(self, n: int, masks: Iterable[int]):
        self.n, self.size = n, n * n // 8 + 1
        # one growing buffer: a join would hold every mask's bytes at once
        data = bytearray()
        for mask in masks:
            data += mask.to_bytes(self.size, "little")
        self.count = len(data) // self.size
        self.packed = int.from_bytes(data, "little")
        self.ones = int.from_bytes(b"\1".ljust(self.size, b"\0") * self.count, "little")
        self.top = self.ones << 8 * self.size - 1

    def nonzero(self, x: int) -> int:
        """The top bits of the lanes where x (top bits clear) is nonzero."""
        return ((x | self.top) - self.ones) & self.top

    def split(self, x: int) -> list[int]:
        """The lanes of x in mask order, read off one ``to_bytes``."""
        s = self.size
        data = x.to_bytes(s * self.count, "little")
        return [int.from_bytes(data[i:i + s], "little") for i in range(0, len(data), s)]

    def select(self, x: int) -> list[int]:
        """The masks whose lanes of x are nonzero; a lane is its mask."""
        return [m for m, lane in zip(self.split(self.packed), self.split(x)) if lane] if x else []
