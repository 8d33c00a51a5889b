"""
Families of box sets over the n x n grid: canonical ordering, minimality
filtering, transversality tests, and minimal-transversal enumeration.

A transversal of a family is a box set meeting every member at least
once; the transversal dual collects all inclusion-minimal transversals.
Dualization runs incremental Berge multiplication over bit-packed
members, filtering each round with the witness criterion: T is a minimal
transversal iff every t in T is the sole intersection of T with some
member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable

from .grid import Box, pack, unpack


class FamilyFormatError(ValueError):
    """Raised when serialized family data does not match the schema."""


@dataclass(frozen=True)
class SetFamily:
    """A finite family of box sets, held as sorted, distinct masks (see
    :func:`grid.pack`); the constructor canonicalizes.  Box sets enter
    through :func:`SetFamily.from_sets`, which validates them, and leave
    through ``members``: boxes sorted by (row, col), members sorted
    lexicographically.
    """

    n: int
    masks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "masks", tuple(sorted(set(self.masks))))

    @staticmethod
    def from_sets(n: int, sets: Iterable[Iterable[Box]]) -> SetFamily:
        sets = [tuple(s) for s in sets]
        for (r, c) in (box for s in sets for box in s):
            if not (1 <= r <= n and 1 <= c <= n):
                raise ValueError(f"box ({r}, {c}) outside the {n} x {n} grid")
        return SetFamily(n, (pack(n, s) for s in sets))

    @staticmethod
    def empty(n: int) -> SetFamily:
        return SetFamily(n, ())

    @property
    def members(self) -> tuple[tuple[Box, ...], ...]:
        return tuple(sorted(unpack(self.n, self.masks)))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, boxes) -> bool:
        return tuple(sorted(set(boxes))) in set(self.members)


def is_transversal(boxes: Iterable[Box], family: SetFamily) -> bool:
    """True iff the box set meets every member of the family.

    Vacuously true for the empty family.
    """
    t = set(boxes)
    return all(t.intersection(member) for member in family.members)


def is_minimal_transversal(boxes: Iterable[Box], family: SetFamily) -> bool:
    """True iff the box set is a transversal and every element has a
    witness member intersecting the set in that element alone."""
    t = set(boxes)
    members = [set(m) for m in family.members]
    if not all(t & m for m in members):
        return False
    return all(any(t & m == {x} for m in members) for x in t)


def minimalize(family: SetFamily) -> SetFamily:
    """Members of the family that do not strictly contain another member."""
    kept: list[int] = []
    for mask in sorted(family.masks, key=int.bit_count):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return SetFamily(family.n, kept)


def dual_with_nonminimal(family: SetFamily) -> tuple[SetFamily, SetFamily]:
    """The transversal dual of the family, and the non-minimal transversals
    of the full family that the final multiplication round produced and
    discarded.  The second family is diagnostic; it is not part of any
    identity."""
    members = sorted(family.masks, key=int.bit_count)
    pool: set[int] = {0}
    # witness lookup: for each grid cell, the processed members containing it
    by_cell: dict[int, list[int]] = {}
    rejected_last: set[int] = set()

    def is_minimal(t: int) -> bool:
        rest = t
        while rest:
            low = rest & -rest
            rest ^= low
            if not any(s & t == low for s in by_cell.get(low.bit_length() - 1, ())):
                return False
        return True

    for round_no, member in enumerate(members):
        hits = {p for p in pool if p & member}
        extended: set[int] = set()
        for p in pool - hits:
            cells = member
            while cells:
                low = cells & -cells
                cells ^= low
                extended.add(p | low)
        extended -= hits
        b = member
        while b:
            low = b & -b
            b ^= low
            by_cell.setdefault(low.bit_length() - 1, []).append(member)
        # unchanged transversals keep their old witnesses and stay minimal
        kept = {t for t in extended if is_minimal(t)}
        if round_no == len(members) - 1:
            rejected_last = extended - kept
        pool = hits | kept
    return SetFamily(family.n, pool), SetFamily(family.n, rejected_last)


def transversal_dual(family: SetFamily) -> SetFamily:
    """The family of all inclusion-minimal transversals, canonically ordered.

    The dual of the empty family is the family containing only the empty
    set; a family containing the empty set has no transversals at all.
    """
    return dual_with_nonminimal(family)[0]


def family_to_json_obj(family: SetFamily) -> dict:
    return {
        "n": family.n,
        "members": [[[r, c] for (r, c) in member] for member in family.members],
    }


def family_to_json(family: SetFamily) -> str:
    return json.dumps(family_to_json_obj(family), separators=(",", ":"))


def family_from_json_obj(obj) -> SetFamily:
    if not isinstance(obj, dict):
        raise FamilyFormatError("family must be a JSON object")
    if set(obj) != {"n", "members"}:
        raise FamilyFormatError('family object needs exactly the keys "n" and "members"')
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise FamilyFormatError('"n" must be a positive integer')
    members = obj["members"]
    if not isinstance(members, list):
        raise FamilyFormatError('"members" must be an array')
    sets: list[list[Box]] = []
    for member in members:
        if not isinstance(member, list):
            raise FamilyFormatError("each member must be an array of boxes")
        boxes: list[Box] = []
        for box in member:
            if (
                not isinstance(box, list)
                or len(box) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in box)
            ):
                raise FamilyFormatError(f"malformed box: {box!r}")
            if not (1 <= box[0] <= n and 1 <= box[1] <= n):
                raise FamilyFormatError(f"box {box!r} outside the {n} x {n} grid")
            boxes.append((box[0], box[1]))
        sets.append(boxes)
    return SetFamily.from_sets(n, sets)


def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from None
    return family_from_json_obj(obj)
