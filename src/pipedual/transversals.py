"""
Families of box sets over the n x n grid: canonical ordering, minimality
filtering, transversality tests, and minimal-transversal enumeration.

A transversal of a family is a box set meeting every member at least
once; the transversal dual collects all inclusion-minimal transversals.
Dualization is a depth-first MMCS search over bit-packed members: it
grows one transversal at a time and keeps it minimal at every step, so
it holds no pool of candidate transversals.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from itertools import pairwise, starmap
from operator import eq, or_
from typing import Callable, Iterable

from .grid import Box, cells, pack


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
        masks = sorted(self.masks)
        dup = any(starmap(eq, pairwise(masks)))  # a set only if there are any
        object.__setattr__(self, "masks", tuple(sorted(set(masks)) if dup else masks))

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
        """The box sets in canonical order, in which every writer of the
        family lists them (see :func:`_ordered_members`)."""
        return tuple(_ordered_members(self, lambda r, c: (r, c), tuple))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, boxes) -> bool:
        boxes = tuple(boxes)
        # pack would alias a box off the grid, like (1, n + 1), onto one on it
        if not all(1 <= r <= self.n and 1 <= c <= self.n for (r, c) in boxes):
            return False
        mask = pack(self.n, boxes)
        i = bisect_left(self.masks, mask)
        return i < len(self.masks) and self.masks[i] == mask


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


def transversal_dual(family: SetFamily) -> SetFamily:
    """All inclusion-minimal transversals, canonically ordered, by
    :func:`_mmcs` deferring no member.  The empty family's dual holds just
    the empty set; a family holding the empty set has no transversals."""
    return SetFamily(family.n, _mmcs(family.masks, 0)[0])


def _mmcs(members: tuple[int, ...], last: int) -> tuple[list[int], list[int]]:
    """Depth-first MMCS (Murakami and Uno, "Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 2014) on an
    explicit stack: the minimal transversals of the members, and each
    non-minimal p | c for p a minimal transversal of the others that misses
    the member ``last`` (0: none) and c a cell of ``last``.  A node holds
    the chosen cells, the cells still allowed, the members not yet met (as a
    list and as a bit set over member indices) and, per chosen cell, its
    critical members: those the chosen cells meet in that cell alone.  A
    node branches on the listed member with the fewest allowed cells; the
    child for its i-th cell may not use its later cells, so every minimal
    transversal is found once.  A child whose cell leaves an earlier cell
    without a critical member is cut, so every node is a minimal transversal
    of the members it meets.  ``last`` is listed only once the others are
    met, so until a cell of it is chosen a node is one a search of the
    others would hold: the p are the nodes left with only ``last`` unmet,
    each once, and p | c is minimal iff c passes the cut (``last`` is
    critical for c).
    """
    # per cell: the members containing it, as a bit set over member indices
    holders: dict[int, int] = {}
    for i, member in enumerate(members):
        while member:
            cell = member & -member
            member ^= cell
            holders[cell] = holders.get(cell, 0) | 1 << i
    deferred = [(cell, held) for cell, held in holders.items() if cell & last]
    found, rejects = [], []
    listed = [m for m in members if m != last or not last]
    stack = [(0, reduce(or_, members, 0), (1 << len(members)) - 1, listed, ())]
    while stack:
        chosen, allowed, unmet, open_members, critical = stack.pop()
        if not open_members:
            if not unmet:
                found.append(chosen)
                continue
            for cell, held in deferred:  # only last is unmet: chosen is a p
                if not all(c & ~held for c in critical):
                    rejects.append(chosen | cell)
            open_members = [last]
        branch, fewest = allowed, allowed.bit_count()
        for member in open_members:
            member &= allowed
            if (k := member.bit_count()) < fewest:
                branch, fewest = member, k
                if k <= 1:
                    break
        allowed &= ~branch
        while branch:
            cell = branch & -branch
            branch ^= cell
            held = holders[cell]
            still = [c & ~held for c in critical]
            if all(still):
                still.append(unmet & held)
                rest = [m for m in open_members if not m & cell]
                child = (chosen | cell, allowed, unmet & ~held, rest, tuple(still))
                stack.append(child)
            allowed |= cell
    return found, rejects


def dual_with_nonminimal(family: SetFamily) -> tuple[SetFamily, SetFamily]:
    """The transversal dual of the family, and the non-minimal transversals
    that incremental Berge multiplication, taking members by size, would
    build in its final round and discard (a diagnostic, in no identity).
    Equal sizes go in mask order, so the last member is the largest mask
    of the largest size.  The final round extends each minimal
    transversal p of the others that misses it by each of its cells c,
    and discards the p | c not minimal for the family (none is minimal
    for the others): the rejects of :func:`_mmcs` deferring that member.
    """
    last = max(family.masks, key=lambda m: (m.bit_count(), m), default=0)
    dual, rejects = _mmcs(family.masks, last)
    return SetFamily(family.n, dual), SetFamily(family.n, rejects)


def _ordered_members(family: SetFamily, cell: Callable, join: Callable) -> list:
    """The members of the family in canonical order (boxes by (row, col),
    members lexicographically), each as ``join`` of the list of its boxes
    written by ``cell(r, c)``.  Members sort by their :func:`grid.cells`
    lists, which compare as their box tuples do; each box of the union of
    the masks is written once, so costs follow the boxes, not the n^2 cells.
    """
    n = family.n
    union = reduce(or_, family.masks, 0)
    names = {i: cell(i // n + 1, i % n + 1) for i in cells(union)}
    return [join([names[i] for i in m]) for m in sorted(map(cells, family.masks))]


def family_to_json_obj(family: SetFamily) -> dict:
    """The family as the JSON object that :func:`family_to_json` writes."""
    return {"n": family.n, "members": [list(map(list, m)) for m in family.members]}


def family_to_json(family: SetFamily) -> str:
    """Canonical compact JSON, ``{"n":n,"members":[[[r,c],...],...]}``,
    written straight from the masks."""
    members = _ordered_members(
        family, "[{},{}]".format, lambda boxes: f"[{','.join(boxes)}]"
    )
    return f'{{"n":{family.n},"members":[{",".join(members)}]}}'


def family_to_text(family: SetFamily) -> str:
    """One member per line, ``{(r,c), ...}``, in canonical order."""
    return "\n".join(
        _ordered_members(family, "({},{})".format, lambda b: "{" + ", ".join(b) + "}")
    )


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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise FamilyFormatError("repeated key in a JSON object")
    return obj


def family_from_json(text: str) -> SetFamily:
    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FamilyFormatError("invalid JSON: nested too deeply") from None
    return family_from_json_obj(obj)
