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

from bisect import bisect_left
from collections.abc import Callable, Iterable
from functools import reduce
from itertools import compress, pairwise, repeat, starmap
from operator import eq, itemgetter, or_

from .grid import Box, Frozen, cells, pack

_PICK = bytes.maketrans(b"01", b"\1\0")  # a key's set bits as compress selectors
_LANE_TABLE_BYTES = 1 << 22  # bound on the lane copies one MMCS search keeps


class FamilyFormatError(ValueError):
    """Raised when serialized family data does not match the schema."""


class SetFamily(Frozen):
    """A finite family of box sets, held as sorted, distinct masks (see
    :func:`grid.pack`); the constructor canonicalizes.  Box sets enter
    through :func:`SetFamily.from_sets` or :func:`family_from_json_obj`,
    which validate them, and leave through ``members`` and the writers:
    boxes sorted by (row, col), members sorted lexicographically.
    """

    def __init__(self, n: int, masks: Iterable[int]):
        masks = sorted(masks)
        if any(starmap(eq, pairwise(masks))):  # a set only if there are any
            masks = sorted(set(masks))
        d = self.__dict__
        d["n"], d["masks"] = n, tuple(masks)

    def __repr__(self) -> str:
        # in hex: a decimal int past 4,300 digits raises ValueError
        masks = ", ".join(map(hex, self.masks)) + ("," if len(self.masks) == 1 else "")
        return f"SetFamily(n={self.n}, masks=({masks}))"

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
    return SetFamily(family.n, _mmcs(family.masks, False)[0])


def _mmcs(members: tuple[int, ...], defer: bool) -> tuple[list[int], list[int]]:
    """Depth-first MMCS (Murakami and Uno, "Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 2014) on an
    explicit stack: the minimal transversals of the members, and each
    non-minimal p | c for p a minimal transversal of the others that misses
    the member ``last`` and c a cell of ``last``.  The members are taken in
    one order, by size and then as given; ``last`` is the last member of
    that order if ``defer``, else none.  A node holds the chosen cells, the
    cells still allowed, the members not yet met (a bit set over that
    order) and, per chosen cell, its critical members: those the chosen
    cells meet in that cell alone.  A node branches on its first unmet
    member; the child for its i-th allowed cell may not use its later
    cells, so every minimal transversal is found once.  A child whose cell
    leaves an earlier cell without a critical member is cut, so every node
    is a minimal transversal of the members it meets; one meeting all is a
    result, never pushed.  Until every other member is met, a node missing
    ``last`` is one a search of the others would hold: the p are the nodes
    whose unmet set is ``last``'s bit alone, each once, and p | c is
    minimal iff c passes the cut (``last`` is critical for c).

    Critical sets share one int, as in :class:`grid.Lanes`: per chosen cell
    (at most min(#cells, #members), each with a critical member of its own)
    a lane of ``len(members) // 8 + 1`` bytes with a spare top bit.  The
    cut ANDs the lanes with the cell's non-holders and takes them from the
    top bits, which survive on exactly the emptied lanes; repeats over the
    lanes are tabulated up to ``_LANE_TABLE_BYTES``, then built per use.
    """
    order = sorted(members, key=int.bit_count)
    # per cell: the members containing it, as a bit set over the order
    holders: dict[int, int] = {}
    for i, member in enumerate(order):
        while member:
            cell = member & -member
            member ^= cell
            holders[cell] = holders.get(cell, 0) | 1 << i
    size, everyone = len(order) // 8 + 1, (1 << len(order)) - 1
    last = order[-1] if defer and order else 0
    lastbit = 1 << (len(order) - 1) if last else 0
    # one lane's bytes: each cell's non-holders, and the top bit
    lane = {c: (everyone ^ h).to_bytes(size, "little") for c, h in holders.items()}
    top_lane = bytes(size - 1) + b"\x80"

    def repeated(pattern: bytes, lanes: int) -> int:  # by bytes: a product is quadratic
        return int.from_bytes(pattern * lanes, "little")
    cap = min(len(holders), len(order), _LANE_TABLE_BYTES // (size * len(holders) or 1))
    keep = {c: repeated(b, cap) for c, b in lane.items()}
    tops = [repeated(top_lane, d) for d in range(cap + 1)]
    deferred = [cell for cell in holders if cell & last]
    found, rejects = [], []
    stack = [(0, reduce(or_, order, 0), everyone, 0)]
    while stack:
        chosen, allowed, unmet, critical = stack.pop()
        d = chosen.bit_count()
        top = tops[d] if d <= cap else repeated(top_lane, d)
        if unmet == lastbit:  # only last is unmet: chosen is a p
            if not unmet:  # only the root of a search without members
                found.append(chosen)
                continue
            for cell in deferred:
                cut = keep[cell] if d <= cap else repeated(lane[cell], d)
                if (top - (critical & cut)) & top:
                    rejects.append(chosen | cell)
        branch = order[(unmet & -unmet).bit_length() - 1] & allowed
        allowed &= ~branch
        while branch:
            cell = branch & -branch
            branch ^= cell
            still = critical & (keep[cell] if d <= cap else repeated(lane[cell], d))
            if not (top - still) & top:
                if not unmet & ~(held := holders[cell]):
                    found.append(chosen | cell)
                else:
                    still |= (unmet & held) << 8 * size * d
                    stack.append((chosen | cell, allowed, unmet & ~held, still))
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
    dual, rejects = _mmcs(family.masks, True)
    return SetFamily(family.n, dual), SetFamily(family.n, rejects)


def _ordered_members(family: SetFamily, cell: Callable, join: Callable) -> list:
    """The members of the family in canonical order (boxes by (row, col),
    members lexicographically), each as ``join`` of an iterator over its
    boxes written by ``cell(r, c)``.  A key has one character per cell of
    the union of the masks, ascending: "0" if the member has it, else "1",
    trailing "1"s stripped.  Where keys first differ, the member with "0"
    has the smaller next cell, and a prefix key's cells start the other's,
    so keys compare as :func:`grid.cells` lists do, at the union's length.
    """
    n, union = family.n, reduce(or_, family.masks, 0)
    at, width = cells(union), union.bit_length()
    names = [cell(i // n + 1, i % n + 1) for i in at]
    # bin(x | 1 << width) has bit i at width + 2 - i, and a last "1" at 2
    picks = itemgetter(*[width + 2 - i for i in at], 2)
    missed = map(bin, map((union | 1 << width).__xor__, family.masks))
    keys = sorted(map(str.rstrip, map("".join, map(picks, missed)), repeat("1")))
    return [join(compress(names, key.encode().translate(_PICK))) for key in keys]


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
    # a mask takes n^2 bits: n <= 4096 keeps one at or under 2 MiB
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= 4096:
        raise FamilyFormatError('"n" must be an integer from 1 to 4096')
    members = obj["members"]
    if not isinstance(members, list):
        raise FamilyFormatError('"members" must be an array')
    masks: list[int] = []
    for member in members:
        if not isinstance(member, list):
            raise FamilyFormatError("each member must be an array of boxes")
        for box in member:
            if (
                not isinstance(box, list)
                or len(box) != 2
                or not all(isinstance(x, int) and not isinstance(x, bool) for x in box)
            ):
                raise FamilyFormatError(f"malformed box: {box!r}")
            if not (1 <= box[0] <= n and 1 <= box[1] <= n):
                raise FamilyFormatError(f"box {box!r} outside the {n} x {n} grid")
        masks.append(pack(n, member))
    return SetFamily(n, masks)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise FamilyFormatError("repeated key in a JSON object")
    return obj


def family_from_json(text: str) -> SetFamily:
    import json  # here, not at the top: only ``dual FILE`` reads JSON

    try:
        obj = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise FamilyFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise FamilyFormatError("invalid JSON: nested too deeply") from None
    return family_from_json_obj(obj)
