"""
Families of box sets over the n x n grid: their canonical writers,
minimality filtering, transversality tests, and minimal-transversal
enumeration.

A transversal of a family is a box set meeting every member at least
once; the transversal dual collects all inclusion-minimal transversals.
Dualization is a depth-first MMCS search over bit-packed members: it
grows one transversal at a time and keeps it minimal at every step, so
it holds no pool of candidate transversals.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from functools import reduce
from itertools import repeat, starmap
from operator import or_

from .grid import BYTE_BITS, Box, Frozen, _NONZERO, _REVERSED, _SMEAR, boxes, cells, pack

_PLANE_BYTES = 1 << 20  # bound on the mask bytes written at once for the byte plane
_LANE_TABLE_BYTES = 1 << 22  # bound on the lane copies one MMCS search keeps
_JSON_MASK_BYTES = 1 << 26  # bound on the mask bytes of a family read from JSON


class FamilyFormatError(ValueError):
    """Raised when serialized family data does not match the schema."""


class SetFamily(Frozen):
    """A finite family of box sets, held as a frozenset of masks (see
    :func:`grid.pack`), so membership, equality and hashing are those of
    the set.  Box sets enter through :func:`SetFamily.from_sets` or
    :func:`family_from_json_obj`, which validate them, and leave through
    ``members`` and the writers, which put them in canonical order:
    boxes sorted by (row, col), members sorted lexicographically.
    """

    def __init__(self, n: int, masks: Iterable[int]):
        d = self.__dict__
        d["n"], d["masks"] = n, frozenset(masks)

    def __repr__(self) -> str:
        # in hex: a decimal int past 4,300 digits raises ValueError
        masks = ", ".join(map(hex, sorted(self.masks))) + ("," if len(self.masks) == 1 else "")
        return f"SetFamily(n={self.n}, masks=({masks}))"

    @staticmethod
    def from_sets(n: int, sets: Iterable[Iterable[Box]]) -> SetFamily:
        return SetFamily(n, (pack(n, s) for s in sets))

    @staticmethod
    def empty(n: int) -> SetFamily:
        return SetFamily(n, ())

    @property
    def members(self) -> tuple[tuple[Box, ...], ...]:
        """The box sets in canonical order, in which every writer of the
        family lists them: box tuples compare as their cell indices do."""
        return tuple(sorted(boxes(self.n, m) for m in self.masks))

    def __len__(self) -> int:
        return len(self.masks)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, boxes) -> bool:
        try:
            return pack(self.n, boxes) in self.masks
        except ValueError:  # a box off the grid is in no member
            return False


def is_transversal(boxes: Iterable[Box], family: SetFamily) -> bool:
    """True iff the box set meets every member of the family: its mask
    (:func:`grid.pack`, so a box off the grid raises ValueError) ANDs
    nonzero with each.  Vacuously true for the empty family.
    """
    probe = pack(family.n, boxes)
    return all(probe & m for m in family.masks)


def is_minimal_transversal(boxes: Iterable[Box], family: SetFamily) -> bool:
    """True iff the box set is a transversal and every element has a
    witness member intersecting the set in that element alone: the
    members' one-cell hits OR to the whole set."""
    probe = pack(family.n, boxes)
    hits = [probe & m for m in family.masks]
    return all(hits) and reduce(or_, (h for h in hits if not h & h - 1), 0) == probe


def minimalize(family: SetFamily) -> SetFamily:
    """Members of the family that do not strictly contain another member."""
    kept: list[int] = []
    for mask in sorted(family.masks, key=int.bit_count):
        if not any(k & mask == k for k in kept):
            kept.append(mask)
    return SetFamily(family.n, kept)


def transversal_dual(family: SetFamily) -> SetFamily:
    """All inclusion-minimal transversals, by :func:`_mmcs`.  The empty
    family's dual holds just the empty set; a family holding the empty set
    has no transversals."""
    return SetFamily(family.n, _mmcs(family.masks)[0])


def _mmcs(members: Iterable[int]) -> tuple[list[int], list[int]]:
    """Depth-first MMCS (Murakami and Uno, "Efficient algorithms for
    dualizing large-scale hypergraphs", Discrete Appl. Math. 2014) on an
    explicit stack: the minimal transversals of the members, and each
    non-minimal p | c for p a minimal transversal of the others that misses
    the member ``last`` and c a cell of ``last``.  The members are taken in
    one order, by size and then by mask, a tie rule of this search's own;
    ``last``, the last member of that order, is the largest mask of the
    largest size.  A node holds the chosen cells, the cells still allowed,
    the members not yet met (a bit set over that order) and, per chosen
    cell, its critical members: those the chosen cells meet in that cell
    alone.  A node branches on its first unmet member; the child for its
    i-th allowed cell may not use its later cells, so every minimal
    transversal is found once.  A child whose cell leaves an earlier cell
    without a critical member is cut, so every node is a minimal
    transversal of the members it meets; one meeting all is a result,
    never pushed.  Until every other member is met, a node missing
    ``last`` is one a search of the others would hold: the p are the nodes
    whose unmet set is ``last``'s bit alone, each once.  They never branch:
    p | c is minimal iff c passes the cut (``last`` is critical for c), a
    result if c is allowed (else another node finds it), else a reject.

    Critical sets share one int, as in :class:`grid.Lanes`: per chosen cell
    that needs one (at most min(#cells, #members), each with a critical
    member of its own) a lane of ``len(members) // 8 + 1`` bytes with a
    spare top bit; a node carries its lane count and its lanes' top bits.
    The cut ANDs the lanes with the cell's non-holders, repeated per lane
    (tabulated up to ``_LANE_TABLE_BYTES``, then built per use), and takes
    them from the top bits, which survive on exactly the emptied lanes.
    Both per-cell tables are keyed by bit index.  The child for the first
    allowed cell of the branch member needs no lane: the member's other
    cells are barred in its subtree, so the member stays critical there
    and the lane never empties.  The exception is a member with another
    cell in ``last``, which a p-node may add barred or not.
    """
    order = sorted(sorted(members), key=int.bit_count)
    # per cell index: the members containing it, as a bit set over the order
    holders: dict[int, int] = {}
    for i, member in enumerate(order):
        for c in cells(member):
            holders[c] = holders.get(c, 0) | 1 << i
    size, everyone = len(order) // 8 + 1, (1 << len(order)) - 1
    lastbit = 1 << len(order) >> 1  # last's bit, 0 if there are no members

    def cut(c: int, lanes: int) -> int:  # c's non-holders per lane; by bytes, not a product
        return int.from_bytes((everyone ^ holders[c]).to_bytes(size, "little") * lanes, "little")
    cap = min(len(holders), len(order), _LANE_TABLE_BYTES // (size * len(holders) or 1))
    keep = {c: cut(c, cap) for c in holders}
    last_cells = [c for c, held in holders.items() if held & lastbit]
    found, rejects = [] if order else [0], []  # no members: just the empty set
    stack = [(0, reduce(or_, order, 0), everyone, 0, 0, 0)]
    while stack:
        chosen, allowed, unmet, critical, top, d = stack.pop()
        if unmet == lastbit:  # only last is unmet: chosen is a p
            for c in last_cells:
                if (top - (critical & (keep[c] if d <= cap else cut(c, d)))) & top:
                    rejects.append(chosen | 1 << c)
                elif allowed >> c & 1:
                    found.append(chosen | 1 << c)
            continue
        member = order[(unmet & -unmet).bit_length() - 1]
        branch = member & allowed
        allowed &= ~branch
        # the first cell needs no lane unless a p-node can add another of member's cells
        bare = branch and not (member ^ branch & -branch) & order[-1]
        child_top = top | 1 << 8 * size * (d + 1) - 1  # with lane d's top bit
        while branch:
            cell = branch & -branch
            branch ^= cell
            c = cell.bit_length() - 1
            still = critical & (keep[c] if d <= cap else cut(c, d))
            if not (top - still) & top:
                if not unmet & ~(held := holders[c]):
                    found.append(chosen | cell)
                elif bare:
                    stack.append((chosen | cell, allowed, unmet & ~held, still, top, d))
                else:
                    still |= (unmet & held) << 8 * size * d
                    stack.append((chosen | cell, allowed, unmet & ~held, still, child_top, d + 1))
            allowed |= cell
            bare = False
    return found, rejects


def dual_with_nonminimal(family: SetFamily) -> tuple[SetFamily, SetFamily]:
    """The transversal dual of the family, and the non-minimal transversals
    that incremental Berge multiplication, taking members by size, would
    build in its final round and discard (a diagnostic, in no identity).
    Equal sizes go in mask order, the tie rule of :func:`_mmcs`, so the
    last member is the largest mask of the largest size.  The final round
    extends each minimal transversal p of the others that misses it by
    each of its cells c, and discards the p | c not minimal for the family
    (none is minimal for the others): the rejects of :func:`_mmcs`.
    """
    dual, rejects = _mmcs(family.masks)
    return SetFamily(family.n, dual), SetFamily(family.n, rejects)


def _rows(masks: Sequence[int], at: list[int]) -> tuple[bytes, ...]:
    """The byte plane of the masks: one row per mask, in their order, of
    its key and then its own bytes at the byte positions ``at``, those
    that some mask touches, ascending, so distinct masks have distinct rows.
    The key of a mask m is ``m ^ ((1 << m.bit_length()) - 1)``, the
    complement of m below its own top cell, with each byte's bits reversed
    (``grid._REVERSED``); :func:`_sorted_rows` says why the rows sort as
    the members' cell lists do.

    Masks are written in chunks of at most ``_PLANE_BYTES`` bytes, one
    ``to_bytes`` each, and sliced once per touched position, so a sparse
    union costs its touched bytes, not the grid's.  Keys are built a
    position at a time from the last: the complement of the mask byte
    where the member has a cell at a later position, else the complement
    below the byte's top bit.  No Python code runs per member.

    >>> all(_REVERSED[v] == int(f"{v:08b}"[::-1], 2) for v in range(256))
    True
    >>> all(_SMEAR[v] + 1 == 1 << v.bit_length() and _NONZERO[v] == (v and 255) for v in range(256))
    True
    >>> _rows((0b10, 0b11, 0b1), [0])  # {1}, {0, 1}, {0}: the last two tie
    (b'\\x80\\x02', b'\\x00\\x03', b'\\x00\\x01')
    """
    import struct  # here, not at the top: only the family writers read it

    span = at[-1] + 1 if at else 1
    cols = [bytearray() for _ in at]
    step = max(1, _PLANE_BYTES // span)
    for i in range(0, len(masks), step):
        blob = b"".join(map(int.to_bytes, masks[i:i + step], repeat(span), repeat("little")))
        for col, j in zip(cols, at):
            col += blob[j::span]
    count, width = len(masks), len(at)
    rows, later = bytearray(2 * width * count), 0  # later: 0xFF where a later position is nonzero
    for k in reversed(range(width)):
        col = cols[k]
        ones = later | int.from_bytes(col.translate(_SMEAR), "little")
        key = (int.from_bytes(col, "little") ^ ones).to_bytes(count, "little")
        rows[k::2 * width] = key.translate(_REVERSED)
        rows[width + k::2 * width] = col
        later |= int.from_bytes(col.translate(_NONZERO), "little")
    return struct.Struct(f"{2 * width}s" * count).unpack(rows)


def _sorted_rows(masks: Sequence[int], at: list[int]) -> list[bytes]:
    """The rows of :func:`_rows`, sorted: the byte plane of the masks in
    canonical order.

    Keys compare from the lowest cell, so rows sort as the members' cell
    lists do.  Let a' be a with every cell above a's top; the key of a is
    the complement of a'.  If a' != b', the member whose primed set holds
    the lowest cell x where they differ comes first, say a: a' and b'
    agree below x, and b lacks x but has a cell above it, its top.  So
    either x is in a, where b's list goes on with a larger cell, or x is
    above a's top and a is a prefix of b.  Only b's key holds x, so a's is
    the smaller.  If a' = b', one member is the other plus a run of cells
    just above its top, so it is the longer one: the keys tie, and its
    bytes, a superset, are the larger.  Dropping the positions that no
    member touches (0 in every mask, 0 or 0xFF in every key) renumbers the
    cells in order, which keeps both orders.

    >>> _sorted_rows((0b10, 0b11, 0b1), [0])  # {1}, {0, 1}, {0}: the last two tie
    [b'\\x00\\x01', b'\\x00\\x03', b'\\x80\\x02']
    """
    return sorted(_rows(masks, at))


def _ordered(masks: Sequence[int]) -> list[int]:
    """The masks in canonical order, argsorted by their :func:`_rows`
    (see :func:`_sorted_rows`)."""
    rows = _rows(masks, sorted({c // 8 for c in cells(reduce(or_, masks, 0))}))
    return [masks[i] for i in sorted(range(len(masks)), key=rows.__getitem__)]


def _write(family: SetFamily, box: str, sep: str, brackets: str, after: str) -> str:
    """The members in canonical order (see :func:`_sorted_rows`), each its
    boxes ``box.format(r, c)`` joined by ``sep`` in ``brackets``, joined by
    ``after``.  Per byte position j that some member touches, a member's
    fragment is its boxes in cells 8j to 8j + 7, each with ``sep`` before
    it unless it is the member's first; fragments are made once per byte
    value on each side of that split.  Members whose keys start with k
    bytes 0xFF, the largest such prefix, have no box before the k-th
    position, so one bisection of the rows finds the split.
    """
    masks = tuple(family.masks)
    union = reduce(or_, masks, 0)
    # per cell that some member holds: its box, written with sep before it
    names = dict(zip(cells(union), starmap((sep + box).format, boxes(family.n, union))))
    at = sorted({c // 8 for c in names})
    rows = _sorted_rows(masks, at)
    blob, width, slots = b"".join(rows), len(at), len(at) + 2
    out = [brackets[0]] * (len(rows) * slots)
    for k, j in enumerate(at):
        col, split = blob[width + k::2 * width], bisect_left(rows, b"\xff" * k)
        fragments = []
        for cut, part in ((0, col[:split]), (len(sep), col[split:])):
            table = {v: "".join([names[8 * j + b] for b in BYTE_BITS[v]])[cut:] for v in set(part)}
            fragments += map(table.__getitem__, part)
        out[k + 1::slots] = fragments
    out[slots - 1::slots] = [brackets[1] + after] * len(rows)
    if out:
        out[-1] = brackets[1]
    return "".join(out)


def family_to_json(family: SetFamily) -> str:
    """Canonical compact JSON, ``{"n":n,"members":[[[r,c],...],...]}``,
    written straight from the masks."""
    return f'{{"n":{family.n},"members":[{_write(family, "[{},{}]", ",", "[]", ",")}]}}'


def family_to_text(family: SetFamily) -> str:
    """One member per line, ``{(r,c), ...}``, in canonical order."""
    return _write(family, "({},{})", ", ", "{}", "\n")


def family_from_json_obj(obj) -> SetFamily:
    if not isinstance(obj, dict):
        raise FamilyFormatError("family must be a JSON object")
    if set(obj) != {"n", "members"}:
        raise FamilyFormatError('family object needs exactly the keys "n" and "members"')
    n = obj["n"]
    # a mask takes n^2 bits: n <= 4096 keeps one at or under 2 MiB
    if type(n) is not int or not 1 <= n <= 4096:  # not a bool either
        raise FamilyFormatError('"n" must be an integer from 1 to 4096')
    members = obj["members"]
    if not isinstance(members, list):
        raise FamilyFormatError('"members" must be an array')
    total = 0  # the members' mask bytes, a repeat counted each time
    for member in members:
        if not isinstance(member, list):
            raise FamilyFormatError("each member must be an array of boxes")
        for box in member:
            if not isinstance(box, list) or list(map(type, box)) != [int, int]:
                raise FamilyFormatError(f"malformed box: {box!r}")
            if not (1 <= box[0] <= n and 1 <= box[1] <= n):
                raise FamilyFormatError(f"box {box!r} outside the {n} x {n} grid")
        # a mask whose last box is bit (r - 1) * n + c - 1 takes that // 8 + 1 bytes
        total += max(((r - 1) * n + c + 7 for r, c in member), default=0) // 8
    if total > _JSON_MASK_BYTES:  # checked before any mask is built
        raise FamilyFormatError("the members' masks would take over 64 MiB")
    return SetFamily(n, (pack(n, member) for member in members))


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
