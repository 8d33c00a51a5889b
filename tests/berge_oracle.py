"""Incremental Berge multiplication: the reference dualizer for the tests.

Independent of the MMCS search in ``pipedual.transversals``.  Members are
multiplied in one at a time, smallest first; each round keeps the old
transversals that meet the new member and the minimal ones among the
extensions of the others.  A transversal T is minimal iff every t in T is
the sole intersection of T with some member (its witness).
"""

from pipedual.transversals import SetFamily


def berge_dual_with_nonminimal(family: SetFamily) -> tuple[SetFamily, SetFamily]:
    """The transversal dual of the family, and the non-minimal transversals
    of the full family that the final multiplication round produced and
    discarded."""
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


def berge_dual(family: SetFamily) -> SetFamily:
    return berge_dual_with_nonminimal(family)[0]
