"""Reference decoder for bit masks, independent of ``grid.cells`` and its
byte table: it reads the mask's binary numeral, one digit per bit.  The
writers' member order and member text are checked against it.
"""


def bit_indices(mask):
    """The ascending indices of the set bits of a nonnegative int, the same
    list as ``[i for i in range(mask.bit_length()) if mask >> i & 1]``.
    That loop shifts the whole mask once per bit, so it takes hours at
    2^24 bits; the numeral is written once and searched for its ones.
    """
    digits = bin(mask)[:1:-1]  # digit i is bit i
    out, i = [], digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def canonical_members(family):
    """The members as box tuples in canonical order: sorted by their lists
    of cell indices, which sort as their box tuples do."""
    n, order = family.n, sorted(map(bit_indices, family.masks))
    return tuple(tuple((i // n + 1, i % n + 1) for i in cells) for cells in order)


def member_text(member):
    """The ``{(r,c), (r,c)}`` text of a member given as box tuples."""
    return "{" + ", ".join(f"({r},{c})" for r, c in member) + "}"
