"""
Schubert polynomials computed from reduced pipe dreams: each dream
contributes the product of x_row over its crossing tiles.

Exponent vectors are tuples with trailing zeros stripped, so (1, 2) and
(1, 2, 0) name the same monomial.  Terms are kept in graded
lexicographic order, largest first, which makes the text and JSON
renderings canonical.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .grid import Frozen
from .permutations import Permutation
from .pipedreams import fold_rows

ExponentVector = tuple[int, ...]


def normalize_exponents(exponents: Iterable[int]) -> ExponentVector:
    """Strip trailing zeros; reject negative exponents."""
    exps = tuple(exponents)
    if any(e < 0 for e in exps):
        raise ValueError(f"negative exponent in {exps!r}")
    while exps and exps[-1] == 0:
        exps = exps[:-1]
    return exps


def _term_key(exponents: ExponentVector):
    return (sum(exponents), exponents)


class Polynomial(Frozen):
    """Integer-coefficient polynomial in x1, x2, ...; terms sorted in
    descending graded lex order and free of zero coefficients."""

    def __init__(self, terms: tuple[tuple[ExponentVector, int], ...]):
        self.__dict__["terms"] = terms

    @staticmethod
    def from_dict(coeffs: Mapping[Iterable[int], int]) -> Polynomial:
        acc: dict[ExponentVector, int] = {}
        for exps, coeff in coeffs.items():
            key = normalize_exponents(exps)
            acc[key] = acc.get(key, 0) + coeff
        terms = tuple(
            (e, c)
            for e, c in sorted(acc.items(), key=lambda t: _term_key(t[0]), reverse=True)
            if c != 0
        )
        return Polynomial(terms)

    @staticmethod
    def zero() -> Polynomial:
        return Polynomial(())

    @staticmethod
    def one() -> Polynomial:
        return Polynomial((((), 1),))

    def coefficient(self, exponents: Iterable[int]) -> int:
        key = normalize_exponents(exponents)
        for e, c in self.terms:
            if e == key:
                return c
        return 0

    def total_degrees(self) -> tuple[int, ...]:
        return tuple(sum(e) for e, _ in self.terms)

    def __str__(self) -> str:
        return polynomial_to_str(self)


def schubert_polynomial(w: Permutation) -> Polynomial:
    """Sum over the reduced pipe dreams of w of the monomials recording
    the row index of every crossing tile.

    The fold of :func:`pipedreams.fold_rows` carries, per slot state, the
    exponent vectors of the partial dreams that reach it, with counts, so
    no dream is built.  An exponent vector is an int with a field of
    ``bits`` per row, wide enough for the n - 1 crossings a row can hold;
    each row shifts the fields up and writes its own, so row 1 ends up
    highest.  The polynomial is homogeneous of degree length(w), so
    descending ints are descending graded lex order.

    >>> from .permutations import parse_permutation
    >>> str(schubert_polynomial(parse_permutation("2143")))
    'x1^2 + x1*x2 + x1*x3'
    """
    n = w.n
    size = max(1, ((n - 1).bit_length() + 7) // 8)  # bytes per field
    bits = 8 * size

    def add(below, pipes, counts, row):
        k = row.bit_count()
        into = below.get(pipes)
        if into is None:
            below[pipes] = {e << bits | k: c for e, c in counts.items()}
        else:
            for e, c in counts.items():
                e = e << bits | k
                into[e] = into.get(e, 0) + c

    terms = []
    for e, c in sorted(fold_rows(w, {0: 1}, add).items(), reverse=True):
        data = e.to_bytes(size * (n - 1), "big")
        exps = data.rstrip(b"\0") if size == 1 else normalize_exponents(
            int.from_bytes(data[i:i + size], "big") for i in range(0, len(data), size)
        )
        terms.append((tuple(exps), c))
    return Polynomial(tuple(terms))


def specialize_all_ones(poly: Polynomial) -> int:
    """Evaluate at x1 = x2 = ... = 1, i.e. the coefficient sum.  For a
    Schubert polynomial this counts the reduced pipe dreams."""
    return sum(c for _e, c in poly.terms)


def polynomial_to_str(poly: Polynomial) -> str:
    if not poly.terms:
        return "0"
    parts = []
    for exps, coeff in poly.terms:
        factors = [
            f"x{i}" if e == 1 else f"x{i}^{e}"
            for i, e in enumerate(exps, start=1)
            if e
        ]
        if not factors:
            parts.append(str(coeff))
        elif coeff == 1:
            parts.append("*".join(factors))
        elif coeff == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(f"{coeff}*" + "*".join(factors))
    return " + ".join(parts)


_JSON_TERM = '{{"coeff":{},"exponents":[{}]}}'.format


def polynomial_to_json(poly: Polynomial) -> str:
    """Compact JSON, ``[{"coeff":c,"exponents":[e1,...]},...]``, one object
    per term in the polynomial's order."""
    exps = (",".join(map(str, e)) for e, _ in poly.terms)
    return "[" + ",".join(map(_JSON_TERM, (c for _, c in poly.terms), exps)) + "]"
