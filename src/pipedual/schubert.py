"""
Schubert polynomials computed from reduced pipe dreams: each dream
contributes the product of x_row over its crossing tiles.

Exponent vectors are tuples with trailing zeros stripped, so (1, 2) and
(1, 2, 0) name the same monomial.  Terms are kept in graded
lexicographic order, largest first, which makes the text and JSON
renderings canonical.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .permutations import Permutation
from .pipedreams import enumerate_rp

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


@dataclass(frozen=True)
class Polynomial:
    """Integer-coefficient polynomial in x1, x2, ...; terms sorted in
    descending graded lex order and free of zero coefficients."""

    terms: tuple[tuple[ExponentVector, int], ...]

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
    the row index of every crossing tile.  A dream's exponent vector is
    read off its mask as the popcount of each grid row.

    >>> from .permutations import parse_permutation
    >>> str(schubert_polynomial(parse_permutation("2143")))
    'x1^2 + x1*x2 + x1*x3'
    """
    n = w.n
    full = (1 << n) - 1
    rows = range(0, n * n, n)
    return Polynomial.from_dict(
        Counter(
            tuple((mask >> shift & full).bit_count() for shift in rows)
            for mask in enumerate_rp(w).masks
        )
    )


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


def polynomial_to_json_obj(poly: Polynomial) -> list:
    return [{"coeff": c, "exponents": list(e)} for e, c in poly.terms]


def polynomial_to_json(poly: Polynomial) -> str:
    return json.dumps(polynomial_to_json_obj(poly), separators=(",", ":"))
