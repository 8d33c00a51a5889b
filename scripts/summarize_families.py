#!/usr/bin/env python3
"""Tabulate family statistics over S_n.

For each permutation size up to --max-n, report the total and largest
reduced-pipe-dream sets and antidiagonal families, the permutations
attaining the maxima, and the largest Schubert coefficient encountered.

Usage:
    python scripts/summarize_families.py --max-n 6
"""

import argparse
import sys

from pipedual.antidiagonals import antidiagonal_family
from pipedual.cli import _positive_int
from pipedual.permutations import all_permutations
from pipedual.schubert import schubert_polynomial, specialize_all_ones


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=_positive_int, default=6)
    args = parser.parse_args()

    for n in range(1, args.max_n + 1):
        total_rp = total_ad = 0
        max_rp = max_ad = max_coeff = 0
        arg_rp = arg_ad = arg_coeff = None
        for w in all_permutations(n):
            poly = schubert_polynomial(w)
            rp = specialize_all_ones(poly)  # the coefficient sum is |RP(w)|
            ad = len(antidiagonal_family(w))
            total_rp += rp
            total_ad += ad
            if rp > max_rp:
                max_rp, arg_rp = rp, w
            if ad > max_ad:
                max_ad, arg_ad = ad, w
            coeff = max((c for _, c in poly.terms), default=0)
            if coeff > max_coeff:
                max_coeff, arg_coeff = coeff, w
        print(f"n={n}")
        print(f"  pipe dreams:   total {total_rp:>6}, max {max_rp:>4} at {arg_rp}")
        print(f"  antidiagonals: total {total_ad:>6}, max {max_ad:>4} at {arg_ad}")
        print(f"  largest Schubert coefficient: {max_coeff} at {arg_coeff}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
