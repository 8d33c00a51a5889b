"""
pipedual: reduced pipe dreams, grid antidiagonals, and their transversal
duality.

The package enumerates the reduced pipe dreams of a permutation and its
minimal antidiagonal family, dualizes arbitrary box-set families by
minimal transversals, computes Schubert polynomials from pipe dreams,
and exhaustively verifies the duality laws tying all of these together.
"""

from .antidiagonals import Antidiagonal, antidiagonal_family, antidiagonals_in_rectangle
from .grid import Box, staircase_boxes
from .permutations import (
    Permutation,
    RankMatrix,
    all_permutations,
    bruhat_geq,
    identity,
    length,
    parse_permutation,
    rank,
    rank_matrix,
    reversal,
)
from .pipedreams import (
    PipeDream,
    PipePair,
    crossing_counts,
    enumerate_rp,
    enumerate_rp_bruteforce,
    is_reduced,
    render_ascii,
    trace,
)
from .schubert import (
    Polynomial,
    polynomial_to_json,
    polynomial_to_str,
    schubert_polynomial,
    specialize_all_ones,
)
from .transversals import (
    FamilyFormatError,
    SetFamily,
    family_from_json,
    family_to_json,
    is_minimal_transversal,
    is_transversal,
    minimalize,
    transversal_dual,
)
from .verification import (
    VerificationReport,
    VerificationRun,
    iter_verify,
    max_elbow_antidiagonal,
    verify_bruhat_oracle,
    verify_claim1,
    verify_claim2,
    verify_double_dual,
    verify_permutation,
    verify_range,
    verify_rank_antidiagonal_law,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Antidiagonal",
    "Box",
    "FamilyFormatError",
    "Permutation",
    "PipeDream",
    "PipePair",
    "Polynomial",
    "RankMatrix",
    "SetFamily",
    "VerificationReport",
    "VerificationRun",
    "all_permutations",
    "antidiagonal_family",
    "antidiagonals_in_rectangle",
    "bruhat_geq",
    "crossing_counts",
    "enumerate_rp",
    "enumerate_rp_bruteforce",
    "family_from_json",
    "family_to_json",
    "identity",
    "is_minimal_transversal",
    "is_reduced",
    "is_transversal",
    "iter_verify",
    "length",
    "max_elbow_antidiagonal",
    "minimalize",
    "parse_permutation",
    "polynomial_to_json",
    "polynomial_to_str",
    "rank",
    "rank_matrix",
    "render_ascii",
    "reversal",
    "schubert_polynomial",
    "specialize_all_ones",
    "staircase_boxes",
    "trace",
    "transversal_dual",
    "verify_bruhat_oracle",
    "verify_claim1",
    "verify_claim2",
    "verify_double_dual",
    "verify_permutation",
    "verify_range",
    "verify_rank_antidiagonal_law",
    "verify_theorem",
]
