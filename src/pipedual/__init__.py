"""
pipedual: reduced pipe dreams, grid antidiagonals, and their transversal
duality.

The package enumerates the reduced pipe dreams of a permutation and its
minimal antidiagonal family, dualizes arbitrary box-set families by
minimal transversals, computes Schubert polynomials from pipe dreams,
and exhaustively verifies the duality laws tying all of these together.

``import pipedual`` loads no submodule: each public name imports its
module on first access (PEP 562), so a caller compiles only the modules
it uses.
"""

__version__ = "0.1.0"

# the most worker processes a parallel sweep may start, for ``iter_verify``
# and ``verify --jobs`` alike.  A pool launches all of its workers at its
# first task, so the bound has to hold before the pool is built
MAX_JOBS = 256

# module: the public names it defines
_EXPORTS = {
    "antidiagonals": ("Antidiagonal", "antidiagonal_family", "antidiagonals_in_rectangle"),
    "grid": ("Box", "staircase_boxes"),
    "permutations": (
        "Permutation",
        "RankMatrix",
        "all_permutations",
        "bruhat_geq",
        "identity",
        "length",
        "parse_permutation",
        "rank",
        "rank_matrix",
        "reversal",
    ),
    "pipedreams": (
        "PipeDream",
        "enumerate_rp",
        "enumerate_rp_bruteforce",
        "is_reduced",
        "render_ascii",
        "trace",
    ),
    "schubert": (
        "Polynomial",
        "polynomial_to_json",
        "polynomial_to_str",
        "schubert_polynomial",
        "specialize_all_ones",
    ),
    "transversals": (
        "FamilyFormatError",
        "SetFamily",
        "family_from_json",
        "family_to_json",
        "is_minimal_transversal",
        "is_transversal",
        "minimalize",
        "transversal_dual",
    ),
    "verification": (
        "VerificationReport",
        "VerificationRun",
        "iter_verify",
        "max_elbow_antidiagonal",
        "verify_bruhat_oracle",
        "verify_claim1",
        "verify_claim2",
        "verify_double_dual",
        "verify_permutation",
        "verify_range",
        "verify_rank_antidiagonal_law",
        "verify_theorem",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
