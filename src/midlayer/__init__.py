"""Parametrized 2-factors in the middle layer of the odd-dimensional cube."""

from .bitcube import (
    AlphaVector,
    ParameterSequence,
    f_alpha,
    format_bits,
    format_sequence,
    parse_bits,
    parse_sequence,
    pi_alpha,
    tau_alpha,
)
from .construct import (
    ConstructionError,
    ConstructionState,
    TwoFactor,
    assemble_two_factor,
    build,
    cycle_spectrum,
    state_for_prefix,
)
from .analysis import (
    beta,
    cycle_tree_class,
    distinct_check,
    edge_set,
    predicted_parity,
    spectrum,
    tau_image,
    verify_two_factor,
)
from .search import SearchJob, run_search, table1_counts

__all__ = [
    "AlphaVector",
    "ParameterSequence",
    "f_alpha",
    "format_bits",
    "format_sequence",
    "parse_bits",
    "parse_sequence",
    "pi_alpha",
    "tau_alpha",
    "ConstructionError",
    "ConstructionState",
    "TwoFactor",
    "assemble_two_factor",
    "build",
    "cycle_spectrum",
    "state_for_prefix",
    "beta",
    "cycle_tree_class",
    "distinct_check",
    "edge_set",
    "predicted_parity",
    "spectrum",
    "tau_image",
    "verify_two_factor",
    "SearchJob",
    "run_search",
    "table1_counts",
]
