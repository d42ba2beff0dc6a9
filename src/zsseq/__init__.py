"""Zero-sum structure of integer sequences with elements in [-k, k].

The package answers questions of the shape "does this sequence contain a
zero-sum subsequence of length exactly t", computes the threshold length
beyond which avoidance is impossible, and provides the search, reduction,
and generation machinery around that threshold.
"""

from .constants import (
    davenport_subset,
    divisibility_condition,
    frobenius_number,
    lcm_growth_check,
    lcm_range,
    lemma41_margin_check,
    minimal_zero_sum_max_length,
    s_prime_t,
    theorem11_bounds,
)
from .detect import (
    LengthSumTable,
    Spectrum,
    brute_force_pairs,
    build_table,
    estimate_table_bytes,
    find_zero_sum_of_length,
    is_t_avoiding,
    iter_zero_sum_sequences,
    spectrum,
)
from .errors import (
    CrossCheckError,
    PreconditionError,
    ResourceLimitError,
    SequenceBoundError,
    SequenceOverflowError,
    SequenceSyntaxError,
    SubsequenceError,
    ZsseqError,
)
from .reduction import (
    build_block,
    complete_block,
    foreign_count,
    reduce_fixpoint,
    reduce_step,
    strip_blocks,
)
from .search import (
    enumerate_extremal,
    family_generator,
    lemma42_search,
    longest_avoiding,
    verify_frobenius_avoidance,
)
from .sequences import (
    BoundedSequence,
    concat,
    format_sequence,
    is_subsequence,
    negate,
    parse_sequence,
    remove,
    repeat,
)

__version__ = "0.1.0"

__all__ = [
    "BoundedSequence",
    "CrossCheckError",
    "LengthSumTable",
    "PreconditionError",
    "ResourceLimitError",
    "SequenceBoundError",
    "SequenceOverflowError",
    "SequenceSyntaxError",
    "Spectrum",
    "SubsequenceError",
    "ZsseqError",
    "brute_force_pairs",
    "build_block",
    "build_table",
    "complete_block",
    "concat",
    "davenport_subset",
    "divisibility_condition",
    "enumerate_extremal",
    "estimate_table_bytes",
    "family_generator",
    "find_zero_sum_of_length",
    "foreign_count",
    "format_sequence",
    "frobenius_number",
    "is_subsequence",
    "is_t_avoiding",
    "iter_zero_sum_sequences",
    "lcm_growth_check",
    "lcm_range",
    "lemma41_margin_check",
    "lemma42_search",
    "longest_avoiding",
    "minimal_zero_sum_max_length",
    "negate",
    "parse_sequence",
    "reduce_fixpoint",
    "reduce_step",
    "remove",
    "repeat",
    "s_prime_t",
    "spectrum",
    "strip_blocks",
    "theorem11_bounds",
    "verify_frobenius_avoidance",
]
