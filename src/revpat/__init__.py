"""revpat: avoidability of binary patterns with reversal.

Patterns are strings over x, X, y, Y (uppercase marks the slot filled by the
reversal of the variable's value); words are strings of digits.  The package
classifies every pattern by avoidability index (2, 3 or infinity), matches
pattern instances inside words, generates the word families the
classification rests on, and re-runs all the finite searches behind it.
"""

from .engine import (
    Avoidability,
    BacktrackReport,
    BipartiteResult,
    PatternGraph,
    SEED_PARTITION,
    THREE_AVOIDABLE_SEEDS,
    TWO_AVOIDABLE_SEEDS,
    UNAVOIDABLE_CANONICAL,
    bipartite_check,
    classify,
    instance_in_alternating,
    pattern_graph,
    prove_k_unavoidable,
    seed_free_patterns,
)
from .matcher import (
    InstanceWitness,
    apply_morphism,
    avoids,
    find_instance,
    find_instance_bounded,
    parse_word,
    witness_image,
)
from .patterns import (
    PATTERN_ALPHABET,
    canonical,
    equivalence_class,
    factors,
    iota,
    parse_pattern,
    pattern_key,
    reverse_mark,
    sorted_patterns,
    variable_counts,
)
from .sequences import (
    F1,
    F2,
    F3,
    F4,
    H,
    MORPHISMS,
    SEQUENCE_IDS,
    alternating_prefix,
    apply_binary_morphism,
    bispecial_factors,
    collect_squares,
    contains_overlap,
    covering_prefix_length,
    factor_set,
    g_from,
    left_completions,
    reversible_factors,
    sequence_prefix,
    square_limited_prefix,
    thue_morse_prefix,
)
from .verify import (
    CHECKS,
    UPSILON,
    VerificationReport,
    bound_factor_length,
    run_checks,
)

__version__ = "0.1.0"
