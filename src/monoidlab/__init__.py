"""monoidlab: finite monoids from word factors.

Construction of word-set quotients and presented monoids, identity
checking with two independent deciders, word-structure combinatorics,
and a deterministic claim-verification suite.
"""

from .errors import (
    BadIdentityError,
    BadZeroError,
    BudgetExceededError,
    DuplicateLabelsError,
    EmptyGeneratorsError,
    HomomorphismViolationError,
    NonAssociativeError,
    NotStabilizedError,
    NotSubsetError,
    ParseError,
    UnknownBasisError,
    UnknownPresetError,
    WorkbenchError,
)
from .identities import (
    FAILS,
    HOLDS,
    CheckOutcome,
    Identity,
    Substitution,
    basis,
    check_no_div_instance,
    check_rees,
    check_star_property,
    check_table,
    evaluate,
    match_pattern,
    parse_identity,
    scan_matches,
    separation_identity,
)
from .monoid import (
    ZERO,
    FiniteMonoid,
    Presentation,
    from_presentation,
    from_table,
    multiply,
    preset,
)
from .rees import parse_word_set, quotient_map, rees_quotient
from .verify import (
    Report,
    VerifyConfig,
    cross_check_checkers,
    enumerate_small_rees,
    run_claims,
)
from .words import (
    EPSILON,
    INFINITY,
    AlphabetProfile,
    Length2Profile,
    Letter,
    Word,
    WordSet,
    alphabet_profile,
    delete_letter,
    depth_map,
    factors,
    generate_wn,
    is_square_free,
    length2_profile,
    letter_positions,
    min_nonlinear_simplefree_factor,
    occurrence_positions,
    parse_word,
)

__version__ = "0.1.0"
