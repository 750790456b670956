"""Rough finite state machines.

State sets carry an equivalence relation, subsets are approximated by
unions of its blocks from below and above, and transitions map each
(state, input) pair to such a rough set. The package provides the set
layer, machine semantics over blocks and words, homomorphism and
covering checks, five product constructions, machine-checked witnesses
for the classical covering claims about them, and a text format with a
command line front end.
"""

from .core import (
    ApproximationSpace,
    DefinableSet,
    RoughSet,
    approximate,
    is_definable,
    is_realizable,
    make_partition,
    product_partition,
    value_name,
)
from .errors import (
    AlphabetMismatch,
    BadDepth,
    BridgeTotalityError,
    BudgetExceeded,
    DuplicateState,
    MismatchedSpace,
    NameCollision,
    NonDefinableEntry,
    NonPartition,
    NotOnto,
    ParseError,
    PreconditionFailed,
    RoughFsmError,
    SemanticError,
    ShapeMismatch,
    TotalityError,
    UnknownState,
    UnknownSymbol,
    WiringTotalityError,
)
from .machine import (
    Machine,
    Violation,
    Word,
    block_step,
    block_word_step,
    make_machine,
    validate_machine,
    word_step,
)
from .morphism import (
    CheckResult,
    CoveringPair,
    MorphismPair,
    check_covering,
    check_homomorphism,
    check_isomorphism,
    search_coverings,
)
from .products import (
    WREATH_BUDGET,
    CascadeWiring,
    FunctionSymbol,
    InputBridge,
    all_function_symbols,
    cascade,
    diagonal_bridge,
    full_direct,
    general_direct,
    pairing_bridge,
    restricted_direct,
    wreath,
)
from .propositions import (
    CLAIM_NAMES,
    PRODUCT_KINDS,
    WitnessReport,
    assoc_isomorphism,
    lift_covering,
    run_claim_trials,
    witness_cascade_in_wreath,
    witness_restricted_in_full,
    witness_wreath_exchange,
)
from .textio import (
    format_definable,
    format_rough_set,
    parse_bridge,
    parse_machine,
    parse_state_input_map,
    parse_wiring_triples,
    render_tables,
    serialize_machine,
    subset_from_text,
    word_from_text,
)
from . import generate, samples

__version__ = "0.1.0"
