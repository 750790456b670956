"""The public surface, pinned: a change to a name here is a change to the API and must say why."""

from __future__ import annotations

import argparse
import importlib

import pytest

import roughfsm
from roughfsm.cli import _parser

PACKAGE_NAMES = [
    "AlphabetMismatch",
    "ApproximationSpace",
    "BadDepth",
    "BridgeTotalityError",
    "BudgetExceeded",
    "CLAIM_NAMES",
    "CascadeWiring",
    "CheckResult",
    "CoveringPair",
    "DefinableSet",
    "DuplicateState",
    "FunctionSymbol",
    "InputBridge",
    "Machine",
    "MismatchedSpace",
    "MorphismPair",
    "NameCollision",
    "NonDefinableEntry",
    "NonPartition",
    "NotOnto",
    "PRODUCT_KINDS",
    "ParseError",
    "PreconditionFailed",
    "RoughFsmError",
    "RoughSet",
    "SemanticError",
    "ShapeMismatch",
    "TotalityError",
    "UnknownState",
    "UnknownSymbol",
    "Violation",
    "WREATH_BUDGET",
    "WiringTotalityError",
    "WitnessReport",
    "Word",
    "all_function_symbols",
    "approximate",
    "assoc_isomorphism",
    "block_step",
    "block_word_step",
    "cascade",
    "check_covering",
    "check_homomorphism",
    "check_isomorphism",
    "core",
    "diagonal_bridge",
    "errors",
    "format_definable",
    "format_rough_set",
    "full_direct",
    "general_direct",
    "generate",
    "is_definable",
    "is_realizable",
    "lift_covering",
    "machine",
    "make_machine",
    "make_partition",
    "morphism",
    "pairing_bridge",
    "parse_bridge",
    "parse_machine",
    "parse_state_input_map",
    "parse_wiring_triples",
    "product_partition",
    "products",
    "propositions",
    "render_tables",
    "restricted_direct",
    "run_claim_trials",
    "samples",
    "search_coverings",
    "serialize_machine",
    "subset_from_text",
    "textio",
    "validate_machine",
    "value_name",
    "witness_cascade_in_wreath",
    "witness_restricted_in_full",
    "witness_wreath_exchange",
    "word_from_text",
    "word_step",
    "wreath",
]

MODULE_ALL = {
    "core": [
        "ApproximationSpace",
        "DefinableSet",
        "RoughSet",
        "make_partition",
        "approximate",
        "is_definable",
        "is_realizable",
        "product_partition",
        "value_name",
    ],
    "machine": [
        "Machine",
        "Violation",
        "Word",
        "make_machine",
        "validate_machine",
        "block_step",
        "word_step",
        "block_word_step",
    ],
    "morphism": [
        "MorphismPair",
        "CoveringPair",
        "CheckResult",
        "check_homomorphism",
        "check_isomorphism",
        "check_covering",
        "search_coverings",
    ],
    "products": [
        "FunctionSymbol",
        "InputBridge",
        "CascadeWiring",
        "all_function_symbols",
        "full_direct",
        "restricted_direct",
        "general_direct",
        "wreath",
        "cascade",
        "diagonal_bridge",
        "pairing_bridge",
    ],
    "propositions": [
        "WitnessReport",
        "witness_restricted_in_full",
        "witness_wreath_exchange",
        "witness_cascade_in_wreath",
        "assoc_isomorphism",
        "lift_covering",
        "run_claim_trials",
        "CLAIM_NAMES",
        "PRODUCT_KINDS",
    ],
    "textio": [
        "parse_machine",
        "serialize_machine",
        "render_tables",
        "parse_state_input_map",
        "parse_wiring_triples",
        "parse_bridge",
        "word_from_text",
        "subset_from_text",
        "format_definable",
        "format_rough_set",
    ],
    "generate": ["random_partition", "random_machine", "random_wiring", "random_bridge", "exact_machine"],
    "samples": ["five_state_machine", "relabeled_pair"],
}

SUBCOMMANDS = [
    "validate",
    "run",
    "blocks",
    "approx",
    "product",
    "check-hom",
    "check-cover",
    "search-cover",
    "verify",
    "render",
]


def test_package_names():
    # roughfsm.cli becomes an attribute of the package only once something imports it.
    public = sorted(n for n in vars(roughfsm) if not n.startswith("_") and n != "cli")
    assert public == PACKAGE_NAMES


@pytest.mark.parametrize("module", sorted(MODULE_ALL))
def test_module_all(module):
    mod = importlib.import_module(f"roughfsm.{module}")
    assert mod.__all__ == MODULE_ALL[module]
    for name in mod.__all__:
        assert hasattr(mod, name), name


def test_cli_subcommands():
    (sub,) = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == SUBCOMMANDS
