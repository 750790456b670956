"""Command line front end.

Exit codes follow one convention across subcommands: 0 when the
requested check holds or the operation succeeds, 1 when a check fails
or a search comes back empty, 2 for unusable input (bad flags, broken
files, exceeded budgets). `validate` is the one command whose job is
judging a file, so there semantic problems exit 1 and only syntax
errors exit 2.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .core import approximate
from .errors import ParseError, RoughFsmError, SemanticError
from .machine import validate_machine, word_step
from .morphism import CoveringPair, MorphismPair, check_covering, check_homomorphism, search_coverings
from .products import (
    CascadeWiring,
    cascade,
    full_direct,
    general_direct,
    restricted_direct,
    wreath,
)
from .propositions import PRODUCT_KINDS, run_claim_trials
from .textio import (
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

PROP_CLAIMS = {
    "3.1": "restricted-in-full",
    "3.2": "wreath-exchange",
    "3.3": "cascade-in-wreath",
    "3.4": "associativity",
    "3.5": "lift",
}


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}")
    except UnicodeDecodeError as e:
        raise ParseError(f"cannot read {path}: {e}")


def _load_machine(path: str):
    return parse_machine(_read(path))


def _given(args, *names) -> dict:
    """The options among `names` set on the command line; the library decides the rest."""
    return {name: getattr(args, name) for name in names if name in args}


def cmd_validate(args) -> int:
    try:
        text = _read(args.file)
        machine = parse_machine(text)
    except SemanticError as e:
        if e.violations:
            for v in e.violations:
                print(f"violation: {v}")
        else:
            print(f"violation: {e}")
        return 1
    # parse_machine has checked the shape without a walk; --strict walks the machine once.
    problems = validate_machine(machine, strict=True) if args.strict else []
    if problems:
        for v in problems:
            print(f"violation: {v}")
        return 1
    print(
        f"ok: {machine.name}: {len(machine.space.states)} states, "
        f"{machine.space.n_blocks} blocks, {len(machine.alphabet)} inputs"
    )
    return 0


def cmd_run(args) -> int:
    machine = _load_machine(args.file)
    word = word_from_text(machine, args.word)
    state = subset_from_text(machine.space, args.state)
    if len(state) != 1:
        raise ParseError(f"--state needs exactly one state, got {args.state!r}")
    print(format_rough_set(word_step(machine, state[0], word)))
    return 0


def cmd_approx(args) -> int:
    machine = _load_machine(args.file)
    members = subset_from_text(machine.space, args.set)
    print(format_rough_set(approximate(machine.space, members)))
    return 0


def cmd_render(args) -> int:
    machine = _load_machine(args.file)
    word = word_from_text(machine, args.word) if args.word is not None else None
    print(render_tables(machine, kind=args.table, word=word))
    return 0


def cmd_product(args) -> int:
    m1 = _load_machine(args.first)
    m2 = _load_machine(args.second)
    if args.kind == "full":
        result = full_direct(m1, m2)
    elif args.kind == "restricted":
        result = restricted_direct(m1, m2)
    elif args.kind == "general":
        if not args.bridge:
            raise ParseError("general product needs --bridge")
        result = general_direct(m1, m2, parse_bridge(_read(args.bridge)))
    elif args.kind == "wreath":
        result = wreath(m1, m2, **_given(args, "budget"))
    else:
        if not args.omega:
            raise ParseError("cascade product needs --omega")
        omega = {(q2, x2): x1 for q2, x2, x1 in parse_wiring_triples(_read(args.omega))}
        result = cascade(m1, m2, CascadeWiring(omega))
    text = serialize_machine(result)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise ParseError(f"cannot write {args.output}: {e.strerror or e}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_check(args) -> int:
    m1 = _load_machine(args.first)
    m2 = _load_machine(args.second)
    state_map, input_map = parse_state_input_map(_read(args.map))
    result = args.check(m1, m2, args.pair(state_map, input_map), **_given(args, "depth"))
    print(result)
    return 0 if result else 1


def cmd_search_cover(args) -> int:
    m1 = _load_machine(args.first)
    m2 = _load_machine(args.second)
    found = search_coverings(m1, m2, **_given(args, "depth", "budget"))
    print(f"# found {len(found)} covering(s)")
    for i, pair in enumerate(found, start=1):
        print(f"# covering {i}")
        for q2 in m2.space.states:
            print(f"state {q2} {pair.state_map[q2]}")
        for x1 in m1.alphabet:
            print(f"input {x1} {pair.input_map[x1]}")
    return 0 if found else 1


def cmd_verify(args) -> int:
    claim = PROP_CLAIMS[args.prop]
    if "trials" in args and args.trials < 1:
        raise ParseError(f"--trials must be at least 1, got {args.trials}")
    kinds = None
    if args.kind:
        if args.prop not in ("3.4", "3.5"):
            raise ParseError("--kind only applies to --prop 3.4 and 3.5")
        kinds = (args.kind,)
    reports = run_claim_trials(claim, kinds=kinds, **_given(args, "seed", "trials"))
    good = 0
    for i, report in enumerate(reports, start=1):
        print(f"trial {i:02d} {report}")
        good += bool(report)
    print(f"{good}/{len(reports)} hold")
    return 0 if good == len(reports) else 1


@cache  # built on the first call, not on import, and reused: parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="roughfsm",
        description="Rough finite state machines: inspect, combine, verify.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("validate", help="check a machine file and report violations")
    q.add_argument("file")
    q.add_argument("--strict", action="store_true", help="also require every entry to be realizable")
    q.set_defaults(func=cmd_validate)

    q = sub.add_parser("run", help="run a word from a state, print the rough result")
    q.add_argument("file")
    q.add_argument("--state", required=True)
    q.add_argument("--word", default="", help="input word; empty for the empty word")
    q.set_defaults(func=cmd_run)

    q = sub.add_parser("blocks", help="print the block transition table")
    q.add_argument("file")
    q.add_argument("--word", default=None)
    q.set_defaults(func=cmd_render, table="block")

    q = sub.add_parser("approx", help="approximate a state subset in the machine's space")
    q.add_argument("file")
    q.add_argument("--set", required=True, help="comma separated state names; '' for the empty set")
    q.set_defaults(func=cmd_approx)

    q = sub.add_parser("product", help="combine two machine files, print or write the result")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--kind", required=True, choices=("full", "restricted", "general", "wreath", "cascade"))
    q.add_argument("--bridge", help="bridge file for the general kind")
    q.add_argument("--omega", help="wiring file for the cascade kind")
    q.add_argument("--budget", type=int, default=argparse.SUPPRESS, help="wreath alphabet cap")
    q.add_argument("-o", "--output", help="write the machine here instead of stdout")
    q.set_defaults(func=cmd_product)

    q = sub.add_parser("check-hom", help="check a homomorphism between two machine files")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--map", required=True, help="map file: 'state FROM TO' and 'input FROM TO' lines")
    q.set_defaults(func=cmd_check, check=check_homomorphism, pair=MorphismPair)

    q = sub.add_parser("check-cover", help="check that the second machine covers the first")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--map", required=True, help="map file: state lines read FROM the covering machine")
    depth_help = (
        "below 2 checks letters only; 2 or more, the default, decides every word: words run only"
        " from states whose block is not inside the eta-image of their own, so when eta maps each"
        " block onto a block the letters decide"
    )
    q.add_argument("--depth", type=int, default=argparse.SUPPRESS, help=depth_help)
    q.set_defaults(func=cmd_check, check=check_covering, pair=CoveringPair)

    q = sub.add_parser("search-cover", help="enumerate all covering map pairs")
    q.add_argument("first")
    q.add_argument("second")
    q.add_argument("--depth", type=int, default=argparse.SUPPRESS, help=depth_help)
    q.add_argument("--budget", type=int, default=argparse.SUPPRESS, help="candidate map pair cap")
    q.set_defaults(func=cmd_search_cover)

    q = sub.add_parser("verify", help="run seeded trials of one of the product claims")
    q.add_argument("--prop", required=True, choices=sorted(PROP_CLAIMS))
    q.add_argument("--kind", choices=PRODUCT_KINDS, help="narrow claims 3.4/3.5 to one product kind")
    q.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    q.add_argument("--trials", type=int, default=argparse.SUPPRESS)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("render", help="print a transition table")
    q.add_argument("file")
    q.add_argument("--table", required=True, choices=("state", "block"))
    q.add_argument("--word", default=None)
    q.set_defaults(func=cmd_render)

    return p


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    try:
        return args.func(args)
    except RoughFsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
