"""Product constructions on rough transition machines.

All five products share the same state side, the componentwise product
of the two approximation spaces, and differ only in the input alphabet
and in the feed: the factor inputs (x1, x2) a letter selects at the
second factor's state q2.

  full direct        letters (x1, x2), fed as they are
  restricted direct  one shared alphabet; a feeds (a, a)
  general direct     a bridge's carrier; u feeds the bridge's pair for u
  wreath             letters (f, x2), f choosing the first factor's input
                     per second-factor state; feeds (f(q2), x2)
  cascade            the second factor's alphabet; x2 feeds
                     (wiring(q2, x2), x2)

One builder evaluates each feed once per (q2, letter) and is the only
check that fed inputs are letters of the factors. Entry values multiply
componentwise: lower with lower, upper with upper. Letters that select
equal factor-entry pairs share one immutable entry.

Products skip make_machine's validation walk. The factors must be well
formed, as make_machine and parse_machine return them; a machine built
with Machine(...) directly is not checked here. From well-formed factors
the table is total over the product grid, every side lies in the product
space, and lower <= upper multiplies componentwise. The alphabet is not
empty and lists no letter twice: general_direct refuses an empty or
repeating bridge carrier, and every other alphabet is built from the
factors' nonempty ones. So the result is well formed by construction
(acceptance criterion 8 checks this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import product as iter_product
from typing import Mapping, Sequence

from .core import DefinableSet, RoughSet, product_partition, value_name
from .errors import (
    AlphabetMismatch,
    BridgeTotalityError,
    BudgetExceeded,
    ShapeMismatch,
    UnknownState,
    UnknownSymbol,
    WiringTotalityError,
)
from .machine import Machine

__all__ = [
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
]

WREATH_BUDGET = 4096
"""Default cap on the wreath alphabet size |X1|^|Q2| * |X2|."""


@dataclass(frozen=True)
class FunctionSymbol:
    """A choice of first-factor input per second-factor state.

    `domain` is the second factor's state tuple in declared order and
    `outputs[i]` the value at `domain[i]`. Two symbols are equal exactly
    when they agree pointwise on the same domain. Prints as
    f[out1,out2,...] with outputs in domain order.
    """

    domain: tuple
    outputs: tuple
    _at: dict = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.domain) != len(self.outputs):
            raise ShapeMismatch("one output per domain state is required")
        object.__setattr__(self, "_at", dict(zip(self.domain, self.outputs)))
        object.__setattr__(self, "_hash", hash((self.domain, self.outputs)))

    def __hash__(self):  # symbols key every wreath table entry: hash the tuples once
        return self._hash

    def __call__(self, state):
        try:
            return self._at[state]
        except KeyError:
            raise UnknownState(f"function symbol has no value at {value_name(state)}") from None

    def __str__(self):
        return "f[" + ",".join(value_name(o) for o in self.outputs) + "]"


@dataclass(frozen=True)
class InputBridge:
    """An external alphabet with a decoding into pairs of factor inputs."""

    carrier: tuple
    decode: Mapping

    def pair_for(self, symbol):
        try:
            pair = self.decode[symbol]
        except KeyError:
            raise BridgeTotalityError(f"bridge does not decode {value_name(symbol)}") from None
        if not isinstance(pair, tuple) or len(pair) != 2:
            raise BridgeTotalityError(f"bridge decodes {value_name(symbol)} to a non-pair")
        return pair


@dataclass(frozen=True)
class CascadeWiring:
    """A map from (second-factor state, its input) to a first-factor input."""

    omega: Mapping

    def feed(self, state, symbol):
        try:
            return self.omega[(state, symbol)]
        except KeyError:
            raise WiringTotalityError(
                f"wiring is undefined at ({value_name(state)}, {value_name(symbol)})"
            ) from None


def all_function_symbols(values: Sequence, domain: Sequence) -> list[FunctionSymbol]:
    """Every function symbol from `domain` into `values`.

    Enumerated with outputs running lexicographically in the order of
    `values`, so the listing is deterministic.
    """
    domain = tuple(domain)
    return [FunctionSymbol(domain, outputs) for outputs in iter_product(values, repeat=len(domain))]


def _build(m1: Machine, m2: Machine, alphabet, feed, name: str) -> Machine:
    """The product over `alphabet` whose letter a feeds the factors feed(q2, a) = (x1, x2) at q2.

    Raises UnknownSymbol for a fed input outside its factor's alphabet.
    Equal (q1, q2, x1, x2) share one entry, and equal pairs of factor block sets one side.
    """
    space = product_partition(m1.space, m2.space)
    ids1, n2 = m1.space.ids, m2.space.n_blocks
    symbols1, symbols2 = m1._symbol_index, m2._symbol_index
    fed = {}  # q2 -> feed(q2, a) for each letter a, in alphabet order
    for q2 in m2.space.states:
        fed[q2] = row = [feed(q2, a) for a in alphabet]
        for a, (x1, x2) in zip(alphabet, row):
            if x1 not in symbols1 or x2 not in symbols2:
                which, x = ("first", x1) if x1 not in symbols1 else ("second", x2)
                where = f"letter {value_name(a)} at {value_name(q2)}"
                raise UnknownSymbol(f"{where} feeds unknown {which} input {value_name(x)}")

    @cache
    def side(bits1: int, bits2: int) -> DefinableSet:  # block (i, j) sits at i * n2 + j
        return DefinableSet(space, sum(map(bits2.__lshift__, map(n2.__mul__, ids1(bits1)))))

    @cache
    def entry(q1, q2, x1, x2) -> RoughSet:
        r1, r2 = m1.table[q1, x1], m2.table[q2, x2]
        return RoughSet(side(r1.lower.bits, r2.lower.bits), side(r1.upper.bits, r2.upper.bits))

    # The product space's states are the pairs (q1, q2); keying by them shares one tuple per state.
    table = {(q, a): entry(*q, *xs) for q in space.states for a, xs in zip(alphabet, fed[q[1]])}
    return Machine(space, tuple(alphabet), table, name)  # well formed by construction: see the module docstring


def full_direct(m1: Machine, m2: Machine) -> Machine:
    """Both factors run side by side; letters are input pairs (x1, x2)."""
    alphabet = tuple((x1, x2) for x1 in m1.alphabet for x2 in m2.alphabet)
    return _build(m1, m2, alphabet, lambda q2, a: a, f"full({m1.name},{m2.name})")


def restricted_direct(m1: Machine, m2: Machine) -> Machine:
    """Both factors read the same letter; the alphabets must agree."""
    if m1.alphabet != m2.alphabet:
        raise AlphabetMismatch("restricted product needs one shared alphabet")
    return _build(m1, m2, m1.alphabet, lambda q2, a: (a, a), f"restricted({m1.name},{m2.name})")


def general_direct(m1: Machine, m2: Machine, bridge: InputBridge) -> Machine:
    """An external alphabet drives both factors through the bridge's decoding."""
    if not bridge.carrier:
        raise BridgeTotalityError("bridge carrier lists no symbols")
    if len(set(bridge.carrier)) != len(bridge.carrier):
        raise BridgeTotalityError("bridge carrier lists a symbol twice")
    return _build(m1, m2, bridge.carrier, lambda q2, u: bridge.pair_for(u), f"general({m1.name},{m2.name})")


def wreath(m1: Machine, m2: Machine, budget: int = WREATH_BUDGET) -> Machine:
    """Letters pair a per-state input choice for m1 with an input for m2.

    The alphabet has |X1|^|Q2| * |X2| letters, which grows fast; the
    construction refuses to materialize more than `budget` of them.
    """
    n_letters = len(m1.alphabet) ** len(m2.space.states) * len(m2.alphabet)
    if n_letters > budget:
        raise BudgetExceeded(n_letters, budget, what="wreath alphabet")
    alphabet = tuple(
        (f, x2)
        for f in all_function_symbols(m1.alphabet, m2.space.states)
        for x2 in m2.alphabet
    )
    return _build(m1, m2, alphabet, lambda q2, a: (a[0](q2), a[1]), f"wreath({m1.name},{m2.name})")


def cascade(m1: Machine, m2: Machine, wiring: CascadeWiring) -> Machine:
    """m2 reads the letter and the wiring turns (q2, letter) into m1's input."""
    return _build(m1, m2, m2.alphabet, lambda q2, x2: (wiring.feed(q2, x2), x2), f"cascade({m1.name},{m2.name})")


def diagonal_bridge(alphabet: Sequence) -> InputBridge:
    """The bridge sending each shared letter x to the pair (x, x)."""
    alphabet = tuple(alphabet)
    return InputBridge(alphabet, {x: (x, x) for x in alphabet})


def pairing_bridge(first_alphabet: Sequence, second_alphabet: Sequence) -> InputBridge:
    """The identity bridge on all input pairs, first component major."""
    carrier = tuple((x1, x2) for x1 in first_alphabet for x2 in second_alphabet)
    return InputBridge(carrier, {pair: pair for pair in carrier})
