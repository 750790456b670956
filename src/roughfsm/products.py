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
componentwise: lower with lower, upper with upper. The builder keeps one
immutable entry per distinct pair of factor entry objects it reads,
shared by every (q1, q2, letter) that reads that pair; parsed factors
already share equal entries, so their products share more. Each q2
column groups its letters by the (x1, x2) they feed, so a pair's entry
is looked up once per q1, not once per letter.

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
from itertools import product as iter_product, repeat
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
    Each pair of factor entry objects read gives one entry, and each pair of factor block masks one side.
    """
    space = product_partition(m1.space, m2.space)
    ids1, n2 = m1.space.ids, m2.space.n_blocks
    symbols1, symbols2, table1 = m1._symbol_index, m2._symbol_index, m1._table
    columns = []  # per q2: each distinct (x1, m2's entry at (q2, x2)) fed, and each letter's index among them
    for q2 in m2.space.states:
        row = [feed(q2, a) for a in alphabet]
        fed = {}  # each distinct (x1, x2) -> its index
        index = [fed.setdefault(xs, len(fed)) for xs in row]
        for (x1, x2), i in fed.items():  # in first-appearance order: the first bad pair is the first bad letter's
            if x1 not in symbols1 or x2 not in symbols2:
                which, x = ("first", x1) if x1 not in symbols1 else ("second", x2)
                where = f"letter {value_name(alphabet[index.index(i)])} at {value_name(q2)}"
                raise UnknownSymbol(f"{where} feeds unknown {which} input {value_name(x)}")
        columns.append(([(x1, m2._table[q2, x2]) for x1, x2 in fed], index))

    spread = {}  # m1 block mask -> block i moved to bit i * n2, where block (i, j) sits at i * n2 + j
    sides = {}  # (m1 block mask, m2 block mask) -> their product side
    entries = {}  # (id of an m1 entry, id of an m2 entry) -> their product entry; both tables hold them

    def side(bits1: int, bits2: int) -> DefinableSet:
        out = sides.get((bits1, bits2))
        if out is None:
            if bits1 not in spread:
                spread[bits1] = sum(map((1).__lshift__, map(n2.__mul__, ids1(bits1))))
            out = sides[bits1, bits2] = DefinableSet(space, spread[bits1] * bits2)  # exact: bits2 < 2**n2
        return out

    def entry(r1: RoughSet, r2: RoughSet) -> RoughSet:
        key = id(r1), id(r2)
        out = entries.get(key)
        if out is None:
            out = entries[key] = RoughSet(side(r1.lower.bits, r2.lower.bits), side(r1.upper.bits, r2.upper.bits))
        return out

    # The product space's states are the pairs (q1, q2), q1 major as the loops run;
    # keying by them shares one tuple per state.
    table = {}
    states = iter(space.states)
    for q1 in m1.space.states:
        for pairs, index in columns:
            row = [entry(table1[q1, x1], r2) for x1, r2 in pairs]
            table.update(zip(zip(repeat(next(states)), alphabet), map(row.__getitem__, index)))
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
