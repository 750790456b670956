"""Finite state machines whose transitions land on rough sets.

A machine is an approximation space of states, a finite input alphabet,
and a total table assigning to every (state, symbol) pair a rough set of
successor states. Transitions extend from states to definable sets
(union the entries over the set's members) and from symbols to words
(thread the lower track through lowers and the upper track through
uppers, starting from the block of the initial state).

A run therefore only ever holds whole blocks, so it is a run of the
block machine m/θ: one state per block, whose entry on a symbol is the
union of the entries of the block's states (Hartmanis and Stearns,
*Algebraic Structure Theory of Sequential Machines*, 1966). Each machine
compiles m/θ one symbol at a time, on first use, and every run steps
its rows. Runs hold block masks, so a step costs one OR per block of
the current set, not one union per state.

Words are plain tuples of symbols; the empty tuple is the empty word.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import attrgetter, eq, or_
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import ApproximationSpace, DefinableSet, RoughSet, _boundary_realizable, _union, value_name
from .errors import MismatchedSpace, SemanticError, UnknownSymbol

__all__ = [
    "Machine",
    "Violation",
    "Word",
    "make_machine",
    "validate_machine",
    "block_step",
    "word_step",
    "block_word_step",
]

Word = tuple
"""A word is a tuple of input symbols; () is the empty word."""


@dataclass(frozen=True)
class Violation:
    """One problem found in a machine's table."""

    state: object
    symbol: object
    reason: str

    def __str__(self):
        place = ""
        if self.state is not None or self.symbol is not None:
            q = value_name(self.state) if self.state is not None else "?"
            x = value_name(self.symbol) if self.symbol is not None else "?"
            place = f" at ({q}, {x})"
        return self.reason + place


class Machine:
    """An input alphabet plus a rough transition table over a state space.

    `table` maps (state, symbol) to a RoughSet over `space`. It is a
    read-only view of a copy of the mapping passed in, so the block
    machine compiled from it for runs cannot go stale. Machines are
    value objects: two compare equal when their rendered state names,
    blocks and alphabets agree, so that block i of one prints as block i
    of the other, and each table entry holds the same block ids. A machine
    survives a round trip through the text format even though structured
    names (tuples, function symbols) come back as plain strings, but
    entries holding distinct blocks that print alike differ. The display
    name is carried along but ignored by equality.
    """

    __hash__ = None

    def __init__(self, space: ApproximationSpace, alphabet: Sequence, table: Mapping, name: str = "m"):
        self.space = space
        self.alphabet = tuple(alphabet)
        self._table = dict(table)  # readers take the dict's get: the view's get forwards each call to it
        self.table = MappingProxyType(self._table)
        self.name = name
        self._symbol_index = {x: i for i, x in enumerate(self.alphabet)}
        self._rows = _BlockMachine((self._table, space))

    def __reduce__(self):
        """Pickle and copy as the arguments that build the machine: a view does not pickle."""
        return self.__class__, (self.space, self.alphabet, self._table, self.name)

    @property
    def states(self) -> tuple:
        return self.space.states

    def entry(self, state, symbol) -> RoughSet:
        self.space.position(state)
        self.symbol_index(symbol)
        return self.table[(state, symbol)]

    def symbol_index(self, symbol) -> int:
        try:
            return self._symbol_index[symbol]
        except KeyError:
            raise UnknownSymbol(f"unknown input symbol {value_name(symbol)}") from None

    def printed_names(self) -> tuple:
        """The printed state names, blocks as tuples of those names, and symbol names."""
        names = self.space.names
        blocks = tuple(tuple(map(names.__getitem__, cell)) for cell in self.space.block_positions)
        return names, blocks, tuple(map(value_name, self.alphabet))

    def canonical_key(self):
        names, blocks, symbols = self.printed_names()
        cells = map(self._table.get, product(self.space.states, self.alphabet))
        return names, blocks, symbols, tuple(
            (q, x, None if r is None else (r.lower.member_names(), r.upper.member_names()))
            for (q, x), r in zip(product(names, symbols), cells)
        )

    def __eq__(self, other):
        """Equal printed names, then entry block masks compared in table order up to the first difference."""
        if not isinstance(other, Machine):
            return NotImplemented
        grids = (map(m._table.get, product(m.space.states, m.alphabet)) for m in (self, other))
        masks = ((None if r is None else (r.lower.bits, r.upper.bits) for r in grid) for grid in grids)
        return self.printed_names() == other.printed_names() and all(map(eq, *masks))

    def __repr__(self):
        return (
            f"Machine({self.name!r}: {len(self.space.states)} states, "
            f"{self.space.n_blocks} blocks, {len(self.alphabet)} inputs)"
        )


def validate_machine(machine: Machine, strict: bool = False) -> list[Violation]:
    """All problems with a machine's shape, empty when it is well formed.

    Checks that states and alphabet are nonempty, the table is total with
    no stray entries, every entry is a RoughSet over the machine's own
    space, and lower <= upper holds throughout. With strict=True each
    entry must additionally be realizable, i.e. arise as the
    approximation of some state subset (no singleton boundary blocks).
    """
    out: list[Violation] = []
    if not machine.space.states:
        out.append(Violation(None, None, "machine has no states"))
    if not machine.alphabet:
        out.append(Violation(None, None, "machine has no input symbols"))
    if len(set(machine.alphabet)) != len(machine.alphabet):
        out.append(Violation(None, None, "alphabet lists a symbol twice"))

    table, positions, symbols = machine._table, machine.space._position, machine._symbol_index
    inside = 0
    for q, x in table:
        if q in positions and x in symbols:
            inside += 1
        else:
            out.append(Violation(q, x, "entry outside the state/alphabet grid"))
    # Each distinct entry object is decided once; the grid is walked only
    # to place what fails, a missing entry or a bad one, in table order.
    entries = table.values()
    reasons = dict(zip(map(id, entries), entries))
    for key, r in reasons.items():
        reasons[key] = _entry_problem(machine.space, strict, r)
    if inside < len(machine.space.states) * len(machine.alphabet) or any(reasons.values()):
        for q, x in product(machine.space.states, machine.alphabet):
            r = table.get((q, x))
            reason = "missing table entry" if r is None else reasons[id(r)]
            if reason:
                out.append(Violation(q, x, reason))
    return out


def _entry_problem(space: ApproximationSpace, strict: bool, r) -> str | None:
    """Why the table entry `r` is not a well-formed entry over `space`, or None."""
    if not isinstance(r, RoughSet):
        return "entry is not a rough set"
    if not (r.lower.space is space is r.upper.space or r.lower.space == space == r.upper.space):
        return "entry lives in a different space"
    if r.lower.bits & ~r.upper.bits:
        return "lower approximation not contained in upper"
    if strict and not _boundary_realizable(space, r.lower.bits, r.upper.bits):
        return "entry is not the approximation of any subset"
    return None


def make_machine(space: ApproximationSpace, alphabet: Sequence, table: Mapping, name: str = "m") -> Machine:
    """Build a machine and reject it unless its shape is valid.

    Raises SemanticError carrying the violations. Realizability is not
    required here; pass the result through validate_machine(strict=True)
    when the stronger property matters.
    """
    m = Machine(space, alphabet, table, name)
    problems = validate_machine(m)
    if problems:
        raise SemanticError(f"machine {name} is not well formed", problems)
    return m


_PARTS = (attrgetter("lower.bits"), attrgetter("upper.bits"))


class _Memo(dict):
    """Values worked out from `of` for each key on first use; it builds faster than `functools.cache`."""

    __slots__ = ("of",)

    def __init__(self, of):
        super().__init__()
        self.of = of


class _BlockMachine(_Memo):
    """symbol -> its lower and upper rows: the block machine m/θ of the (table, space) `of`.

    A row holds, per block, the OR of one part of its states' entries.
    Holding no machine, it forms no reference cycle with one.
    """

    def __missing__(self, symbol):
        table, space = self.of
        rows = self[symbol] = tuple(
            tuple(reduce(or_, (part(table[q, symbol]) for q in cell), 0) for cell in space.blocks) for part in _PARTS
        )
        return rows


def _step(machine: Machine, low: int, up: int, symbol) -> tuple[int, int]:
    """The lower and upper block masks that block masks `low` and `up` step to on `symbol`.

    One step of m/θ: the lower part is the OR of the lower rows of the
    blocks in `low`, the upper part that of the upper rows of the blocks
    in `up`, where a block's row is the OR of its states' entry parts.
    """
    lows, ups = machine._rows[symbol]
    return _union(lows, low), _union(ups, up)


def _run(machine: Machine, bits: int, word: Sequence) -> tuple[int, int]:
    """Run m/θ on `word` from block mask `bits`: the lower and the upper block mask it ends in.

    Every symbol is checked against the alphabet, even when a track is
    empty, and steps both tracks through `_step`.
    """
    low = up = bits
    for symbol in word:
        machine.symbol_index(symbol)
        low, up = _step(machine, low, up, symbol)
    return low, up


def block_step(machine: Machine, current: DefinableSet, symbol) -> RoughSet:
    """One transition out of a definable set of states.

    The lower (upper) part is the union of the entry lowers (uppers) over
    every state of the set. The empty set steps to (empty, empty).
    """
    return block_word_step(machine, current, (symbol,))


def word_step(machine: Machine, state, word: Sequence) -> RoughSet:
    """Run a word from a state; the empty word yields the state's block.

    After the first symbol the lower track continues through the lowers
    of block transitions and the upper track through the uppers, each
    fed its own current set. Equal tracks share one set.
    """
    low, up = _run(machine, machine.space.block_of(state).bits, word)
    lower = DefinableSet(machine.space, low)
    return RoughSet(lower, lower if up == low else DefinableSet(machine.space, up))


def block_word_step(machine: Machine, current: DefinableSet, word: Sequence) -> RoughSet:
    """Run a word from a definable set; the empty word yields the set itself.

    This equals the union of the word runs from the set's states. Every
    step is a union of entry parts over the current states, so it
    distributes over unions of start sets; and the blocks of the states
    of a definable set make up the set itself. Equal tracks share one set.
    """
    if current.space != machine.space:
        raise MismatchedSpace("definable set belongs to a different space")
    low, up = _run(machine, current.bits, word)
    lower = DefinableSet(machine.space, low)
    return RoughSet(lower, lower if up == low else DefinableSet(machine.space, up))
