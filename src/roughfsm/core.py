"""Approximation spaces and rough subsets of a finite state set.

An approximation space is a finite set of states together with an
equivalence relation, kept here as the ordered list of its blocks. A
subset A of the states is approximated from below by the union of the
blocks contained in A and from above by the union of the blocks meeting
A. The pair of approximations is a rough set; sets that equal their own
approximations (unions of blocks) are definable.

A definable set is one int, its block mask: bit i stands for block i.
Masks are made by `_bits`, ORed over per-block ints bit by bit by
`_union`, and listed as ids, blocks, states or names by `_pick`, which
keeps no table. A set holds nothing but its space and its block mask:
listing its states or names ORs its blocks' member masks on each call
and picks from the result. All types are immutable values: equal
content compares equal and can be used in dicts and sets. A space
renders its state names once, on first use of `names`, so writing or
comparing a table costs one lookup per member.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress
from typing import Iterable

from .errors import DuplicateState, MismatchedSpace, NonPartition, UnknownState

__all__ = [
    "ApproximationSpace",
    "DefinableSet",
    "RoughSet",
    "make_partition",
    "approximate",
    "is_definable",
    "is_realizable",
    "product_partition",
    "value_name",
]


def value_name(value) -> str:
    """Canonical printed name of a state or input symbol.

    Plain values print as themselves; tuples print as "(a,b)" with the
    members named recursively and no spaces. The result contains no
    whitespace as long as the atoms do not, which keeps names usable as
    single tokens in the text format.
    """
    if isinstance(value, tuple):
        return "(" + ",".join(value_name(v) for v in value) + ")"
    return str(value)


@dataclass(frozen=True)
class ApproximationSpace:
    """A finite state set with an equivalence relation given by its blocks.

    `states` fixes the declared order; `blocks` holds the partition cells
    with members in state order and cells ordered by their first member.
    Use make_partition to build one from unordered input.
    """

    states: tuple
    blocks: tuple[tuple, ...]
    _block_id: dict = field(init=False, repr=False, compare=False)
    _position: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        position = {}
        for i, q in enumerate(self.states):
            if q in position:
                raise DuplicateState(f"state {value_name(q)} declared twice")
            position[q] = i
        block_id = {}
        for i, cell in enumerate(self.blocks):
            for q in cell:
                if q not in position:
                    raise NonPartition(f"block member {value_name(q)} is not a state")
                if q in block_id:
                    raise NonPartition(f"state {value_name(q)} lies in two blocks")
                block_id[q] = i
        if len(block_id) != len(position):
            missing = next(q for q in self.states if q not in block_id)
            raise NonPartition(f"state {value_name(missing)} lies in no block")
        object.__setattr__(self, "_position", position)
        object.__setattr__(self, "_block_id", block_id)

    def __eq__(self, other):  # mostly compared with itself: skip the field walk then
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or (self.states, self.blocks) == (other.states, other.blocks)

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.states, self.blocks))

    def __reduce__(self):  # string hashes differ between processes: pickle no cache
        return self.__class__, (self.states, self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def names(self) -> tuple[str, ...]:
        """Printed names of the states, in declared order."""
        return tuple(map(value_name, self.states))

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        """One int per block: the mask of its members' positions in the declared order."""
        return tuple(map(_bits, self.block_positions))

    @cached_property
    def _single_blocks(self) -> int:
        """The block mask of the blocks with one state."""
        return _bits(i for i, cell in enumerate(self.blocks) if len(cell) == 1)

    @cached_property
    def block_positions(self) -> tuple[tuple[int, ...], ...]:
        """One tuple per block: its members' positions in the declared order."""
        return tuple(tuple(map(self._position.__getitem__, cell)) for cell in self.blocks)

    def position(self, state) -> int:
        """Index of `state` in the declared order."""
        try:
            return self._position[state]
        except KeyError:
            raise UnknownState(f"unknown state {value_name(state)}") from None

    def block_id(self, state) -> int:
        """Id of the block containing `state`."""
        self.position(state)
        return self._block_id[state]

    def block_of(self, state) -> "DefinableSet":
        """The block containing `state`, as a definable set."""
        return DefinableSet(self, 1 << self.block_id(state))

    def empty_set(self) -> "DefinableSet":
        return DefinableSet(self, 0)

    def full_set(self) -> "DefinableSet":
        return DefinableSet(self, (1 << self.n_blocks) - 1)

    def definable(self, block_ids: Iterable[int]) -> "DefinableSet":
        ids, n = frozenset(block_ids), self.n_blocks
        if ids and not 0 <= min(ids) <= max(ids) < n:  # checked before shifting: 1 << -1 raises ValueError
            raise NonPartition(f"no block with id {next(i for i in ids if not 0 <= i < n)}")
        return DefinableSet(self, _bits(ids))

    def ids(self, bits: int) -> tuple[int, ...]:
        """The block ids of the set bits of the block mask `bits`, ascending."""
        return tuple(_pick(range(self.n_blocks), bits))


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _pick(values, bits: int):
    """The values[i] at the set bits i of the non-negative mask `bits`, ascending in i.

    `compress` reads one 0/1 byte per bit, low bit first, and stops at the
    end of `values`.
    """
    return compress(values, bin(bits)[:1:-1].encode().translate(_FLAGS))


def _union(masks, bits: int) -> int:
    """The OR of masks[i] over the set bits i of the block mask `bits`.

    Walking the set bits beats a `_pick` over `masks` on the few-bit masks of runs and checks.
    """
    out = 0
    while bits:
        bit = bits & -bits
        out |= masks[bit.bit_length() - 1]
        bits ^= bit
    return out


def _bits(ids) -> int:
    """The mask of distinct, non-negative ids: block ids or state positions."""
    return sum(map((1).__lshift__, ids))


@dataclass(frozen=True)
class DefinableSet:
    """A union of blocks of one approximation space.

    The value is `bits`, the block mask, and the space pins down what
    its bits mean; `block_ids`, the states and their names are derived
    on each read, so a set keeps nothing beside its value. Supports |,
    &, - and <= against sets of the same space.
    """

    # Not slots=True, whose copy of the class makes assigning `block_ids` raise
    # TypeError, not AttributeError. Pickle and copy go through __init__.
    __slots__ = ("space", "bits")
    space: ApproximationSpace
    bits: int

    def __post_init__(self):
        if self.bits >> len(self.space.blocks):  # also -1 >> n == -1: negatives fail too
            raise NonPartition(f"block mask {self.bits} is not a set of {len(self.space.blocks)} blocks")

    def __reduce__(self):
        return self.__class__, (self.space, self.bits)

    @property
    def block_ids(self) -> frozenset[int]:
        return frozenset(self.space.ids(self.bits))

    def states_set(self) -> frozenset:
        return frozenset(chain.from_iterable(self.blocks_ordered()))

    def _in_order(self, values) -> tuple:
        """The `values` at the members' positions, in declared order."""
        return tuple(_pick(values, sum(_pick(self.space.block_masks, self.bits))))  # blocks are disjoint

    def states_ordered(self) -> tuple:
        return self._in_order(self.space.states)

    def member_names(self) -> tuple[str, ...]:
        """Printed names of the member states, in declared order."""
        return self._in_order(self.space.names)

    def blocks_ordered(self) -> tuple[tuple, ...]:
        return tuple(_pick(self.space.blocks, self.bits))

    def _check_space(self, other: "DefinableSet"):
        if self.space != other.space:
            raise MismatchedSpace("definable sets live in different spaces")

    def __contains__(self, state) -> bool:
        return bool(self.bits >> self.space.block_id(state) & 1)

    def __bool__(self) -> bool:
        return bool(self.bits)

    def __le__(self, other: "DefinableSet") -> bool:
        self._check_space(other)
        return not self.bits & ~other.bits

    def __or__(self, other: "DefinableSet") -> "DefinableSet":
        self._check_space(other)
        return DefinableSet(self.space, self.bits | other.bits)

    def __and__(self, other: "DefinableSet") -> "DefinableSet":
        self._check_space(other)
        return DefinableSet(self.space, self.bits & other.bits)

    def __sub__(self, other: "DefinableSet") -> "DefinableSet":
        self._check_space(other)
        return DefinableSet(self.space, self.bits & ~other.bits)


@dataclass(frozen=True, slots=True)
class RoughSet:
    """A lower and an upper approximation over one shared space.

    Values produced by approximate() always satisfy lower <= upper.
    Construction does not enforce that, so validators can describe broken
    tables instead of refusing to represent them.
    """

    lower: DefinableSet
    upper: DefinableSet

    def __post_init__(self):
        if self.lower.space != self.upper.space:
            raise MismatchedSpace("lower and upper belong to different spaces")

    @property
    def space(self) -> ApproximationSpace:
        return self.lower.space

    def boundary(self) -> DefinableSet:
        return self.upper - self.lower

    def is_exact(self) -> bool:
        return self.lower.bits == self.upper.bits


def make_partition(states: Iterable, cells: Iterable[Iterable]) -> ApproximationSpace:
    """Build an approximation space from a state list and partition cells.

    The cells may come in any order and any internal order; they are
    canonicalized (members in state order, cells by first member). Raises
    NonPartition when a cell is empty, lists a state twice or mentions an
    undeclared name; then the space raises DuplicateState for repeated
    state names and NonPartition when the cells overlap or miss a state.
    """
    states = tuple(states)
    position = {q: i for i, q in enumerate(states)}

    normalized = []
    for cell in cells:
        members = tuple(cell)
        if not members:
            raise NonPartition("empty block")
        for q in members:
            if q not in position:
                raise NonPartition(f"block member {value_name(q)} is not a state")
        if len(set(members)) != len(members):
            raise NonPartition("block lists a state twice")
        normalized.append(tuple(sorted(members, key=position.__getitem__)))
    normalized.sort(key=lambda cell: position[cell[0]])
    return ApproximationSpace(states, tuple(normalized))


def approximate(space: ApproximationSpace, members: Iterable) -> RoughSet:
    """Rough approximation of an arbitrary subset of the states.

    Lower: blocks contained in the subset. Upper: blocks meeting it.
    Raises UnknownState if the subset mentions a state outside the space.
    """
    subset = frozenset(members)
    try:  # one lookup per member; only the blocks met can lie inside
        upper = frozenset(map(space._block_id.__getitem__, subset))
    except KeyError as e:
        raise UnknownState(f"unknown state {value_name(e.args[0])}") from None
    lower = [i for i in upper if subset.issuperset(space.blocks[i])]
    return RoughSet(DefinableSet(space, _bits(lower)), DefinableSet(space, _bits(upper)))


def union_bits(space: ApproximationSpace, members: Iterable) -> int | None:
    """The block mask of the blocks a subset meets when it is their union, else None.

    Raises UnknownState at the first member, in the order given, that is not a state.
    """
    members = list(members)
    try:
        ids = set(map(space._block_id.__getitem__, members))
    except KeyError as e:
        raise UnknownState(f"unknown state {value_name(e.args[0])}") from None
    return _bits(ids) if len(set(members)) == sum(map(len, map(space.blocks.__getitem__, ids))) else None


def is_definable(space: ApproximationSpace, members: Iterable) -> bool:
    """True iff the subset is a union of blocks: it has as many distinct members as the blocks it meets."""
    return union_bits(space, members) is not None


def is_realizable(space: ApproximationSpace, lower: DefinableSet, upper: DefinableSet) -> bool:
    """True iff (lower, upper) is the approximation of some subset.

    That happens exactly when lower <= upper and every block of the
    boundary has at least two states: a singleton block meeting a subset
    is already contained in it, so it can never sit strictly between the
    approximations.
    """
    if lower.space != space or upper.space != space:
        raise MismatchedSpace("definable sets belong to a different space")
    return lower <= upper and _boundary_realizable(space, lower.bits, upper.bits)


def _boundary_realizable(space: ApproximationSpace, lower: int, upper: int) -> bool:
    """True iff every block of block mask `upper` outside `lower` has at least two states."""
    return not upper & ~lower & space._single_blocks


def product_partition(first: ApproximationSpace, second: ApproximationSpace) -> ApproximationSpace:
    """The componentwise product space.

    States are pairs (q1, q2) in first-major order, and two pairs are
    equivalent iff both components are. Block ids follow the same
    first-major convention: the pair of blocks (i, j) becomes block
    i * second.n_blocks + j, which product constructions rely on.
    """
    states = tuple((p, q) for p in first.states for q in second.states)
    blocks = tuple(
        tuple((p, q) for p in cell1 for q in cell2)
        for cell1 in first.blocks
        for cell2 in second.blocks
    )
    return ApproximationSpace(states, blocks)
