"""Brute-force reference implementations the tests compare against.

Everything here recomputes results straight from the definitions, using
plain frozensets of state names and the machine's raw table, never the
library's block-id algebra or its stepping functions. Slow on purpose:
the point is an independent route to the same value.
"""

from __future__ import annotations

from itertools import combinations


def all_subsets(items):
    """Every subset of `items`, as frozensets, smallest first."""
    items = tuple(items)
    for r in range(len(items) + 1):
        for combo in combinations(items, r):
            yield frozenset(combo)


def brute_approximation(space, subset):
    """(lower, upper) of a subset as frozensets of states.

    Scans the raw block tuples: a block lands in the lower part when all
    its members are in the subset and in the upper part when any is.
    """
    subset = frozenset(subset)
    lower = frozenset(
        q for cell in space.blocks if all(m in subset for m in cell) for q in cell
    )
    upper = frozenset(
        q for cell in space.blocks if any(m in subset for m in cell) for q in cell
    )
    return lower, upper


def brute_definable(space, subset):
    """True iff the subset equals a union of raw block tuples."""
    subset = frozenset(subset)
    covered = frozenset(
        q for cell in space.blocks if any(m in subset for m in cell) for q in cell
    )
    return covered == subset


def brute_realizable(space, lower_states, upper_states):
    """True iff some subset approximates to exactly (lower, upper)."""
    want = (frozenset(lower_states), frozenset(upper_states))
    return any(
        brute_approximation(space, subset) == want
        for subset in all_subsets(space.states)
    )


def all_partitions(items, max_cells=None):
    """Every partition of `items` into at most `max_cells` cells.

    Yields lists of lists. Built by inserting one item at a time either
    into an existing cell or into a fresh one, so the count follows the
    usual restricted Bell numbers.
    """
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partial in all_partitions(rest, max_cells):
        for i in range(len(partial)):
            yield partial[:i] + [[first] + partial[i]] + partial[i + 1 :]
        if max_cells is None or len(partial) < max_cells:
            yield [[first]] + partial


def block_states_of(space, state):
    """The raw block tuple containing `state`."""
    for cell in space.blocks:
        if state in cell:
            return frozenset(cell)
    raise AssertionError(f"state {state!r} not in any block")


def step_states(machine, states, symbol, side):
    """Union of one table column's lower or upper parts over `states`."""
    out = frozenset()
    for q in states:
        entry = machine.table[(q, symbol)]
        part = entry.lower if side == "lower" else entry.upper
        out |= part.states_set()
    return out


def word_run_reference(machine, state, word):
    """(lower, upper) state sets of a word run, recomputed from the table.

    The run starts from the block of the state and threads the two parts
    separately: the next lower part is the union of entry lowers over
    the current lower part's states, and likewise for uppers.
    """
    start = block_states_of(machine.space, state)
    lower, upper = start, start
    for symbol in word:
        lower = step_states(machine, lower, symbol, "lower")
        upper = step_states(machine, upper, symbol, "upper")
    return lower, upper


def brute_canonical_key(machine):
    """The equality key of a machine, rendering every name on every use.

    State names, block members, symbols and each entry's member states
    (in declared order) all go through value_name afresh; Machine.__eq__
    must compare exactly this key.
    """
    from roughfsm.core import value_name

    def set_names(d):
        members = frozenset(q for i in d.block_ids for q in d.space.blocks[i])
        return tuple(value_name(q) for q in d.space.states if q in members)

    entries = []
    for q in machine.space.states:
        for x in machine.alphabet:
            r = machine.table.get((q, x))
            cell = None if r is None else (set_names(r.lower), set_names(r.upper))
            entries.append((value_name(q), value_name(x), cell))
    return (
        tuple(value_name(q) for q in machine.space.states),
        tuple(tuple(value_name(q) for q in cell) for cell in machine.space.blocks),
        tuple(value_name(x) for x in machine.alphabet),
        tuple(entries),
    )
