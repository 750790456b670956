"""Brute-force reference implementations the tests compare against.

Everything here recomputes results straight from the definitions, using
plain frozensets of state names and the machine's raw table, never the
library's block-id algebra or its stepping functions. Slow on purpose:
the point is an independent route to the same value.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, combinations, product


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


def block_run_reference(machine, states, word):
    """(lower, upper) state sets of a run from a set of states.

    The union of word_run_reference over the states; (empty, empty)
    when there are none.
    """
    lower, upper = frozenset(), frozenset()
    for q in states:
        run_lower, run_upper = word_run_reference(machine, q, word)
        lower |= run_lower
        upper |= run_upper
    return lower, upper


def _words(alphabet, shortest, longest):
    for n in range(shortest, longest + 1):
        yield from product(alphabet, repeat=n)


def _entry(machine, state, symbol):
    return step_states(machine, (state,), symbol, "lower"), step_states(machine, (state,), symbol, "upper")


def _failures(source, target, mapping, contained, letter_pairs, word_pairs):
    """Every (counterexample, side) refuting a homomorphism or covering.

    `mapping` is the state map from `source` to `target`; block pairs
    (a, b) carry side None. `contained(part1, part2)` decides one
    containment, where part1 and part2 are the state sets of the first
    and second machine. `letter_pairs` yields (key, part1, part2, x) for
    table entries and `word_pairs` (key, part1, part2, word) for runs.
    """
    out = set()
    for cell in source.space.blocks:
        for a in cell:
            for b in cell:
                if block_states_of(target.space, mapping[a]) != block_states_of(target.space, mapping[b]):
                    out.add(((a, b), None))
    for key, r1, r2, label in chain(letter_pairs, word_pairs):
        for side, part1, part2 in zip(("lower", "upper"), r1, r2):
            if not contained(part1, part2):
                out.add(((key, label), side))
    return out


def homomorphism_failures(m1, m2, f, g, depth):
    """Every (counterexample, side) refuting (f, g) as a homomorphism.

    Checks block respect, every table entry, and word runs of every
    length 1..depth straight from the table.
    """

    def contained(part1, part2):
        return frozenset(f[q] for q in part1) <= part2

    letters = (
        (q, _entry(m1, q, x), _entry(m2, f[q], g[x]), x) for q in m1.space.states for x in m1.alphabet
    )
    words = (
        (q, word_run_reference(m1, q, w), word_run_reference(m2, f[q], tuple(g[x] for x in w)), w)
        for w in _words(m1.alphabet, 1, depth)
        for q in m1.space.states
    )
    return _failures(m1, m2, f, contained, letters, words)


def covering_failures(m1, m2, eta, xi, depth):
    """Every (counterexample, side) refuting m2 covering m1 through (eta, xi).

    eta is taken to be onto. Checks block respect, every table entry,
    and word runs of every length 2..depth straight from the table.
    """

    def contained(part1, part2):
        return part1 <= frozenset(eta[q] for q in part2)

    letters = (
        (q2, _entry(m1, eta[q2], x), _entry(m2, q2, xi[x]), x) for q2 in m2.space.states for x in m1.alphabet
    )
    words = (
        (q2, word_run_reference(m1, eta[q2], w), word_run_reference(m2, q2, tuple(xi[x] for x in w)), w)
        for w in _words(m1.alphabet, 2, depth)
        for q2 in m2.space.states
    )
    return _failures(m2, m1, eta, contained, letters, words)


def brute_homomorphic(m1, m2, f, g, depth):
    """True iff (f, g) is a homomorphism from m1 to m2, words 1..depth."""
    return not homomorphism_failures(m1, m2, f, g, depth)


def brute_covers(m1, m2, eta, xi, depth):
    """True iff m2 covers m1 through an onto eta and xi, words 2..depth."""
    return not covering_failures(m1, m2, eta, xi, depth)


def brute_canonical_key(machine):
    """The equality key of a machine, rendering every name on every use.

    State names, block members, symbols and each entry's member states
    (in declared order) all go through value_name afresh. On machines
    whose states print to distinct names, Machine.__eq__ must compare
    exactly this key.
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


def first_covering_failure(m1, m2, eta, xi, depth):
    """The first (counterexample, side) refuting a covering, or None.

    Visits the conditions in the order of a word-by-word walker: block
    respect (cells of m2 in order, against each cell's first member;
    side None), then every table entry, states of m2 major and letters
    in alphabet order, then words of length 2..depth by length, in
    itertools.product order, and m2's states in order for each word.
    Lower is tried before upper. eta is taken to be onto.
    """
    for cell in m2.space.blocks:
        home = block_states_of(m1.space, eta[cell[0]])
        for b in cell:
            if block_states_of(m1.space, eta[b]) != home:
                return (cell[0], b), None

    def escape(r1, r2):
        for side, part1, part2 in zip(("lower", "upper"), r1, r2):
            if not part1 <= frozenset(eta[q] for q in part2):
                return side
        return None

    for q2 in m2.space.states:
        for x in m1.alphabet:
            side = escape(_entry(m1, eta[q2], x), _entry(m2, q2, xi[x]))
            if side:
                return (q2, x), side
    for w in _words(m1.alphabet, 2, depth):
        mapped = tuple(xi[x] for x in w)
        for q2 in m2.space.states:
            side = escape(word_run_reference(m1, eta[q2], w), word_run_reference(m2, q2, mapped))
            if side:
                return (q2, w), side
    return None


def _closure_contained(m1, m2, starts, translate, contained, shortest):
    """Whether every configuration a word of length `shortest` or more reaches from `starts` is contained.

    A configuration is the lower and upper state sets of a run of m1 and
    of a run of m2; a letter x of m1 steps m1's half on x and m2's half
    on translate[x]. There are finitely many, so a breadth-first search
    over the configurations reached visits them all.
    """

    def step(config, x):
        low1, up1, low2, up2 = config
        y = translate[x]
        return (
            step_states(m1, low1, x, "lower"),
            step_states(m1, up1, x, "upper"),
            step_states(m2, low2, y, "lower"),
            step_states(m2, up2, y, "upper"),
        )

    configs = set(starts)
    for _ in range(shortest):  # the configurations of words of length 1, ..., shortest
        configs = {step(config, x) for config in configs for x in m1.alphabet}
    queue = deque(configs)
    while queue:
        config = queue.popleft()
        if not contained(*config):
            return False
        for x in m1.alphabet:
            reached = step(config, x)
            if reached not in configs:
                configs.add(reached)
                queue.append(reached)
    return True


def exact_covers(m1, m2, eta, xi):
    """True iff m2 covers m1 through an onto eta and xi on every word.

    Decided by closure, with no word length: block respect, then the
    paired states' entries on every letter, then a breadth-first search
    over the configurations words reach. A configuration is the lower
    and upper state sets of m1's run from [eta(q)] and of m2's run from
    [q] on the translated word; there are finitely many, and every one
    reached by a word of length 2 or more must lie inside the eta-image
    of m2's, lower in lower and upper in upper.
    """

    def contained(low1, up1, low2, up2):
        return low1 <= frozenset(eta[q] for q in low2) and up1 <= frozenset(eta[q] for q in up2)

    for cell in m2.space.blocks:
        if len({block_states_of(m1.space, eta[q]) for q in cell}) > 1:
            return False
    for q in m2.space.states:
        for x in m1.alphabet:
            if not contained(*_entry(m1, eta[q], x), *_entry(m2, q, xi[x])):
                return False
    starts = set()
    for q in m2.space.states:
        start1, start2 = block_states_of(m1.space, eta[q]), block_states_of(m2.space, q)
        starts.add((start1, start1, start2, start2))
    return _closure_contained(m1, m2, starts, xi, contained, 2)


def exact_homomorphic(m1, m2, f, g):
    """True iff (f, g) is a homomorphism from m1 to m2 on every word.

    Decided by closure, with no word length: block respect, then every
    entry against its image's entry, then a breadth-first search over
    the configurations words reach. A configuration is the lower and
    upper state sets of m1's run from [q] and of m2's run from [f(q)]
    on the translated word; there are finitely many, and in every one
    reached by a word of length 1 or more f of m1's sets must lie inside
    m2's, lower in lower and upper in upper.
    """

    def contained(low1, up1, low2, up2):
        return frozenset(f[q] for q in low1) <= low2 and frozenset(f[q] for q in up1) <= up2

    for cell in m1.space.blocks:
        if len({block_states_of(m2.space, f[q]) for q in cell}) > 1:
            return False
    for q in m1.space.states:
        for x in m1.alphabet:
            if not contained(*_entry(m1, q, x), *_entry(m2, f[q], g[x])):
                return False
    starts = set()
    for q in m1.space.states:
        start1, start2 = block_states_of(m1.space, q), block_states_of(m2.space, f[q])
        starts.add((start1, start1, start2, start2))
    return _closure_contained(m1, m2, starts, g, contained, 1)


def brute_coverings(m1, m2, depth):
    """Every (eta, xi) under which m2 covers m1 on words up to `depth`.

    State maps run over product(m1's states) per m2 state, onto ones
    only, and input maps over product(m2's alphabet) per m1 letter,
    state map major; each candidate is checked from scratch.
    """
    found = []
    targets = set(m1.space.states)
    for f_values in product(m1.space.states, repeat=len(m2.space.states)):
        if set(f_values) != targets:
            continue
        eta = dict(zip(m2.space.states, f_values))
        for g_values in product(m2.alphabet, repeat=len(m1.alphabet)):
            xi = dict(zip(m1.alphabet, g_values))
            if first_covering_failure(m1, m2, eta, xi, depth) is None:
                found.append((eta, xi))
    return found


def _reference_rows(text):
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split("#", 1)[0].split()
        if tokens:
            yield lineno, line, tokens


def _reference_column(line, index):
    import re

    return [m.start() + 1 for m in re.finditer(r"\S+", line.split("#", 1)[0])][index]


def _reference_names(tokens, start, stop, line, lineno, what):
    from roughfsm.errors import ParseError

    names = tokens[start:stop]
    for k, t in enumerate(names):
        if "{" in t or "}" in t:
            raise ParseError(f"invalid {what} name {t!r}", lineno, _reference_column(line, start + k))
    return names


def _reference_trans_line(tokens, line, lineno):
    from roughfsm.errors import ParseError

    if len(tokens) < 4:
        raise ParseError("incomplete transition line", lineno, _reference_column(line, 0))
    (state,) = _reference_names(tokens, 1, 2, line, lineno, "state")
    (symbol,) = _reference_names(tokens, 2, 3, line, lineno, "input")
    end = len(tokens)

    def read_set(i, keyword):
        if i == end or tokens[i] != keyword:
            raise ParseError(f"expected '{keyword}'", lineno, _reference_column(line, min(i, end - 1)))
        if i + 1 == end or tokens[i + 1] != "{":
            raise ParseError("expected '{'", lineno, _reference_column(line, min(i + 1, end - 1)))
        close = tokens.index("}", i + 2) if "}" in tokens[i + 2 :] else end
        members = _reference_names(tokens, i + 2, close, line, lineno, "state")
        if close == end:
            raise ParseError("unterminated set, expected '}'", lineno, _reference_column(line, -1))
        return members, close + 1

    lower, i = read_set(3, "lower")
    upper, i = read_set(i, "upper")
    if i < end:
        raise ParseError(f"unexpected token {tokens[i]!r}", lineno, _reference_column(line, i))
    return state, symbol, (lower, upper)


def reference_parse_machine(text):
    """The machine reader as it was before tails were keyed on their text.

    It tokenizes every line in full, reads every transition tail afresh
    and approximates each entry's member lists with `approximate`,
    refusing those that are not exact. The fast reader must give an
    equal machine, or raise the same error at the same place.
    """
    from roughfsm.core import RoughSet, approximate, make_partition
    from roughfsm.errors import (
        DuplicateState,
        NonDefinableEntry,
        NonPartition,
        ParseError,
        SemanticError,
        UnknownState,
    )
    from roughfsm.machine import make_machine

    name = states = inputs = None
    blocks = []
    entries = {}
    for lineno, line, tokens in _reference_rows(text):
        keyword = tokens[0]
        if name is None:
            if keyword != "machine":
                raise ParseError("document must start with a machine line", lineno, _reference_column(line, 0))
            if len(tokens) != 2:
                raise ParseError("machine line needs exactly one name", lineno, _reference_column(line, 0))
            (name,) = _reference_names(tokens, 1, 2, line, lineno, "machine")
            continue
        if keyword == "machine":
            raise ParseError("second machine line", lineno, _reference_column(line, 0))
        if keyword == "states":
            if states is not None:
                raise ParseError("second states line", lineno, _reference_column(line, 0))
            if len(tokens) == 1:
                raise ParseError("states line lists no states", lineno, _reference_column(line, 0))
            states = _reference_names(tokens, 1, len(tokens), line, lineno, "state")
        elif keyword == "block":
            if len(tokens) == 1:
                raise ParseError("block line lists no states", lineno, _reference_column(line, 0))
            blocks.append(_reference_names(tokens, 1, len(tokens), line, lineno, "state"))
        elif keyword == "inputs":
            if inputs is not None:
                raise ParseError("second inputs line", lineno, _reference_column(line, 0))
            if len(tokens) == 1:
                raise ParseError("inputs line lists no symbols", lineno, _reference_column(line, 0))
            inputs = _reference_names(tokens, 1, len(tokens), line, lineno, "input")
        elif keyword == "trans":
            state, symbol, sets = _reference_trans_line(tokens, line, lineno)
            if (state, symbol) in entries:
                raise SemanticError(
                    f"duplicate transition for ({state}, {symbol}) on line {lineno}"
                    f" (first on line {entries[state, symbol][0]})"
                )
            entries[state, symbol] = (lineno, sets)
        else:
            raise ParseError(f"unknown directive {keyword!r}", lineno, _reference_column(line, 0))

    if name is None:
        raise ParseError("empty document; a machine line is required")
    if states is None:
        raise ParseError("missing states line")
    if not blocks:
        raise ParseError("missing block lines")
    if inputs is None:
        raise ParseError("missing inputs line")
    try:
        space = make_partition(states, blocks)
    except (DuplicateState, NonPartition) as e:
        raise SemanticError(str(e)) from e

    table = {}
    for (state, symbol), (lineno, sets) in entries.items():
        if state not in states:
            raise SemanticError(f"transition from unknown state {state} on line {lineno}")
        if symbol not in inputs:
            raise SemanticError(f"transition on unknown input {symbol} on line {lineno}")
        parts = []
        for side, members in zip(("lower", "upper"), sets):
            try:
                rough = approximate(space, members)
            except UnknownState:
                bad = next(q for q in members if q not in states)
                raise SemanticError(f"unknown state {bad} in {side} set on line {lineno}") from None
            if not rough.is_exact():
                raise NonDefinableEntry(
                    f"{side} set of ({state}, {symbol}) on line {lineno} is not a union of blocks"
                )
            parts.append(rough.upper)
        table[(state, symbol)] = RoughSet(*parts)
    return make_machine(space, tuple(inputs), table, name)
