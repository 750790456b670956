"""Brute-force verdicts that the benchmark checks library outputs against.

Everything is recomputed from the definitions on plain frozensets of
states, with word runs taken from the test suite's oracle
(`tests/oracles.py`), never from the library's stepping or checking
functions. Slow on purpose; the benchmark calls these only outside its
timed region.
"""

from __future__ import annotations

from itertools import product as iter_product

import oracles


def _image(mapping, states) -> frozenset:
    return frozenset(mapping[q] for q in states)


def _entry_sets(machine, state, symbol):
    entry = machine.table[(state, symbol)]
    return entry.lower.states_set(), entry.upper.states_set()


def _run_sets(machine, state, word):
    """Entry sets for one letter, oracle word runs for longer words."""
    if len(word) == 1:
        return _entry_sets(machine, state, word[0])
    return oracles.word_run_reference(machine, state, word)


def _block_of(space, state) -> int:
    for i, cell in enumerate(space.blocks):
        if state in cell:
            return i
    raise KeyError(state)


def blocks_respected(source, target, mapping) -> bool:
    """Equivalent source states map to equivalent target states."""
    return all(
        len({_block_of(target.space, mapping[q]) for q in cell}) == 1
        for cell in source.space.blocks
    )


def covering_violated_at(m1, m2, eta, xi, q2, word) -> bool:
    """Whether m1's run from eta(q2) on `word` escapes the eta-image of m2's.

    One letter compares table entries; longer words compare word runs.
    """
    low1, up1 = _run_sets(m1, eta[q2], word)
    low2, up2 = _run_sets(m2, q2, tuple(xi[x] for x in word))
    return not (low1 <= _image(eta, low2) and up1 <= _image(eta, up2))


def covers(m1, m2, eta, xi, depth) -> bool:
    """Whether m2 covers m1 through (eta, xi) on all words up to `depth`.

    eta must be onto m1's states; words of length 1..max(1, depth) count.
    """
    if set(eta.values()) != set(m1.space.states):
        return False
    if not blocks_respected(m2, m1, eta):
        return False
    for n in range(1, max(1, depth) + 1):
        for word in iter_product(m1.alphabet, repeat=n):
            for q2 in m2.space.states:
                if covering_violated_at(m1, m2, eta, xi, q2, word):
                    return False
    return True


def counterexample_is_genuine(m1, m2, eta, xi, counterexample) -> bool:
    """Whether a reported failure point really breaks the covering.

    A counterexample is two equivalent m2 states whose images separate,
    a (state of m2, letter) or a (state of m2, word) whose containment
    fails.
    """
    a, b = counterexample
    if b in m2.space.states:
        same_block = _block_of(m2.space, a) == _block_of(m2.space, b)
        return same_block and _block_of(m1.space, eta[a]) != _block_of(m1.space, eta[b])
    word = (b,) if b in m1.alphabet else tuple(b)
    return covering_violated_at(m1, m2, eta, xi, a, word)


def homomorphic(m1, m2, f, g, depth) -> bool:
    """Whether (f, g) is a homomorphism from m1 to m2.

    Table entries are compared for single letters, and word runs for
    every word of length 1..depth, as the definition asks of both.
    """
    if not blocks_respected(m1, m2, f):
        return False
    for q in m1.space.states:
        for x in m1.alphabet:
            low1, up1 = _entry_sets(m1, q, x)
            low2, up2 = _entry_sets(m2, f[q], g[x])
            if not (_image(f, low1) <= low2 and _image(f, up1) <= up2):
                return False
    for n in range(1, depth + 1):
        for word in iter_product(m1.alphabet, repeat=n):
            mapped = tuple(g[x] for x in word)
            for q in m1.space.states:
                low1, up1 = oracles.word_run_reference(m1, q, word)
                low2, up2 = oracles.word_run_reference(m2, f[q], mapped)
                if not (_image(f, low1) <= low2 and _image(f, up1) <= up2):
                    return False
    return True


def isomorphic(m1, m2, f, g, depth) -> bool:
    """A homomorphism whose state and input maps are bijections."""
    bijective = (
        len(set(f.values())) == len(m1.space.states)
        and set(f.values()) == set(m2.space.states)
        and len(set(g.values())) == len(m1.alphabet)
        and set(g.values()) == set(m2.alphabet)
    )
    return bijective and homomorphic(m1, m2, f, g, depth)


def all_coverings(m1, m2, depth) -> list[tuple[dict, dict]]:
    """Every (eta, xi) under which m2 covers m1.

    State maps run lexicographically over m1's states per m2 state and
    input maps over m2's alphabet per m1 symbol, state map major: the
    order search_coverings documents.
    """
    found = []
    for f_values in iter_product(m1.space.states, repeat=len(m2.space.states)):
        eta = dict(zip(m2.space.states, f_values))
        for g_values in iter_product(m2.alphabet, repeat=len(m1.alphabet)):
            xi = dict(zip(m1.alphabet, g_values))
            if covers(m1, m2, eta, xi, depth):
                found.append((eta, xi))
    return found


def block_word_run(machine, block_ids, word):
    """The union of oracle word runs over every state of the given blocks."""
    lower, upper = frozenset(), frozenset()
    for i in block_ids:
        for q in machine.space.blocks[i]:
            low, up = oracles.word_run_reference(machine, q, word)
            lower |= low
            upper |= up
    return lower, upper


def format_states(space, states) -> str:
    """A state set in the CLI's union-of-blocks notation, from raw blocks."""
    cells = ["{" + ",".join(cell) + "}" for cell in space.blocks if cell[0] in states]
    return "∪".join(cells) if cells else "φ"
