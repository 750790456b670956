"""Structure-preserving maps between machines: homomorphisms and coverings.

A homomorphism (f, g) sends states of the first machine to states of the
second and inputs to inputs so that (i) equivalent states stay
equivalent and (ii) the image of each entry's lower (upper) part is
contained in the target entry's lower (upper) part.

A covering of m1 by m2 runs the other way around: an onto state map
eta from m2's states to m1's and an input translation xi from m1's
alphabet to m2's, such that (i) eta preserves equivalence and (ii)
whatever m1 does from eta(q2) on a word is contained in the eta-image of
what m2 does from q2 on the translated word.

Condition (ii) is checked on two levels, up to a configurable depth:

- Single letters compare the per-state table entries of the paired
  states.
- Words of length 2..depth compare word runs, which start from the
  state's block, with the input map applied letter by letter.

A homomorphism needs no separate run check of single letters: once the
blocks are respected, each letter's run from a block is the union of the
entries of its states, and those entries already passed. A covering
gets no such check either, and there letters do not imply words: the
covered side's run unions over the whole block of eta(q2), which no
entry of q2 controls (`demos/04_coverings.py`).

Both checks share one walker. It runs |Q| * (|X1|^2 + ... + |X1|^depth)
pairs of word runs, where Q is the domain of the state map; above
1,000,000 it raises BudgetExceeded, which the command line reports
with exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from typing import Mapping

from .core import value_name
from .errors import BudgetExceeded, NotOnto, TotalityError
from .machine import Machine, word_step

__all__ = [
    "MorphismPair",
    "CoveringPair",
    "CheckResult",
    "check_homomorphism",
    "check_isomorphism",
    "check_covering",
    "search_coverings",
]

_BUDGET = 1_000_000
"""Cap on the word run pairs of a check; search_coverings' default cap."""


@dataclass(frozen=True)
class MorphismPair:
    """A state map f: Q1 -> Q2 and an input map g: X1 -> X2."""

    state_map: Mapping
    input_map: Mapping

    def f(self, q):
        return self.state_map[q]

    def g(self, x):
        return self.input_map[x]


@dataclass(frozen=True)
class CoveringPair:
    """A state map eta: Q2 -> Q1 (onto) and an input map xi: X1 -> X2."""

    state_map: Mapping
    input_map: Mapping

    def eta(self, q):
        return self.state_map[q]

    def xi(self, x):
        return self.input_map[x]

    def xi_word(self, word):
        return tuple(self.input_map[x] for x in word)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a morphism or covering check.

    `holds` is the verdict; on failure `counterexample` carries the
    offending pair, either two equivalent states whose images separate or
    a (state, word) whose transition containment breaks.
    """

    holds: bool
    reason: str = ""
    counterexample: tuple | None = field(default=None)

    def __bool__(self):
        return self.holds

    def __str__(self):
        if self.holds:
            return "holds"
        if self.counterexample is None:
            return f"fails: {self.reason}"
        parts = ", ".join(value_name(v) for v in self.counterexample)
        return f"fails at ({parts}): {self.reason}"


def _require_total(mapping: Mapping, domain, codomain, what: str):
    codomain = set(codomain)
    for v in domain:
        if v not in mapping:
            raise TotalityError(f"{what} is undefined on {value_name(v)}")
        if mapping[v] not in codomain:
            raise TotalityError(
                f"{what} sends {value_name(v)} outside its codomain"
            )


def _blocks_respected(source: Machine, target: Machine, mapping: Mapping) -> CheckResult:
    for cell in source.space.blocks:
        anchor = cell[0]
        target_block = target.space.block_id(mapping[anchor])
        for q in cell[1:]:
            if target.space.block_id(mapping[q]) != target_block:
                return CheckResult(
                    False,
                    "equivalent states map to inequivalent states",
                    (anchor, q),
                )
    return CheckResult(True)


def _walk(m1: Machine, m2: Machine, states, pair, image_first: bool, reason: str, depth: int) -> CheckResult:
    """Check the containments along the state map of `pair` on `states`.

    Each state q pairs q1 of m1 with q2 of m2: q1 = q and q2 its image
    when `image_first`, q2 = q and q1 its image otherwise. The image of
    the mapped side's lower (upper) part must lie inside the other
    side's. Letters compare table entries, then words of length 2..depth
    compare word runs. A failure names q and the letter or word, and
    `reason` is formatted with the failing side. BudgetExceeded is raised
    before the word pass when it would run more than _BUDGET pairs of
    word runs; its size counts the lengths up to the first one past the
    budget, so a huge depth costs nothing to refuse.
    """
    state_map, input_map = pair.state_map, pair.input_map
    if image_first:
        def contained(d1, d2):
            return frozenset(map(state_map.__getitem__, d1.states_set())) <= d2.states_set()
    else:
        def contained(d1, d2):
            return d1.states_set() <= frozenset(map(state_map.__getitem__, d2.states_set()))

    def escaped(r1, r2):
        if not contained(r1.lower, r2.lower):
            return "lower"
        if not contained(r1.upper, r2.upper):
            return "upper"
        return None

    for q in states:
        q1, q2 = (q, state_map[q]) if image_first else (state_map[q], q)
        for x in m1.alphabet:
            side = escaped(m1.table[(q1, x)], m2.table[(q2, input_map[x])])
            if side:
                return CheckResult(False, reason.format(side=side), (q, x))

    size, runs = 0, len(states)
    for _ in range(2, depth + 1):
        runs *= len(m1.alphabet)
        size += runs
        if size > _BUDGET:
            raise BudgetExceeded(size, _BUDGET, what="word runs")

    for n in range(2, depth + 1):
        for word in iter_product(m1.alphabet, repeat=n):
            mapped = tuple(input_map[x] for x in word)
            for q in states:
                q1, q2 = (q, state_map[q]) if image_first else (state_map[q], q)
                side = escaped(word_step(m1, q1, word), word_step(m2, q2, mapped))
                if side:
                    return CheckResult(False, reason.format(side=side), (q, word))
    return CheckResult(True)


def check_homomorphism(m1: Machine, m2: Machine, pair: MorphismPair, depth: int = 2) -> CheckResult:
    """Decide whether (f, g) is a homomorphism from m1 to m2.

    Single symbols are checked on the transition tables; every word of
    length 2..depth is additionally checked through word runs (see the
    module docstring). Raises TotalityError when f or g misses part of
    its domain or escapes its codomain, and BudgetExceeded when the word
    pass is too large.
    """
    _require_total(pair.state_map, m1.space.states, m2.space.states, "state map")
    _require_total(pair.input_map, m1.alphabet, m2.alphabet, "input map")

    respected = _blocks_respected(m1, m2, pair.state_map)
    if not respected:
        return respected
    return _walk(m1, m2, m1.space.states, pair, True, "{side} image escapes the target {side}", depth)


def check_isomorphism(m1: Machine, m2: Machine, pair: MorphismPair, depth: int = 2) -> CheckResult:
    """A homomorphism whose state and input maps are both bijections."""
    hom = check_homomorphism(m1, m2, pair, depth)
    if not hom:
        return hom
    f_values = set(pair.state_map.values())
    if len(f_values) != len(m1.space.states):
        return CheckResult(False, "state map is not injective")
    if f_values != set(m2.space.states):
        return CheckResult(False, "state map is not onto the target states")
    g_values = set(pair.input_map.values())
    if len(g_values) != len(m1.alphabet):
        return CheckResult(False, "input map is not injective")
    if g_values != set(m2.alphabet):
        return CheckResult(False, "input map is not onto the target alphabet")
    return CheckResult(True)


def check_covering(m1: Machine, m2: Machine, pair: CoveringPair, depth: int = 2) -> CheckResult:
    """Decide whether m2 covers m1 through (eta, xi).

    eta must be total on m2's states and onto m1's (NotOnto otherwise);
    xi must be total on m1's alphabet into m2's. Single symbols compare
    table entries, words of length 2..depth compare word runs, with xi
    applied symbol by symbol (see the module docstring). The empty word
    is deliberately out of scope; it would assert a block-surjectivity
    property that coverings do not promise.
    """
    _require_total(pair.state_map, m2.space.states, m1.space.states, "state map")
    _require_total(pair.input_map, m1.alphabet, m2.alphabet, "input map")
    if set(pair.state_map[q] for q in m2.space.states) != set(m1.space.states):
        raise NotOnto("state map does not reach every covered state")

    respected = _blocks_respected(m2, m1, pair.state_map)
    if not respected:
        return respected

    return _walk(m1, m2, m2.space.states, pair, False, "covered {side} escapes the eta-image", depth)


def search_coverings(m1: Machine, m2: Machine, depth: int = 1, budget: int = _BUDGET) -> list[CoveringPair]:
    """Every (eta, xi) under which m2 covers m1, in enumeration order.

    Candidate state maps run lexicographically over m1's states per m2
    state, input maps over m2's alphabet per m1 symbol, state map major.
    The full candidate count |Q1|^|Q2| * |X2|^|X1| must stay within
    `budget` (BudgetExceeded otherwise). Returns [] when nothing passes;
    with fewer states in m2 than in m1 no map is onto, so the result is
    empty without enumeration.
    """
    n_states = len(m1.space.states) ** len(m2.space.states)
    n_inputs = len(m2.alphabet) ** len(m1.alphabet)
    size = n_states * n_inputs
    if size > budget:
        raise BudgetExceeded(size, budget)
    if len(m2.space.states) < len(m1.space.states):
        return []

    found = []
    targets = set(m1.space.states)
    for f_values in iter_product(m1.space.states, repeat=len(m2.space.states)):
        if set(f_values) != targets:
            continue
        eta = dict(zip(m2.space.states, f_values))
        for g_values in iter_product(m2.alphabet, repeat=len(m1.alphabet)):
            xi = dict(zip(m1.alphabet, g_values))
            pair = CoveringPair(eta, xi)
            if check_covering(m1, m2, pair, depth):
                found.append(pair)
    return found
