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

A homomorphism is decided exactly from blocks and letters: (i) and
(ii) imply that f of m1's run from [q] lies inside m2's run from [f(q)]
on every word, lower in lower and upper in upper. By induction on the
word: the empty word runs [q] into [f(q)] by (i); a further letter x
steps to the union of the entries of the states p of the current set,
each f(p) lies in m2's current set, and by (ii) f of p's entry lies in
the entry of f(p) on g(x), a part of m2's next set.

A covering is not: the covered side's run unions over the whole block
of eta(q2), which no entry of q2 controls (`demos/04_coverings.py`),
so its condition (ii) is also checked on two-letter words, run from the
paired states' blocks with xi applied letter by letter. These decide
every word: if m1's run on w from [eta(q)] lies inside the eta-image of
m2's run on xi(w) from [q] (both tracks), each state p of m1's current
set is eta(q') for some q' of m2's current set, and the letter
condition puts p's entry on x inside the eta-image of q''s entry on
xi(x), a part of m2's next set. So every extension of a contained word
stays contained, and a failing word of length 3 or more has a failing
prefix of length 2. The same induction starts at the empty word: a
start whose block [eta(q)] already lies inside the eta-image of [q]
needs no words at all, so the pass steps only the other starts, and
when eta maps each block onto a block the letters decide every word.
The two-letter pass may cost |Q2| * |X1|^2 word runs; above 1,000,000
it raises BudgetExceeded before it starts, which the command line
reports with exit code 2.

Both checks test every letter, and the covering every configuration
of its two-letter pass, with one containment test, `_escape`, on the
lower and upper masks of the two sides. A state map that respects
blocks induces a block map beta between block ids. A homomorphism
compares block masks: f(a) is a nonempty part of the block beta(a)
and blocks are disjoint, so f of the union of a part A lies in the
union of B exactly when beta(A) is inside B.

A covering compares masks over atoms, the meet of m1's partition and
the partition by the eta-images of m2's blocks (Hartmanis and Stearns,
1966): an atom is a set of m1 states that the same m2 blocks reach
through eta. eta is onto and respects blocks, so each m1 state is
reached by some m2 block of its own block's preimage, and every m1
block is a union of atoms; so is every eta-image of an m2 block. Atoms
are disjoint and nonempty, so for any eta a part A of m1 lies in the
eta-image of a part B of m2 exactly when A's atoms are among B's. When
eta maps each block onto a block, the atoms are m1's blocks; when eta
is a bijection, they are the images of m2's blocks. Atoms are numbered
in the order m2's blocks first reach them, so a side whose table maps
each block to its own bit, as between two machines over one product
partition, reads its entries' block masks as they are, and the test is
`A & ~B`. Otherwise each side ORs one atom mask per block over an
entry's block mask. When eta maps blocks onto blocks, every start is
inside; other coverings may step block masks through `machine._step`,
the step every run takes, and each check or search memoizes the
configurations it steps.

`search_coverings` assigns eta depth first, one m2 state at a time in
declared order, trying m1's states in declared order, and keeps its own
stack, so |Q2| is not limited by recursion. A partial map is dropped at
the first state where block respect, onto-ness (enough states left to
hit every m1 state) or a letter fails. Each m2 entry is checked as soon
as its state and every member of its blocks have a value, by striking
its letter from the candidates of every m1 letter it cannot serve. As
eta is partial until then, the search compares state masks: m1's
blocks' member masks against the eta-images of m2's blocks. The
budget still counts every pair of maps, |Q1|^|Q2| * |X2|^|X1|, though
far fewer are visited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product as iter_product
from operator import attrgetter
from typing import Mapping

from .core import ApproximationSpace, _union, value_name
from .errors import BadDepth, BudgetExceeded, NotOnto, TotalityError
from .machine import Machine, _Memo, _step

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

_COVERED = "covered {side} escapes the eta-image"


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


def _require_total(mapping: Mapping, domain, codomain: Mapping, what: str):
    """Raise TotalityError unless `mapping` sends each of `domain` to a key of `codomain`.

    `codomain` is a position index of the target, `_position` of a
    space or `_symbol_index` of a machine, so no set is built per check.
    """
    for v in domain:
        if v not in mapping:
            raise TotalityError(f"{what} is undefined on {value_name(v)}")
        if mapping[v] not in codomain:
            raise TotalityError(f"{what} sends {value_name(v)} outside its codomain")


def _require_depth(depth: int):
    if depth < 0:
        raise BadDepth(f"depth must not be negative, got {depth}")


def _block_map(space: ApproximationSpace, mapping: Mapping, target: ApproximationSpace):
    """beta: per block of `space`, the id of the `target` block its members map into.

    A failing CheckResult instead, naming a block's first member and the
    first member mapped elsewhere, when some block's members map into
    two blocks of `target`.
    """
    ids, beta = target._block_id, []
    for cell in space.blocks:
        home = ids[mapping[cell[0]]]
        for q in cell:
            if ids[mapping[q]] != home:
                return CheckResult(False, "equivalent states map to inequivalent states", (cell[0], q))
        beta.append(home)
    return beta


def _atoms(space2: ApproximationSpace, eta: Mapping, space1: ApproximationSpace, beta: list[int]):
    """The atom masks of m1's blocks and of the eta-images of m2's blocks, per block id.

    An atom is a set of m1 states that the same m2 blocks reach through
    eta; atoms are numbered in the order m2's blocks first reach them.
    """
    position = space1._position
    reach = [0] * len(space1.states)  # per m1 position, the bits of the m2 blocks reaching it
    for b, cell in enumerate(space2.blocks):
        bit = 1 << b
        for q in cell:
            reach[position[eta[q]]] |= bit
    atom, masks1, masks2 = {}, [0] * space1.n_blocks, []
    for cell, a in zip(space2.blocks, beta):
        mask = 0
        for q in cell:
            mask |= 1 << atom.setdefault(reach[position[eta[q]]], len(atom))
        masks2.append(mask)
        masks1[a] |= mask
    return masks1, masks2


_BLOCKS = attrgetter("lower.bits", "upper.bits")


def _reader(unions):
    """A reader of an entry's lower and upper block masks mapped through `unions`.

    When `unions` maps each block to its own bit, whatever sequence holds
    its table, the masks are read as they are.
    """
    if all(mask == 1 << i for i, mask in enumerate(unions.of)):
        return _BLOCKS
    return lambda r: (unions[r.lower.bits], unions[r.upper.bits])


def _escape(parts1, parts2):
    """"lower" or "upper" for the first part of side 1 not inside side 2's, else None.

    Each side is its (lower, upper) masks, and inside means no bit
    outside. Every letter and every configuration is tested here.
    """
    if parts1[0] & ~parts2[0]:
        return "lower"
    if parts1[1] & ~parts2[1]:
        return "upper"
    return None


class _Unions(_Memo):
    """Block mask -> its `_union` over `of`, one int per block: each part once per check."""

    def __missing__(self, key: int) -> int:
        out = self[key] = _union(self.of, key)
        return out


class _Steps(_Memo):
    """(lower mask, upper mask, symbol) -> `machine._step` of the machine `of` on them."""

    def __missing__(self, key):
        out = self[key] = _step(self.of, *key)
        return out


def _letters(m1: Machine, m2: Machine, pairs, input_map, read1, read2, reason: str) -> CheckResult:
    """Check that m1's entries lie inside m2's along `pairs`, state major.

    Each (q, q1, q2) pairs q1 of m1 with q2 of m2; `read1` and `read2`
    turn an entry of each side into the (lower, upper) masks `_escape`
    compares. A failure names q and the letter, and formats `reason`
    with the failing side.
    """
    table1, table2 = m1._table, m2._table
    letters = [(x, input_map[x]) for x in m1.alphabet]
    for q, q1, q2 in pairs:
        for x, y in letters:
            side = _escape(read1(table1[q1, x]), read2(table2[q2, y]))
            if side:
                return CheckResult(False, reason.format(side=side), (q, x))
    return CheckResult(True)


def _words(steps1, steps2, pairs, input_map, unions, reason: str) -> CheckResult:
    """Check the runs of every two-letter word along `pairs`, whose letters have passed.

    Raises BudgetExceeded above _BUDGET word runs, |pairs| * |X1|^2,
    before anything runs. A start whose side-1 block lies inside the
    image of its side-2 block stays inside on every word (see the module
    docstring), so only the other starts run. A run's configuration, the
    lower and upper block masks of both runs, steps from the distinct
    start blocks by a letter, each machine's half through its memoized
    `machine._step` in `steps1` or `steps2`, and each distinct
    configuration is checked once, its block masks turned into the masks
    `_escape` compares by `unions`. Runs go in (word in alphabet order,
    state order), so the first failure is the one a word-by-word
    enumeration meets first.
    """
    alphabet = steps1.of.alphabet
    size = len(pairs) * len(alphabet) ** 2
    if size > _BUDGET:
        raise BudgetExceeded(size, _BUDGET, what="word runs")

    def step(config, x):
        low1, up1, low2, up2 = config
        return steps1[low1, up1, x] + steps2[low2, up2, input_map[x]]

    starts = {}
    unions1, unions2 = unions
    masks1, masks2 = unions1.of, unions2.of  # per block id, the mask it stands for
    id1, id2 = steps1.of.space._block_id, steps2.of.space._block_id
    for q, q1, q2 in pairs:
        i, j = id1[q1], id2[q2]
        if masks1[i] & ~masks2[j]:
            b1, b2 = 1 << i, 1 << j
            starts.setdefault((b1, b1, b2, b2), q)
    if not starts:
        return CheckResult(True)
    checked = set()
    for x in alphabet:
        for y in alphabet:
            for start, q in starts.items():
                config = step(step(start, x), y)
                if config not in checked:
                    checked.add(config)
                    low1, up1, low2, up2 = config
                    side = _escape((unions1[low1], unions1[up1]), (unions2[low2], unions2[up2]))
                    if side:
                        return CheckResult(False, reason.format(side=side), (q, (x, y)))
    return CheckResult(True)


def check_homomorphism(m1: Machine, m2: Machine, pair: MorphismPair) -> CheckResult:
    """Decide whether (f, g) is a homomorphism from m1 to m2.

    Exact, with no word runs (see the module docstring): totality, block
    respect, then every table entry. Raises TotalityError when f or g
    misses part of its domain or escapes its codomain.
    """
    f = pair.state_map
    _require_total(f, m1.space.states, m2.space._position, "state map")
    _require_total(pair.input_map, m1.alphabet, m2._symbol_index, "input map")
    beta = _block_map(m1.space, f, m2.space)
    if isinstance(beta, CheckResult):
        return beta
    states = m1.space.states
    pairs = list(zip(states, states, map(f.__getitem__, states)))
    read1 = _reader(_Unions([1 << b for b in beta]))
    return _letters(m1, m2, pairs, pair.input_map, read1, _BLOCKS, "{side} image escapes the target {side}")


def check_isomorphism(m1: Machine, m2: Machine, pair: MorphismPair) -> CheckResult:
    """A homomorphism with bijective state and input maps whose inverse is a homomorphism too.

    So each entry maps onto its target entry, not merely into it; the
    last result is the inverse's check from m2 to m1.
    """
    hom = check_homomorphism(m1, m2, pair)
    if not hom:
        return hom
    f_values, g_values = set(pair.state_map.values()), set(pair.input_map.values())
    if len(f_values) != len(m1.space.states):
        return CheckResult(False, "state map is not injective")
    if f_values != set(m2.space.states):
        return CheckResult(False, "state map is not onto the target states")
    if len(g_values) != len(m1.alphabet):
        return CheckResult(False, "input map is not injective")
    if g_values != set(m2.alphabet):
        return CheckResult(False, "input map is not onto the target alphabet")
    f, g = pair.state_map, pair.input_map
    inverse = MorphismPair({f[q]: q for q in m1.space.states}, {g[x]: x for x in m1.alphabet})
    return check_homomorphism(m2, m1, inverse)


def check_covering(m1: Machine, m2: Machine, pair: CoveringPair, depth: int = 2) -> CheckResult:
    """Decide whether m2 covers m1 through (eta, xi).

    eta must be total on m2's states and onto m1's (NotOnto otherwise);
    xi must be total on m1's alphabet into m2's; depth must not be
    negative (BadDepth). Single symbols compare table entries; at depth
    2 or more, the default, two-letter words compare word runs from the
    starts whose block escapes the eta-image of their covering block,
    with xi applied symbol by symbol, which decides every word (see the
    module docstring), so a larger depth gives the same result. The
    empty word is deliberately out of scope; it would assert a
    block-surjectivity property that coverings do not promise.
    """
    _require_depth(depth)
    eta, xi = pair.state_map, pair.input_map
    space1, space2 = m1.space, m2.space
    states = space2.states
    _require_total(eta, states, space1._position, "state map")
    _require_total(xi, m1.alphabet, m2._symbol_index, "input map")
    # Every eta value is a state of m1 by now, so counting the distinct ones decides onto-ness.
    if len(set(map(eta.__getitem__, states))) < len(space1.states):
        raise NotOnto("state map does not reach every covered state")
    beta = _block_map(space2, eta, space1)
    if isinstance(beta, CheckResult):
        return beta
    pairs = list(zip(states, map(eta.__getitem__, states), states))
    unions = tuple(map(_Unions, _atoms(space2, eta, space1, beta)))
    result = _letters(m1, m2, pairs, xi, _reader(unions[0]), _reader(unions[1]), _COVERED)
    if not result or depth < 2:
        return result
    return _words(_Steps(m1), _Steps(m2), pairs, xi, unions, _COVERED)


def _strike(cands, checks, image, rows1, eta):
    """Per m1 letter, the m2 letters of `cands` left after `checks`; None once one has none.

    Each check is (m2 state position, bit of an m2 letter y, lower mask,
    upper mask) of the entry at (q2, y); `image` holds the eta-images of
    its blocks. y is struck for each m1 letter whose entry at eta(q2),
    in `rows1`, escapes that image.
    """
    cands = list(cands)
    for q, bit, low, up in checks:
        low2, up2 = _union(image, low), _union(image, up)
        for x, (low1, up1) in enumerate(rows1[eta[q]]):
            if cands[x] & bit and (low1 & ~low2 or up1 & ~up2):
                cands[x] &= ~bit
                if not cands[x]:
                    return None
    return cands


def search_coverings(m1: Machine, m2: Machine, depth: int = 2, budget: int = _BUDGET) -> list[CoveringPair]:
    """Every (eta, xi) under which m2 covers m1, in enumeration order.

    Candidate state maps run lexicographically over m1's states per m2
    state, input maps over m2's alphabet per m1 symbol, state map major.
    The full candidate count |Q1|^|Q2| * |X2|^|X1| must stay within
    `budget` (BudgetExceeded otherwise), although the search visits far
    fewer. Returns [] when nothing passes; with fewer states in m2 than
    in m1 no map is onto, so the result is empty without a search. A
    negative depth raises BadDepth.

    eta is built by depth-first assignment, with an explicit stack: m2's
    states take values in declared order, each trying m1's states in
    declared order, so complete maps come out in lexicographic order. A
    partial map is dropped at the first state whose value breaks one of
    three conditions:

    - block respect: a state whose block has an assigned member may only
      take states of that member's m1 block;
    - onto: the unassigned m2 states must be at least as many as the m1
      states not hit yet;
    - letters: once q2 and every member of the blocks in its entry on y
      are assigned, that entry's eta-image is known, and y is struck
      from the candidates of each m1 letter x whose entry at eta(q2)
      escapes it. A map is dropped when some x has no candidate left.

    A complete map has passed block respect and every letter, and its
    input maps are the product of the surviving candidate lists, in
    alphabet order. At depth 2 or more, the default, only those go on to
    the two-letter words, which decide every word; when eta maps each
    block onto a block, no word runs (see the module docstring).
    """
    _require_depth(depth)
    n_states = len(m1.space.states) ** len(m2.space.states)
    n_inputs = len(m2.alphabet) ** len(m1.alphabet)
    size = n_states * n_inputs
    if size > budget:
        raise BudgetExceeded(size, budget)
    if len(m2.space.states) < len(m1.space.states):
        return []

    space1, space2 = m1.space, m2.space
    states1, states2 = space1.states, space2.states
    n1, n2 = len(states1), len(states2)
    unions1 = _Unions(space1.block_masks)
    read1 = _reader(unions1)
    # Per m1 state position, per letter of m1: (lower, upper) state masks.
    rows1 = [[read1(m1._table[q, x]) for x in m1.alphabet] for q in states1]
    home1 = [sorted(space1.block_positions[space1._block_id[q]]) for q in states1]
    members2 = space2.block_positions
    first2 = [min(members2[space2._block_id[q]]) for q in states2]
    last2 = [max(cell) for cell in members2]
    closes = [None] * n2  # the m2 block whose last member is at each depth
    for b, d in enumerate(last2):
        closes[d] = b
    # Each m2 entry is checked at the depth where its eta-image is known.
    checks = [[] for _ in range(n2)]
    position2, letter_bit = space2._position, {y: 1 << i for i, y in enumerate(m2.alphabet)}
    for (q2, y), r in m2.table.items():
        low, up = r.lower.bits, r.upper.bits
        d = max(map(last2.__getitem__, space2.ids(low | up)), default=0)
        d = max(d, position2[q2])
        checks[d].append((position2[q2], letter_bit[y], low, up))

    found = []
    steps = (_Steps(m1), _Steps(m2))
    image = [0] * space2.n_blocks  # OR of eta's bits over each closed m2 block
    eta = [-1] * n2
    hits = [0] * n1
    missing = n1  # m1 states that no assigned m2 state maps to
    cands = [None] * (n2 + 1)  # per m1 letter, a bit mask over m2's letters
    cands[0] = [(1 << len(m2.alphabet)) - 1] * len(m1.alphabet)
    options = [None] * n2
    options[0] = iter(range(n1))
    d = 0
    while d >= 0:
        j = eta[d]
        if j >= 0:
            hits[j] -= 1
            missing += not hits[j]
            eta[d] = -1
        j = next(options[d], -1)
        if j < 0:
            d -= 1
            continue
        eta[d] = j
        missing -= not hits[j]
        hits[j] += 1
        if n2 - d - 1 < missing:
            continue
        b = closes[d]
        if b is not None:
            mask = 0
            for p in members2[b]:
                mask |= 1 << eta[p]
            image[b] = mask
        c = _strike(cands[d], checks[d], image, rows1, eta) if checks[d] else cands[d]
        if c is None:
            continue
        if d + 1 < n2:
            d += 1
            cands[d] = c
            options[d] = iter(range(n1)) if first2[d] == d else iter(home1[eta[first2[d]]])
            continue
        eta_map = {q: states1[j] for q, j in zip(states2, eta)}
        choices = [[y for y in m2.alphabet if cx & letter_bit[y]] for cx in c]
        pairs = list(zip(states2, eta_map.values(), states2))
        unions = (unions1, _Unions(tuple(image)))
        for g_values in iter_product(*choices):
            xi = dict(zip(m1.alphabet, g_values))
            if depth < 2 or _words(*steps, pairs, xi, unions, _COVERED):
                found.append(CoveringPair(eta_map, xi))
    return found
