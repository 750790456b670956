"""Machine-checked witnesses for the covering and isomorphism claims.

Each claim about the product constructions comes with an explicit pair
of maps; the functions here build the maps, build both machines, and
hand everything to the morphism checkers. Nothing is taken on trust:
a WitnessReport says what was constructed and what the checker decided.

The claims, by their short names used throughout:

  restricted-in-full   the restricted product is covered by the full one
                       through the diagonal input translation
  wreath-exchange      a product of two wreaths is covered by the wreath
                       of the componentwise products
  cascade-in-wreath    a cascade is covered by the wreath through the
                       wiring's function symbols
  associativity        each product kind is associative up to a
                       regrouping isomorphism
  lift                 a covering of m1 by m2 survives taking products
                       with a third machine on either side

Every covering is checked on every word (depth 2, which decides every
word; see the morphism module docstring). Wreaths take wreath()'s
default budget, which no seeded trial reaches (1,024 letters at most).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .core import value_name
from .errors import PreconditionFailed
from .machine import Machine
from .morphism import (
    CheckResult,
    CoveringPair,
    MorphismPair,
    check_covering,
    check_isomorphism,
    search_coverings,
)
from .products import (
    CascadeWiring,
    FunctionSymbol,
    cascade,
    full_direct,
    restricted_direct,
    wreath,
)
from . import generate

__all__ = [
    "WitnessReport",
    "witness_restricted_in_full",
    "witness_wreath_exchange",
    "witness_cascade_in_wreath",
    "assoc_isomorphism",
    "lift_covering",
    "run_claim_trials",
    "CLAIM_NAMES",
    "PRODUCT_KINDS",
]

PRODUCT_KINDS = ("full", "restricted", "wreath", "cascade")


@dataclass(frozen=True)
class WitnessReport:
    """One checked instance of a claim.

    `pair` holds the constructed maps, `subject` and `witness` the two
    machines they connect (covered/cover, or the two regroupings for an
    isomorphism). When `holds` is true the counterexample is None.
    """

    claim: str
    subject: Machine
    witness: Machine
    pair: object
    result: CheckResult
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.result.holds

    @property
    def counterexample(self):
        return self.result.counterexample

    def __bool__(self):
        return self.holds

    def __str__(self):
        verdict = "holds" if self.holds else f"FAILS ({self.result})"
        extra = f" [{self.detail}]" if self.detail else ""
        return f"{self.claim}: {self.subject.name} within {self.witness.name}{extra}: {verdict}"


def witness_restricted_in_full(m1: Machine, m2: Machine, depth: int = 2) -> WitnessReport:
    """The restricted product sits inside the full one.

    States map identically; each shared letter x translates to the pair
    (x, x). The two tables agree entry for entry along the translation,
    so the covering check is expected to pass at any depth.
    """
    narrow = restricted_direct(m1, m2)
    wide = full_direct(m1, m2)
    pair = CoveringPair(
        {q: q for q in wide.space.states},
        {x: (x, x) for x in narrow.alphabet},
    )
    result = check_covering(narrow, wide, pair, depth)
    return WitnessReport("restricted-in-full", narrow, wide, pair, result)


def witness_wreath_exchange(
    m1: Machine, m2: Machine, m3: Machine, m4: Machine, depth: int = 2
) -> WitnessReport:
    """(m1 wr m2) x (m3 wr m4) is covered by (m1 x m3) wr (m2 x m4).

    The state map regroups ((a,c),(b,d)) back to ((a,b),(c,d)); the
    input map pairs the two function symbols pointwise over (q2,q4).
    """
    left = full_direct(wreath(m1, m2), wreath(m3, m4))
    inner = full_direct(m2, m4)
    outer = wreath(full_direct(m1, m3), inner)

    eta = {}
    for (q1, q3), (q2, q4) in outer.space.states:
        eta[((q1, q3), (q2, q4))] = ((q1, q2), (q3, q4))

    xi = {}
    for (f, x2), (g, x4) in left.alphabet:
        paired = FunctionSymbol(
            inner.space.states,
            tuple((f(q2), g(q4)) for (q2, q4) in inner.space.states),
        )
        xi[((f, x2), (g, x4))] = (paired, (x2, x4))

    pair = CoveringPair(eta, xi)
    result = check_covering(left, outer, pair, depth)
    return WitnessReport("wreath-exchange", left, outer, pair, result)


def witness_cascade_in_wreath(
    m1: Machine, m2: Machine, wiring: CascadeWiring, depth: int = 2
) -> WitnessReport:
    """A cascade is the wreath restricted to its wiring's function symbols.

    Each letter x2 translates to (f, x2) where f reads the wiring at
    every second-factor state; states map identically.
    """
    narrow = cascade(m1, m2, wiring)
    wide = wreath(m1, m2)
    xi = {
        x2: (FunctionSymbol(m2.space.states, tuple(wiring.feed(q2, x2) for q2 in m2.space.states)), x2)
        for x2 in m2.alphabet
    }
    pair = CoveringPair({q: q for q in wide.space.states}, xi)
    result = check_covering(narrow, wide, pair, depth)
    return WitnessReport("cascade-in-wreath", narrow, wide, pair, result)


def _regroup_states(left: Machine):
    return {((a, b), c): (a, (b, c)) for ((a, b), c) in left.space.states}


def assoc_isomorphism(
    kind: str,
    m1: Machine,
    m2: Machine,
    m3: Machine,
    wirings: tuple[CascadeWiring, CascadeWiring] | None = None,
) -> WitnessReport:
    """Regrouping isomorphism between (m1 # m2) # m3 and m1 # (m2 # m3).

    For the cascade kind, `wirings` supplies (w1, w2) with w1 feeding m1
    from m2's steps and w2 feeding m2 from m3's steps; the right-hand
    regrouping synthesizes its wirings from those. For the wreath kind
    the input bijection is the currying of function symbols.
    """
    if kind == "full":
        left = full_direct(full_direct(m1, m2), m3)
        right = full_direct(m1, full_direct(m2, m3))
        g = {((x1, x2), x3): (x1, (x2, x3)) for ((x1, x2), x3) in left.alphabet}
    elif kind == "restricted":
        left = restricted_direct(restricted_direct(m1, m2), m3)
        right = restricted_direct(m1, restricted_direct(m2, m3))
        g = {x: x for x in left.alphabet}
    elif kind == "wreath":
        left = wreath(wreath(m1, m2), m3)
        inner_right = wreath(m2, m3)
        right = wreath(m1, inner_right)
        g = {}
        for F, x3 in left.alphabet:
            curried = FunctionSymbol(
                inner_right.space.states,
                tuple(F(q3)[0](q2) for (q2, q3) in inner_right.space.states),
            )
            second = FunctionSymbol(
                m3.space.states,
                tuple(F(q3)[1] for q3 in m3.space.states),
            )
            g[(F, x3)] = (curried, (second, x3))
    elif kind == "cascade":
        if wirings is None:
            raise ValueError("cascade associativity needs the two wirings")
        w1, w2 = wirings
        left = cascade(cascade(m1, m2, w1), m3, w2)
        inner_right = cascade(m2, m3, w2)
        w_outer = CascadeWiring(
            {
                ((q2, q3), x3): w1.feed(q2, w2.feed(q3, x3))
                for (q2, q3) in inner_right.space.states
                for x3 in m3.alphabet
            }
        )
        right = cascade(m1, inner_right, w_outer)
        g = {x: x for x in left.alphabet}
    else:
        raise ValueError(f"unknown product kind {kind!r}")

    pair = MorphismPair(_regroup_states(left), g)
    result = check_isomorphism(left, right, pair)
    return WitnessReport("associativity", left, right, pair, result, detail=kind)


def lift_covering(
    kind: str,
    pair: CoveringPair,
    m1: Machine,
    m2: Machine,
    m3: Machine,
    side: str = "left",
    wiring: CascadeWiring | None = None,
) -> WitnessReport:
    """Lift a covering of m1 by m2 through a product with m3.

    side="left" varies the covered factor in first position (m1 # m3
    within m2 # m3), side="right" in second position. The input pair
    must cover (PreconditionFailed otherwise), and both it and the
    lifted pair are checked on every word.

    Kind specifics: restricted needs all three alphabets equal (its
    products raise AlphabetMismatch otherwise), and the lifted pair
    keeps xi as its translation; since the unchanged factor reads the
    shared alphabet directly, a xi that permutes it can make the lifted
    check fail even though the input pair covers. Cascade needs
    `wiring` for the covered product; the covering product's wiring is
    synthesized, on the left by translating the wiring's outputs
    through xi, on the right by reading the wiring at eta of the state
    and the first xi-preimage of the letter (letters outside the image
    fall back to m3's first symbol, and a non-injective xi can make
    this synthesis miss, which the check then reports).
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be left or right, not {side!r}")
    base = check_covering(m1, m2, pair)
    if not base:
        raise PreconditionFailed(f"the given pair does not cover: {base}")
    eta, xi = pair.state_map, pair.input_map
    left = side == "left"

    def order(varied, kept):  # the factors in product order; applied twice, the identity
        return (varied, kept) if left else (kept, varied)

    def lift(mapping, pairs):  # each pair with its varied factor sent through mapping
        return {p: order(mapping[v], k) for p in pairs for v, k in [order(*p)]}

    states2 = m2.space.states
    if kind == "cascade":
        if wiring is None:
            raise ValueError("cascade lift needs the covered product's wiring")
        covered = cascade(*order(m1, m3), wiring)
        if left:
            omega = {(q3, x3): xi[wiring.feed(q3, x3)] for q3 in m3.space.states for x3 in m3.alphabet}
        else:
            omega = {}
            for q2 in states2:
                for y in m2.alphabet:
                    x1 = next((x for x in m1.alphabet if xi[x] == y), None)
                    omega[(q2, y)] = wiring.feed(eta[q2], x1) if x1 is not None else m3.alphabet[0]
        cover = cascade(*order(m2, m3), CascadeWiring(omega))
        xi2 = {x3: x3 for x3 in m3.alphabet} if left else dict(xi)
    else:
        build = {"full": full_direct, "restricted": restricted_direct, "wreath": wreath}.get(kind)
        if build is None:
            raise ValueError(f"unknown product kind {kind!r}")
        covered, cover = build(*order(m1, m3)), build(*order(m2, m3))
        if kind == "full":
            xi2 = lift(xi, covered.alphabet)
        elif kind == "restricted":
            xi2 = dict(xi)
        elif left:  # f picks m1's input per m3 state: translate its outputs
            xi2 = {
                (f, x3): (FunctionSymbol(f.domain, tuple(xi[x] for x in f.outputs)), x3)
                for f, x3 in covered.alphabet
            }
        else:  # f picks m3's input per m1 state: read it at eta of each m2 state
            xi2 = {
                (f, x1): (FunctionSymbol(states2, tuple(f(eta[q2]) for q2 in states2)), xi[x1])
                for f, x1 in covered.alphabet
            }

    lifted = CoveringPair(lift(eta, cover.space.states), xi2)
    result = check_covering(covered, cover, lifted)
    return WitnessReport("lift", covered, cover, lifted, result, detail=f"{kind}/{side}")


# ---------------------------------------------------------------------------
# Seeded trial populations for the five claims.

CLAIM_NAMES = (
    "restricted-in-full",
    "wreath-exchange",
    "cascade-in-wreath",
    "associativity",
    "lift",
)


def _assoc_trial(rng: random.Random, kind: str) -> WitnessReport:
    if kind in ("full", "restricted"):
        alphabet = ("a", "b") if kind == "restricted" else None
        ms = [generate.random_machine(rng, max_states=3, alphabet=alphabet, name=f"m{i}") for i in (1, 2, 3)]
        return assoc_isomorphism(kind, *ms)
    if kind == "wreath":
        m1 = generate.random_machine(rng, max_states=3, name="m1")
        m2 = generate.random_machine(rng, max_states=2, name="m2")
        m3 = generate.random_machine(rng, max_states=2, name="m3")
        return assoc_isomorphism(kind, m1, m2, m3)
    m1 = generate.random_machine(rng, max_states=3, name="m1")
    m2 = generate.random_machine(rng, max_states=3, name="m2")
    m3 = generate.random_machine(rng, max_states=3, name="m3")
    w1 = generate.random_wiring(rng, m1, m2)
    w2 = generate.random_wiring(rng, m2, m3)
    return assoc_isomorphism(kind, m1, m2, m3, wirings=(w1, w2))


def _covered_pair(rng: random.Random, shared_alphabet: tuple):
    """A small machine plus a machine that covers it, by construction.

    Multiplying m1 with a one- or two-state all-exact machine relabels
    (or duplicates) it, so search_coverings is guaranteed a hit; the
    caller still goes through the search so only verified pairs flow on.
    """
    m1 = generate.random_machine(
        rng, max_states=2, alphabet=shared_alphabet, name="m1"
    )
    helper = generate.exact_machine(rng.randint(1, 2), shared_alphabet)
    m2 = restricted_direct(m1, helper)
    return m1, m2


def run_claim_trials(
    claim: str,
    kinds: tuple[str, ...] | None = None,
    seed: int = 0,
    trials: int = 5,
) -> list[WitnessReport]:
    """Run `trials` seeded random instances of one claim.

    `kinds` narrows the associativity and lift claims to given product
    kinds (default: all four). Witnesses and searches run at their own
    default depths. Reports come back in generation order; the caller
    decides what a failure means.
    """
    rng = random.Random(seed)
    reports: list[WitnessReport] = []

    if claim == "restricted-in-full":
        for _ in range(trials):
            m1 = generate.random_machine(rng, max_states=3, alphabet=("a", "b"), name="m1")
            m2 = generate.random_machine(rng, max_states=3, alphabet=("a", "b"), name="m2")
            reports.append(witness_restricted_in_full(m1, m2))
    elif claim == "wreath-exchange":
        for _ in range(trials):
            ms = [
                generate.random_machine(rng, max_states=2, name=f"m{i}")
                for i in (1, 2, 3, 4)
            ]
            reports.append(witness_wreath_exchange(*ms))
    elif claim == "cascade-in-wreath":
        for _ in range(trials):
            m1 = generate.random_machine(rng, max_states=3, name="m1")
            m2 = generate.random_machine(rng, max_states=2, name="m2")
            wiring = generate.random_wiring(rng, m1, m2)
            reports.append(witness_cascade_in_wreath(m1, m2, wiring))
    elif claim == "associativity":
        for kind in kinds or PRODUCT_KINDS:
            for _ in range(trials):
                reports.append(_assoc_trial(rng, kind))
    elif claim == "lift":
        for kind in kinds or PRODUCT_KINDS:
            done = 0
            while done < trials:
                m1, m2 = _covered_pair(rng, ("a", "b"))
                found = search_coverings(m1, m2)
                # The restricted lift keeps the input translation as is, and
                # the unchanged factor reads the shared alphabet directly, so
                # a translation that permutes it can genuinely fail; trials
                # stick to identity translations there. The cascade right
                # lift synthesizes its wiring through translation preimages,
                # which is only canonical for injective translations, and the
                # other kinds keep the same restriction for uniformity.
                if kind == "restricted":
                    usable = [
                        p for p in found
                        if all(p.input_map[x] == x for x in m1.alphabet)
                    ]
                else:
                    usable = [
                        p for p in found
                        if len(set(p.input_map.values())) == len(m1.alphabet)
                    ]
                if not usable:
                    continue
                pair = usable[rng.randrange(len(usable))]
                side = "left" if done % 2 == 0 else "right"
                alphabet = ("a", "b") if kind == "restricted" else None
                m3 = generate.random_machine(rng, max_states=2, alphabet=alphabet, name="m3")
                wiring = None
                if kind == "cascade":
                    wiring = generate.random_wiring(rng, *((m1, m3) if side == "left" else (m3, m1)))
                reports.append(lift_covering(kind, pair, m1, m2, m3, side=side, wiring=wiring))
                done += 1
    else:
        raise ValueError(f"unknown claim {claim!r}; expected one of {', '.join(CLAIM_NAMES)}")
    return reports
