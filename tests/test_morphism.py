from __future__ import annotations

import functools
import importlib.util
import itertools
import operator
import random
from pathlib import Path

import pytest

from roughfsm import (
    CoveringPair,
    MorphismPair,
    RoughSet,
    approximate,
    check_covering,
    check_homomorphism,
    check_isomorphism,
    full_direct,
    make_machine,
    make_partition,
    restricted_direct,
    search_coverings,
    word_step,
)
from roughfsm import core, machine, morphism
from roughfsm.machine import block_step
from roughfsm.errors import BadDepth, BudgetExceeded, NotOnto, TotalityError
from roughfsm.generate import exact_machine, random_machine, random_partition
from roughfsm.morphism import CheckResult
from roughfsm.propositions import run_claim_trials, witness_wreath_exchange

import oracles


def identity_morphism(machine):
    return MorphismPair(
        {q: q for q in machine.space.states},
        {x: x for x in machine.alphabet},
    )


def identity_covering(machine):
    return CoveringPair(
        {q: q for q in machine.space.states},
        {x: x for x in machine.alphabet},
    )


def coverings_demo():
    """`demos/04_coverings.py` as a module, for the pairs it builds."""
    path = Path(__file__).resolve().parent.parent / "demos" / "04_coverings.py"
    spec = importlib.util.spec_from_file_location("coverings_demo", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestHomomorphism:
    def test_relabeling_is_a_homomorphism(self, relabel_trio):
        m1, m2, pair = relabel_trio
        assert check_homomorphism(m1, m2, pair)

    def test_relabeling_is_an_isomorphism(self, relabel_trio):
        m1, m2, pair = relabel_trio
        assert check_isomorphism(m1, m2, pair)

    def test_state_map_carries_blocks_onto_blocks(self, relabel_trio):
        m1, m2, pair = relabel_trio
        for cell in m1.space.blocks:
            image = frozenset(pair.f(q) for q in cell)
            assert image in {frozenset(c) for c in m2.space.blocks}

    def test_identity_is_an_isomorphism(self, five_state):
        assert check_isomorphism(five_state, five_state, identity_morphism(five_state))

    def test_swapped_input_map_fails_concretely(self, relabel_trio):
        m1, m2, pair = relabel_trio
        swapped = MorphismPair(pair.state_map, {"a": "d", "b": "c"})
        result = check_homomorphism(m1, m2, swapped)
        assert not result
        assert result.counterexample == ("q1", "a")
        assert "lower" in result.reason

    def test_block_breaking_state_map_fails_condition_one(self, five_state):
        broken = dict({q: q for q in five_state.space.states}, q2="q3", q3="q2")
        result = check_homomorphism(five_state, five_state, MorphismPair(broken, {"a": "a", "b": "b"}))
        assert not result
        assert "inequivalent" in result.reason

    def test_constant_map_is_a_homomorphism_but_no_isomorphism(self):
        space = make_partition(["q1", "q2"], [["q1", "q2"]])
        loose = RoughSet(space.empty_set(), space.full_set())
        m = make_machine(space, ("a",), {("q1", "a"): loose, ("q2", "a"): loose})
        pair = MorphismPair({"q1": "q1", "q2": "q1"}, {"a": "a"})
        assert check_homomorphism(m, m, pair)
        result = check_isomorphism(m, m, pair)
        assert not result
        assert "not injective" in result.reason

    def test_partial_maps_rejected(self, relabel_trio):
        m1, m2, pair = relabel_trio
        with pytest.raises(TotalityError):
            check_homomorphism(m1, m2, MorphismPair({"q1": "p1"}, pair.input_map))
        with pytest.raises(TotalityError):
            check_homomorphism(m1, m2, MorphismPair(pair.state_map, {"a": "c", "b": "zz"}))

    def test_letters_decide_every_word_up_to_four(self):
        # Blocks and table entries decide the word runs too (see the
        # morphism module), so the verdict must match the brute force
        # over all words of length 1..4.
        rng = random.Random(5)
        for _ in range(40):
            m1 = random_machine(rng, max_states=3, name="m1")
            m2 = random_machine(rng, max_states=3, name="m2")
            f = {q: rng.choice(m2.space.states) for q in m1.space.states}
            g = {x: rng.choice(m2.alphabet) for x in m1.alphabet}
            pair = MorphismPair(f, g)
            assert check_homomorphism(m1, m2, pair).holds == oracles.brute_homomorphic(m1, m2, f, g, 4)


def singleton_machine(targets):
    """One letter a over singleton blocks; `targets` maps each state to its entry's states."""
    states = list(targets)
    space = make_partition(states, [[q] for q in states])
    return make_machine(space, ("a",), {(q, "a"): approximate(space, targets[q]) for q in states})


class TestIsomorphism:
    def test_inverse_must_be_a_homomorphism_too(self):
        # q1 -> p1 maps {q1} into p1's entry {p1, p2} but not onto it: the
        # pair is a bijective homomorphism, and its inverse fails at (p1, a).
        m1 = singleton_machine({"q1": ["q1"], "q2": ["q2"]})
        m2 = singleton_machine({"p1": ["p1", "p2"], "p2": ["p2"]})
        pair = MorphismPair({"q1": "p1", "q2": "p2"}, {"a": "a"})
        assert check_homomorphism(m1, m2, pair)
        result = check_isomorphism(m1, m2, pair)
        assert not result
        assert result.counterexample == ("p1", "a")

    def test_failing_homomorphism_is_returned_as_is(self, relabel_trio):
        m1, m2, pair = relabel_trio
        swapped = MorphismPair(pair.state_map, {"a": "d", "b": "c"})
        assert check_isomorphism(m1, m2, swapped) == check_homomorphism(m1, m2, swapped)

    def test_state_map_not_onto(self):
        pair = MorphismPair({"s1": "s1"}, {"a": "a"})
        result = check_isomorphism(exact_machine(1, ("a",)), exact_machine(2, ("a",)), pair)
        assert not result
        assert result.reason == "state map is not onto the target states"

    def test_input_map_not_injective(self):
        m = exact_machine(1, ("a", "b"))
        result = check_isomorphism(m, m, MorphismPair({"s1": "s1"}, {"a": "a", "b": "a"}))
        assert not result
        assert result.reason == "input map is not injective"

    def test_input_map_not_onto(self):
        pair = MorphismPair({"s1": "s1"}, {"a": "a"})
        result = check_isomorphism(exact_machine(1, ("a",)), exact_machine(1, ("a", "b")), pair)
        assert not result
        assert result.reason == "input map is not onto the target alphabet"


class TestCovering:
    def test_identity_covers(self, five_state):
        assert check_covering(five_state, five_state, identity_covering(five_state), depth=2)

    def test_letter_level_does_not_imply_word_level(self):
        # One blocky machine over a fine-grained one: every table entry
        # satisfies the containment, but the covered side's word run
        # unions over the whole block of eta(q2), which no table-level
        # condition controls. The pair below passes on letters and fails
        # on the two-letter word, so the depth parameter earns its keep.
        s1 = make_partition(["u", "v"], [["u", "v"]])
        t1 = {
            ("u", "a"): RoughSet(s1.empty_set(), s1.full_set()),
            ("v", "a"): RoughSet(s1.full_set(), s1.full_set()),
        }
        m1 = make_machine(s1, ("a",), t1, name="blocky")

        s2 = make_partition(["s", "t"], [["s"], ["t"]])
        t2 = {
            ("s", "a"): RoughSet(s2.empty_set(), s2.full_set()),
            ("t", "a"): RoughSet(s2.full_set(), s2.full_set()),
        }
        m2 = make_machine(s2, ("a",), t2, name="fine")

        pair = CoveringPair({"s": "u", "t": "v"}, {"a": "a"})
        assert check_covering(m1, m2, pair, depth=1)
        result = check_covering(m1, m2, pair, depth=2)
        assert not result
        assert result.counterexample == ("s", ("a", "a"))
        assert "lower" in result.reason

    def test_block_breaking_state_map_fails_condition_one(self, five_state):
        eta = {q: q for q in five_state.space.states}
        eta["q2"], eta["q3"] = "q3", "q2"
        result = check_covering(
            five_state, five_state, CoveringPair(eta, {"a": "a", "b": "b"})
        )
        assert not result
        assert result.counterexample == ("q1", "q2")
        assert "inequivalent" in result.reason

    def test_non_surjective_state_map_rejected(self, five_state):
        eta = {q: "q1" for q in five_state.space.states}
        with pytest.raises(NotOnto):
            check_covering(five_state, five_state, CoveringPair(eta, {"a": "a", "b": "b"}))

    def test_partial_input_map_rejected(self, five_state):
        pair = CoveringPair({q: q for q in five_state.space.states}, {"a": "a"})
        with pytest.raises(TotalityError):
            check_covering(five_state, five_state, pair)

    def test_reflexive_on_random_machines(self):
        rng = random.Random(11)
        for _ in range(10):
            m = random_machine(rng, max_states=4, max_inputs=3)
            assert check_covering(m, m, identity_covering(m), depth=2)

    def test_transitive_at_letter_depth(self):
        rng = random.Random(13)
        composed_any = False
        for _ in range(6):
            m1 = random_machine(rng, max_states=2, alphabet=("a", "b"), name="m1")
            m2 = restricted_direct(m1, exact_machine(1, ("a", "b")))
            m3 = restricted_direct(m2, exact_machine(1, ("a", "b"), state_prefix="t"))
            for first in search_coverings(m1, m2, depth=1):
                for second in search_coverings(m2, m3, depth=1):
                    eta = {q3: first.state_map[second.state_map[q3]] for q3 in m3.space.states}
                    xi = {x1: second.input_map[first.input_map[x1]] for x1 in m1.alphabet}
                    assert check_covering(m1, m3, CoveringPair(eta, xi), depth=1)
                    composed_any = True
        assert composed_any

    def test_covered_block_needs_the_union_of_two_images(self):
        # eta sends the singleton blocks {s} and {t} onto the halves u and
        # v of m1's one block, so m1's entry {u,v} lies inside the image
        # of m2's entry only when that entry keeps both blocks.
        s1 = make_partition(["u", "v"], [["u", "v"]])
        full1 = RoughSet(s1.full_set(), s1.full_set())
        m1 = make_machine(s1, ("a",), {("u", "a"): full1, ("v", "a"): full1}, name="halves")
        s2 = make_partition(["s", "t"], [["s"], ["t"]])
        full2 = RoughSet(s2.full_set(), s2.full_set())
        m2 = make_machine(s2, ("a",), {("s", "a"): full2, ("t", "a"): full2}, name="split")
        eta, xi = {"s": "u", "t": "v"}, {"a": "a"}
        for depth in (1, 2, 3):
            assert TestAgainstOracles.assert_cover(m1, m2, eta, xi, depth)

        only_s = RoughSet(s2.definable([s2.block_id("s")]), s2.full_set())
        m2 = make_machine(s2, ("a",), {("s", "a"): only_s, ("t", "a"): full2}, name="split")
        result = TestAgainstOracles.assert_cover(m1, m2, eta, xi, 1)
        assert result.counterexample == ("s", "a")
        assert side_of(result) == "lower"

    def test_covering_holds_while_a_one_letter_block_run_escapes(self):
        # Single letters compare entries: m1's run on "a" from the whole
        # block [q1] = [eta(q2)] reaches q2, which no state of m2's run
        # from q2 maps to, and still every entry and every longer word passes.
        m1, m2, pair = coverings_demo().escape_pair()
        assert check_covering(m1, m2, pair)
        assert oracles.exact_covers(m1, m2, pair.state_map, pair.input_map)
        covered = word_step(m1, "q1", ("a",)).lower.states_set()
        image = {pair.eta(q) for q in word_step(m2, "q2", pair.xi_word(("a",))).lower.states_set()}
        assert pair.eta("q2") == "q1" and covered == {"q2"} and image == {"q1", "q3"}

    def test_negative_depth_rejected(self, five_state):
        with pytest.raises(BadDepth):
            check_covering(five_state, five_state, identity_covering(five_state), depth=-3)
        with pytest.raises(BadDepth):
            search_coverings(five_state, five_state, depth=-1)

    def test_xi_word_maps_symbol_by_symbol(self):
        pair = CoveringPair({}, {"a": "x", "b": "y"})
        assert pair.xi_word(("a", "b", "a")) == ("x", "y", "x")
        assert pair.xi_word(()) == ()


class TestSearchCoverings:
    def test_self_search_finds_exactly_the_identity(self, five_state):
        found = search_coverings(five_state, five_state, depth=1)
        assert len(found) == 1
        assert found[0].state_map == {q: q for q in five_state.space.states}
        assert found[0].input_map == {"a": "a", "b": "b"}

    def test_identity_mask_tables_are_read_as_they_are(self, monkeypatch):
        # A space of one-state blocks has block_masks (1, 2, 4): the identity table, held in a tuple.
        singletons = make_partition(["q1", "q2", "q3"], [["q1"], ["q2"], ["q3"]])
        assert morphism._reader(morphism._Unions(singletons.block_masks)) is morphism._BLOCKS
        assert morphism._reader(morphism._Unions(list(singletons.block_masks))) is morphism._BLOCKS
        paired = make_partition(["q1", "q2", "q3"], [["q1", "q3"], ["q2"]])
        assert morphism._reader(morphism._Unions(paired.block_masks)) is not morphism._BLOCKS

        rng = random.Random(43)
        pairs = []
        for _ in range(12):
            states = [f"q{i}" for i in range(1, rng.randint(2, 3) + 1)]
            space = make_partition(states, [[q] for q in states])
            table = {(q, x): approximate(space, rng.sample(states, rng.randint(0, len(states))))
                     for q in states for x in ("a", "b")}
            m1 = make_machine(space, ("a", "b"), table, "m1")
            pairs.append((m1, restricted_direct(m1, exact_machine(2, ("a", "b")))))
            pairs.append((m1, random_machine(rng, n_states=len(states) + 1, alphabet=("a", "b"), name="m2")))

        def verdicts():
            found = [search_coverings(m1, m2) for m1, m2 in pairs]
            checks = [check_covering(m1, m2, p) for (m1, m2), ps in zip(pairs, found) for p in ps]
            return found, [(c.holds, c.reason, c.counterexample) for c in checks]

        fast = verdicts()
        assert any(fast[0]) and not all(fast[0])
        # Read through the unions as for any other table: the verdicts are the same.
        monkeypatch.setattr(morphism, "_reader", lambda unions: lambda r: (unions[r.lower.bits], unions[r.upper.bits]))
        assert verdicts() == fast

    def test_search_is_deterministic(self, five_state):
        one = exact_machine(1, ("x",))
        first = search_coverings(one, five_state, depth=1)
        second = search_coverings(one, five_state, depth=1)
        assert first == second

    def test_one_state_target_forces_the_nonempty_column(self, five_state):
        # The exact one-state machine loops on itself, so a covering
        # needs every translated column to keep its lower parts
        # nonempty; only the b column of the five-state machine does.
        one = exact_machine(1, ("x",))
        found = search_coverings(one, five_state, depth=1)
        assert len(found) == 1
        assert found[0].input_map == {"x": "b"}
        assert set(found[0].state_map.values()) == {"s1"}

    def test_all_empty_lowers_cover_nothing_exact(self):
        one = exact_machine(1, ("x",))
        space = make_partition(["q1", "q2"], [["q1", "q2"]])
        loose = RoughSet(space.empty_set(), space.full_set())
        hollow = make_machine(
            space, ("x",), {("q1", "x"): loose, ("q2", "x"): loose}, name="hollow"
        )
        assert search_coverings(one, hollow, depth=1) == []

    def test_fewer_states_short_circuits(self, five_state):
        small = exact_machine(2, ("a", "b"))
        assert search_coverings(five_state, small, depth=1) == []

    def test_budget_guard(self, five_state):
        with pytest.raises(BudgetExceeded) as err:
            search_coverings(five_state, five_state, depth=1, budget=10)
        assert err.value.size == 5**5 * 2**2
        assert err.value.budget == 10


def relabeled(rng, m):
    """m with shuffled new state and symbol names, plus the renaming pair."""
    n, k = len(m.space.states), len(m.alphabet)
    f = dict(zip(m.space.states, rng.sample([f"p{i}" for i in range(n)], n)))
    g = dict(zip(m.alphabet, rng.sample([f"y{i}" for i in range(k)], k)))
    space = make_partition([f[q] for q in m.space.states], [[f[q] for q in cell] for cell in m.space.blocks])

    def moved(d):
        return space.definable(space.block_id(f[q]) for q in d.states_set())

    table = {(f[q], g[x]): RoughSet(moved(r.lower), moved(r.upper)) for (q, x), r in m.table.items()}
    return make_machine(space, [g[x] for x in m.alphabet], table, "relabeled"), MorphismPair(f, g)


def coarse_over_fine(rng, n_states, letters, extra=0.0, min_block_size=2):
    """A blocky machine and the same table over a finer partition.

    The identity pair passes block respect and every letter, both as a
    covering of the coarse machine by the fine one and as a homomorphism
    from the fine machine to the coarse one, so it reaches the word runs.
    With `extra`, each fine entry's lower and upper part also gains each
    fine block with that probability (lower gains go to the upper part
    too); the covering still passes every letter, the homomorphism no
    longer need.
    """
    states = [f"q{i}" for i in range(n_states)]
    coarse = random_partition(rng, states, min_block_size=min_block_size)
    cells = []
    for cell in coarse.blocks:
        cut = rng.randint(1, len(cell))
        cells += [list(cell[:cut]), list(cell[cut:])] if cut < len(cell) else [list(cell)]
    fine = make_partition(states, cells)
    table = {}
    for q in states:
        for x in letters:
            lower = [i for i in range(coarse.n_blocks) if rng.random() < 0.3]
            upper = set(lower) | {i for i in range(coarse.n_blocks) if rng.random() < 0.5}
            table[(q, x)] = RoughSet(coarse.definable(lower), coarse.definable(upper))

    def refined(d):
        return fine.definable(fine.block_id(q) for q in d.states_set())

    fine_table = {k: RoughSet(refined(r.lower), refined(r.upper)) for k, r in table.items()}
    if extra:
        for k, r in fine_table.items():
            lower = r.lower | fine.definable(i for i in range(fine.n_blocks) if rng.random() < extra)
            upper = r.upper | lower | fine.definable(i for i in range(fine.n_blocks) if rng.random() < extra)
            fine_table[k] = RoughSet(lower, upper)
    identity = ({q: q for q in states}, {x: x for x in letters})
    coarse_machine = make_machine(coarse, letters, table, "coarse")
    return coarse_machine, make_machine(fine, letters, fine_table, "fine"), identity


def whole_blocks(coarse, fine):
    """Per block of `fine`, whether it is a whole block of `coarse`: one that starts inside the image."""
    return [len(cell) == len(coarse.space.blocks[coarse.space.block_id(cell[0])]) for cell in fine.space.blocks]


def side_of(result):
    for side in ("lower", "upper"):
        if side in result.reason:
            return side
    return None


class TestAgainstOracles:
    """Verdicts and counterexamples of both checks against the brute force."""

    @staticmethod
    def assert_hom(m1, m2, f, g, depth):
        result = check_homomorphism(m1, m2, MorphismPair(f, g))
        failures = oracles.homomorphism_failures(m1, m2, f, g, depth)
        assert result.holds == (not failures)
        if not result:
            assert (result.counterexample, side_of(result)) in failures
        return result

    @staticmethod
    def assert_cover(m1, m2, eta, xi, depth):
        result = check_covering(m1, m2, CoveringPair(eta, xi), depth)
        failures = oracles.covering_failures(m1, m2, eta, xi, depth)
        assert result.holds == (not failures)
        if not result:
            assert (result.counterexample, side_of(result)) in failures
        return result

    def test_random_maps(self):
        rng = random.Random(31)
        for _ in range(60):
            m1 = random_machine(rng, max_states=3, name="m1")
            m2 = random_machine(rng, max_states=4, name="m2")
            f = {q: rng.choice(m2.space.states) for q in m1.space.states}
            g = {x: rng.choice(m2.alphabet) for x in m1.alphabet}
            eta = dict(zip(m2.space.states, m1.space.states))
            eta.update({q: rng.choice(m1.space.states) for q in m2.space.states[len(eta):]})
            xi = {x: rng.choice(m2.alphabet) for x in m1.alphabet}
            for depth in range(4):
                self.assert_hom(m1, m2, f, g, depth)
                if len(m2.space.states) >= len(m1.space.states):
                    self.assert_cover(m1, m2, eta, xi, depth)

    def test_identities_and_relabelings_reach_the_words(self):
        rng = random.Random(37)
        for _ in range(12):
            m = random_machine(rng, max_states=4, max_inputs=2)
            renamed, pair = relabeled(rng, m)
            identity = ({q: q for q in m.space.states}, {x: x for x in m.alphabet})
            for depth in (2, 3):
                assert self.assert_hom(m, renamed, pair.state_map, pair.input_map, depth)
                assert self.assert_hom(m, m, *identity, depth)
                assert self.assert_cover(m, m, *identity, depth)

    def test_search_hits_rechecked_deeper(self):
        rng = random.Random(41)
        hits = 0
        for _ in range(25):
            m1 = random_machine(rng, max_states=2, name="m1")
            m2 = random_machine(rng, max_states=4, name="m2")
            for pair in search_coverings(m1, m2, depth=1):
                hits += 1
                for depth in (2, 3):
                    self.assert_cover(m1, m2, pair.state_map, pair.input_map, depth)
        assert hits

    def test_letters_only_pairs(self):
        rng = random.Random(43)
        word_failures = 0
        for _ in range(30):
            coarse, fine, (states, letters) = coarse_over_fine(rng, rng.randint(2, 6), ("a", "b"))
            assert self.assert_cover(coarse, fine, states, letters, 1)
            for depth in (2, 3):
                result = self.assert_cover(coarse, fine, states, letters, depth)
                word_failures += not result
                self.assert_hom(fine, coarse, states, letters, depth)
        assert word_failures


class TestAgainstWordByWord:
    """Counterexamples and search lists equal those of word-by-word enumeration."""

    @staticmethod
    def assert_first_failure(m1, m2, eta, xi, depths=range(7)):
        # From depth 2 on, the result is the verdict on every word (see
        # the morphism module docstring), checked here against words up
        # to length 6.
        deep = oracles.first_covering_failure(m1, m2, eta, xi, 6)
        for depth in depths:
            result = check_covering(m1, m2, CoveringPair(eta, xi), depth)
            found = None if result.holds else (result.counterexample, side_of(result))
            assert found == oracles.first_covering_failure(m1, m2, eta, xi, depth)
            if depth >= 2:
                assert found == deep

    def test_random_maps(self):
        rng = random.Random(53)
        for _ in range(30):
            m1 = random_machine(rng, max_states=3, name="m1")
            m2 = random_machine(rng, max_states=4, name="m2")
            if len(m2.space.states) < len(m1.space.states):
                continue
            eta = dict(zip(m2.space.states, m1.space.states))
            eta.update({q: rng.choice(m1.space.states) for q in m2.space.states[len(eta):]})
            xi = {x: rng.choice(m2.alphabet) for x in m1.alphabet}
            self.assert_first_failure(m1, m2, eta, xi)

    def test_search_hits(self):
        rng = random.Random(59)
        for _ in range(20):
            m1 = random_machine(rng, max_states=2, name="m1")
            m2 = random_machine(rng, max_states=4, name="m2")
            for pair in search_coverings(m1, m2, depth=1)[:3]:
                self.assert_first_failure(m1, m2, pair.state_map, pair.input_map)

    def test_identities(self):
        rng = random.Random(61)
        for _ in range(8):
            m = random_machine(rng, max_states=4, max_inputs=2)
            pair = identity_covering(m)
            self.assert_first_failure(m, m, pair.state_map, pair.input_map)

    def test_coarse_over_fine(self):
        rng = random.Random(67)
        failed_words = set()
        for extra in (0.0, 0.15):
            for _ in range(20):
                coarse, fine, (states, letters) = coarse_over_fine(rng, rng.randint(2, 6), ("a", "b"), extra)
                self.assert_first_failure(coarse, fine, states, letters)
                first = oracles.first_covering_failure(coarse, fine, states, letters, 6)
                if first is not None:
                    failed_words.add(first[0][1])
        # Only words of length 2 ever fail first: once a word's runs are
        # contained, the letter conditions keep every extension contained.
        assert failed_words == {("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")}

    def test_block_steps_equal_block_step(self):
        rng = random.Random(73)
        for _ in range(15):
            m = random_machine(rng, max_states=5, max_inputs=3)
            subsets = oracles.all_subsets(range(m.space.n_blocks))
            for low, up in itertools.product(subsets, repeat=2):
                for x in m.alphabet:
                    d_low, d_up = m.space.definable(low), m.space.definable(up)
                    r_low, r_up = block_step(m, d_low, x), block_step(m, d_up, x)
                    assert machine._step(m, d_low.bits, d_up.bits, x) == (r_low.lower.bits, r_up.upper.bits)

    def test_search_lists(self):
        rng = random.Random(71)
        pairs = []
        for _ in range(12):
            m1 = random_machine(rng, max_states=2, name="m1")
            pairs.append((m1, random_machine(rng, max_states=4, name="m2")))
        for _ in range(6):
            coarse, fine, _maps = coarse_over_fine(rng, rng.randint(2, 4), ("a", "b"))
            pairs.append((coarse, fine))
        narrowed = 0
        for m1, m2 in pairs:
            found = search_lists(m1, m2)
            narrowed += len(found[3]) < len(found[1])
        assert narrowed


def with_twins(m, states):
    """m with a twin of each of `states` in its block, plus the map home of every state.

    Every entry is the preimage of m's entry under that map, so the map
    and the identity on letters make a covering on every word.
    """
    home = {q: q for q in m.space.states} | {q + "'": q for q in states}
    space = make_partition(home, [[t for t, q in home.items() if q in cell] for cell in m.space.blocks])

    def preimage(d):
        return space.definable(space.block_id(m.space.blocks[i][0]) for i in d.block_ids)

    table = {(t, x): RoughSet(preimage(m.table[(q, x)].lower), preimage(m.table[(q, x)].upper))
             for t, q in home.items() for x in m.alphabet}
    return make_machine(space, m.alphabet, table, "twins"), home


def search_lists(m1, m2, depths=range(4)):
    """search_coverings' (eta, xi) lists at each depth, checked against the brute force."""
    found = [[(p.state_map, p.input_map) for p in search_coverings(m1, m2, depth)] for depth in depths]
    assert found == [oracles.brute_coverings(m1, m2, depth) for depth in depths]
    return found


class TestSearchAgainstBruteForce:
    """The backtracking search lists what the full enumeration lists, in its order."""

    @pytest.mark.parametrize("seed", [101, 102, 103, 104])
    def test_random_pairs_with_up_to_three_letters(self, seed):
        rng = random.Random(seed)
        hits = 0
        for _ in range(10):
            m1 = random_machine(rng, max_states=2, max_inputs=3, name="m1")
            m2 = random_machine(rng, max_states=4, max_inputs=3, name="m2", min_block_size=rng.randint(1, 2))
            hits += len(search_lists(m1, m2)[1])
        assert hits

    def test_coarse_over_fine_with_blocks_of_two_to_four(self):
        rng = random.Random(107)
        sizes = set()
        for i in range(12):
            letters = ("a", "b", "c") if i % 3 == 0 else ("a", "b")
            n, extra, min_block_size = rng.randint(2, 4), 0.2 * (i % 2), 2 + i % 2
            coarse, fine, identity = coarse_over_fine(rng, n, letters, extra, min_block_size)
            sizes.update(map(len, coarse.space.blocks))
            found = search_lists(coarse, fine)
            assert identity in found[1]
        assert {2, 3, 4} <= sizes

    def test_three_in_six_and_three_in_five(self):
        rng = random.Random(109)
        for i in range(4):
            letters = ("a", "b", "c")[: 2 + i % 2]
            m1 = random_machine(rng, n_states=3, alphabet=letters, name="m1")
            six = restricted_direct(m1, exact_machine(2, letters))
            # The projection (q, s) -> q with the identity on letters covers m1.
            projection = ({q: q[0] for q in six.space.states}, {x: x for x in letters})
            assert projection in search_lists(m1, six)[1]
            five, home = with_twins(m1, m1.space.states[:2])
            assert (home, {x: x for x in letters}) in search_lists(m1, five)[3]

    def test_one_state_covered_machine(self, five_state):
        one = exact_machine(1, ("x", "y"))
        found = search_lists(one, five_state)
        assert all(set(eta.values()) == {"s1"} for eta, _xi in found[1])

    def test_equal_state_counts_admit_only_bijections(self):
        rng = random.Random(113)
        hits = 0
        for _ in range(8):
            m1 = random_machine(rng, n_states=3, max_inputs=2, name="m1")
            m2, _pair = relabeled(rng, m1)
            found = search_lists(m1, m2)
            assert all(len(set(eta.values())) == 3 for eta, _xi in found[0])
            hits += len(found[1])
        assert hits >= 8

    def test_singleton_blocks(self):
        rng = random.Random(127)
        for _ in range(6):
            m1 = random_machine(rng, max_states=2, max_inputs=2, name="m1")
            m2 = restricted_direct(m1, exact_machine(2, m1.alphabet))
            fine = make_partition(m2.space.states, [[q] for q in m2.space.states])
            singles = make_machine(fine, m2.alphabet, {
                key: RoughSet(fine.definable(map(fine.block_id, r.lower.states_ordered())),
                              fine.definable(map(fine.block_id, r.upper.states_ordered())))
                for key, r in m2.table.items()
            })
            search_lists(m1, singles)

    def test_entries_with_empty_lowers(self):
        rng = random.Random(131)
        for _ in range(8):
            m1 = random_machine(rng, max_states=2, max_inputs=2, name="m1")
            m2 = random_machine(rng, max_states=4, alphabet=m1.alphabet, name="m2")
            hollow = {key: RoughSet(m2.space.empty_set(), r.upper) for key, r in m2.table.items()}
            search_lists(m1, make_machine(m2.space, m2.alphabet, hollow, "hollow"))
            m1_hollow = {key: RoughSet(m1.space.empty_set(), r.upper) for key, r in m1.table.items()}
            search_lists(make_machine(m1.space, m1.alphabet, m1_hollow, "m1"), m2)

    def test_one_state_against_fifteen_hundred(self):
        # The search keeps its own stack, so |Q2| is not bounded by recursion.
        one, wide = exact_machine(1, ("a", "b")), exact_machine(1500, ("a", "b"), state_prefix="t")
        for depth in (1, 2):
            found = search_coverings(one, wide, depth)
            assert [p.input_map for p in found] == [
                {"a": "a", "b": "a"}, {"a": "a", "b": "b"}, {"a": "b", "b": "a"}, {"a": "b", "b": "b"}
            ]
            assert all(p.state_map == {q: "s1" for q in wide.space.states} for p in found)

    def test_budget_is_checked_before_any_work(self, five_state, monkeypatch):
        def refuse(*args):
            raise AssertionError("the search ran")

        monkeypatch.setattr(morphism, "_Unions", refuse)
        monkeypatch.setattr(morphism, "_strike", refuse)
        wide = restricted_direct(five_state, exact_machine(2, five_state.alphabet))
        with pytest.raises(BudgetExceeded) as err:
            search_coverings(five_state, wide, depth=2)
        assert err.value.size == 5**10 * 2**2
        assert err.value.budget == 1_000_000


class TestWordRunBudget:
    """The covering's two-letter pass is refused above 1,000,000 word runs; homomorphisms run no words."""

    def restricted_in_full(self, five_state):
        narrow = restricted_direct(five_state, five_state)
        wide = full_direct(five_state, five_state)
        pair = CoveringPair({q: q for q in wide.space.states}, {x: (x, x) for x in narrow.alphabet})
        return narrow, wide, pair

    def test_any_depth_from_two_gives_the_depth_two_result(self, five_state):
        rng = random.Random(67)
        cases = [self.restricted_in_full(five_state)]
        for _ in range(10):
            coarse, fine, maps = coarse_over_fine(rng, rng.randint(2, 6), ("a", "b"))
            cases.append((coarse, fine, CoveringPair(*maps)))
        results = []
        for m1, m2, pair in cases:
            results.append(check_covering(m1, m2, pair, depth=2))
            assert check_covering(m1, m2, pair, depth=20) == results[-1]
            assert check_covering(m1, m2, pair, depth=10**9) == results[-1]
        assert results[0] and not all(results)

    def test_two_letter_words_count_against_the_budget_at_any_depth(self):
        # 12 states * 300**2 two-letter words = 1,080,000 runs.
        m = exact_machine(12, [f"x{i}" for i in range(300)])
        for depth in (2, 10**9):
            with pytest.raises(BudgetExceeded) as err:
                check_covering(m, m, identity_covering(m), depth=depth)
            assert (err.value.size, err.value.budget) == (1_080_000, 1_000_000)
            assert "word runs" in str(err.value)
        assert check_covering(m, m, identity_covering(m), depth=1)

    @staticmethod
    def counting_steps(monkeypatch):
        """The (machine id, lower ids, upper ids, letter) of every `_step` call from here on."""
        computed, step = [], morphism._step

        def counted_step(m, low, up, x):
            computed.append((id(m), low, up, x))
            return step(m, low, up, x)

        monkeypatch.setattr(morphism, "_step", counted_step)
        return computed

    def test_deep_covering_steps_each_configuration_once(self, monkeypatch):
        # Every fine block is a strict part of its coarse block, so every
        # start escapes the image and depth 12 checks the two-letter
        # words, 8 * 2**2 = 32 runs. The pass steps each distinct (lower
        # ids, upper ids, letter) once through the kernel instead, and
        # runs no word from scratch.
        coarse, fine, maps = coarse_over_fine(random.Random(0), 8, ("a", "b"), extra=0.5)
        assert not any(whole_blocks(coarse, fine))
        computed = self.counting_steps(monkeypatch)
        checked, escape = [], morphism._escape

        def counted_check(*args):
            checked.append(args)
            return escape(*args)

        def no_word_runs(*args):
            raise AssertionError("a covering check ran a word from scratch")

        monkeypatch.setattr(morphism, "_escape", counted_check)
        monkeypatch.setattr(machine, "_run", no_word_runs)
        assert check_covering(coarse, fine, CoveringPair(*maps), depth=12)
        assert 0 < len(computed) < 1_000
        assert len(set(computed)) == len(computed)
        # 8 states * 2 letters, then each distinct configuration once:
        # 6 distinct starts * 4 words at most.
        assert 16 < len(checked) <= 16 + 24

    def test_blocks_onto_blocks_run_no_words(self, five_state, monkeypatch):
        # eta maps each block onto a block, so every start lies inside the
        # image and the letters decide every word: no configuration steps.
        rng = random.Random(83)
        quartet = [
            random_machine(rng, n_states=2, alphabet=alphabet, name=f"m{i}")
            for i, alphabet in enumerate((("a", "b"), ("a",), ("a",)), start=1)
        ] + [exact_machine(1, ("a",))]
        exchange = witness_wreath_exchange(*quartet)
        narrow, wide, pair = self.restricted_in_full(five_state)
        cases = [(narrow, wide, pair), (exchange.subject, exchange.witness, exchange.pair)]
        computed = self.counting_steps(monkeypatch)
        for m1, m2, pair in cases:
            assert check_covering(m1, m2, pair)
        assert computed == []
        monkeypatch.undo()
        for m1, m2, pair in cases:
            assert oracles.brute_covers(m1, m2, pair.state_map, pair.input_map, 4)

    def test_mixed_starts_fail_first_where_words_do(self):
        # A fine block left whole starts inside the image and runs no
        # words, a split one starts outside it; the pass runs only the
        # latter and still meets the word-by-word first failure.
        rng = random.Random(79)
        mixed_failures = 0
        for _ in range(20):
            coarse, fine, maps = coarse_over_fine(rng, rng.randint(3, 7), ("a", "b"))
            whole = whole_blocks(coarse, fine)
            result = check_covering(coarse, fine, CoveringPair(*maps))
            found = None if result else (result.counterexample, side_of(result))
            assert found == oracles.first_covering_failure(coarse, fine, *maps, 4)
            mixed_failures += any(whole) and not all(whole) and not result
        assert mixed_failures

    def test_homomorphism_check_runs_no_words(self, five_state, monkeypatch):
        wide = full_direct(five_state, five_state)
        identity = identity_morphism(wide)

        def no_word_runs(*args):
            raise AssertionError("a homomorphism check ran a word")

        monkeypatch.setattr(morphism, "_step", no_word_runs)
        monkeypatch.setattr(machine, "_run", no_word_runs)
        assert check_homomorphism(wide, wide, identity)
        monkeypatch.undo()
        assert oracles.brute_homomorphic(wide, wide, identity.state_map, identity.input_map, 3)

    def test_letter_failures_are_reported_before_the_budget(self, five_state):
        pair = CoveringPair({q: q for q in five_state.space.states}, {"a": "b", "b": "a"})
        assert check_covering(five_state, five_state, pair, depth=10**9).counterexample == ("q1", "a")


def machine_over(rng, m, states, cells, home, keep, extra):
    """A machine over `cells` of `states`, whose blocks `home` sends into blocks of m, and home.

    The entry at (p, x) holds each block sent into a block of m's entry
    at (home[p], x) with probability `keep`, and each block with
    probability `extra`: dropping every block sent into one breaks the
    covering by home, and an extra block can break the homomorphism home.
    """
    space = make_partition(states, cells)
    into = [[] for _ in m.space.blocks]  # per block of m, the blocks home sends into it
    for j, cell in enumerate(space.blocks):
        into[m.space.block_id(home[cell[0]])].append(j)

    def part(d):
        ids = {j for i in d.block_ids for j in into[i] if rng.random() < keep}
        return space.definable(ids | {j for j in range(space.n_blocks) if rng.random() < extra})

    table = {}
    for p in states:
        for x in m.alphabet:
            lower = part(m.table[(home[p], x)].lower)
            table[p, x] = RoughSet(lower, lower | part(m.table[(home[p], x)].upper))
    return make_machine(space, m.alphabet, table, "over"), home


def block_copies(rng, m, most, shuffle=False, keep=0.85, extra=0.1):
    """A machine over copies of m's blocks, and the map home that sends each block onto a block of m.

    State (q, c) is copy c of q. Each block of m gets 1 to `most`
    copies, and copy c holds copy c of each member. States are declared
    in m's order, or shuffled, which permutes the block ids. So the block
    map of home is the identity (one copy each, in order), a
    permutation (one copy each, shuffled) or many-to-one (more copies).
    """
    counts = [rng.randint(1, most) for _ in m.space.blocks]
    states = [(q, c) for q in m.space.states for c in range(counts[m.space.block_id(q)])]
    if shuffle:
        rng.shuffle(states)
    cells = [[(q, c) for q in cell] for cell, n in zip(m.space.blocks, counts) for c in range(n)]
    return machine_over(rng, m, states, cells, {s: s[0] for s in states}, keep, extra)


def split_copy(rng, m, keep=0.9, extra=0.05):
    """A renamed copy of m, declared in shuffled order, with blocks cut in two at random, and the bijection home."""
    home = {f"p{i}": q for i, q in enumerate(m.space.states)}
    back = {q: p for p, q in home.items()}
    cells = []
    for cell in m.space.blocks:
        cut = rng.randint(1, len(cell))
        cells += [cell[:cut], cell[cut:]] if cut < len(cell) else [cell]
    names = list(home)
    rng.shuffle(names)
    return machine_over(rng, m, names, [[back[q] for q in cell] for cell in cells], home, keep, extra)


def atom_count(m1, m2, eta):
    """The number of atoms `check_covering` compares masks over for eta: the bits of m1's block table."""
    masks1, _ = morphism._atoms(m2.space, eta, m1.space, morphism._block_map(m2.space, eta, m1.space))
    return functools.reduce(operator.or_, masks1).bit_count()


class TestBlockMap:
    """State maps sending each block onto a block are decided on block masks, as the oracles decide them."""

    KINDS = {"identity": (1, False, 0.85), "permutation": (1, True, 0.85), "many-to-one": (3, False, 0.5)}

    @staticmethod
    def pool(kind, seed, size=40):
        """(m, copies, home, letter map) of one kind of block map, with a letter map astray at times."""
        most, shuffle, keep = TestBlockMap.KINDS[kind]
        rng = random.Random(seed)
        for _ in range(size):
            m = random_machine(rng, max_states=4, max_inputs=2, name="m")
            copies, home = block_copies(rng, m, most, shuffle, keep)
            letters = {x: x if rng.random() < 0.8 else rng.choice(m.alphabet) for x in m.alphabet}
            yield m, copies, home, letters

    @staticmethod
    def forbid(monkeypatch, *names):
        def refuse(*args):
            raise AssertionError("a block-level check worked out state masks or ran a word")

        for name in names:
            monkeypatch.setattr(morphism, name, refuse)

    @pytest.mark.parametrize("kind", KINDS)
    def test_coverings_fail_first_where_words_do(self, kind, monkeypatch):
        seen, betas = set(), []
        for m, copies, home, xi in self.pool(kind, 211):
            beta = morphism._block_map(copies.space, home, m.space)
            assert atom_count(m, copies, home) == m.space.n_blocks
            betas.append(beta)
            with monkeypatch.context() as patch:
                self.forbid(patch, "_step")
                result = check_covering(m, copies, CoveringPair(home, xi))
            found = None if result else (result.counterexample, side_of(result))
            assert found == oracles.first_covering_failure(m, copies, home, xi, 4)
            seen.add(side_of(result) if found else "holds")
        assert seen == {"holds", "lower", "upper"}
        identity = [beta == list(range(len(beta))) for beta in betas]
        injective = [len(set(beta)) == len(beta) for beta in betas]
        assert {"identity": all(identity), "permutation": all(injective) and not all(identity),
                "many-to-one": not all(injective)}[kind]

    @pytest.mark.parametrize("kind", KINDS)
    def test_homomorphisms_home_agree_with_brute_force(self, kind):
        verdicts, injective = [], []
        for m, copies, home, g in self.pool(kind, 223):
            result = check_homomorphism(copies, m, MorphismPair(home, g))
            failures = oracles.homomorphism_failures(copies, m, home, g, 3)
            assert result.holds == (not failures) == oracles.brute_homomorphic(copies, m, home, g, 3)
            assert result.holds == oracles.exact_homomorphic(copies, m, home, g)
            if not result:
                assert (result.counterexample, side_of(result)) in failures
            verdicts.append(result.holds)
            injective.append(len(set(home.values())) == len(home))
        assert any(verdicts) and not all(verdicts)
        assert all(injective) == (kind != "many-to-one")

    def test_bijections_splitting_blocks_fail_first_where_words_do(self):
        # A bijection that cuts blocks in two maps no cut block onto a block;
        # its atoms are the images of the covering machine's blocks, so the
        # covering side is read as the block masks it holds, words included.
        rng = random.Random(227)
        seen, split = set(), 0
        for _ in range(40):
            m = random_machine(rng, n_states=rng.randint(2, 6), max_inputs=2, name="m", min_block_size=2)
            fine, home = split_copy(rng, m)
            assert atom_count(m, fine, home) == fine.space.n_blocks
            split += fine.space.n_blocks > m.space.n_blocks
            xi = {x: x if rng.random() < 0.9 else rng.choice(m.alphabet) for x in m.alphabet}
            result = check_covering(m, fine, CoveringPair(home, xi))
            found = None if result else (result.counterexample, side_of(result))
            assert found == oracles.first_covering_failure(m, fine, home, xi, 4)
            seen.add("holds" if result else "word" if isinstance(found[0][1], tuple) else "letter")
            if result and xi == {x: x for x in m.alphabet}:
                assert check_homomorphism(fine, m, MorphismPair(home, xi)).holds == oracles.brute_homomorphic(
                    fine, m, home, xi, 3
                )
        assert seen == {"holds", "letter", "word"} and split > 20
        # The benchmark's failing checks: the identity onto one-state blocks,
        # under a coarse partition that declares q1, q10, q11, ... in order.
        states = [f"q{i}" for i in range(1, 13)]
        coarse = random_partition(rng, states, min_block_size=2)
        singletons = make_partition(states, [[q] for q in states])
        eta = {q: q for q in states}
        _, masks2 = morphism._atoms(singletons, eta, coarse, morphism._block_map(singletons, eta, coarse))
        assert morphism._reader(morphism._Unions(masks2)) is morphism._BLOCKS

    def test_overlapping_images_split_a_block_into_three_atoms(self):
        # m1's block {p1, p2, p3} is the image of a whole copy and of copies
        # of {p1, p2} and {p2, p3}, so p1, p2 and p3 are each reached by
        # another set of m2 blocks: three atoms, none of them a block image.
        space = make_partition(["p1", "p2", "p3", "p4"], [["p1", "p2", "p3"], ["p4"]])
        cells = [[("p1", 0), ("p2", 0), ("p3", 0)], [("p1", 1), ("p2", 1)], [("p2", 2), ("p3", 2)], [("p4", 0)]]
        states = [s for cell in cells for s in cell]
        eta = {s: s[0] for s in states}
        rng = random.Random(233)
        seen = set()
        for _ in range(60):
            table = {}
            for q in space.states:
                for x in ("a", "b"):
                    lower = space.definable(i for i in range(2) if rng.random() < 0.3)
                    table[q, x] = RoughSet(lower, lower | space.definable(i for i in range(2) if rng.random() < 0.5))
            m = make_machine(space, ("a", "b"), table, "m")
            cover, _ = machine_over(rng, m, states, cells, eta, 0.9, 0.05)
            masks1, _ = morphism._atoms(cover.space, eta, space, morphism._block_map(cover.space, eta, space))
            assert masks1[0].bit_count() == 3 and masks1[1].bit_count() == 1
            xi = {"a": "a", "b": "b"} if rng.random() < 0.7 else {"a": rng.choice("ab"), "b": rng.choice("ab")}
            result = check_covering(m, cover, CoveringPair(eta, xi))
            assert result.holds == oracles.exact_covers(m, cover, eta, xi)
            found = None if result else (result.counterexample, side_of(result))
            assert found == oracles.first_covering_failure(m, cover, eta, xi, 4)
            seen.add("holds" if result else "word" if isinstance(found[0][1], tuple) else "letter")
        assert seen == {"holds", "letter", "word"}

    def test_identity_block_maps_call_no_union(self, five_state, monkeypatch):
        # Two machines over one product partition, and a machine and
        # itself: every entry is compared as the block masks it holds.
        narrow, wide = restricted_direct(five_state, five_state), full_direct(five_state, five_state)
        square = CoveringPair({q: q for q in wide.space.states}, {x: (x, x) for x in narrow.alphabet})
        self.forbid(monkeypatch, "_union", "_step")
        for module in (core, machine):  # the kernel and the run step's own binding of it
            monkeypatch.setattr(module, "_union", morphism._union)
        assert check_covering(narrow, wide, square)
        assert check_covering(five_state, five_state, identity_covering(five_state))
        assert check_homomorphism(wide, wide, identity_morphism(wide))
        assert check_isomorphism(five_state, five_state, identity_morphism(five_state))
        shifted = CoveringPair({q: q for q in five_state.space.states}, {"a": "b", "b": "a"})
        assert check_covering(five_state, five_state, shifted).counterexample == ("q1", "a")


def part_copies(rng, m, keep=0.85, extra=0.1):
    """A machine over m's blocks and parts of them, and the map home that sends each block into its block of m.

    State (q, c) is copy c of q. Copy 0 of each block of m is whole, so
    home is onto; each block also gets up to two more copies of a
    nonempty part, which home maps onto a part of that block unless the
    part is the whole block.
    """
    cells = []
    for cell in m.space.blocks:
        cells.append([(q, 0) for q in cell])
        for c in range(1, rng.randint(1, 3)):
            cells.append([(q, c) for q in cell if rng.random() < 0.5] or [(cell[0], c)])
    states = sorted((s for cell in cells for s in cell), key=lambda s: (m.space.position(s[0]), s[1]))
    return machine_over(rng, m, states, cells, {s: s[0] for s in states}, keep, extra)


def overlapping_images(m2, eta):
    """Whether the eta-images of two m2 blocks meet while neither holds the other."""
    images = [frozenset(eta[q] for q in cell) for cell in m2.space.blocks]
    return any(a & b and not (a <= b or b <= a) for a, b in itertools.combinations(images, 2))


def eta_kind(m1, m2, eta):
    """Whether eta maps each m2 block onto a whole m1 block, else whether it is a bijection."""
    blocks1 = set(map(frozenset, m1.space.blocks))
    if all(frozenset(eta[q] for q in cell) in blocks1 for cell in m2.space.blocks):
        return "onto blocks"
    return "bijective" if len(set(eta.values())) == len(eta) else "neither"


class TestExactOracle:
    """check_covering against a closure over every word, on each kind of state map."""

    def test_check_covering_agrees_on_every_kind_of_eta(self):
        rng = random.Random(229)
        constructions = (
            lambda m: block_copies(rng, m, 2, rng.random() < 0.5),
            lambda m: split_copy(rng, m),
            lambda m: part_copies(rng, m),
        )
        verdicts = {"onto blocks": set(), "bijective": set(), "neither": set()}
        overlaps = 0
        for i in range(330):
            m = random_machine(rng, n_states=rng.randint(2, 4), max_inputs=2, name="m", min_block_size=2)
            cover, eta = constructions[i % 3](m)
            xi = {x: x if rng.random() < 0.9 else rng.choice(m.alphabet) for x in m.alphabet}
            holds = check_covering(m, cover, CoveringPair(eta, xi)).holds
            assert holds == oracles.exact_covers(m, cover, eta, xi), (i, eta, xi)
            verdicts[eta_kind(m, cover, eta)].add(holds)
            overlaps += eta_kind(m, cover, eta) == "neither" and overlapping_images(cover, eta)
        assert all(found == {True, False} for found in verdicts.values()), verdicts
        assert overlaps

    def test_check_homomorphism_agrees_on_associativity_regroupings(self):
        # Each regrouping and its inverse, as check_isomorphism tries them.
        for seed in range(4):
            for report in run_claim_trials("associativity", seed=seed):
                left, right, pair = report.subject, report.witness, report.pair
                f, g = pair.state_map, pair.input_map
                inverse = MorphismPair({f[q]: q for q in f}, {g[x]: x for x in g})
                for m1, m2, p in ((left, right, pair), (right, left, inverse)):
                    holds = check_homomorphism(m1, m2, p).holds
                    assert holds == oracles.exact_homomorphic(m1, m2, p.state_map, p.input_map), (seed, report.detail)


class TestCheckResult:
    def test_string_forms(self):
        assert str(CheckResult(True)) == "holds"
        assert str(CheckResult(False, "broken")) == "fails: broken"
        s = str(CheckResult(False, "broken", ("q1", ("a", "b"))))
        assert s.startswith("fails at (q1, (a,b))")

    def test_truthiness(self):
        assert CheckResult(True)
        assert not CheckResult(False, "no")
