from __future__ import annotations

import copy
import pickle
import random

import pytest

from roughfsm import (
    ApproximationSpace,
    DefinableSet,
    Machine,
    RoughSet,
    approximate,
    block_step,
    block_word_step,
    full_direct,
    is_realizable,
    make_machine,
    make_partition,
    parse_machine,
    serialize_machine,
    validate_machine,
    word_step,
    wreath,
)
from roughfsm.errors import MismatchedSpace, SemanticError, UnknownState, UnknownSymbol
from roughfsm.generate import random_machine
from roughfsm.machine import Violation

import oracles

Q5 = frozenset(["q1", "q2", "q3", "q4", "q5"])


def definable_by_states(space, states):
    return space.definable(space.block_id(q) for q in states)


class TestBlockStep:
    def test_two_block_set_on_a(self, five_state):
        d = definable_by_states(five_state.space, ["q1", "q3"])
        r = block_step(five_state, d, "a")
        assert r.lower.states_set() == Q5
        assert r.upper.states_set() == Q5

    def test_two_block_set_on_b(self, five_state):
        d = definable_by_states(five_state.space, ["q1", "q4"])
        r = block_step(five_state, d, "b")
        assert r.lower.states_set() == {"q3", "q5", "q4"}
        assert r.upper.states_set() == Q5

    def test_empty_set_steps_to_empty(self, five_state):
        r = block_step(five_state, five_state.space.empty_set(), "a")
        assert not r.lower and not r.upper

    def test_agrees_with_direct_union_everywhere(self, five_state):
        space = five_state.space
        for ids in oracles.all_subsets(range(space.n_blocks)):
            d = space.definable(ids)
            for x in five_state.alphabet:
                r = block_step(five_state, d, x)
                assert r.lower.states_set() == oracles.step_states(
                    five_state, d.states_set(), x, "lower"
                )
                assert r.upper.states_set() == oracles.step_states(
                    five_state, d.states_set(), x, "upper"
                )

    def test_monotone_in_the_set(self, five_state):
        space = five_state.space
        definables = [space.definable(ids) for ids in oracles.all_subsets(range(space.n_blocks))]
        for d in definables:
            for e in definables:
                if not d <= e:
                    continue
                for x in five_state.alphabet:
                    small, big = block_step(five_state, d, x), block_step(five_state, e, x)
                    assert small.lower <= big.lower
                    assert small.upper <= big.upper

    def test_foreign_set_rejected(self, five_state):
        other = make_partition(["z"], [["z"]])
        with pytest.raises(MismatchedSpace):
            block_step(five_state, other.full_set(), "a")

    def test_unknown_symbol_rejected(self, five_state):
        with pytest.raises(UnknownSymbol):
            block_step(five_state, five_state.space.full_set(), "z")


class TestWordStep:
    def test_empty_word_is_the_block(self, five_state):
        r = word_step(five_state, "q3", ())
        assert r.lower.states_set() == {"q3", "q5"}
        assert r.upper.states_set() == {"q3", "q5"}

    def test_single_letter_runs_over_the_whole_block(self, five_state):
        r = word_step(five_state, "q1", ("a",))
        assert r.lower.states_set() == {"q1", "q2"}
        assert r.upper.states_set() == {"q1", "q2", "q3", "q5"}

    def test_two_letter_run(self, five_state):
        r = word_step(five_state, "q1", ("a", "b"))
        assert r.lower.states_set() == {"q3", "q4", "q5"}
        assert r.upper.states_set() == Q5

    def test_equal_states_of_a_block_run_identically(self, five_state):
        for word in (("a",), ("b", "a"), ("a", "a", "b")):
            assert word_step(five_state, "q3", word) == word_step(five_state, "q5", word)

    def test_matches_reference_run_on_all_short_words(self, five_state):
        words = [()]
        for n in range(1, 4):
            grown = []
            for w in words:
                if len(w) == n - 1:
                    grown.extend(w + (x,) for x in five_state.alphabet)
            words.extend(grown)
        for q in five_state.space.states:
            for w in words:
                r = word_step(five_state, q, w)
                assert (r.lower.states_set(), r.upper.states_set()) == oracles.word_run_reference(
                    five_state, q, w
                )

    def test_matches_reference_run_on_random_machines(self):
        rng = random.Random(42)
        for _ in range(10):
            m = random_machine(rng, max_states=5, max_inputs=3)
            for q in m.space.states:
                for n in range(3):
                    w = tuple(rng.choice(m.alphabet) for _ in range(n))
                    r = word_step(m, q, w)
                    assert (
                        r.lower.states_set(),
                        r.upper.states_set(),
                    ) == oracles.word_run_reference(m, q, w)

    def test_lower_stays_inside_upper(self):
        rng = random.Random(7)
        for _ in range(10):
            m = random_machine(rng, max_states=5, max_inputs=2)
            for q in m.space.states:
                for n in range(4):
                    w = tuple(rng.choice(m.alphabet) for _ in range(n))
                    r = word_step(m, q, w)
                    assert r.lower <= r.upper

    def test_runs_can_leave_the_realizable_range(self):
        # Realizability of the table does not survive word evaluation:
        # the lower track can die while the upper track lands exactly on
        # a singleton block, a pair no subset approximates to. Pinned
        # here so nobody "fixes" word_step to re-normalize its output.
        space = make_partition(["u", "v", "w"], [["u"], ["v", "w"]])
        empty = space.empty_set()
        u = definable_by_states(space, ["u"])
        vw = definable_by_states(space, ["v"])
        table = {
            ("u", "a"): RoughSet(u, u),
            ("u", "b"): RoughSet(u, u),
            ("v", "a"): RoughSet(empty, vw),
            ("w", "a"): RoughSet(empty, vw),
            ("v", "b"): RoughSet(u, u),
            ("w", "b"): RoughSet(u, u),
        }
        m = make_machine(space, ("a", "b"), table, name="escape")
        assert validate_machine(m, strict=True) == []
        r = word_step(m, "v", ("a", "b"))
        assert r.lower.states_set() == frozenset()
        assert r.upper.states_set() == {"u"}
        assert not is_realizable(space, r.lower, r.upper)

    def test_unknown_state_and_symbol_rejected(self, five_state):
        with pytest.raises(UnknownState):
            word_step(five_state, "q9", ())
        with pytest.raises(UnknownSymbol):
            word_step(five_state, "q1", ("z",))


class TestBlockWordStep:
    def test_empty_word_returns_the_set_exactly(self, five_state):
        d = definable_by_states(five_state.space, ["q1", "q4"])
        r = block_word_step(five_state, d, ())
        assert r.lower == d and r.upper == d

    def test_single_letter_equals_block_step(self, five_state):
        space = five_state.space
        for ids in oracles.all_subsets(range(space.n_blocks)):
            d = space.definable(ids)
            for x in five_state.alphabet:
                assert block_word_step(five_state, d, (x,)) == block_step(five_state, d, x)

    def test_direct_evaluation_equals_recurrence(self, five_state):
        space = five_state.space
        words = [(x, y) for x in "ab" for y in "ab"] + [
            (x, y, z) for x in "ab" for y in "ab" for z in "ab"
        ]
        for ids in oracles.all_subsets(range(space.n_blocks)):
            d = space.definable(ids)
            for w in words:
                direct = block_word_step(five_state, d, w)
                prefix = block_word_step(five_state, d, w[:-1])
                assert direct.lower == block_step(five_state, prefix.lower, w[-1]).lower
                assert direct.upper == block_step(five_state, prefix.upper, w[-1]).upper

    def test_direct_evaluation_equals_recurrence_on_random_machines(self):
        rng = random.Random(3)
        for _ in range(8):
            m = random_machine(rng, max_states=5, max_inputs=2)
            d = m.space.definable(
                i for i in range(m.space.n_blocks) if rng.random() < 0.6
            )
            for n in (2, 3):
                w = tuple(rng.choice(m.alphabet) for _ in range(n))
                direct = block_word_step(m, d, w)
                prefix = block_word_step(m, d, w[:-1])
                assert direct.lower == block_step(m, prefix.lower, w[-1]).lower
                assert direct.upper == block_step(m, prefix.upper, w[-1]).upper


    def test_unknown_symbol_rejected_from_every_start(self, five_state):
        # Runs check every symbol against the alphabet, even when the
        # start set is empty and no entry is ever looked up.
        space = five_state.space
        for start in (space.empty_set(), space.full_set()):
            for word in (("z",), ("a", "z")):
                with pytest.raises(UnknownSymbol):
                    block_word_step(five_state, start, word)
        with pytest.raises(UnknownSymbol):
            block_step(five_state, space.empty_set(), "z")
        with pytest.raises(MismatchedSpace):
            block_word_step(five_state, make_partition(["z"], [["z"]]).full_set(), ())


class TestRunsAgainstTheReference:
    """All three run functions against the union of per-state reference runs."""

    @staticmethod
    def states_of(r):
        return r.lower.states_set(), r.upper.states_set()

    def test_on_random_machines(self):
        rng = random.Random(23)
        for _ in range(25):
            m = random_machine(rng, max_states=6, max_inputs=3)
            space = m.space
            starts = [space.empty_set(), space.full_set()] + [
                space.definable(i for i in range(space.n_blocks) if rng.random() < 0.5)
                for _ in range(3)
            ]
            for d in starts:
                for n in range(5):
                    w = tuple(rng.choice(m.alphabet) for _ in range(n))
                    expected = oracles.block_run_reference(m, d.states_set(), w)
                    assert self.states_of(block_word_step(m, d, w)) == expected
                    if n == 1:
                        assert self.states_of(block_step(m, d, w[0])) == expected
            for q in space.states:
                w = tuple(rng.choice(m.alphabet) for _ in range(rng.randint(0, 4)))
                assert self.states_of(word_step(m, q, w)) == oracles.block_run_reference(m, [q], w)

    @pytest.mark.parametrize("n", (12, 60, 200))
    def test_block_machine_runs_on_long_words(self, n):
        rng = random.Random(1500 + n)
        m = random_machine(rng, n_states=n, alphabet="abcd", min_block_size=2)
        space = m.space
        for length in (0, 1, 2, 7, 19, 40):
            w = tuple(rng.choice("abcd") for _ in range(length))
            q = rng.choice(space.states)
            assert self.states_of(word_step(m, q, w)) == oracles.word_run_reference(m, q, w)
            d = space.definable(rng.sample(range(space.n_blocks), rng.randint(1, 2)))
            assert self.states_of(block_word_step(m, d, w)) == oracles.block_run_reference(m, d.states_set(), w)

    def test_empty_word_and_empty_set(self):
        m = random_machine(random.Random(12), n_states=12, alphabet="abcd", min_block_size=2)
        space = m.space
        for q in space.states:
            assert word_step(m, q, ()) == RoughSet(space.block_of(q), space.block_of(q))
        d = space.definable([0, space.n_blocks - 1])
        assert block_word_step(m, d, ()) == RoughSet(d, d)
        empty = space.empty_set()
        assert block_word_step(m, empty, tuple("abcd" * 5)) == RoughSet(empty, empty)

    def test_unknown_symbol_midword_with_an_empty_track(self):
        # The states of the first block step on "a" to an empty lower part
        # and a nonempty upper part, so the lower track is empty at "z".
        generated = random_machine(random.Random(60), n_states=60, alphabet="abcd", min_block_size=2)
        space = generated.space
        table = dict(generated.table)
        for q in space.blocks[0]:
            table[q, "a"] = RoughSet(space.empty_set(), space.full_set())
        m = Machine(space, generated.alphabet, table)
        start = space.blocks[0][0]
        assert not word_step(m, start, ("a",)).lower
        for tail in ((), ("a", "b")):
            with pytest.raises(UnknownSymbol):
                word_step(m, start, ("a", "z") + tail)
            with pytest.raises(UnknownSymbol):
                block_word_step(m, space.block_of(start), ("a", "z") + tail)


class TestTableSnapshot:
    def test_table_is_read_only(self, five_state):
        with pytest.raises(TypeError):
            five_state.table[("q1", "a")] = five_state.table[("q1", "b")]
        with pytest.raises(TypeError):
            del five_state.table[("q1", "a")]

    def test_later_changes_to_the_passed_table_change_nothing(self, five_state):
        table = dict(five_state.table)
        m = Machine(five_state.space, five_state.alphabet, table)
        word = ("a", "b", "a")
        before = [word_step(m, q, word) for q in m.space.states]
        for key in table:
            table[key] = RoughSet(m.space.empty_set(), m.space.empty_set())
        assert dict(m.table) == dict(five_state.table)
        assert [word_step(m, q, word) for q in m.space.states] == before

    def test_pickles_and_copies_with_a_read_only_table(self, five_state):
        for twin in (pickle.loads(pickle.dumps(five_state)), copy.deepcopy(five_state), copy.copy(five_state)):
            assert twin == five_state and twin.name == five_state.name
            assert word_step(twin, "q1", ("a", "b")) == word_step(five_state, "q1", ("a", "b"))
            with pytest.raises(TypeError):
                twin.table[("q1", "a")] = twin.table[("q1", "b")]


class TestDecompositionLaw:
    """Splitting a word anywhere and rerunning from the midpoint agrees."""

    @staticmethod
    def assert_law(m, q, x, y):
        whole = word_step(m, q, x + y)
        mid = word_step(m, q, x)
        assert whole.lower == block_word_step(m, mid.lower, y).lower
        assert whole.upper == block_word_step(m, mid.upper, y).upper

    def all_words(self, alphabet, up_to):
        words = [()]
        frontier = [()]
        for _ in range(up_to):
            frontier = [w + (x,) for w in frontier for x in alphabet]
            words.extend(frontier)
        return words

    def test_on_the_five_state_machine(self, five_state):
        for w in self.all_words(five_state.alphabet, 3):
            for cut in range(len(w) + 1):
                for q in five_state.space.states:
                    self.assert_law(five_state, q, w[:cut], w[cut:])

    def test_on_random_machines(self):
        rng = random.Random(19)
        for _ in range(8):
            m = random_machine(rng, max_states=5, max_inputs=3)
            for w in self.all_words(m.alphabet, 2):
                for cut in range(len(w) + 1):
                    for q in m.space.states:
                        self.assert_law(m, q, w[:cut], w[cut:])


class TestValidateMachine:
    def test_clean_on_the_fixture(self, five_state):
        assert validate_machine(five_state) == []

    def test_strict_flags_the_singleton_boundaries(self, five_state):
        problems = validate_machine(five_state, strict=True)
        assert {(v.state, v.symbol) for v in problems} == {("q2", "b"), ("q3", "b")}
        assert all("approximation of any subset" in v.reason for v in problems)

    def test_strict_agrees_with_brute_force(self, five_state):
        flagged = {
            (v.state, v.symbol) for v in validate_machine(five_state, strict=True)
        }
        for q in five_state.space.states:
            for x in five_state.alphabet:
                r = five_state.table[(q, x)]
                reachable = oracles.brute_realizable(
                    five_state.space, r.lower.states_set(), r.upper.states_set()
                )
                assert ((q, x) in flagged) == (not reachable)

    def test_containment_violation_reported(self):
        space = make_partition(["q1", "q2"], [["q1"], ["q2"]])
        one = definable_by_states(space, ["q1"])
        two = definable_by_states(space, ["q2"])
        m = Machine(space, ("a",), {("q1", "a"): RoughSet(one, two), ("q2", "a"): RoughSet(two, two)})
        problems = validate_machine(m)
        assert len(problems) == 1
        assert problems[0].state == "q1"
        assert "not contained" in problems[0].reason

    def test_missing_and_stray_entries_reported(self, five_state):
        table = dict(five_state.table)
        del table[("q1", "a")]
        table[("q1", "z")] = table[("q1", "b")]
        table[("q9", "a")] = table[("q1", "b")]
        table[("q2", "y")] = table[("q1", "b")]
        m = Machine(five_state.space, five_state.alphabet, table)
        found = [(v.state, v.symbol, v.reason) for v in validate_machine(m)]
        outside = "entry outside the state/alphabet grid"
        assert found == [
            ("q1", "z", outside),
            ("q9", "a", outside),
            ("q2", "y", outside),
            ("q1", "a", "missing table entry"),
        ]

    def test_shared_bad_entry_reported_at_each_position_in_order(self, five_state):
        # One entry object at three positions is reported at each, in table order.
        bad = RoughSet(five_state.space.full_set(), five_state.space.empty_set())
        table = dict(five_state.table)
        for key in [("q4", "b"), ("q1", "a"), ("q3", "a")]:
            table[key] = bad
        m = Machine(five_state.space, five_state.alphabet, table)
        for strict in (False, True):
            found = [(v.state, v.symbol, v.reason) for v in validate_machine(m, strict)]
            shared = [v for v in found if v[2] == "lower approximation not contained in upper"]
            assert shared == [
                (q, x, "lower approximation not contained in upper")
                for q, x in [("q1", "a"), ("q3", "a"), ("q4", "b")]
            ]

    def test_shared_unrealizable_entry_reported_at_each_position_in_order(self, five_state):
        # q4 is a one-state block, so a boundary holding it realizes no
        # subset; the fixture's own entry at (q3, b) is not realizable either.
        space = five_state.space
        loose = RoughSet(space.empty_set(), space.block_of("q4"))
        table = dict(five_state.table)
        for key in [("q5", "b"), ("q2", "a"), ("q2", "b"), ("q1", "b")]:
            table[key] = loose
        m = Machine(space, five_state.alphabet, table)
        assert validate_machine(m) == []
        found = [(v.state, v.symbol, v.reason) for v in validate_machine(m, strict=True)]
        assert found == [
            (q, x, "entry is not the approximation of any subset")
            for q, x in [("q1", "b"), ("q2", "a"), ("q2", "b"), ("q3", "b"), ("q5", "b")]
        ]

    def test_strict_realizability_agrees_with_brute_force_on_one_state_blocks(self):
        # Every (lower, upper) pair over every partition with a one-state
        # block, one symbol per pair and each pair's entry object shared by
        # all states, so each failing entry is reported at every state.
        states = ["q1", "q2", "q3", "q4"]
        checked = 0
        for size in range(1, len(states) + 1):
            for cells in oracles.all_partitions(states[:size]):
                if min(map(len, cells)) > 1:
                    continue
                space = make_partition(states[:size], cells)
                subsets = list(oracles.all_subsets(range(space.n_blocks)))
                entries = [RoughSet(space.definable(low), space.definable(up)) for low in subsets for up in subsets]
                symbols = [f"x{i}" for i in range(len(entries))]
                table = {(q, x): r for q in space.states for x, r in zip(symbols, entries)}
                m = Machine(space, symbols, table)
                expected = []
                for q in space.states:
                    for x, r in zip(symbols, entries):
                        if not r.lower <= r.upper:
                            expected.append((q, x, "lower approximation not contained in upper"))
                        elif not oracles.brute_realizable(space, r.lower.states_set(), r.upper.states_set()):
                            expected.append((q, x, "entry is not the approximation of any subset"))
                found = [(v.state, v.symbol, v.reason) for v in validate_machine(m, strict=True)]
                assert found == expected
                checked += len(entries)
        assert checked > 500

    def test_strict_reports_one_problem_per_entry(self, five_state):
        # Each broken entry gets its first problem only; the boundary test
        # runs on the well-formed entries, and is_realizable keeps its own
        # checks for outside callers.
        space = five_state.space
        other = make_partition(["z1", "z2"], [["z1", "z2"]])
        inverted = RoughSet(space.full_set(), space.empty_set())
        table = dict(five_state.table)
        table[("q1", "a")] = RoughSet(other.full_set(), other.full_set())
        table[("q2", "b")] = inverted
        del table[("q4", "a")]
        m = Machine(space, five_state.alphabet, table)
        found = [(v.state, v.symbol, v.reason) for v in validate_machine(m, strict=True)]
        assert found == [
            ("q1", "a", "entry lives in a different space"),
            ("q2", "b", "lower approximation not contained in upper"),
            ("q3", "b", "entry is not the approximation of any subset"),
            ("q4", "a", "missing table entry"),
        ]
        assert [v for v in found if v[:2] != ("q3", "b")] == [
            (v.state, v.symbol, v.reason) for v in validate_machine(m)
        ]
        assert not is_realizable(space, inverted.lower, inverted.upper)
        with pytest.raises(MismatchedSpace):
            is_realizable(space, other.full_set(), other.full_set())

    def test_non_rough_entry_and_foreign_space_reported(self):
        space = make_partition(["q1"], [["q1"]])
        other = make_partition(["q1"], [["q1"]])
        foreign = RoughSet(other.full_set(), other.full_set())
        m = Machine(space, ("a", "b"), {("q1", "a"): "oops", ("q1", "b"): foreign})
        reasons = {v.symbol: v.reason for v in validate_machine(m)}
        assert "not a rough set" in reasons["a"]
        # The two one-state spaces compare equal, so the entry is fine.
        assert "b" not in reasons

    def test_truly_foreign_space_reported(self, five_state):
        other = make_partition(["z1", "z2"], [["z1", "z2"]])
        table = dict(five_state.table)
        table[("q1", "a")] = RoughSet(other.full_set(), other.full_set())
        m = Machine(five_state.space, five_state.alphabet, table)
        reasons = {(v.state, v.symbol): v.reason for v in validate_machine(m)}
        assert "different space" in reasons[("q1", "a")]

    def test_empty_alphabet_and_duplicate_symbols_reported(self, five_state):
        m = Machine(five_state.space, (), {})
        reasons = [v.reason for v in validate_machine(m)]
        assert any("no input symbols" in r for r in reasons)
        m2 = Machine(five_state.space, ("a", "a"), five_state.table)
        assert any("twice" in v.reason for v in validate_machine(m2))

    def test_machine_without_states_reported(self):
        m = Machine(ApproximationSpace((), ()), ("a",), {})
        assert [v.reason for v in validate_machine(m)] == ["machine has no states"]

    def test_make_machine_raises_with_violations(self, five_state):
        with pytest.raises(SemanticError) as err:
            make_machine(five_state.space, five_state.alphabet, {})
        assert err.value.violations
        assert "missing table entry" in str(err.value)

    def test_violation_formatting(self):
        v = Violation("q1", "a", "missing table entry")
        assert str(v) == "missing table entry at (q1, a)"
        assert str(Violation(None, None, "machine has no states")) == "machine has no states"


def equality_pairs(seed):
    """Seeded pairs of machines whose states print to distinct names."""
    rng = random.Random(seed)
    m1 = random_machine(rng, max_states=4, alphabet=("a", "b"), name="m1")
    m2 = random_machine(rng, max_states=3, alphabet=("a", "b"), name="m2")
    pairs = [(m1, m2)]
    for m in (m1, full_direct(m1, m2), wreath(m1, m2)):
        again = parse_machine(serialize_machine(m))
        pairs += [(m, again), (m, Machine(m.space, m.alphabet, m.table, name="other"))]
        keys = list(m.table)
        for _ in range(4):  # one entry swapped for another entry of the table
            table = dict(m.table)
            table[rng.choice(keys)] = m.table[rng.choice(keys)]
            swapped = Machine(m.space, m.alphabet, table)
            pairs += [(m, swapped), (again, swapped)]
        for _ in range(2):  # entries missing
            first, second = dict(m.table), dict(m.table)
            del first[rng.choice(keys)]
            del second[rng.choice(keys)]
            for a, b in ((first, m.table), (first, second), (first, first)):
                pairs.append((Machine(m.space, m.alphabet, a), Machine(m.space, m.alphabet, b)))
    return pairs


@pytest.mark.parametrize("seed", range(6))
def test_equality_agrees_with_the_brute_key(seed):
    for a, b in equality_pairs(seed):
        same = oracles.brute_canonical_key(a) == oracles.brute_canonical_key(b)
        assert (a == b) is same
        assert (b == a) is same
        for m in (a, b):
            assert m.canonical_key() == oracles.brute_canonical_key(m)


class TestMachineValueSemantics:
    def test_name_is_ignored_by_equality(self, five_state, five_state_sample):
        assert five_state == five_state_sample
        renamed = Machine(
            five_state.space, five_state.alphabet, five_state.table, name="other"
        )
        assert renamed == five_state

    def test_table_content_matters(self, five_state):
        table = dict(five_state.table)
        table[("q1", "a")], table[("q1", "b")] = table[("q1", "b")], table[("q1", "a")]
        assert Machine(five_state.space, five_state.alphabet, table) != five_state

    def test_inequality_stops_at_the_first_differing_entry(self, monkeypatch):
        rng = random.Random(29)
        m = random_machine(rng, n_states=200, alphabet="abcd", min_block_size=2)
        first = (m.space.states[0], m.alphabet[0])
        table = dict(m.table)
        table[first] = next(r for r in m.table.values() if r != m.table[first])
        changed = Machine(m.space, m.alphabet, table)
        calls = 0
        real = DefinableSet.member_names

        def counting(self):
            nonlocal calls
            calls += 1
            return real(self)

        monkeypatch.setattr(DefinableSet, "member_names", counting)
        assert changed != m
        # Entries compare by block ids, so no member name is rendered.
        assert calls == 0
        assert Machine(m.space, m.alphabet, dict(m.table)) == m
        assert calls == 0

    def test_entries_holding_blocks_that_print_alike_differ(self):
        # ("x,y", "z") and ("x", "y,z") both print as (x,y,z).
        states = [("x,y", "z"), ("x", "y,z")]
        space = make_partition(states, [[q] for q in states])
        first, second = (
            Machine(space, ("a",), {(q, "a"): approximate(space, [target]) for q in states})
            for target in states
        )
        assert oracles.brute_canonical_key(first) == oracles.brute_canonical_key(second)
        assert first != second
        assert first == Machine(space, ("a",), first.table)

    def test_entry_lookup_checks_both_coordinates(self, five_state):
        assert five_state.entry("q2", "a").lower.states_set() == frozenset()
        with pytest.raises(UnknownState):
            five_state.entry("q9", "a")
        with pytest.raises(UnknownSymbol):
            five_state.entry("q1", "z")

    def test_strictly_realizable_by_construction(self):
        rng = random.Random(23)
        for _ in range(10):
            m = random_machine(rng, max_states=5, max_inputs=3)
            assert validate_machine(m, strict=True) == []

    def test_repr_mentions_the_shape(self, five_state):
        assert "5 states" in repr(five_state)
        assert "3 blocks" in repr(five_state)
