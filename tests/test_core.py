from __future__ import annotations

import copy
import itertools
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from roughfsm import (
    ApproximationSpace,
    DefinableSet,
    RoughSet,
    approximate,
    is_definable,
    is_realizable,
    make_machine,
    make_partition,
    parse_machine,
    product_partition,
    serialize_machine,
    value_name,
)
from roughfsm import core
from roughfsm.errors import DuplicateState, MismatchedSpace, NonPartition, UnknownState

import oracles


def space5():
    return make_partition(
        ["q1", "q2", "q3", "q4", "q5"],
        [["q1", "q2"], ["q3", "q5"], ["q4"]],
    )


def scattered_space(rng, n_blocks):
    """A space of `n_blocks` blocks of 1-3 tuple states each, their members scattered over the states."""
    sizes = [rng.randint(1, 3) for _ in range(n_blocks)]
    states = [("s", i) for i in range(sum(sizes))]
    shuffled = rng.sample(states, len(states))
    cuts = list(itertools.accumulate(sizes))
    return make_partition(states, [shuffled[i:j] for i, j in zip([0] + cuts, cuts)])


@st.composite
def spaces(draw, max_states=6):
    n = draw(st.integers(1, max_states))
    states = [f"q{i}" for i in range(1, n + 1)]
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells: dict[int, list[str]] = {}
    for q, label in zip(states, labels):
        cells.setdefault(label, []).append(q)
    return make_partition(states, list(cells.values()))


@st.composite
def space_and_subset(draw, max_states=6):
    space = draw(spaces(max_states))
    picks = draw(st.lists(st.booleans(), min_size=len(space.states), max_size=len(space.states)))
    return space, [q for q, keep in zip(space.states, picks) if keep]


class TestMakePartition:
    def test_canonicalizes_cell_and_member_order(self):
        space = make_partition(["q1", "q2", "q3"], [["q3"], ["q2", "q1"]])
        assert space.blocks == (("q1", "q2"), ("q3",))

    def test_duplicate_state_rejected(self):
        with pytest.raises(DuplicateState, match="state q1 declared twice"):
            make_partition(["q1", "q1"], [["q1"]])

    def test_overlapping_cells_rejected(self):
        with pytest.raises(NonPartition):
            make_partition(["q1", "q2"], [["q1", "q2"], ["q2"]])

    def test_missing_state_rejected(self):
        with pytest.raises(NonPartition):
            make_partition(["q1", "q2"], [["q1"]])

    def test_empty_cell_rejected(self):
        with pytest.raises(NonPartition):
            make_partition(["q1"], [[], ["q1"]])

    def test_undeclared_member_rejected(self):
        with pytest.raises(NonPartition):
            make_partition(["q1"], [["q1", "q9"]])

    def test_space_built_directly_refuses_a_member_that_is_no_state(self):
        with pytest.raises(NonPartition, match="block member q9 is not a state"):
            ApproximationSpace(("q1",), (("q1", "q9"),))

    def test_repeated_member_in_cell_rejected(self):
        with pytest.raises(NonPartition):
            make_partition(["q1", "q2"], [["q1", "q1"], ["q2"]])

    def test_spaces_built_apart_compare_and_hash_by_value(self):
        first = make_partition(["q1", "q2", "q3"], [["q3"], ["q2", "q1"]])
        second = make_partition(["q1", "q2", "q3"], [["q1", "q2"], ["q3"]])
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)
        assert first != make_partition(["q1", "q2", "q3"], [["q1"], ["q2"], ["q3"]])
        assert first != first.states

    def test_pickled_and_copied_spaces_hash_and_compare_by_value(self):
        # The space is hashed, then pickled, in a process with another string hash seed.
        script = (
            "import pickle, sys\n"
            "from roughfsm import make_partition\n"
            "space = make_partition(['q1', 'q2', 'q3', 'q4', 'q5'], [['q1', 'q2'], ['q3', 'q5'], ['q4']])\n"
            "hash(space)\n"
            "sys.stdout.buffer.write(pickle.dumps(space))\n"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        seed = "1" if os.environ.get("PYTHONHASHSEED") == "0" else "0"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True,
            timeout=60,
            check=True,
        )
        space = space5()
        for twin in (pickle.loads(done.stdout), copy.copy(space), copy.deepcopy(space)):
            assert twin == space and hash(twin) == hash(space)
            assert {space: 1}[twin] == 1


class TestApproximate:
    def test_empty_subset(self):
        r = approximate(space5(), [])
        assert r.lower.states_set() == frozenset()
        assert r.upper.states_set() == frozenset()

    def test_straddling_subset(self):
        r = approximate(space5(), ["q1", "q3"])
        assert r.lower.states_set() == frozenset()
        assert r.upper.states_set() == {"q1", "q2", "q3", "q5"}

    def test_full_block_is_exact(self):
        r = approximate(space5(), ["q4"])
        assert r.lower.states_set() == {"q4"}
        assert r.upper.states_set() == {"q4"}
        assert r.is_exact()

    def test_unknown_state_rejected(self):
        with pytest.raises(UnknownState):
            approximate(space5(), ["q9"])

    def test_matches_brute_force_on_all_subsets(self):
        space = space5()
        for subset in oracles.all_subsets(space.states):
            r = approximate(space, subset)
            assert (r.lower.states_set(), r.upper.states_set()) == oracles.brute_approximation(space, subset)

    @settings(max_examples=150)
    @given(space_and_subset())
    def test_sandwich_property(self, pair):
        space, subset = pair
        r = approximate(space, subset)
        assert r.lower.states_set() <= frozenset(subset) <= r.upper.states_set()
        assert is_definable(space, r.lower.states_set())
        assert is_definable(space, r.upper.states_set())

    @settings(max_examples=100)
    @given(spaces(max_states=5), st.data())
    def test_idempotent_on_definable_sets(self, space, data):
        ids = data.draw(st.sets(st.integers(0, space.n_blocks - 1)))
        d = space.definable(ids)
        r = approximate(space, d.states_set())
        assert r.lower == d
        assert r.upper == d


class TestIsDefinable:
    def test_block_union_is_definable(self):
        assert is_definable(space5(), ["q3", "q5"])
        assert is_definable(space5(), ["q1", "q2", "q3", "q4", "q5"])

    def test_split_block_is_not(self):
        assert not is_definable(space5(), ["q3"])

    def test_agrees_with_brute_force_and_with_approximate(self):
        space = space5()
        for subset in oracles.all_subsets(space.states):
            direct = is_definable(space, subset)
            assert direct == oracles.brute_definable(space, subset)
            via_approx = approximate(space, subset).lower.states_set() == frozenset(subset)
            assert direct == via_approx

    def test_agrees_with_approximate_on_seeded_subsets_without_a_rough_set(self, monkeypatch):
        rng = random.Random(41)
        cases = []
        for _ in range(300):
            states = [f"q{i}" for i in range(rng.randint(1, 9))]
            shuffled = rng.sample(states, len(states))
            cuts = sorted(rng.sample(range(1, len(states)), rng.randint(0, len(states) - 1)))
            cells = [shuffled[i:j] for i, j in zip([0] + cuts, cuts + [len(states)])]
            space = make_partition(states, cells)
            members = rng.choices(states, k=rng.randint(0, 2 * len(states)))  # repeats included
            cases.append((space, members, approximate(space, members).is_exact()))

        def no_rough_set(*args):
            raise AssertionError("is_definable built a rough set")

        monkeypatch.setattr(core, "RoughSet", no_rough_set)
        assert [is_definable(space, members) for space, members, _ in cases] == [exact for *_, exact in cases]
        assert {exact for *_, exact in cases} == {True, False}

    @pytest.mark.parametrize("members", [["q9"], ["q1", "q2", "q9"], ["q3", "q9", "q9"]])
    def test_unknown_states_raise(self, members):
        with pytest.raises(UnknownState, match="unknown state q9"):
            is_definable(space5(), members)


class TestIsRealizable:
    def test_empty_lower_with_two_state_boundary(self):
        space = space5()
        assert is_realizable(space, space.empty_set(), space.definable([1]))

    def test_singleton_boundary_block_is_not(self):
        space = space5()
        lower = space.definable([0])
        upper = space.definable([0, 2])
        assert not is_realizable(space, lower, upper)

    def test_exact_pairs_always_are(self):
        space = space5()
        for ids in oracles.all_subsets(range(space.n_blocks)):
            d = space.definable(ids)
            assert is_realizable(space, d, d)

    def test_lower_outside_upper_is_not(self):
        space = space5()
        assert not is_realizable(space, space.definable([0]), space.definable([1]))

    def test_foreign_sets_rejected(self):
        other = make_partition(["a"], [["a"]])
        with pytest.raises(MismatchedSpace):
            is_realizable(space5(), other.empty_set(), other.empty_set())

    def test_agrees_with_brute_force_on_small_spaces(self):
        states = ["q1", "q2", "q3", "q4"]
        for size in range(1, len(states) + 1):
            for cells in oracles.all_partitions(states[:size]):
                space = make_partition(states[:size], cells)
                for low_ids in oracles.all_subsets(range(space.n_blocks)):
                    for up_ids in oracles.all_subsets(range(space.n_blocks)):
                        lower = space.definable(low_ids)
                        upper = space.definable(up_ids)
                        assert is_realizable(space, lower, upper) == oracles.brute_realizable(
                            space, lower.states_set(), upper.states_set()
                        )


class TestDefinableSet:
    def test_set_algebra_matches_state_sets(self):
        space = space5()
        a = space.definable([0, 1])
        b = space.definable([1, 2])
        assert (a | b).states_set() == a.states_set() | b.states_set()
        assert (a & b).states_set() == a.states_set() & b.states_set()
        assert (a - b).states_set() == a.states_set() - b.states_set()
        assert not a <= b
        assert a & b <= a

    def test_contains_goes_through_blocks(self):
        d = space5().definable([1])
        assert "q3" in d and "q5" in d
        assert "q4" not in d

    def test_orders_follow_declaration(self):
        d = space5().definable([2, 0])
        assert d.states_ordered() == ("q1", "q2", "q4")
        assert d.blocks_ordered() == (("q1", "q2"), ("q4",))

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 99, 801])
    def test_member_orders_match_sorted_positions_at_byte_edges(self, n):
        # Members are picked off their position mask bit by bit; tuple
        # states print differently from themselves, and blocks are scattered.
        rng = random.Random(n)
        states = [("s", i) for i in range(n)]
        shuffled = rng.sample(states, n)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, n // 3))) if n > 1 else []
        cells = [shuffled[i:j] for i, j in zip([0] + cuts, cuts + [n])]
        space = make_partition(states, cells)
        picks = [[], list(range(space.n_blocks))]
        picks += [rng.sample(range(space.n_blocks), rng.randint(1, space.n_blocks)) for _ in range(20)]
        for ids in picks:
            d = space.definable(ids)
            positions = sorted(space.position(q) for i in ids for q in space.blocks[i])
            assert d.states_ordered() == tuple(states[p] for p in positions)
            assert d.member_names() == tuple(value_name(states[p]) for p in positions)

    @pytest.mark.parametrize("n_blocks", [1, 8, 9, 16, 17, 65, 256, 257])
    def test_block_masks_match_frozenset_algebra_at_byte_edges(self, n_blocks):
        # Block masks are picked bit by bit; these spaces put blocks on both
        # sides of each byte edge, and their members are scattered.
        rng = random.Random(n_blocks)
        space = scattered_space(rng, n_blocks)
        assert space.n_blocks == n_blocks
        position = {q: i for i, q in enumerate(space.states)}
        picks = [frozenset(), frozenset(range(n_blocks)), frozenset({0}), frozenset({n_blocks - 1})]
        picks += [frozenset(range(0, n_blocks, 8)), frozenset(range(7, n_blocks, 8))]
        picks += [frozenset(rng.sample(range(n_blocks), rng.randint(1, n_blocks))) for _ in range(20)]
        sets = [space.definable(ids) for ids in picks]
        for ids, d in zip(picks, sets):
            members = tuple(sorted((q for i in ids for q in space.blocks[i]), key=position.__getitem__))
            assert type(d.block_ids) is frozenset and d.block_ids == ids
            assert d.blocks_ordered() == tuple(space.blocks[i] for i in sorted(ids))
            assert d.states_ordered() == members and d.states_set() == frozenset(members)
            assert d.member_names() == tuple(map(value_name, members))
            assert [q in d for q in space.states] == [space.block_id(q) in ids for q in space.states]
        for (a_ids, a), (b_ids, b) in itertools.product(zip(picks, sets), repeat=2):
            assert (a | b).block_ids == a_ids | b_ids
            assert (a & b).block_ids == a_ids & b_ids
            assert (a - b).block_ids == a_ids - b_ids
            assert (a <= b) == (a_ids <= b_ids)

    @pytest.mark.parametrize("n_blocks", [1, 8, 9, 16, 17, 65, 256, 257])
    def test_machines_over_byte_edge_spaces_survive_a_round_trip(self, n_blocks):
        rng = random.Random(n_blocks)
        space = scattered_space(rng, n_blocks)
        table = {}
        for q in space.states:
            for x in "ab":
                up = rng.sample(range(n_blocks), rng.randint(0, n_blocks))
                table[q, x] = RoughSet(space.definable(up[: rng.randint(0, len(up))]), space.definable(up))
        top = space.definable([n_blocks - 1])  # only the highest bit set
        table[space.states[0], "a"] = RoughSet(top, top)
        m = make_machine(space, "ab", table, "edges")
        text = serialize_machine(m)
        back = parse_machine(text)
        assert back == m and serialize_machine(back) == text

    def test_cross_space_algebra_rejected(self):
        other = make_partition(["q1"], [["q1"]])
        with pytest.raises(MismatchedSpace):
            space5().empty_set() | other.empty_set()

    def test_bad_block_id_rejected(self):
        space = space5()
        for ids in ([7], [-1], [space.n_blocks], [0, -1]):  # -1 must not reach a shift
            with pytest.raises(NonPartition):
                space.definable(ids)
        for bits in (-1, -2, 1 << space.n_blocks, (1 << space.n_blocks) | 1):  # reading would drop or misread them
            with pytest.raises(NonPartition):
                DefinableSet(space, bits)
        d = DefinableSet(space, (1 << space.n_blocks) - 1)
        for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
            assert twin == d and twin.states_ordered() == space.states

    def test_truthiness_is_nonemptiness(self):
        space = space5()
        assert not space.empty_set()
        assert space.full_set()

    def test_value_semantics_without_instance_dicts(self):
        first, second = space5().definable([0, 2]), space5().definable([2, 0])
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert len({first, second, space5().definable([1])}) == 2
        assert {first: 1}[second] == 1 and space5().definable([0]) not in {first: 1}
        with pytest.raises(AttributeError):
            first.block_ids = frozenset()
        with pytest.raises((AttributeError, TypeError)):  # CPython 3.11 raises TypeError here
            first.note = "extra"
        assert not hasattr(first, "__dict__")
        assert repr(first) == repr(second) and pickle.dumps(first) == pickle.dumps(second)
        for twin in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
            assert twin == first and hash(twin) == hash(first) and twin.states_ordered() == ("q1", "q2", "q4")


class TestRoughSet:
    def test_boundary_and_exactness(self):
        space = space5()
        r = RoughSet(space.definable([1]), space.definable([0, 1]))
        assert r.boundary() == space.definable([0])
        assert not r.is_exact()
        assert RoughSet(space.definable([1]), space.definable([1])).is_exact()

    def test_mixed_spaces_rejected(self):
        other = make_partition(["q1"], [["q1"]])
        with pytest.raises(MismatchedSpace):
            RoughSet(space5().empty_set(), other.empty_set())

    def test_value_semantics_without_instance_dicts(self):
        first = RoughSet(space5().definable([1]), space5().definable([0, 1]))
        second = RoughSet(space5().definable([1]), space5().definable([1, 0]))
        assert first is not second and first == second
        assert hash(first) == hash(second)
        assert first != RoughSet(space5().definable([1]), space5().definable([1]))
        assert {first: 1}[second] == 1 and RoughSet(space5().empty_set(), first.upper) not in {first: 1}
        with pytest.raises(AttributeError):
            first.lower = first.upper
        with pytest.raises((AttributeError, TypeError)):  # CPython 3.11 raises TypeError here
            first.note = "extra"
        assert not hasattr(first, "__dict__")


class TestProductPartition:
    def test_three_by_three_blocks(self):
        space = product_partition(space5(), space5())
        assert space.n_blocks == 9
        assert len(space.states) == 25

    def test_block_of_a_pair_is_the_pair_of_blocks(self):
        space = product_partition(space5(), space5())
        block = space.block_of(("q1", "q3")).states_set()
        assert block == {(p, q) for p in ("q1", "q2") for q in ("q3", "q5")}

    def test_block_id_convention(self):
        s1 = space5()
        s2 = make_partition(["p1", "p2", "p3"], [["p1"], ["p2", "p3"]])
        prod = product_partition(s1, s2)
        for p in s1.states:
            for q in s2.states:
                assert prod.block_id((p, q)) == s1.block_id(p) * s2.n_blocks + s2.block_id(q)

    def test_singleton_factor_preserves_structure(self):
        s1 = space5()
        one = make_partition(["u"], [["u"]])
        prod = product_partition(s1, one)
        assert prod.n_blocks == s1.n_blocks
        assert [len(cell) for cell in prod.blocks] == [len(cell) for cell in s1.blocks]

    def test_approximation_commutes_with_products(self):
        s1 = make_partition(["a1", "a2", "a3"], [["a1", "a2"], ["a3"]])
        s2 = make_partition(["b1", "b2", "b3"], [["b1"], ["b2", "b3"]])
        prod = product_partition(s1, s2)
        for sub1 in oracles.all_subsets(s1.states):
            r1 = approximate(s1, sub1)
            for sub2 in oracles.all_subsets(s2.states):
                r2 = approximate(s2, sub2)
                both = approximate(prod, {(p, q) for p in sub1 for q in sub2})
                assert both.lower.states_set() == {
                    (p, q) for p in r1.lower.states_set() for q in r2.lower.states_set()
                }
                assert both.upper.states_set() == {
                    (p, q) for p in r1.upper.states_set() for q in r2.upper.states_set()
                }

    @settings(max_examples=60)
    @given(space_and_subset(max_states=4), space_and_subset(max_states=4))
    def test_approximation_commutes_on_random_spaces(self, first, second):
        s1, sub1 = first
        s2, sub2 = second
        prod = product_partition(s1, s2)
        r1 = approximate(s1, sub1)
        r2 = approximate(s2, sub2)
        both = approximate(prod, {(p, q) for p in sub1 for q in sub2})
        assert both.lower.states_set() == {
            (p, q) for p in r1.lower.states_set() for q in r2.lower.states_set()
        }
        assert both.upper.states_set() == {
            (p, q) for p in r1.upper.states_set() for q in r2.upper.states_set()
        }


def test_value_name_handles_nesting():
    assert value_name("q1") == "q1"
    assert value_name(("a", "b")) == "(a,b)"
    assert value_name((("q1", "q2"), "q3")) == "((q1,q2),q3)"
