from __future__ import annotations

import random
from itertools import product as iter_product

import pytest

from roughfsm import (
    CascadeWiring,
    FunctionSymbol,
    InputBridge,
    cascade,
    diagonal_bridge,
    full_direct,
    general_direct,
    pairing_bridge,
    restricted_direct,
    validate_machine,
    wreath,
)
from roughfsm.core import approximate, make_partition, product_partition
from roughfsm.errors import (
    AlphabetMismatch,
    BridgeTotalityError,
    BudgetExceeded,
    ShapeMismatch,
    UnknownState,
    UnknownSymbol,
    WiringTotalityError,
)
from roughfsm.generate import exact_machine, random_bridge, random_machine, random_wiring
from roughfsm.machine import make_machine, word_step
from roughfsm.products import all_function_symbols
from roughfsm.textio import parse_machine, serialize_machine


def pairs(first, second):
    return frozenset(iter_product(first, second))


def identity_wiring(machine_one, machine_two):
    return CascadeWiring(
        {(q2, x): x for q2 in machine_two.space.states for x in machine_two.alphabet}
    )


class TestFullDirect:
    def test_squared_entry_multiplies_componentwise(self, five_state):
        squared = full_direct(five_state, five_state)
        entry = squared.entry(("q1", "q1"), ("a", "a"))
        assert entry.lower.states_set() == pairs(["q1", "q2"], ["q1", "q2"])
        assert entry.upper.states_set() == pairs(
            ["q1", "q2", "q3", "q5"], ["q1", "q2", "q3", "q5"]
        )

    def test_empty_factor_lower_empties_the_product_lower(self, five_state):
        squared = full_direct(five_state, five_state)
        entry = squared.entry(("q2", "q1"), ("a", "a"))
        assert entry.lower.states_set() == frozenset()
        assert entry.upper.states_set() == pairs(["q3", "q5"], ["q1", "q2", "q3", "q5"])

    def test_all_entries_against_factor_tables(self, five_state):
        squared = full_direct(five_state, five_state)
        for q1 in five_state.space.states:
            for q2 in five_state.space.states:
                for x1 in five_state.alphabet:
                    for x2 in five_state.alphabet:
                        got = squared.entry((q1, q2), (x1, x2))
                        r1 = five_state.entry(q1, x1)
                        r2 = five_state.entry(q2, x2)
                        assert got.lower.states_set() == pairs(
                            r1.lower.states_ordered(), r2.lower.states_ordered()
                        )
                        assert got.upper.states_set() == pairs(
                            r1.upper.states_ordered(), r2.upper.states_ordered()
                        )

    def test_state_side_is_the_product_partition(self, five_state):
        squared = full_direct(five_state, five_state)
        assert squared.space == product_partition(five_state.space, five_state.space)
        assert squared.name == "full(m5,m5)"


class TestRestrictedDirect:
    def test_shared_letter_drives_both_factors(self, five_state):
        squared = restricted_direct(five_state, five_state)
        entry = squared.entry(("q4", "q4"), "b")
        assert entry.lower.states_set() == {("q4", "q4")}
        assert entry.upper.states_set() == pairs(
            five_state.space.states, five_state.space.states
        )

    def test_agrees_with_full_product_on_diagonal_letters(self, five_state):
        squared = restricted_direct(five_state, five_state)
        full = full_direct(five_state, five_state)
        for q1 in five_state.space.states:
            for q2 in five_state.space.states:
                for x in five_state.alphabet:
                    assert squared.entry((q1, q2), x) == full.entry((q1, q2), (x, x))

    def test_mismatched_alphabets_rejected(self, five_state):
        other = exact_machine(2, ("x", "y"))
        with pytest.raises(AlphabetMismatch):
            restricted_direct(five_state, other)


class TestGeneralDirect:
    def test_bridge_decodes_each_external_letter(self, five_state):
        bridge = InputBridge(("u",), {"u": ("a", "b")})
        prod = general_direct(five_state, five_state, bridge)
        assert prod.alphabet == ("u",)
        entry = prod.entry(("q1", "q1"), "u")
        assert entry.lower.states_set() == pairs(["q1", "q2"], ["q4"])
        assert entry.upper.states_set() == pairs(
            ["q1", "q2", "q3", "q5"], ["q3", "q5", "q4"]
        )

    def test_pairing_bridge_recovers_the_full_product(self, five_state):
        bridge = pairing_bridge(five_state.alphabet, five_state.alphabet)
        assert general_direct(five_state, five_state, bridge) == full_direct(
            five_state, five_state
        )

    def test_diagonal_bridge_recovers_the_restricted_product(self, five_state):
        bridge = diagonal_bridge(five_state.alphabet)
        assert general_direct(five_state, five_state, bridge) == restricted_direct(
            five_state, five_state
        )

    def test_duplicate_carrier_rejected(self, five_state):
        bridge = InputBridge(("u", "u"), {"u": ("a", "a")})
        with pytest.raises(BridgeTotalityError):
            general_direct(five_state, five_state, bridge)

    def test_empty_carrier_rejected(self, five_state):
        with pytest.raises(BridgeTotalityError, match="^bridge carrier lists no symbols$"):
            general_direct(five_state, five_state, InputBridge((), {}))

    def test_unknown_decode_target_rejected(self, five_state):
        bad = InputBridge(("u",), {"u": ("a", "zz")})
        with pytest.raises(UnknownSymbol, match="^letter u at q1 feeds unknown second input zz$"):
            general_direct(five_state, five_state, bad)

    def test_unknown_first_decode_target_rejected(self, five_state):
        bad = InputBridge(("u",), {"u": ("zz", "a")})
        with pytest.raises(UnknownSymbol, match="^letter u at q1 feeds unknown first input zz$"):
            general_direct(five_state, five_state, bad)

    @pytest.mark.parametrize(
        "decode, letter",
        [
            ({"u": ("a", "a"), "v": ("a", "zz"), "w": ("a", "zz")}, "v"),
            ({"u": ("a", "zz"), "v": ("a", "a"), "w": ("a", "zz")}, "u"),
        ],
    )
    def test_unknown_decode_target_names_the_first_letter_feeding_it(self, five_state, decode, letter):
        # The letters feeding the unknown input feed one pair; the message names the first of them.
        bad = InputBridge(("u", "v", "w"), decode)
        with pytest.raises(UnknownSymbol, match=f"^letter {letter} at q1 feeds unknown second input zz$"):
            general_direct(five_state, five_state, bad)

    def test_partial_bridge_rejected(self):
        bridge = InputBridge(("u", "v"), {"u": ("a", "a")})
        with pytest.raises(BridgeTotalityError):
            bridge.pair_for("v")
        with pytest.raises(BridgeTotalityError):
            InputBridge(("u",), {"u": "a"}).pair_for("u")


class TestWreath:
    def test_alphabet_size(self):
        rng = random.Random(3)
        m1 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="w1")
        m2 = random_machine(rng, n_states=2, alphabet=("c", "d"), name="w2")
        wr = wreath(m1, m2)
        assert len(wr.alphabet) == len(m1.alphabet) ** 2 * len(m2.alphabet)

    def test_one_state_second_factor_reads_like_a_column_choice(self, five_state):
        one = exact_machine(1, ("x",))
        wr = wreath(five_state, one)
        assert len(wr.alphabet) == 2
        for f, x2 in wr.alphabet:
            chosen = f("s1")
            for q in five_state.space.states:
                entry = wr.entry((q, "s1"), (f, x2))
                base = five_state.entry(q, chosen)
                assert entry.lower.states_set() == pairs(
                    base.lower.states_ordered(), ["s1"]
                )
                assert entry.upper.states_set() == pairs(
                    base.upper.states_ordered(), ["s1"]
                )

    def test_constant_choices_recover_full_product_entries(self):
        rng = random.Random(7)
        m1 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="w1")
        m2 = random_machine(rng, n_states=2, alphabet=("c", "d"), name="w2")
        wr = wreath(m1, m2)
        full = full_direct(m1, m2)
        for x1 in m1.alphabet:
            constant = FunctionSymbol(m2.space.states, (x1,) * 2)
            for q1 in m1.space.states:
                for q2 in m2.space.states:
                    for x2 in m2.alphabet:
                        assert wr.entry((q1, q2), (constant, x2)) == full.entry(
                            (q1, q2), (x1, x2)
                        )

    def test_entries_are_shared_per_factor_entry_pair(self):
        # A product entry depends on (q1, x1, q2, x2) alone, and the wreath
        # meets each of those for |X1|^(|Q2|-1) letters.
        rng = random.Random(31)
        m1 = random_machine(rng, n_states=3, alphabet=("a", "b"), name="w1")
        m2 = random_machine(rng, n_states=3, alphabet=("c", "d", "e"), name="w2")
        wr = wreath(m1, m2)
        bound = len(m1.space.states) * len(m1.alphabet) * len(m2.space.states) * len(m2.alphabet)
        assert len(wr.table) == 9 * 24 > bound == 54
        assert len({id(r) for r in wr.table.values()}) <= bound

        # Parsed factors share equal entries, so products of them share entries across
        # (q1, x1) and (q2, x2): one per pair of factor entry objects read. Building from
        # the unparsed factors writes the same bytes.
        for seed in range(3):
            rng = random.Random(seed)
            m1 = random_machine(rng, n_states=4, alphabet=("a", "b"), name="p1", min_block_size=2)
            m2 = random_machine(rng, n_states=3, alphabet=("a", "b"), name="p2")
            f1, f2 = parse_machine(serialize_machine(m1)), parse_machine(serialize_machine(m2))
            assert len({id(r) for r in f1.table.values()}) < len(f1.table)
            bridge, wiring = random_bridge(rng, f1, f2, 3), random_wiring(rng, f1, f2)
            kinds = {  # kind -> (builder, the factor inputs a letter feeds at q2)
                "full": (lambda a, b: full_direct(a, b), lambda q2, a: a),
                "restricted": (lambda a, b: restricted_direct(a, b), lambda q2, a: (a, a)),
                "general": (lambda a, b: general_direct(a, b, bridge), lambda q2, u: bridge.decode[u]),
                "wreath": (lambda a, b: wreath(a, b), lambda q2, a: (a[0](q2), a[1])),
                "cascade": (lambda a, b: cascade(a, b, wiring), lambda q2, x2: (wiring.omega[q2, x2], x2)),
            }
            for kind, (build, feed) in kinds.items():
                product = build(f1, f2)
                entries = {}  # pair of factor entry objects read -> ids of the product entries it gave
                for (q1, q2), a in iter_product(product.space.states, product.alphabet):
                    x1, x2 = feed(q2, a)
                    pair = id(f1.table[q1, x1]), id(f2.table[q2, x2])
                    entries.setdefault(pair, set()).add(id(product.table[(q1, q2), a]))
                assert all(len(ids) == 1 for ids in entries.values()), (seed, kind)
                assert len({id(r) for r in product.table.values()}) == len(entries), (seed, kind)
                assert serialize_machine(product) == serialize_machine(build(m1, m2)), (seed, kind)

    def test_each_letter_and_table_key_hashes_its_symbol_once(self, monkeypatch):
        m1 = random_machine(random.Random(3), n_states=3, alphabet="ab")
        m2 = random_machine(random.Random(4), n_states=10, alphabet="ab")
        calls = 0
        real = FunctionSymbol.__hash__

        def counting(self):
            nonlocal calls
            calls += 1
            return real(self)

        monkeypatch.setattr(FunctionSymbol, "__hash__", counting)
        wr = wreath(m1, m2)
        assert (len(wr.table), len(wr.alphabet)) == (61_440, 2_048)
        assert calls <= len(wr.table) + len(wr.alphabet)
        monkeypatch.undo()
        assert validate_machine(wr) == []

    def test_function_symbols_enumerate_lexicographically(self):
        symbols = all_function_symbols(("a", "b"), ("s", "t"))
        assert [s.outputs for s in symbols] == [
            ("a", "a"),
            ("a", "b"),
            ("b", "a"),
            ("b", "b"),
        ]

    def test_budget_guard(self, five_state):
        with pytest.raises(BudgetExceeded) as err:
            wreath(five_state, five_state, budget=10)
        assert err.value.size == 2**5 * 2
        assert "wreath alphabet" in str(err.value)


class TestCascade:
    def test_identity_wiring_recovers_the_restricted_product(self, five_state):
        wired = cascade(five_state, five_state, identity_wiring(five_state, five_state))
        assert wired == restricted_direct(five_state, five_state)

    def test_constant_wiring_pins_the_first_factor_column(self, five_state):
        wiring = CascadeWiring(
            {(q2, x): "a" for q2 in five_state.space.states for x in five_state.alphabet}
        )
        wired = cascade(five_state, five_state, wiring)
        for q1 in five_state.space.states:
            for q2 in five_state.space.states:
                for x in five_state.alphabet:
                    got = wired.entry((q1, q2), x)
                    r1 = five_state.entry(q1, "a")
                    r2 = five_state.entry(q2, x)
                    assert got.lower.states_set() == pairs(
                        r1.lower.states_ordered(), r2.lower.states_ordered()
                    )

    def test_alphabet_is_the_second_factors(self, five_state):
        one = exact_machine(1, ("x",))
        wiring = CascadeWiring({("s1", "x"): "a"})
        assert cascade(five_state, one, wiring).alphabet == ("x",)

    def test_partial_wiring_rejected(self, five_state):
        wiring = CascadeWiring({("q1", "a"): "a"})
        with pytest.raises(WiringTotalityError):
            cascade(five_state, five_state, wiring)

    def test_unknown_fed_input_rejected(self, five_state):
        wiring = CascadeWiring(
            {(q2, x): "zz" for q2 in five_state.space.states for x in five_state.alphabet}
        )
        # The second input is the letter itself, so only the first can be unknown.
        with pytest.raises(UnknownSymbol, match="^letter a at q1 feeds unknown first input zz$"):
            cascade(five_state, five_state, wiring)


DOMAIN = ("s", "t")

def exact_table(states, alphabet, target):
    """A machine of singleton blocks whose entry at (q, x) is exactly {target(q, x)}."""
    space = make_partition(states, [[q] for q in states])
    table = {(q, x): approximate(space, [target(q, x)]) for q in states for x in alphabet}
    return make_machine(space, alphabet, table)


class TestWreathWords:
    def test_second_choice_is_read_at_the_successor(self):
        # Pointwise composition of wreath inputs would read both choices
        # at s, that is (a, a), and leave the first factor in u; the
        # wreath reads g at the second factor's successor t.
        m1 = exact_table(("u", "v"), ("a", "b"), lambda q, x: {"a": "u", "b": "v"}[x])
        m2 = exact_table(("s", "t"), ("x",), lambda q, x: {"s": "t", "t": "s"}[q])
        f = g = FunctionSymbol(("s", "t"), ("a", "b"))
        run = word_step(wreath(m1, m2), ("u", "s"), ((f, "x"), (g, "x")))
        assert run.lower.states_set() == run.upper.states_set() == {("v", "s")}
        pointwise = word_step(m1, "u", (f("s"), g("s")))
        assert pointwise.upper.states_set() == {"u"}


class TestFunctionSymbol:
    def test_pointwise_equality(self):
        assert FunctionSymbol(DOMAIN, ("a", "b")) == FunctionSymbol(DOMAIN, ("a", "b"))
        assert FunctionSymbol(DOMAIN, ("a", "b")) != FunctionSymbol(DOMAIN, ("b", "a"))

    def test_equal_symbols_hash_equal(self):
        first, second = FunctionSymbol(DOMAIN, ("a", "b")), FunctionSymbol(tuple(DOMAIN), ("a", "b"))
        assert first is not second and hash(first) == hash(second)
        assert hash(first) == hash((first.domain, first.outputs))
        assert len({first, second, FunctionSymbol(DOMAIN, ("b", "a"))}) == 2
        assert {first: 1}[second] == 1

    def test_call_outside_domain(self):
        f = FunctionSymbol(DOMAIN, ("a", "b"))
        assert f("s") == "a"
        with pytest.raises(UnknownState):
            f("zz")

    def test_text_form(self):
        assert str(FunctionSymbol(DOMAIN, ("a", "b"))) == "f[a,b]"

    def test_arity_checked(self):
        with pytest.raises(ShapeMismatch):
            FunctionSymbol(DOMAIN, ("a",))


class TestValidityClosure:
    def test_every_product_kind_validates_strictly(self):
        # Factor entries are approximations of subsets, and componentwise
        # products of approximations stay approximations, so products of
        # clean machines must come out clean under the strict check too.
        rng = random.Random(21)
        for _ in range(6):
            m1 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="p1")
            m2 = random_machine(rng, n_states=2, alphabet=("a", "b"), name="p2")
            built = [
                full_direct(m1, m2),
                restricted_direct(m1, m2),
                general_direct(m1, m2, random_bridge(rng, m1, m2)),
                wreath(m1, m2),
                cascade(m1, m2, random_wiring(rng, m1, m2)),
            ]
            for machine in built:
                assert validate_machine(machine, strict=True) == []
                assert machine.space == product_partition(m1.space, m2.space)
